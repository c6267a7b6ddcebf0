"""Finite Weyl groups acting on their root systems.

A group element (:class:`Element`) is one read-only int16 row: the
permutation of the root list by which it acts on the left, which a kernel
indexing with it widens to intp once.  A product is one gather, the
inverse one scatter, the length the count of positive roots sent
negative, and descent tests are reads of the row.  Canonical words are
ShortLex-minimal reduced words, derived on demand by stripping the
smallest left descent, one gather per letter, by the one single-row strip
loop, that of the Howlett decomposition (:meth:`CoxeterGroup.howlett_row`);
a stack of rows is stripped by :func:`weylzip.cosets.strip_rows`.
The simple reflections are kept once, as read-only intp row views of the
reflection table (``reflection_rows``), which every single-row gather
reads.  A root system is refused before it is built when its roots
exceed ``ROOT_BOUND``, the most that int16 rows can index.

A standard parabolic subgroup W_S (the whole group when S holds every
simple index) is enumerated once, layer by layer in ShortLex order, as
numpy arrays only (:class:`ShortLex`): the walk that reaches each element
from its parent by one simple reflection, from which canonical words are
read, its length layers, and the left and right descent masks of every
element.  The walk holds the rows of one layer at a time; the int16 root
permutations of all elements, and of their inverses, are rebuilt only when
read, by :meth:`ShortLex.replay`, which carries any value along the walk
from parents to children.  The same walk, kept to the elements with no
right descent in J, gives the minimal coset representatives W_S^J without
enumerating W_S (:meth:`CoxeterGroup.coset_walk`).  Elements are built
only for the rows a caller asks for, as read-only views of them
(:meth:`CoxeterGroup.elements_of_rows`).  The same walk gives the
integer multiplication tables of W_S (:class:`GroupTables`), built on
first use from the walk alone, one length layer at a time: left
multiplication by braid chains in the rank-2 parabolic subgroups, right
multiplication by recursion on the walk, and no row of W_S.  They store
positions at the width |W_S| needs (:func:`position_dtype`).  Every
enumeration and walk is refused before it starts when the number of rows
it builds (|W_S|, or |W_S| / |W_J| for the walk of W_S^J) exceeds
``ENUMERATION_BOUND``.  The root system and the reflection table are
built from int arrays (:meth:`CoxeterGroup._build_roots`).  Root subsets
Phi_S, Phi_S^+ and the positive roots outside Phi_S are read off the
support of the roots by one reduction and cached per subset.  Bruhat order is one lifting loop on root permutations
(:meth:`CoxeterGroup.bruhat_below`), which enumerates nothing.  The
diagram automorphisms are the isomorphisms of the Coxeter matrix onto
itself, found by the one search of :func:`cartan.isomorphisms`.

Roots are integer coordinate vectors in the simple-root basis, listed
positives first; the negative of the root at index r sits at index
r + num_positive (mod 2 * num_positive).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import cartan
from .errors import (
    GroupMismatch,
    IndexOutOfRange,
    InvalidAutomorphism,
    TooLargeToEnumerate,
    TooManyRoots,
)

#: Largest group order for which full element enumeration is allowed.
ENUMERATION_BOUND = 100_000

#: Most roots a root system may have: Element rows are int16, and the
#: largest root index, 2 |Phi^+| - 1, must fit.
ROOT_BOUND = 2 ** 15

#: The dtype of Element rows; np.asarray resolves a dtype object faster
#: than the scalar type.
_INT16 = np.dtype(np.int16)


class Element:
    """One group element: its root permutation, one read-only int16 row of
    length 2 |Phi^+| whose entry r is the index of the image of root r
    under the left action.  Equality and hashing compare the row's bytes;
    ``perm`` is the same row as a tuple, derived on demand."""

    __slots__ = ("group", "row", "_key", "_length", "_word", "_inverse")

    def __init__(self, group: "CoxeterGroup", row: "np.ndarray | Sequence[int]"):
        row = np.asarray(row, dtype=_INT16)
        if row.flags.writeable:  # cheaper than setflags on a read-only view
            row.setflags(write=False)
        self.group = group
        self.row = row
        self._key: bytes | None = None
        self._length: int | None = None
        self._word: tuple[int, ...] | None = None
        self._inverse: "Element | None" = None

    @property
    def perm(self) -> tuple[int, ...]:
        """The root permutation as a tuple of Python ints."""
        return tuple(self.row.tolist())

    # -- group arithmetic --

    def __mul__(self, other: "Element") -> "Element":
        if self.group is not other.group:
            raise GroupMismatch("cannot multiply elements of different groups")
        return Element(self.group, self.row.take(other.row))

    def inverse(self) -> "Element":
        if self._inverse is None:
            w = Element(self.group, self.group.inverse_row(self.row.astype(np.intp)))
            w._inverse = self
            self._inverse = w
        return self._inverse

    def _bytes(self) -> bytes:
        """The bytes of the row, which equality and hashing compare
        (cached)."""
        if self._key is None:
            self._key = self.row.tobytes()
        return self._key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.group is other.group
            and self._bytes() == other._bytes()
        )

    def __hash__(self) -> int:
        return hash(self._bytes())

    # -- root action --

    def act_on_root(self, r: int) -> int:
        """Index of the image of root r under the left action."""
        return self.row.item(r)

    # -- length, words, descents --

    @property
    def length(self) -> int:
        if self._length is None:
            m = self.group.num_positive
            self._length = int(np.count_nonzero(self.row[:m] >= m))
        return self._length

    def is_identity(self) -> bool:
        return self.length == 0

    def canonical_word(self) -> tuple[int, ...]:
        """ShortLex-minimal reduced word, as a tuple of 1-based indices.

        The word is the left part of the Howlett decomposition of w with
        I every simple index and J empty (:meth:`CoxeterGroup.howlett_row`):
        its smallest left descent first, stripped from the inverse row; no
        inverse Element is built."""
        if self._word is None:
            g = self.group
            self._word = tuple(g.howlett_row(self.row.astype(np.intp), g.simple_indices, ())[0])
        return self._word

    @property
    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        word = self.canonical_word()
        return (len(word), word)

    def right_descents(self) -> frozenset[int]:
        g = self.group
        m = g.num_positive
        # the simple root alpha_i sits at index i - 1
        return frozenset(i for i in g.simple_indices if self.row.item(i - 1) >= m)

    def left_descents(self) -> frozenset[int]:
        """s is a left descent of w iff alpha_s is missing from w(Phi^+),
        the first half of the row, read from one mark of that half (no
        inverse is built)."""
        g, m = self.group, self.group.num_positive
        image = np.zeros(2 * m, dtype=bool)
        image.put(self.row[:m], True)
        # the simple root alpha_i sits at index i - 1
        return frozenset(i for i in g.simple_indices if not image.item(i - 1))

    def descents(self, side: str = "left") -> frozenset[int]:
        if side == "left":
            return self.left_descents()
        if side == "right":
            return self.right_descents()
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def has_left_descent(self, i: int) -> bool:
        """s_i is a left descent of w iff the root that w sends to alpha_i
        is negative, found by one search of the row: no inverse is built."""
        g = self.group
        return bool((self.row == g.simple_root_index(i)).argmax() >= g.num_positive)

    def has_right_descent(self, i: int) -> bool:
        g = self.group
        return self.row.item(g.simple_root_index(i)) >= g.num_positive

    def __repr__(self) -> str:
        from .serialize import word_str

        return f"Element({self.group.label}: {word_str(self)})"


class CoxeterAutomorphism:
    """Automorphism of (W, S) given by a Coxeter-matrix preserving
    permutation of the simple reflections."""

    __slots__ = ("group", "images")

    def __init__(self, group: "CoxeterGroup", images: Sequence[int]):
        images = tuple(int(i) for i in images)
        n = group.rank
        if sorted(images) != list(range(1, n + 1)):
            raise InvalidAutomorphism(f"{images} is not a permutation of 1..{n}")
        if group.coxeter_mismatch(dict(enumerate(images, 1)), group.simple_indices) is not None:
            raise InvalidAutomorphism(f"{images} does not preserve the Coxeter matrix")
        self.group = group
        self.images = images

    @classmethod
    def _trusted(cls, group: "CoxeterGroup", images: tuple[int, ...]) -> "CoxeterAutomorphism":
        """An automorphism known to be valid (a product or inverse of valid
        ones, or one already checked), built without re-validation."""
        out = cls.__new__(cls)
        out.group = group
        out.images = images
        return out

    def apply_index(self, i: int) -> int:
        return self.images[i - 1]

    def apply_subset(self, subset: Iterable[int]) -> frozenset[int]:
        return frozenset(self.images[i - 1] for i in subset)

    def _root_permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """The permutation sigma of the root list by which this automorphism
        acts, as an int16 row, and its inverse, as an intp row, cached on the
        group by the images:
        sigma(alpha_i) = alpha_pi(i) and sigma(s_j beta) = s_pi(j) sigma(beta),
        so sigma s_j sigma^-1 = s_pi(j).  It is built from the action on
        reflections, not from the Cartan matrix, which the flips of B2, G2
        and F4 do not preserve: they swap long and short roots."""
        g = self.group
        got = g._automorphism_roots.get(self.images)
        if got is None:
            m, refl = g.num_positive, g.reflections.tolist()
            sigma = [0] * (2 * m)
            for r in range(m):
                if r < g.rank:  # the simple roots
                    sigma[r] = self.images[r] - 1
                    continue
                # Positive roots are listed by height, so some s_j sends the
                # non-simple root r to a positive root of smaller index.
                j = next(j for j in range(g.rank) if refl[j][r] < r)
                sigma[r] = refl[self.images[j] - 1][sigma[refl[j][r]]]
            for r in range(m):
                sigma[r + m] = g.negate_root(sigma[r])
            row = np.array(sigma, dtype=np.intp)
            got = (row.astype(np.int16), g.inverse_row(row))
            for array in got:
                array.flags.writeable = False
            g._automorphism_roots[self.images] = got
        return got

    def apply_element(self, w: Element) -> Element:
        """The image of w, whose root permutation is sigma w sigma^-1: one
        gather, ``sigma[row[inv]]``."""
        if w.group is not self.group:
            raise GroupMismatch("element of a different group")
        sigma, inv = self._root_permutation()
        out = Element(self.group, sigma[w.row[inv]])
        out._length = w._length
        return out

    def __call__(self, arg):
        if isinstance(arg, Element):
            return self.apply_element(arg)
        if isinstance(arg, (set, frozenset)):
            return self.apply_subset(arg)
        return self.apply_index(arg)

    def __mul__(self, other: "CoxeterAutomorphism") -> "CoxeterAutomorphism":
        if self.group is not other.group:
            raise GroupMismatch("automorphisms of different groups")
        return CoxeterAutomorphism._trusted(
            self.group, tuple(self.images[j - 1] for j in other.images)
        )

    def inverse(self) -> "CoxeterAutomorphism":
        n = self.group.rank
        inv = [0] * n
        for i, j in enumerate(self.images):
            inv[j - 1] = i + 1
        return CoxeterAutomorphism._trusted(self.group, tuple(inv))

    def is_identity(self) -> bool:
        return all(self.images[i] == i + 1 for i in range(self.group.rank))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoxeterAutomorphism)
            and self.group is other.group
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"CoxeterAutomorphism{self.images}"


class ShortLex:
    """The walk of a standard parabolic subgroup W_S (or of W_S^J, the
    elements with no right descent in J) in ShortLex order, as arrays
    indexed by position (the identity is 0).

    The walk reaches every w_k after the identity as s * w_parent, with
    s = ``first[k]`` the first letter of its canonical word and parent =
    ``parent[k]`` < k, so that word is (s,) + word(w_parent).
    ``layers[l]:layers[l + 1]`` are the positions of the elements of
    length l, so every parent lies in the layer before its child's.
    ``left[k]`` and ``right[k]`` are the descent masks of w_k (column
    i - 1 True iff s_i is a left, right descent of w_k).  These arrays are
    all the walk keeps, and all are read-only.

    The int16 root permutations of the elements (``perms``) and of their
    inverses (``inverses``) are carried along the walk on first read, by
    :meth:`replay`, and then cached."""

    def __init__(self, group: "CoxeterGroup", first: np.ndarray, parent: np.ndarray,
                 layers: np.ndarray, left: np.ndarray, right: np.ndarray):
        self.group = group
        self.first, self.parent, self.layers = first, parent, layers
        self.left, self.right = left, right
        for array in (first, parent, layers, left, right):
            array.flags.writeable = False

    @cached_property
    def perms(self) -> np.ndarray:
        """The root permutation of each element, one int16 row each: the
        row of s u is the value gather ``reflections[s - 1][u]``."""
        refl16 = self.group.reflections16
        return self.replay(self.group.identity_row, lambda s, u: refl16[s - 1].take(u))

    @cached_property
    def inverses(self) -> np.ndarray:
        """The root permutation of the inverse of each element: the row of
        (s u)^-1 = u^-1 s is the column gather ``u^-1[reflections[s - 1]]``."""
        refl = self.group.reflection_rows
        return self.replay(self.group.identity_row, lambda s, u: u[:, refl[s - 1]])

    def replay(self, start, step) -> np.ndarray:
        """Values carried along the walk, one per position, stacked on a
        new first axis: the identity's is `start`, and the children of each
        run of equal first letter s in a layer get ``step(s, values of their
        parents)``, parents before children.  A layer holds its children of
        each s in one run, s ascending, so each run is one call.  The result
        is read-only."""
        start = np.asarray(start)
        values = np.empty((len(self.first),) + start.shape, dtype=start.dtype)
        values[0] = start
        cut = np.ones(len(self.first) + 1, dtype=bool)
        cut[1:-1] = self.first[1:] != self.first[:-1]
        cut[self.layers] = True
        cuts = np.flatnonzero(cut).tolist()
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            values[lo:hi] = step(self.first.item(lo), values[self.parent[lo:hi]])
        values.flags.writeable = False
        return values

    def words_at(self, positions) -> list[tuple[int, ...]]:
        """The canonical words of the elements at the given positions, as the
        walk spells them: word(w_k) = (first[k],) + word(w_parent[k])."""
        positions = np.asarray(positions, dtype=np.intp)
        # the positions and their ancestors on the walk; parents come first
        need = np.zeros(len(self.first), dtype=bool)
        todo = positions
        while len(todo):
            need[todo] = True
            todo = self.parent[todo]
            todo = todo[~need[todo]]
        ks = np.flatnonzero(need[1:]) + 1
        words: dict[int, tuple[int, ...]] = {0: ()}
        for k, s, p in zip(ks.tolist(), self.first[ks].tolist(), self.parent[ks].tolist()):
            words[k] = (s,) + words[p]
        return [words[k] for k in positions.tolist()]


class GroupTables:
    """Integer tables of a standard parabolic subgroup W_S, indexed by the
    ShortLex positions of its walk (the identity is 0).

    ``lmul[s - 1, k]`` and ``rmul[s - 1, k]`` are the positions of
    ``s * w_k`` and ``w_k * s`` (rows of simple indices outside S hold -1),
    and ``length[k]`` is ``l(w_k)``, read off the walk's length layers.
    Both tables are stored at the width the positions need
    (:func:`position_dtype`): int16 up to |W_S| = 2^15, else int32.

    They are read off the walk, with no root permutation and no
    search: ``lmul`` by :func:`_left_table`, from the walk's pairs and
    braid chains, and then ``w_k s = first[k] (w_parent s)`` gives
    ``rmul``, one gather through ``lmul`` per length layer, parents before
    children.
    """

    def __init__(self, group: "CoxeterGroup", subset: frozenset[int], e: ShortLex):
        self.subset = subset
        self.length = np.repeat(np.arange(len(e.layers) - 1, dtype=np.int16), np.diff(e.layers))
        self.lmul = lmul = _left_table(group, subset, e)
        self.rmul = np.full_like(lmul, -1)
        gens = np.array(sorted(subset), dtype=np.intp) - 1
        self.rmul[gens, 0] = lmul[gens, 0]
        for lo, hi in zip(e.layers[1:-1].tolist(), e.layers[2:].tolist()):
            below = self.rmul[gens[:, None], e.parent[lo:hi]]
            self.rmul[gens, lo:hi] = lmul[e.first[lo:hi] - 1, below]


def position_dtype(n: int) -> np.dtype:
    """The dtype of the tables of a group of order n: the narrowest signed
    integer, at least int16, that holds the positions 0..n-1 and the -1 of
    rows outside S."""
    return np.promote_types(np.min_scalar_type(-n), np.int16)


def _left_table(group: "CoxeterGroup", subset: frozenset[int], e: ShortLex) -> np.ndarray:
    """The table ``lmul`` of W_S from its walk `e`, one length layer at a
    time.

    ``lmul[s - 1]`` is an involution pairing w with s w, and each pair
    fills both of its ends.  The walk already pairs w with its parent when
    s = f = ``first[w]``.  Any other left descent s of w is a second left
    descent next to f, so w = w_0(s, f) v, reduced, with w_0(s, f) the
    longest element of the rank-2 parabolic W_{s,f}, of order 2m for
    m = m(s, f), and v without left descent in {s, f} (Bjorner-Brenti,
    GTM 231, 2.4).  Then parent(w) = f w = (s f s ...) v and s w =
    (f s f ...) v, each with m - 1 letters: s w is the braid chain that
    strips s, f, s, ... from the parent down to v and multiplies back up
    by the next alternating letters, 2(m - 1) left multiplications in all,
    since (f s)^(m - 1) f w = s w.  Every element of the chain is shorter
    than w, so each step is a gather ``lmul[s - 1, x]`` on lower layers,
    already filled.  A layer's pairs (w, s) are taken from its slice of
    the descent masks, one group per value of m, so nothing outlives the
    layer but the table."""
    n = len(e.first)
    lmul = np.full((group.rank, n), -1, dtype=position_dtype(n))
    # m(s, f) by first letter f and column s; m(f, f) = 1 drops the walk's pair
    cox = np.array(group._coxeter, dtype=np.int8)
    ms = {cox[s - 1, t - 1] for s in subset for t in subset if s != t}
    for lo, hi in zip(e.layers[1:-1].tolist(), e.layers[2:].tolist()):
        f, parent = e.first[lo:hi] - 1, e.parent[lo:hi]
        k = np.arange(lo, hi)
        lmul[f, k] = parent
        lmul[f, parent] = k
        m_of = cox[f]
        descents = e.left[lo:hi]
        for m in ms:
            at, s = np.nonzero(descents & (m_of == m))
            w, f_w, x = at + lo, f[at], parent[at]
            for _ in range(m - 1):
                x = lmul[s, x]
                x = lmul[f_w, x]
            lmul[s, w] = x
            lmul[s, x] = w
    return lmul


class CoxeterGroup:
    """A finite Weyl group with its root system.

    Construct through :func:`build_group`; instances are immutable after
    construction apart from internal caches.  Caches (enumerations, Element
    lists, tables, automorphism root permutations) are filled without
    locking.

    Each standard parabolic subgroup W_S is enumerated at most once, by
    :meth:`enumeration`, in ShortLex order of canonical words, as arrays
    only; the whole group is the case S = all simple indices.  Elements are
    built from it only where asked for: :meth:`elements_of_rows` for given
    rows, :meth:`parabolic_elements` for all of them.  :meth:`tables`
    turns the same walk into integer left and right multiplication
    tables.  Every enumeration is refused up front when |W_S| exceeds
    ``ENUMERATION_BOUND``.
    """

    def __init__(self, factors, cartan_matrix_, coxeter_matrix_, label: str):
        self.factors = tuple(factors)
        self.label = label
        self.rank = len(cartan_matrix_)
        self.cartan = tuple(tuple(row) for row in cartan_matrix_)
        self._coxeter = tuple(tuple(row) for row in coxeter_matrix_)
        self.order = cartan.weyl_order(self.factors)
        self.simple_indices = tuple(range(1, self.rank + 1))

        roots = cartan.root_count(self.factors)
        if roots > ROOT_BOUND:
            raise TooManyRoots(
                f"{label} has {roots} roots, above the root bound {ROOT_BOUND} "
                "(coxeter.ROOT_BOUND) of the int16 root-permutation rows"
            )
        self._build_roots()
        self._build_simple_reflections()

        self._enumerations: dict[frozenset[int], ShortLex] = {}
        self._parabolic_cache: dict[frozenset[int], tuple[Element, ...]] = {}
        self._phi: dict[frozenset[int], frozenset[int]] = {}
        self._phi_plus: dict[frozenset[int], frozenset[int]] = {}
        self._outside: dict[frozenset[int], tuple[int, ...]] = {}
        self._orders: dict[frozenset[int], int] = {}
        self._tables: dict[frozenset[int], GroupTables] = {}
        #: Root permutations of the automorphisms by their images.
        self._automorphism_roots: dict[tuple[int, ...], tuple] = {}

    # -- construction of the root system --

    def _build_roots(self) -> None:
        """The roots and the reflection table, from int arrays.

        A positive root beta with <beta, alpha_j^vee> < 0 goes to the higher
        positive root s_j beta = beta - <beta, alpha_j^vee> alpha_j, and every
        positive root but the simple ones is such an image: some j has
        <gamma, alpha_j^vee> > 0, and s_j lowers gamma.  So the positive
        roots grow from the simple ones in rounds, each reflecting the roots
        new in the round before by one product with the Cartan matrix, and
        a dict of their bytes numbers them.  Each image records a pair (beta,
        s_j beta) of the table of s_j; these are all its pairs on Phi^+ but
        alpha_j <-> -alpha_j and the fixed points (pairing 0), and s_j
        (-beta) = -s_j beta gives the rest.  The positive roots are listed
        by height, then by coordinates, with the simple ones first in
        Bourbaki order."""
        n = self.rank
        pairing_matrix = np.array(self.cartan, dtype=np.int64)
        front = np.eye(n, dtype=np.int64)
        found = {bytes(row): i for i, row in enumerate(front)}
        grown, pairs, front_ids = [front], [], np.arange(n)
        while len(front):
            # a broadcast product, not @: no other kernel of a CLI process runs the
            # matmul loops, and paging them in raised its peak RSS
            pairing = (front[:, :, None] * pairing_matrix).sum(axis=1)
            b, j = np.nonzero(pairing < 0)
            images = front[b]
            images[np.arange(len(b)), j] -= pairing[b, j]
            ids, new, start = [], [], len(found)
            for k, key in enumerate(map(bytes, images)):
                got = found.get(key)
                if got is None:
                    got = found[key] = len(found)
                    new.append(k)
                ids.append(got)
            pairs.append((j, front_ids[b], np.array(ids, dtype=np.intp)))
            front, front_ids = images[new], np.arange(start, len(found))
            grown.append(front)
        positive = np.concatenate(grown)
        m = self.num_positive = len(positive)
        if 2 * m != cartan.root_count(self.factors):
            raise RuntimeError(f"the root walk of {self.label} found {m} positive roots, "
                               f"not {cartan.root_count(self.factors) // 2}")
        order = np.lexsort((*positive.T[::-1], positive.sum(axis=1)))
        order[:n] = np.arange(n)  # the simple roots, the roots of height 1
        at = np.empty(m, dtype=np.intp)
        at[order] = np.arange(m)
        positive = positive[order]
        self.roots = tuple(map(tuple, np.concatenate([positive, -positive]).tolist()))
        #: Where each positive root has a nonzero coordinate, read-only.
        self._support = positive != 0
        self._support.flags.writeable = False
        #: Root permutations of the simple reflections as a read-only intp
        #: array: ``reflections[i - 1, r]`` is the index of s_i(root r).
        refl = np.tile(np.arange(2 * m, dtype=np.intp), (n, 1))
        j, src, dst = (np.concatenate(part) for part in zip(*pairs))
        refl[j, at[src]] = at[dst]
        refl[j, at[dst]] = at[src]
        refl[np.arange(n), np.arange(n)] += m  # s_i(alpha_i) = -alpha_i
        refl[:, m:] = (refl[:, :m] + m) % (2 * m)  # s_i(-beta) = -s_i(beta)
        self.reflections = refl
        self.reflections.flags.writeable = False
        #: The rows of that table, ``reflection_rows[i - 1]`` for s_i, built
        #: once as read-only views: every single-row strip, walk and word
        #: gather reads them, and indexing the table would build a view per
        #: letter.
        self.reflection_rows = tuple(refl)
        #: The same table as int16, whose value gathers give int16 rows.
        self.reflections16 = self.reflections.astype(np.int16)
        self.reflections16.flags.writeable = False
        #: The identity root permutation as read-only int16 and intp rows,
        #: shared by every row kernel that starts from it or inverts into it.
        self.identity_row = np.arange(2 * self.num_positive, dtype=np.int16)
        self.identity_index = np.arange(2 * self.num_positive, dtype=np.intp)
        for row in (self.identity_row, self.identity_index):
            row.flags.writeable = False
        # root index -> 1-based simple index when the root is +-alpha_i, else 0
        self._simple_of_root = np.zeros(2 * self.num_positive, dtype=np.intp)
        for i in range(n):
            self._simple_of_root[[i, i + self.num_positive]] = i + 1

    def _build_simple_reflections(self) -> None:
        self.identity = Element(self, self.identity_row)
        self.identity._word = ()
        self.identity._length = 0
        self._simples = {
            i + 1: Element(self, self.reflections[i]) for i in range(self.rank)
        }
        self._identity_automorphism = CoxeterAutomorphism._trusted(
            self, self.simple_indices
        )

    # -- basic queries --

    def simple(self, i: int) -> Element:
        try:
            return self._simples[i]
        except KeyError:
            raise IndexOutOfRange(f"simple index {i} not in 1..{self.rank}") from None

    def coxeter_m(self, i: int, j: int) -> int:
        if not (1 <= i <= self.rank and 1 <= j <= self.rank):
            raise IndexOutOfRange(f"indices ({i},{j}) not in 1..{self.rank}")
        return self._coxeter[i - 1][j - 1]

    def simple_root_index(self, i: int) -> int:
        if not 1 <= i <= self.rank:
            raise IndexOutOfRange(f"simple index {i} not in 1..{self.rank}")
        return i - 1

    def coxeter_mismatch(self, f: Mapping[int, int],
                         domain: Iterable[int]) -> tuple[int, int] | None:
        """The first pair (s, t) of domain x domain, in the domain's own
        order, with m(s, t) != m(f(s), f(t)); None if f preserves the
        Coxeter matrix on the domain."""
        domain = tuple(domain)
        for s in domain:
            for t in domain:
                if self.coxeter_m(s, t) != self.coxeter_m(f[s], f[t]):
                    return s, t
        return None

    def is_positive_root(self, r: int) -> bool:
        return r < self.num_positive

    def negate_root(self, r: int) -> int:
        m = self.num_positive
        return r + m if r < m else r - m

    def simple_index_of_root(self, r: int) -> int | None:
        """1-based simple index i when root r is +-alpha_i, else None."""
        return int(self._simple_of_root[r]) or None

    def psi_table(self, psi: Mapping[int, int]) -> np.ndarray:
        """A map psi of simple indices as an int16 array indexed by simple
        index: psi(i) at each i of its domain, 0 elsewhere (and at 0)."""
        return np.array([psi.get(i, 0) for i in range(self.rank + 1)], dtype=np.int16)

    def partial_map(self, rows: np.ndarray, psi):
        """The partial maps s -> psi(w s w^{-1}) of a stack of root
        permutation rows w, or of one row, psi defined on I and given as a
        table indexed by simple index, 0 off I (as :meth:`psi_table`):
        ``out[..., s - 1]`` is psi(i) when w(alpha_s) = +-alpha_i with i in
        I, and 0 where s has no image.  A stack is one gather into an array;
        one row is read as Python ints into a list of psi's entries."""
        if rows.ndim == 1:
            simple = self._simple_of_root
            return [psi[simple.item(r)] for r in rows[: self.rank].tolist()]
        return psi[self._simple_of_root[rows[..., : self.rank]]]

    def inverse_row(self, row: np.ndarray) -> np.ndarray:
        """The intp root permutation of w^{-1} from that of w, one scatter."""
        inv = np.empty_like(row)
        inv[row] = self.identity_index
        return inv

    def howlett_row(self, row: np.ndarray, I: Sequence[int],
                    J: Sequence[int]) -> tuple[list[int], np.ndarray, list[int]]:
        """The Howlett decomposition w = l x r of the element with intp root
        permutation `row`, for I and J ascending, by the one single-row strip loop.

        Returns (left, x, right): l = s_1 ... s_k for the letters s_i of
        `left`, the intp row of x, and r = t_k ... t_1 for the letters t_i of
        `right`.  The smallest descent goes first.  Left descents in I are
        stripped from the inverse row (built only for I nonempty): s is a
        left descent of w iff w^{-1}(alpha_s) is negative, read as a Python
        int, and (s w)^{-1} = w^{-1} s is one gather through
        ``reflection_rows[s - 1]``.  One scatter turns the row back (none if
        nothing was stripped), and the right descents in J are stripped from
        it alike.  With I every simple index and J empty, `left` is the
        canonical word of w.  Nothing is enumerated."""
        m, refl = self.num_positive, self.reflection_rows
        left, right = [], []
        x, S, letters = self.inverse_row(row) if I else row, I, left
        while True:
            for s in S:
                if x.item(s - 1) >= m:  # the simple root alpha_s sits at index s - 1
                    break
            else:
                if letters is right:
                    return left, x, right
                x, S, letters = self.inverse_row(x) if left else row, J, right
                continue
            letters.append(s)
            x = x[refl[s - 1]]

    def from_word(self, word: Iterable[int]) -> Element:
        out = self.identity
        for i in word:
            out = out * self.simple(i)
        return out

    def phi(self, subset: Iterable[int]) -> frozenset[int]:
        """Indices of all roots supported on the given simple subset, those
        with no nonzero coordinate outside it: one reduction over the
        support of the positive roots, and their negatives (cached per
        subset)."""
        key = frozenset(subset)
        got = self._phi.get(key)
        if got is None:
            outside = np.ones(self.rank, dtype=bool)
            outside[[self.simple_root_index(i) for i in key]] = False
            inside = np.flatnonzero(~self._support[:, outside].any(axis=1))
            got = frozenset(inside.tolist() + (inside + self.num_positive).tolist())
            self._phi[key] = got
        return got

    def phi_plus(self, subset: Iterable[int]) -> frozenset[int]:
        key = frozenset(subset)
        got = self._phi_plus.get(key)
        if got is None:
            got = frozenset(r for r in self.phi(key) if r < self.num_positive)
            self._phi_plus[key] = got
        return got

    def positive_roots_outside(self, subset: Iterable[int]) -> tuple[int, ...]:
        """Indices of the positive roots not in Phi_S^+ (cached per subset)."""
        key = frozenset(subset)
        got = self._outside.get(key)
        if got is None:
            inside = self.phi_plus(key)
            got = tuple(r for r in range(self.num_positive) if r not in inside)
            self._outside[key] = got
        return got

    # -- enumeration --

    def parabolic_order(self, subset: Iterable[int]) -> int:
        """|W_S|, read off the Coxeter type of S (cached per subset)."""
        key = frozenset(subset)
        got = self._orders.get(key)
        if got is None:
            idx = sorted(key)
            sub = [[self.coxeter_m(i, j) for j in idx] for i in idx]
            got = cartan.weyl_order(cartan.classify_coxeter_matrix(sub)[0]) if idx else 1
            self._orders[key] = got
        return got

    def elements(self) -> tuple[Element, ...]:
        """All group elements in ShortLex order of their canonical words."""
        return self.parabolic_elements(self.simple_indices)

    def enumerable_order(self, subset: Iterable[int]) -> int:
        """|W_S|; TooLargeToEnumerate when it exceeds ENUMERATION_BOUND."""
        key = frozenset(subset)
        order = self.parabolic_order(key)
        if order > ENUMERATION_BOUND:
            raise TooLargeToEnumerate(
                f"|W_S| = {order} for S = {sorted(key)} exceeds the "
                f"enumeration bound {ENUMERATION_BOUND} (coxeter.ENUMERATION_BOUND)"
            )
        return order

    def enumeration(self, subset: Iterable[int]) -> ShortLex:
        """The ShortLex enumeration of W_S as arrays (cached).

        Raises TooLargeToEnumerate, before enumerating, when |W_S| exceeds
        ENUMERATION_BOUND."""
        key = frozenset(subset)
        got = self._enumerations.get(key)
        if got is None:
            got = self._shortlex(tuple(sorted(key)), self.enumerable_order(key))
            self._enumerations[key] = got
        return got

    def coset_walk(self, subset: Iterable[int], J: Iterable[int]) -> ShortLex:
        """The ShortLex walk of W_S^J, the elements of W_S with no right
        descent in J (J contained in S).  Not cached; J = () walks all of
        W_S.

        Raises TooLargeToEnumerate, before walking, when the number of rows
        it builds, |W_S| / |W_J|, exceeds ENUMERATION_BOUND."""
        key, J = frozenset(subset), tuple(sorted(set(J)))
        whole, part = self.parabolic_order(key), self.parabolic_order(J)
        if whole // part > ENUMERATION_BOUND:
            raise TooLargeToEnumerate(
                f"|W_S| / |W_J| = {whole} / {part} = {whole // part} for S = {sorted(key)}, "
                f"J = {list(J)} exceeds the enumeration bound {ENUMERATION_BOUND} "
                "(coxeter.ENUMERATION_BOUND)")
        return self._shortlex(tuple(sorted(key)), whole // part, J)

    def elements_of_rows(self, rows: np.ndarray, words) -> tuple[Element, ...]:
        """Elements for a stack of int16 root-permutation rows of this
        group and their canonical words, each a read-only view of its row
        of the stack given its word and length (an empty word gives the
        identity itself)."""
        rows = np.asarray(rows, dtype=np.int16).view()
        rows.setflags(write=False)
        elems = []
        for row, word in zip(rows, words):
            if not word:
                elems.append(self.identity)
                continue
            w = Element(self, row)
            w._word = word
            w._length = len(word)
            elems.append(w)
        return tuple(elems)

    def parabolic_elements(self, subset: Iterable[int]) -> tuple[Element, ...]:
        """All elements of the standard parabolic subgroup W_S in ShortLex
        order, built by :meth:`elements_of_rows` from its enumeration, with
        the words its walk spells, and cached.

        Raises TooLargeToEnumerate, before enumerating, when |W_S| exceeds
        ENUMERATION_BOUND."""
        key = frozenset(subset)
        got = self._parabolic_cache.get(key)
        if got is None:
            e = self.enumeration(key)
            got = self.elements_of_rows(e.perms, e.words_at(np.arange(len(e.perms))))
            self._parabolic_cache[key] = got
        return got

    def parabolic_perms(self, subset: Iterable[int]) -> np.ndarray:
        """Root permutations of the elements of W_S in ShortLex order, one
        read-only int16 row per element: ``row[r]`` is the index of the
        image of root r.  Rebuilt from the walk on first read
        (:attr:`ShortLex.perms`)."""
        return self.enumeration(subset).perms

    def _shortlex(self, gens: tuple[int, ...], order: int, J: tuple[int, ...] = ()) -> ShortLex:
        """The walk of W_gens^J, of the given order, in ShortLex order.

        The canonical word of w is (s,) + word(s w) with s the smallest left
        descent of w.  So layer k + 1 is, in ShortLex order: for s ascending,
        for u in layer k in order, s u whenever s is not a left descent of u
        and no t < s is a left descent of s u.  No set and no sort is needed,
        and (s, position of u) is the walk.  Only one layer of rows is held:
        the inverse rows, since t is a left descent of u iff u^-1 sends
        alpha_t to a negative root, and (s u)^-1 = u^-1 s is the column
        gather ``u^-1[reflections[s - 1]]``; and the simple-root columns of
        the rows, since s u(alpha_i) = s(u(alpha_i)) decides the right
        descents.  The left descent masks are read off the inverse rows,
        the right ones off those columns.

        With J, s u is kept only when it has no right descent in J.  If
        w = u v is reduced, every right descent of v is one of w
        (Bjorner-Brenti, GTM 231, 2.4), so W^J is closed under the suffixes
        s w -> w that the walk steps along, and the walk of W^J reaches all
        of it; J = () is the whole of W_gens.  For u in W^J and s u longer,
        s u(alpha_j) is negative iff u(alpha_j) = alpha_s (s makes no other
        positive root negative), i.e. iff u^-1(alpha_s) = alpha_j (Deodhar's
        lemma): so the test is the same read of u^-1 at alpha_s that asks
        whether s is a left descent of u."""
        m, rank = self.num_positive, self.rank
        refl, refl16 = self.reflections, self.reflections16
        first = np.zeros(order, dtype=np.int16)
        parent = np.zeros(order, dtype=np.int32)
        left = np.zeros((order, rank), dtype=bool)
        right = np.zeros((order, rank), dtype=bool)
        # s u keeps s as its smallest left descent iff u^-1 sends alpha_s and
        # every s alpha_t, t < s, to positive roots: the columns read for s
        tests = {s: [s - 1, *(refl[s - 1, t - 1] for t in gens if t < s)] for s in gens}
        in_J = np.zeros(2 * m, dtype=bool)
        in_J[[j - 1 for j in J]] = True  # alpha_j sits at index j - 1
        # the current layer: its inverse rows and the simple-root columns
        # (indices 0..rank-1) of its rows
        inverses, simple = self.identity_row[None], self.identity_row[None, :rank]
        start, end = 0, 1
        layers = [0]
        while start < end:
            layers.append(end)
            picks = []
            for s in gens:
                keep = (inverses[:, tests[s]] < m).all(axis=1)
                if J:  # and u^-1(alpha_s) is no alpha_j, j in J
                    keep &= ~in_J[inverses[:, s - 1]]
                picks.append(np.flatnonzero(keep))
            top = end + sum(map(len, picks))
            if top == end:
                break
            grown = np.empty((top - end, 2 * m), dtype=np.int16)
            grown_simple = np.empty((top - end, rank), dtype=np.int16)
            at = 0
            for s, rows in zip(gens, picks):
                new = slice(at, at + len(rows))
                grown[new] = inverses[rows][:, refl[s - 1]]
                refl16[s - 1].take(simple[rows], out=grown_simple[new])
                first[end + at:end + new.stop] = s
                parent[end + at:end + new.stop] = start + rows
                at = new.stop
            inverses, simple = grown, grown_simple
            left[end:top] = inverses[:, :rank] >= m
            right[end:top] = simple >= m
            start, end = end, top
        if end != order:
            raise RuntimeError(f"the walk of {self.label} on S = {list(gens)}, J = {list(J)} "
                               f"reached {end} of {order} elements")
        return ShortLex(self, first, parent, np.array(layers, dtype=np.intp), left, right)

    def tables(self, subset: Iterable[int] | None = None) -> GroupTables:
        """Integer multiplication tables of W_S (default: the whole group),
        built from its walk alone, which reads no row, and cached."""
        key = frozenset(self.simple_indices if subset is None else subset)
        got = self._tables.get(key)
        if got is None:
            got = GroupTables(self, key, self.enumeration(key))
            self._tables[key] = got
        return got

    def longest_element(self) -> Element:
        """The longest element w0 (sends all positive roots negative)."""
        m = self.num_positive
        w = self.identity
        while w.length < m:
            i = next(i for i in self.simple_indices if not w.has_right_descent(i))
            w = w * self.simple(i)
        return w

    # -- Bruhat order --

    def bruhat_below(self, rows, word: Sequence[int]) -> np.ndarray:
        """For each root-permutation row x (one row or a stack), whether
        x <= w in Bruhat order, w given by a reduced word.

        The word is stripped from the right.  Its last letter s is a right
        descent of w, and by the lifting property x <= w iff x s <= w s
        when s is a right descent of x, and iff x <= w s otherwise; x s is
        one gather through the reflection table of s.  Once the word is
        used up, x <= e iff x has no descent.  Nothing is enumerated."""
        m = self.num_positive
        x = np.atleast_2d(np.asarray(rows))
        for s in reversed(word):
            down = x[:, s - 1] >= m
            x = np.where(down[:, None], x[:, self.reflection_rows[s - 1]], x)
        return (x[:, : self.rank] < m).all(axis=1)

    def bruhat_leq(self, x: Element, w: Element) -> bool:
        """Bruhat order test x <= w, by :meth:`bruhat_below` on one row."""
        if x.group is not self or w.group is not self:
            raise GroupMismatch("elements of a different group")
        return bool(self.bruhat_below(x.row, w.canonical_word())[0])

    def coxeter_automorphisms(self) -> tuple[CoxeterAutomorphism, ...]:
        """All Coxeter-matrix preserving permutations of the simple set, in
        lexicographic order of their images: the isomorphisms of the Coxeter
        matrix onto itself (:func:`cartan.isomorphisms`)."""
        return tuple(
            CoxeterAutomorphism._trusted(self, tuple(t + 1 for t in iso))
            for iso in cartan.isomorphisms(self._coxeter, self._coxeter)
        )

    def identity_automorphism(self) -> CoxeterAutomorphism:
        return self._identity_automorphism

    def __repr__(self) -> str:
        return f"CoxeterGroup({self.label}, order={self.order})"


@lru_cache(maxsize=None)
def _build_cached(key) -> CoxeterGroup:
    if isinstance(key, str):
        factors, cart, cox = cartan.matrices_for_label(key)
        label = key
    else:
        factors, cart, label = cartan.classify_coxeter_matrix(key)
        cox = [list(row) for row in key]
    return CoxeterGroup(factors, cart, cox, label)


def build_group(spec) -> CoxeterGroup:
    """Build a finite Weyl group from a Cartan type label ("A2", "B3",
    "A1xA1", ...) or an explicit Coxeter matrix of finite Weyl type.

    Repeated calls with equal specs return the same instance.
    """
    if isinstance(spec, str):
        return _build_cached(spec)
    return _build_cached(cartan.validate_coxeter_matrix(spec))
