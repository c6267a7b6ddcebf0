"""Coxeter-type zip data and their piece combinatorics.

A zip datum is (W, I, J, psi) with psi: I -> J a bijection of simple
subsets preserving Coxeter matrix entries, so that it extends to an
isomorphism W_I -> W_J of Coxeter groups.  The module computes:

* the piece parameter sets (minimal coset representatives on either side,
  from the ShortLex walk of the coset representatives, never all of W_U),
* every piece with its sigma image, K_w, Howlett parts and dimension
  counts in one batched pass over the stacked parameter rows, held as
  columns (:class:`Pieces`) from which the CLI's text is formatted; a
  Piece, and its Elements, is built only when it is read,
* the largest psi*inn(w)-stable subset K_w of each piece,
* the canonical representative of any group element under the twisted
  equivalence relation (so membership of w in a piece is decidable), by
  the induction on numpy root-permutation rows, enumerating nothing,
* sigma by one kernel, a length-preserving walk in the W_I-twisted orbit
  y w psi(y)^{-1}: while w has a right descent j in J it becomes s w s_j
  with psi(s) = s_j, until it lies in W^J (the mirror, on inverse rows,
  for sigma_inverse); one row for sigma, all parameters at once for the
  pieces, and W_I is never enumerated for it,
* the closure order from whole twisted orbits against Bruhat order, each
  orbit one replay of the walk of W_I: point queries here, by the lifting
  loop on the orbit's root permutations; closure sets, the packed relation
  and the poset's covers in :mod:`weylzip.order`, by down-set rows in the
  tables of W_U, and the poset itself (:class:`ClosurePoset`) in
  :mod:`weylzip.poset`, each imported when the first method that reaches
  it starts,
* dimension and infinitesimal-stabilizer counts from root data.

Single-element kernels widen the int16 row of their Element to intp once
and narrow the row they return once, building its Element.

Data may carry a `universe` subset U, in which case everything lives in
the standard parabolic W_U; this is how the induction step to a smaller
datum is realized without rebuilding groups.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import cosets
from .coxeter import CoxeterGroup, Element, word_tuples
from .errors import (
    GroupMismatch,
    NotDoubleCosetRep,
    NotMinimalRep,
    PosetTooLarge,
    PsiNotBijective,
    PsiNotCoxeter,
    SubsetMismatch,
)
from .pieces import Pieces, _positions

if TYPE_CHECKING:
    from .abstract import AbstractZipDatum
    from .poset import ClosurePoset

SIDES = ("iw", "wj")

#: Most parameters whose whole relation may be built: packed (k^2 / 8 bytes)
#: for the covers of a poset with I nonempty, dense (k^2 bytes, 0.9 GB here)
#: for `ClosurePoset.leq`.  E6 with I = {} (k = 51 840) has a poset, no leq.
POSET_BOUND = 30_000

#: Most parameters whose cover edges, when the length-one pairs do not
#: certify them, may come from the float32 product of the strict relation,
#: which holds about 11 k^2 bytes (2.5 GB here).
PRODUCT_BOUND = 15_000


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


class ZipDatum:
    """A validated Coxeter-type zip datum, immutable after construction.

    `psi` maps 1-based simple indices of I to those of J.  Public methods
    are pure; the only caches, internal, are the parameter rows and words,
    the parameter Elements (built by :meth:`param_set` alone) and the orbit
    positions of each side, and canonical_rep, sigma and sigma_inverse
    store nothing.

    Whole W_I-twisted orbits y w psi(y)^{-1} are replayed along the walk
    of W_I (:meth:`ShortLex.replay`): root permutations for precedes
    (:meth:`_orbit_rows`), and ShortLex positions in the tables of W_U for
    closure sets and posets, cached per side (:func:`order.orbit_positions`).
    sigma, sigma_inverse and pieces reach their member of the orbit by one
    kernel, :meth:`_sigma_rows`, a walk of twisted conjugations by simple
    reflections that keeps the length and stops in W^J (in ^I W, on
    inverse rows, for sigma_inverse), after Pink-Wedhorn-Ziegler's
    length-preserving bijection and X. He, Adv. Math. 215 (2007); it
    enumerates nothing of W_I.  :meth:`canonical_rep` carries the data
    induced along its recursion as plain (I, J, twist), building no datum.
    """

    def __init__(self, group: CoxeterGroup, I, J, psi: dict, universe=None):
        self.group = group
        self.I = frozenset(int(i) for i in I)
        self.J = frozenset(int(j) for j in J)
        self.psi = {int(a): int(b) for a, b in psi.items()}
        if universe is None:
            universe = group.simple_indices
        self.universe = frozenset(int(u) for u in universe)
        self._validate()
        self._psi_table = group.psi_table(self.psi)
        #: I and J ascending, as the Howlett stripping reads them
        self._I_sorted, self._J_sorted = tuple(sorted(self.I)), tuple(sorted(self.J))
        self._params: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._param_elements: dict[str, tuple[Element, ...]] = {}
        self._orbits: dict[str, np.ndarray] = {}

    def _validate(self) -> None:
        allowed = self.universe
        for i in self.I | self.J:
            if i not in allowed:
                raise SubsetMismatch(f"index {i} outside the universe {sorted(allowed)}")
        if len(self.I) != len(self.J):
            raise SubsetMismatch(f"|I| = {len(self.I)} but |J| = {len(self.J)}")
        if set(self.psi) != self.I or set(self.psi.values()) != self.J or len(
            set(self.psi.values())
        ) != len(self.psi):
            raise PsiNotBijective("psi must be a bijection I -> J")
        g = self.group
        bad = g.coxeter_mismatch(self.psi, self.I)
        if bad is not None:
            s, t = bad
            raise PsiNotCoxeter(
                f"m({s},{t}) = {g.coxeter_m(s, t)} != "
                f"m(psi {s},psi {t}) = {g.coxeter_m(self.psi[s], self.psi[t])}"
            )

    def __repr__(self) -> str:
        return (
            f"ZipDatum({self.group.label}, I={sorted(self.I)}, J={sorted(self.J)}, "
            f"psi={dict(sorted(self.psi.items()))})"
        )

    # -- psi as a map of parabolic subgroups --

    def w_I(self) -> tuple[Element, ...]:
        return self.group.parabolic_elements(self.I)

    def _orbit_rows(self, X) -> np.ndarray:
        """The twisted orbits of a stack X of int16 root-permutation rows (or
        one row): ``images[y, p, r]`` is the image of root r under
        y X[p] psi(y)^{-1}.  The walk of W_I reaches y as s y', and
        y x psi(y)^{-1} = s (y' x psi(y')^{-1}) psi(s), so each step is a
        column gather by psi(s) and a value gather by s
        (:meth:`ShortLex.replay`); no row of W_I is built."""
        g, psi = self.group, self._psi_table
        refl, refl16 = g.reflections, g.reflections16
        X = np.atleast_2d(np.asarray(X, dtype=np.int16))
        return g.enumeration(self.I).replay(
            X, lambda s, x: refl16[s - 1].take(x[..., refl[psi[s] - 1]]))

    # -- parameter sets and membership --

    @cached_property
    def _outside_roots(self) -> tuple[int, ...]:
        """The positive roots outside Phi_U^+, read on first use."""
        return self.group.positive_roots_outside(self.universe)

    def in_universe(self, w: Element) -> bool:
        """w lies in W_U iff every positive root it sends negative lies in
        Phi_U^+, i.e. it keeps every positive root outside Phi_U^+ positive:
        one read of the row per root of :attr:`_outside_roots`."""
        row, m = w.row, self.group.num_positive
        for r in self._outside_roots:
            if row.item(r) >= m:
                return False
        return True

    def contains_param(self, w: Element, side: str = "iw") -> bool:
        try:
            self._require_param(w, side)
        except NotMinimalRep:
            return False
        return True

    def _require_param(self, w: Element, side: str) -> None:
        _check_side(side)
        self._walk_start(w, side)

    def _walk_start(self, w: Element, side: str) -> np.ndarray:
        """The intp row of w ("iw") or w^{-1} ("wj") where sigma walks, once
        w is found a parameter of the side by |I| reads of w^{-1} or |J| of
        w; :func:`_not_param` if it is not."""
        if not self.in_universe(w):
            raise _not_param(side)
        g, m = self.group, self.group.num_positive
        row = w.row.astype(np.intp)
        inv = g.inverse_row(row)
        read, D = (inv, self._I_sorted) if side == "iw" else (row, self._J_sorted)
        for d in D:
            if read.item(d - 1) >= m:  # alpha_d sits at index d - 1
                raise _not_param(side)
        return row if side == "iw" else inv

    def param_set(self, side: str = "iw") -> tuple[Element, ...]:
        """The piece parameter set: minimal left reps of W_I (side "iw") or
        minimal right reps of W_J (side "wj"), ShortLex ordered, built from
        :meth:`_param_rows` on first call and cached."""
        got = self._param_elements.get(side)
        if got is None:
            rows, letters = self._param_rows(side)
            got = self._param_elements[side] = self.group.elements_of_rows(
                rows, word_tuples(letters))
        return got

    def _param_rows(self, side: str) -> tuple[np.ndarray, np.ndarray]:
        """The read-only int16 rows of the parameters of a side and their
        canonical words, padded with 0 (:func:`cosets.rep_rows`), cached per
        side; with I and J empty both sides are one walk, built once."""
        _check_side(side)
        key = (self.I, ()) if side == "iw" else ((), self.J)
        got = self._params.get(key)
        if got is None:
            got = cosets.rep_rows(self.group, *key, self.universe)
            for array in got:
                array.flags.writeable = False
            self._params[key] = got
        return got

    def _check_poset_size(self, side: str) -> None:
        """PosetTooLarge when the side has more than POSET_BOUND parameters,
        k = |W_U| / |W_I| (|W_J| for "wj"), read off the Coxeter types before
        anything is built; an enumeration refusal on |W_U| comes first."""
        g = self.group
        k = g.enumerable_order(self.universe) // g.parabolic_order(
            self.I if side == "iw" else self.J
        )
        if k > POSET_BOUND:
            raise PosetTooLarge(
                f"the closure poset has k = {k} parameters, above the poset "
                f"bound {POSET_BOUND} (zipdata.POSET_BOUND)"
            )

    # -- induction step --

    def induced_at(self, x: Element) -> "ZipDatum":
        """The induced datum at a minimal double-coset representative x:
        universe J, subsets I_x and J_x = psi(I n xJx^{-1}), twist psi*inn(x),
        read on J as the partial map of x (:meth:`CoxeterGroup.partial_map`)."""
        if not (self.contains_param(x, "iw") and self.contains_param(x, "wj")):
            raise NotDoubleCosetRep("x is not minimal in W_I x W_J")
        images = self.group.partial_map(x.row, self._psi_table)
        psi_x = {t: images[t - 1] for t in self._J_sorted if images[t - 1]}
        return ZipDatum(self.group, psi_x, psi_x.values(), psi_x, universe=self.J)

    # -- the stable subset K_w --

    def stable_subset(self, w: Element) -> frozenset[int]:
        """The largest subset K of the simple indices with w K w^{-1}
        contained in I (as reflections) and psi(w K w^{-1}) = K.

        Since s -> psi(w s w^{-1}) is an injective partial map, the largest
        stable subset is the union of its cycles, found by a decreasing
        fixpoint (:meth:`_stable_subsets`)."""
        self._require_param(w, "iw")
        code, subsets = self._stable_subsets(w.row[None])
        return subsets[code[0]]

    def _stable_subsets(self, rows: np.ndarray) -> tuple[np.ndarray, tuple[frozenset[int], ...]]:
        """K_w for each row w of a stack, as codes into the distinct subsets:
        the decreasing fixpoint K -> {s in K : f(s) in K} of the partial maps
        f of all rows at once, from the domain of f within the universe."""
        S = self.group.simple_indices
        f = self.group.partial_map(rows, self._psi_table)
        outside = [s - 1 for s in S if s not in self.universe]
        f[:, outside] = 0
        K = f > 0
        while True:
            # f - 1 is -1 off the domain, where K is False already
            K2 = K & np.take_along_axis(K, f.astype(np.intp) - 1, axis=1)
            if np.array_equal(K2, K):
                break
            K = K2
        # one frozenset per distinct row of K, its bits packed into bytes
        packed = np.packbits(K, axis=1, bitorder="little")
        distinct, code = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                   return_inverse=True)
        masks = [int.from_bytes(key, "little") for key in distinct.tolist()]
        return code, tuple(frozenset(s for s in S if c >> (s - 1) & 1) for c in masks)

    # -- canonical representatives --

    def canonical_rep(self, w: Element) -> Element:
        """The unique parameter-set element equivalent to w.

        Algorithm: write w = w_I * x * w_J (Howlett), replace it by the
        equivalent x * w_J * psi(w_I), and recurse in the datum induced at
        x (:meth:`induced_at`), whose universe J is strictly smaller unless I
        equals the whole universe (then the class is everything and e is
        returned).

        The recursion runs on intp root-permutation rows, one call of
        :meth:`CoxeterGroup.howlett_row` per level; w_J * psi(w_I) is one
        reflection gather per letter, and the product of the x parts one
        gather per level.  A level is plain data: I and J ascending, the
        size of the universe (I equals it iff it has its size, as I lies in
        it) and the twist as a table indexed by simple index; the next
        twist is the partial map of x on J.  A level that strips nothing
        from its element has x equal to it and passes on w_J psi(w_I) = e,
        so every later level has x = e: the recursion stops there, exactly.
        Only the result becomes an Element; nothing is enumerated, and no
        datum is built."""
        if not self.in_universe(w):
            raise GroupMismatch("element lies outside the universe")
        g = self.group
        refl = g.reflection_rows
        I, J, size = self._I_sorted, self._J_sorted, len(self.universe)
        rep, v, twist = None, w.row.astype(np.intp), self._psi_table.tolist()
        while len(I) != size:
            left, x, right = g.howlett_row(v, I, J)
            rep = x if rep is None else rep[x]
            if not left and not right:
                break
            v = g.identity_index
            for t in reversed(right):
                v = v[refl[t - 1]]
            for s in left:
                v = v[refl[twist[s] - 1]]
            images = g.partial_map(x, twist)
            twist = [images[t - 1] if t in J else 0 for t in range(len(twist))]
            size, I = len(J), tuple(t for t in J if twist[t])
            J = tuple(sorted(twist[t] for t in I))
        return g.identity if rep is None else Element(g, rep)

    # -- sigma --

    def sigma(self, w: Element) -> Element:
        """The image of w under the unique bijection from the "iw" to the
        "wj" parameter set of the form y w psi(y)^{-1}, y in W_I: the
        member of the twisted orbit of w with no right descent in J, reached
        by the walk of :meth:`_sigma_rows`."""
        return Element(self.group, self._sigma_rows("iw", self._walk_start(w, "iw")))

    def sigma_inverse(self, wj: Element) -> Element:
        """Inverse of sigma: the unique w with sigma(w) = wj.

        The mirror of :meth:`sigma`: the member w of the twisted orbit of
        wj with no left descent in I, walked on the inverse rows, on which
        a left descent of w is a right descent."""
        g = self.group
        return Element(g, g.inverse_row(self._sigma_rows("wj", self._walk_start(wj, "wj"))))

    @cached_property
    def _sigma_cap(self) -> int:
        """|Phi_I^+|, the most steps a walk of :meth:`_sigma_rows` may take."""
        return len(self.group.phi_plus(self.I))

    @cached_property
    def _psi_preimage(self) -> dict[int, int]:
        return {j: i for i, j in self.psi.items()}

    def _sigma_rows(self, side: str, X: np.ndarray) -> np.ndarray:
        """sigma of one int16 row, or of each row of a stack, by a walk in
        its twisted orbit ("iw"): while x has a right descent j in J (the
        smallest first), x becomes s x s_j with psi(s) = s_j.  Each step
        keeps the length, since l(x) is least in its orbit.  "wj" walks the
        inverse rows by the mirror: while the row has a right descent i in
        I, it becomes psi(s_i) row s_i.  That the walk ends, at the one
        element of W^J (^I W) in the orbit, is checked by tests, not proved
        here (leads: X. He, Adv. Math. 215 (2007); the bijection of
        Pink-Wedhorn-Ziegler); a walk past |Phi_I^+| steps raises
        RuntimeError.  One row is walked by ``row.item`` reads and one
        product per step, a stack in rounds of one column gather and one
        value gather per letter on the rows still moving."""
        g, m, refl = self.group, self.group.num_positive, self.group.reflection_rows
        D, twist = (self._J_sorted, self._psi_preimage) if side == "iw" else (self._I_sorted, self.psi)
        cap = self._sigma_cap
        if X.ndim == 1:
            row = X
            for _ in range(cap + 1):
                for d in D:
                    if row.item(d - 1) >= m:  # alpha_d sits at index d - 1
                        break
                else:
                    return row
                row = refl[twist[d] - 1][row[refl[d - 1]]]
        else:
            X = np.array(X, dtype=np.int16)
            cols = np.array(D, dtype=np.intp) - 1
            active = np.arange(len(X))
            for _ in range(cap + 1):
                descents = X[active[:, None], cols] >= m
                moving = descents.any(axis=1)
                active = active[moving]
                if not len(active):
                    return X
                first = descents[moving].argmax(axis=1)
                for c, d in enumerate(D):
                    rows = active[first == c]
                    if len(rows):
                        X[rows] = g.simple(twist[d]).row.take(X[rows].take(refl[d - 1], axis=1))
        raise RuntimeError(f"the sigma walk of {self!r} ({side}) took more than "
                           f"|Phi_I^+| = {cap} steps")

    # -- closure order --

    def precedes(self, wp: Element, w: Element, side: str = "iw") -> bool:
        """The closure partial order: wp precedes w iff some y in W_I has
        y wp psi(y)^{-1} below w in Bruhat order.

        The twisted orbit of wp is replayed along the walk of W_I
        (:meth:`_orbit_rows`) and goes through the Bruhat kernel as one
        stack; no tables of W_U and no row of W_I are built."""
        _check_side(side)
        self._require_param(wp, side)
        self._require_param(w, side)
        orbit = self._orbit_rows(wp.row)
        return bool(self.group.bruhat_below(orbit[:, 0], w.canonical_word()).any())

    # The closure order lives in weylzip.order, imported when one of these
    # starts, before any walk or table is built.

    def closure_set(self, w: Element, side: str = "iw") -> tuple[Element, ...]:
        """All parameter-set elements preceding w, ShortLex ordered."""
        from . import order
        return order.closure_set(self, w, side)

    def hasse_poset(self, side: str = "iw", central_rank: int = 0) -> ClosurePoset:
        """The full closure poset on the chosen parameter set, with cover
        edges (transitive reduction) and per-node piece data
        (:func:`order.hasse_poset`)."""
        from . import order
        return order.hasse_poset(self, side, central_rank)

    # -- numeric reports --

    def dim_levi_deficit(self) -> int:
        """#Phi^+ - #Phi_J^+ within the universe (the unipotent-radical
        dimension on the J side)."""
        g = self.group
        return len(g.phi_plus(self.universe)) - len(g.phi_plus(self.J))

    def dim_parabolic(self, central_rank: int = 0) -> int:
        g = self.group
        return (
            len(self.universe)
            + central_rank
            + len(g.phi_plus(self.universe))
            + len(g.phi_plus(self.I))
        )

    def dim_group(self, central_rank: int = 0) -> int:
        g = self.group
        return len(self.universe) + central_rank + 2 * len(g.phi_plus(self.universe))

    def piece_dimension(self, w: Element, central_rank: int = 0) -> int:
        """dim P + l(w): torus rank (plus a user-supplied central rank),
        Borel unipotent, Levi negatives, and the length of the piece."""
        self._require_param(w, "iw")
        return self.dim_parabolic(central_rank) + w.length

    def inf_stab_dim(self, w: Element) -> int:
        """dim V - l(x) with x the double-coset part of w: the dimension of
        the infinitesimal stabilizer in the vanishing-differential case."""
        self._require_param(w, "iw")
        hd = cosets.howlett_decompose(self.group, self.I, self.J, w)
        dim_v, length = self.dim_levi_deficit(), hd.middle.length
        if length > dim_v:
            raise RuntimeError(f"{self!r}: the x part of {w!r} has length {length} > "
                               f"dim V = {dim_v}")
        return dim_v - length

    def pieces(self, side: str = "iw", central_rank: int = 0) -> Pieces:
        """One piece per parameter, ordered ShortLex by the chosen side's
        label, as columns (:class:`Pieces`).  In orbitally-finite data each
        piece is a single orbit and this doubles as the orbit-representative
        list.

        One batched pass over the stacked rows X of the "iw" parameters:
        sigma of all rows by :meth:`_sigma_rows`, K_w from the partial maps
        of all rows, and the Howlett parts by stripping the right descents
        in J from all rows at once (a parameter has no left descent in I,
        so its left part is e).  The x parts are looked up by row among the
        "iw" parameters, the sigma images among the "wj" ones when first
        read (on the "wj" side at once, as they order it, and only once: the
        ordered Pieces keep those positions), and the right parts kept as the
        letters stripped; no Piece and no Element is built until one is
        read."""
        _check_side(side)
        g = self.group
        X, letters = self._param_rows("iw")
        right, x = cosets.strip_rows(g, X, self.J)
        x_at = _positions(X, x, g.rank)
        code, subsets = self._stable_subsets(X)
        length = np.count_nonzero(letters, axis=1)
        pieces = Pieces(
            self, subsets,
            rep_at=np.arange(len(X)),
            sigma=self._sigma_rows("iw", X)[:, :g.rank].copy(),
            x_at=x_at,
            right=right,
            stable_code=code,
            length=length,
            dimension=self.dim_parabolic(central_rank) + length,
            inf_stab_dim=self.dim_levi_deficit() - length[x_at],
        )
        return pieces if side == "iw" else pieces._take(np.argsort(pieces._dual_at))

    # -- bridge to the abstract-group machinery --

    def abstract_datum(self) -> AbstractZipDatum:
        """This datum as an abstract zip datum on the permutation group
        generated by the universe's simple reflections."""
        from .abstract import AbstractZipDatum, FiniteGroup

        g = self.group
        simple = [tuple(row) for row in g.reflections.tolist()]
        gamma = FiniteGroup.from_elements(
            2 * g.num_positive,
            map(tuple, g.parabolic_perms(self.universe).tolist()),
            generators=[simple[i - 1] for i in sorted(self.universe)],
        )
        return AbstractZipDatum.from_generators(
            gamma, [simple[i - 1] for i in self._I_sorted],
            [simple[self.psi[i] - 1] for i in self._I_sorted],
        )


def _not_param(side: str) -> NotMinimalRep:
    kind = "minimal left-coset" if side == "iw" else "minimal right-coset"
    return NotMinimalRep(f"element is not a {kind} representative in the universe")
