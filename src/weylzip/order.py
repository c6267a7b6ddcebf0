"""The closure order of a zip datum on ShortLex positions in the tables of
W_U: twisted orbits (:func:`orbit_positions`) and their owners, closure
sets and the packed relation (:func:`down_sets`), and the Hasse poset,
whose covers are the pairs one length apart (:func:`length_one_pairs`),
certified by their transitive closure unless I is empty
(:func:`_cover_edges`); the poset class lives in :mod:`weylzip.poset`.

:meth:`ZipDatum.closure_set` and :meth:`ZipDatum.hasse_poset` import this
module when they start, before any walk or table is built; point queries
(:meth:`ZipDatum.precedes`) stay in :mod:`weylzip.zipdata`, and
``zipdata.POSET_BOUND`` and ``zipdata.PRODUCT_BOUND`` are read there at
each call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import zipdata
from .coxeter import Element, word_tuples
from .errors import PosetTooLarge
from .tables import GroupTables

if TYPE_CHECKING:
    from .poset import ClosurePoset
    from .zipdata import ZipDatum


def closure_set(z: ZipDatum, w: Element, side: str) -> tuple[Element, ...]:
    """All parameter-set elements preceding w, ShortLex ordered."""
    z._require_param(w, side)
    hits = np.flatnonzero(relation_matrix(z, side, [w.canonical_word()])[:, 0])
    rows, letters = z._param_rows(side)
    return z.group.elements_of_rows(rows[hits], word_tuples(letters[hits]))


def relation_matrix(z: ZipDatum, side: str, words=None) -> np.ndarray:
    """R[a, b] = (params[a] precedes the target of canonical word
    words[b]), column-major: the rows of :func:`down_sets`, unpacked."""
    down = down_sets(z, side, words)
    return np.unpackbits(down, axis=1, count=len(z._param_rows(side)[0])).view(bool).T


def down_sets(z: ZipDatum, side: str, words=None) -> np.ndarray:
    """Row b packs (as ``np.packbits``) the a with params[a] preceding
    the parameter of the same side with canonical word words[b]
    (default: every parameter's, refused above POSET_BOUND).  Works on
    ShortLex positions in the tables of W_U, orbits included
    (:func:`orbit_positions`): bit a reads "some y params[a] psi(y)^{-1}
    lies in the Bruhat down-set of target b" from one boolean row over
    W_U per target, |targets| * |W_U| work; no Element is built."""
    if words is None:
        z._check_poset_size(side)
    orbit = orbit_positions(z, side)
    if words is None:
        words = word_tuples(z._param_rows(side)[1])
    packed = np.empty((len(words), (orbit.shape[1] + 7) // 8), dtype=np.uint8)
    for b, down in _down_rows(z.group.tables(z.universe), words, side == "iw"):
        packed[b] = np.packbits(down[orbit].any(axis=0))
    return packed


def orbit_positions(z: ZipDatum, side: str) -> np.ndarray:
    """ShortLex positions in W_U of y p psi(y)^{-1}, one row per y in W_I
    and one column per parameter p of the side, cached per side.  The
    parameters are the positions in W_U with no left descent in I
    ("iw") or no right descent in J ("wj"), and the walk of W_I reaches
    y as s y', so y p psi(y)^{-1} = s (y' p psi(y')^{-1}) psi(s): two
    table gathers per step of :meth:`ShortLex.replay`, and no root
    permutation.  Kept as intp, so no gather that reads them casts."""
    got = z._orbits.get(side)
    if got is None:
        g, U = z.group, z.universe
        t, e = g.tables(U), g.enumeration(U)
        D, marks = (z._I_sorted, e.left) if side == "iw" else (z._J_sorted, e.right)
        descents = marks[:, [d - 1 for d in D]]
        params = np.flatnonzero(~descents.any(axis=1))
        psi = z._psi_table
        got = g.enumeration(z.I).replay(
            params,
            lambda s, x: t.rmul[psi[s] - 1].take(t.lmul[s - 1].take(x)))
        z._orbits[side] = got
    return got


def owners(z: ZipDatum, side: str) -> np.ndarray:
    """The owner of each W_U position, the parameter whose orbit
    (:func:`orbit_positions`) holds it, or -1.  The orbits are disjoint,
    or two parameters would share a sigma: RuntimeError if two meet."""
    orbit = orbit_positions(z, side)
    owner = np.full(len(z.group.enumeration(z.universe).parent), -1, dtype=np.int32)
    owner[orbit] = np.arange(orbit.shape[1], dtype=np.int32)
    if not (owner[orbit] == np.arange(orbit.shape[1])).all():
        raise RuntimeError(f"two twisted orbits of {z!r} ({side}) meet")
    return owner


def length_one_pairs(z: ZipDatum, side: str) -> tuple[np.ndarray, np.ndarray]:
    """D1, row-major: the pairs (a, b) of parameter indices with
    l(a) = l(b) - 1 whose orbit of a meets a lower cover of w_b.

    These are exactly the related pairs one length apart: an orbit
    element of a has length at least l(a) and lies in no other orbit, so
    below w_b it is a lower cover of w_b.  Deleting one letter of the
    canonical word of w_b spells every lower cover (Bjorner-Brenti,
    GTM 231, ch. 2): with w_b = s_0 ... s_{L-1}, deleting s_j leaves
    s_0 ... s_{j-1} times a suffix on the ShortLex walk, one ``lmul``
    gather per letter for all (b, j) at once, owned by :func:`owners`."""
    g = z.group
    t, e = g.tables(z.universe), g.enumeration(z.universe)
    params = orbit_positions(z, side)[0]
    k = len(params)
    owner = owners(z, side)
    length = t.length[params]
    top = int(length[-1])
    # suffix[:, j] is w_b with its first j letters removed, and letter j of
    # w_b is first[suffix[:, j]]; past the word's end both are read at the
    # identity, whose first[0] - 1 = -1 marks no letter
    suffix = np.empty((k, top + 1), dtype=np.int32)
    suffix[:, 0] = params
    for j in range(top):
        suffix[:, j + 1] = e.parent[suffix[:, j]]
    letter = e.first[suffix[:, :top]] - 1
    # deleted[:, j] is w_b with letter j deleted (w_b itself past the end)
    deleted = suffix[:, 1:].copy()
    for m in range(1, top):
        s, x = letter[:, :top - m], deleted[:, m:]
        deleted[:, m:] = np.where(s >= 0, t.lmul[s, x], x)
    a = owner[deleted]
    hit = (a >= 0) & (length[a] == length[:, None] - 1)
    pair = np.sort(a[hit].astype(np.int64) * k + np.nonzero(hit)[0])
    pair = pair[np.flatnonzero(np.diff(pair, prepend=-1))]
    return pair // k, pair % k


def hasse_poset(z: ZipDatum, side: str, central_rank: int) -> ClosurePoset:
    """The full closure poset on the chosen parameter set, with cover
    edges (transitive reduction) and per-node piece data.

    The covers are the pairs D1 of :func:`length_one_pairs`.  For I = {}
    each orbit is one element and the order is Bruhat order, graded by
    length, whose lower covers of w are the one-letter deletions of a
    reduced word of w of length l(w) - 1 (Bjorner-Brenti, GTM 231,
    section 2.2): D1 is the cover set, and no relation is built.
    Otherwise :func:`_cover_edges` certifies D1 against the packed
    relation (:func:`down_sets`, refused above POSET_BOUND before
    anything is built).  The nodes are :meth:`ZipDatum.pieces` and the
    covers two index arrays, so no Piece and no Element is built."""
    from .poset import ClosurePoset

    zipdata._check_side(side)
    down = down_sets(z, side) if z.I else None
    a, b = length_one_pairs(z, side)
    nodes = z.pieces(side=side, central_rank=central_rank)
    if down is not None:
        a, b = _cover_edges(down, a, b, nodes.length, f"{z!r} ({side})")
    return ClosurePoset(z, side, nodes, a, b)


def _cover_edges(down: np.ndarray, a: np.ndarray, b: np.ndarray, length: np.ndarray,
                 where: str) -> tuple[np.ndarray, np.ndarray]:
    """The cover edges, row-major, of the order whose row y of `down` packs
    the x <= y (as :func:`down_sets`), as the arrays of their lower and
    upper ends.

    (a, b) are pairs of the order one length apart, row-major, and `length`
    holds the nondecreasing node lengths.  The order strictly raises length,
    so each pair is a cover; if the reflexive transitive closure of the
    pairs is the order, they are all of the covers.  The closure is checked
    one length layer at a time from the bottom against `down`, packed alike
    and OR-ed as uint64 words: the down-set of a node is itself and those
    of the lower ends of its pairs, in the layer just below.  If the check
    fails, the covers come from :func:`_product_covers` on the unpacked
    order, refused (PosetTooLarge) above PRODUCT_BOUND nodes."""
    k = len(length)
    bounds = np.searchsorted(length, np.arange(int(length[-1]) + 2))
    by_upper = np.argsort(b, kind="stable")
    lower, upper = a[by_upper], b[by_upper]
    below, base = None, 0
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        nodes = np.arange(lo, hi)
        cols = np.zeros((hi - lo, (k + 63) // 64), dtype=np.uint64)
        packed = cols.view(np.uint8)
        packed[nodes - lo, nodes >> 3] = 0x80 >> (nodes & 7)
        i, j = np.searchsorted(upper, (lo, hi)).tolist()
        if i < j:
            starts = np.flatnonzero(np.diff(upper[i:j], prepend=-1))
            cols[upper[i:j][starts] - lo] |= np.bitwise_or.reduceat(
                below[lower[i:j] - base], starts)
        if not np.array_equal(packed[:, :down.shape[1]], down[lo:hi]):
            break
        below, base = cols, lo
    else:
        return a, b
    bound = zipdata.PRODUCT_BOUND
    if k > bound:
        raise PosetTooLarge(
            f"the length-one pairs of {where} do not close to its order, and "
            f"its k = {k} parameters are above the product bound {bound} "
            "(zipdata.PRODUCT_BOUND)"
        )
    return _product_covers(np.unpackbits(down, axis=1, count=k).view(bool).T)


def _product_covers(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cover edges of rel, row-major, as the arrays of their lower and
    upper ends, from the nodes strictly between each pair, counted by a
    float32 (BLAS) product: every partial sum is an integer at most
    k < 2**24, so the counts are exact and cannot wrap."""
    strict = rel & ~np.eye(len(rel), dtype=bool)
    between = strict.astype(np.float32)
    covers = strict & ((between @ between) == 0)
    return np.nonzero(covers)


def _down_rows(t: GroupTables, words, right: bool):
    """Yield (b, row) with row[x] = (x <= the element of canonical word
    words[b]) over the ShortLex positions of the tables.

    A reduced word grows one letter at a time: D(v s) = D(v) | D(v) s with
    ``right`` (prefixes, the iw parameters' closed direction), else
    D(s v) = D(v) | s D(v) (suffixes, closed for wj).  Words sharing a
    prefix (suffix) share its rows in a depth-first walk of their trie,
    which holds at most rank rows per letter of the longest word."""
    mul = t.rmul if right else t.lmul
    children: dict[tuple[int, ...], set[int]] = {}
    ends: dict[tuple[int, ...], list[int]] = {}
    for b, word in enumerate(words):
        path = tuple(word) if right else tuple(reversed(word))
        ends.setdefault(path, []).append(b)
        for j in range(len(path)):
            children.setdefault(path[:j], set()).add(path[j])
    root = np.zeros(mul.shape[1], dtype=bool)
    root[0] = True
    stack = [((), root)]
    while stack:
        path, row = stack.pop()
        for b in ends.get(path, ()):
            yield b, row
        for s in children.get(path, ()):
            stack.append((path + (s,), row | row[mul[s - 1]]))
