"""The integer multiplication tables of a standard parabolic subgroup W_S
(:class:`GroupTables`), built from its ShortLex walk alone, one length
layer at a time: left multiplication by braid chains in the rank-2
parabolic subgroups (:func:`_left_table`), right multiplication by
recursion on the walk, and no row of W_S.  They store positions at the
width |W_S| needs (:func:`position_dtype`).  :meth:`CoxeterGroup.tables`
imports this module when it is first called; only the closure order and
the checks read tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .coxeter import CoxeterGroup, ShortLex


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

    def __init__(self, group: CoxeterGroup, subset: frozenset[int], e: ShortLex):
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


def _left_table(group: CoxeterGroup, subset: frozenset[int], e: ShortLex) -> np.ndarray:
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
