"""Minimal coset and double-coset representatives, the Kilmoyer subset
and the Howlett decomposition.

All representative sets are returned in ShortLex order of canonical
words, filtered from the enumeration of W_U by its descent masks.  An
optional `universe` restricts every computation to the standard parabolic
subgroup W_U; subsets must then be contained in U.

The Howlett decomposition strips descents from one numpy int16 row of
root permutations (:func:`howlett_rows`), one gather per letter, and
enumerates nothing, so it runs in groups of any size.  The Element-product
stripping lives on only as :func:`weylzip.oracles.howlett_oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coxeter import CoxeterGroup, Element
from .errors import NotDoubleCosetRep, NotMinimalRep


def _universe(group: CoxeterGroup, universe) -> frozenset[int]:
    if universe is None:
        return frozenset(group.simple_indices)
    return frozenset(universe)


def in_min_left(w: Element, I) -> bool:
    """True iff w has minimal length in W_I w, i.e. no left descent in I.

    s is a left descent of w iff the root that w sends to alpha_s is
    negative, read off the row with ``perm.index``, so no inverse is built."""
    g = w.group
    m = g.num_positive
    return all(w.perm.index(g.simple_root_index(i)) < m for i in I)


def in_min_right(w: Element, J) -> bool:
    """True iff w has minimal length in w W_J, i.e. no right descent in J."""
    return not any(w.has_right_descent(j) for j in J)


def descent_free_positions(group: CoxeterGroup, I, J, universe=None) -> np.ndarray:
    """ShortLex positions, in the enumeration of W_U, of the elements with
    no left descent in I and no right descent in J, read off its descent
    masks."""
    left, right = group.descent_masks(_universe(group, universe))
    bad = left[:, [group.simple_root_index(i) for i in sorted(set(I))]].any(axis=1)
    bad |= right[:, [group.simple_root_index(j) for j in sorted(set(J))]].any(axis=1)
    return np.flatnonzero(~bad)


def _without_descents(group: CoxeterGroup, I, J, universe) -> tuple[Element, ...]:
    """The elements at :func:`descent_free_positions`; Elements are built
    for those positions only."""
    positions = descent_free_positions(group, I, J, universe)
    return group.elements_at(_universe(group, universe), positions)


def min_left_coset_reps(group: CoxeterGroup, I, universe=None) -> tuple[Element, ...]:
    """The set of minimal-length representatives of the cosets W_I w."""
    return _without_descents(group, I, (), universe)


def min_right_coset_reps(group: CoxeterGroup, J, universe=None) -> tuple[Element, ...]:
    """The set of minimal-length representatives of the cosets w W_J;
    equivalently the w with w(Phi_J^+) positive."""
    return _without_descents(group, (), J, universe)


def min_double_coset_reps(group: CoxeterGroup, I, J, universe=None) -> tuple[Element, ...]:
    """Minimal-length representatives of the double cosets W_I w W_J
    (the intersection of the two one-sided sets)."""
    return _without_descents(group, I, J, universe)


def kilmoyer_subset(group: CoxeterGroup, I, J, x: Element) -> frozenset[int]:
    """The subset I_x = J n x^{-1} I x of simple indices, i.e. all t in J
    with x s_t x^{-1} a simple reflection in I.  By Kilmoyer's theorem
    W_{I_x} = W_J n x^{-1} W_I x (asserted by tests, not here)."""
    if not (in_min_left(x, I) and in_min_right(x, J)):
        raise NotDoubleCosetRep("x is not a minimal double-coset representative")
    return frozenset(group.partial_map(x.perm, J, {i: i for i in I}))


@dataclass(frozen=True)
class HowlettDecomposition:
    """The unique factorization w = left * middle * right with
    left in W_I, middle in the double-coset minima, right minimal in
    W_{I_middle} right-cosets; lengths are additive."""

    left: Element
    middle: Element
    right: Element

    def element(self) -> Element:
        return self.left * self.middle * self.right


def howlett_decompose(group: CoxeterGroup, I, J, w: Element) -> HowlettDecomposition:
    """Decompose w = w_I * x * w_J by :func:`howlett_rows`."""
    left, x, right = howlett_rows(group, I, J, np.array(w.perm, dtype=np.int16))
    return HowlettDecomposition(
        _element(group, word_row(group, left)),
        _element(group, x),
        _element(group, word_row(group, right[::-1])),
    )


def howlett_rows(group: CoxeterGroup, I, J, row: np.ndarray):
    """The Howlett decomposition w = l * x * r on int16 root-permutation rows.

    Returns (left, x, right): l = s_1 ... s_k for the letters s_i of `left`,
    the row of x, and r = t_k ... t_1 for the letters t_i of `right`.
    Left descents in I are stripped first, on the inverse row: s is a left
    descent of w iff w^{-1}(alpha_s) is negative, and (s w)^{-1} = w^{-1} s
    is one gather.  Then right descents in J are stripped on the row itself.
    Nothing is enumerated."""
    left, inv = _strip(_inverse(row), sorted(I), group)
    x = _inverse(inv) if left else row
    right, x = _strip(x, sorted(J), group)
    return left, x, right


def _strip(row: np.ndarray, S, group: CoxeterGroup) -> tuple[list[int], np.ndarray]:
    """Strip right descents in S (ascending) from the element with root
    permutation `row`, smallest first: w has right descent s iff
    w(alpha_s) is negative, and w s is ``row[reflections[s - 1]]``."""
    m = group.num_positive
    letters = []
    while True:
        for s in S:
            if row[s - 1] >= m:  # the simple root alpha_s sits at index s - 1
                break
        else:
            return letters, row
        letters.append(s)
        row = row[group.reflections[s - 1]]


def _inverse(row: np.ndarray) -> np.ndarray:
    inv = np.empty_like(row)
    inv[row] = np.arange(len(row), dtype=row.dtype)
    return inv


def word_row(group: CoxeterGroup, word) -> np.ndarray:
    """Int16 root-permutation row of the product of the simple reflections
    in `word`, one gather per letter."""
    row = np.arange(2 * group.num_positive, dtype=np.int16)
    for s in word:
        row = row[group.reflections[s - 1]]
    return row


def _element(group: CoxeterGroup, row: np.ndarray) -> Element:
    return Element(group, tuple(row.tolist()))


def refined_length_count(group: CoxeterGroup, I, J, w: Element) -> int:
    """#{alpha in Phi^+ \\ Phi_J : w(alpha) in Phi^- \\ Phi_I}; equals the
    length of the double-coset part of w for w minimal in W_I w."""
    I, J = frozenset(I), frozenset(J)
    if not in_min_left(w, I):
        raise NotMinimalRep("w has a left descent in I")
    phi_i = group.phi(I)
    phi_j_plus = group.phi_plus(J)
    count = 0
    for r in range(group.num_positive):
        if r in phi_j_plus:
            continue
        im = w.act_on_root(r)
        if not group.is_positive_root(im) and im not in phi_i:
            count += 1
    return count
