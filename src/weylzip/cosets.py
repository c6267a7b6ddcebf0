"""Minimal coset and double-coset representatives, the Kilmoyer subset
and the Howlett decomposition.

All representative sets are returned in ShortLex order of canonical
words, filtered from the enumeration of W_U by its descent masks.  An
optional `universe` restricts every computation to the standard parabolic
subgroup W_U; subsets must then be contained in U.
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
    """True iff w has minimal length in W_I w, i.e. no left descent in I."""
    return not any(w.has_left_descent(i) for i in I)


def in_min_right(w: Element, J) -> bool:
    """True iff w has minimal length in w W_J, i.e. no right descent in J."""
    return not any(w.has_right_descent(j) for j in J)


def _without_descents(group: CoxeterGroup, I, J, universe) -> tuple[Element, ...]:
    """The elements of W_U with no left descent in I and no right descent
    in J, read off the descent masks of the enumeration of W_U."""
    U = _universe(group, universe)
    left, right = group.descent_masks(U)
    bad = left[:, [group.simple_root_index(i) for i in sorted(set(I))]].any(axis=1)
    bad |= right[:, [group.simple_root_index(j) for j in sorted(set(J))]].any(axis=1)
    elements = group.parabolic_elements(U)
    return tuple(elements[k] for k in np.flatnonzero(~bad).tolist())


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
    I, J = frozenset(I), frozenset(J)
    if not (in_min_left(x, I) and in_min_right(x, J)):
        raise NotDoubleCosetRep("x is not a minimal double-coset representative")
    out = set()
    for t in J:
        i = group.simple_index_of_root(x.act_on_root(group.simple_root_index(t)))
        if i is not None and i in I:
            out.add(t)
    return frozenset(out)


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
    """Decompose w = w_I * x * w_J by iterated descent stripping: first
    strip left descents lying in I, then strip right descents lying in J."""
    I, J = frozenset(I), frozenset(J)
    left_word = []
    x = w
    while True:
        s = next((i for i in sorted(I) if x.has_left_descent(i)), None)
        if s is None:
            break
        left_word.append(s)
        x = group.simple(s) * x
    right_word = []
    while True:
        t = next((j for j in sorted(J) if x.has_right_descent(j)), None)
        if t is None:
            break
        right_word.append(t)
        x = x * group.simple(t)
    right_word.reverse()
    return HowlettDecomposition(
        group.from_word(left_word), x, group.from_word(right_word)
    )


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
