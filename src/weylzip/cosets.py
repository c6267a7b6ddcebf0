"""Minimal coset and double-coset representatives, the Kilmoyer subset
and the Howlett decomposition.

All representative sets are returned in ShortLex order of canonical
words, as Elements that view one stack of rows, from the ShortLex walk
of W_U^J (:meth:`CoxeterGroup.coset_walk`), which reaches only the
elements with no right descent in J: minimal right
representatives are that walk, double-coset ones the walk masked by its
left descents in I, and minimal left representatives are the inverses of
the walk of W_U^I (its inverse rows; nothing is inverted), sorted by
canonical word.  The walk spells the words of its elements, and
:func:`strip_rows` gives those of the inverses, stripping the smallest
descent from a whole stack of rows at once.  No set of representatives
enumerates W_U.  An optional `universe` restricts every computation to
the standard parabolic subgroup W_U; subsets must then be contained in U.

The Howlett decomposition w = w_I x w_J is one routine on the intp row
of an Element, :meth:`CoxeterGroup.howlett_row`, which holds the one
single-row strip loop (:func:`strip_rows` is the one on stacks): the
left descents in I come off the inverse row, one scatter turns it back,
and the right descents in J come off the row, one read and one gather
per letter.  The same loop spells canonical words.  It enumerates
nothing, so it runs in groups of any size.  The Element-product
stripping lives on only as :func:`weylzip.oracles.howlett_oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coxeter import CoxeterGroup, Element, word_tuples
from .errors import NotDoubleCosetRep, NotMinimalRep, SubsetMismatch


def _universe(group: CoxeterGroup, universe) -> frozenset[int]:
    if universe is None:
        return frozenset(group.simple_indices)
    return frozenset(universe)


def in_min_left(w: Element, I) -> bool:
    """True iff w has minimal length in W_I w, i.e. no left descent in I
    (:meth:`Element.left_descents`, read from the row; no inverse is
    built)."""
    return w.left_descents().isdisjoint(I)


def in_min_right(w: Element, J) -> bool:
    """True iff w has minimal length in w W_J, i.e. no right descent in J."""
    return not any(w.has_right_descent(j) for j in J)


def rep_rows(group: CoxeterGroup, I, J, universe=None) -> tuple[np.ndarray, np.ndarray]:
    """The int16 rows and canonical words of the elements of W_U with no
    left descent in I and no right descent in J, in ShortLex order; the
    words are one int16 row each, letters in order and padded with 0.

    With J, or with neither, the walk of W_U^J in its order, masked by the
    left descents in I, with the words the walk spells
    (:meth:`ShortLex.letters_at`).  With I alone, the inverses of the walk
    of W_U^I (its inverse rows, whose own inverses are the walk's rows),
    sorted by the canonical words that :func:`strip_rows` reads off the
    walk's rows.  The walk is refused when its rows, |W_U| / |W_J|
    (|W_I|), exceed the enumeration bound; SubsetMismatch when I or J is
    not contained in U."""
    U, I = _universe(group, universe), sorted(set(I))
    if not U.issuperset(I) or not U.issuperset(J):
        raise SubsetMismatch(f"I = {I} and J = {sorted(set(J))} must lie in U = {sorted(U)}")
    if I and not J:
        e = group.coset_walk(U, I)
        letters, _ = strip_rows(group, e.perms, group.simple_indices)
        order = np.lexsort([*letters.T[::-1], (letters > 0).sum(axis=1)])
        return e.inverses[order], letters[order]
    e = group.coset_walk(U, J)
    keep = np.flatnonzero(~e.left[:, [i - 1 for i in I]].any(axis=1))
    return e.perms[keep], e.letters_at(keep)


def strip_rows(group: CoxeterGroup, rows, S) -> tuple[np.ndarray, np.ndarray]:
    """Strip from each row of a stack of int16 root-permutation rows its
    smallest right descent in S, one letter per step, until none is left.

    Returns (letters, rest): ``letters[p]`` holds the letters stripped from
    row p in order, padded with 0, and ``rest[p]`` the row left over.  On
    the inverse rows of elements with S every simple index, the letters are
    their canonical words, as in :meth:`Element.canonical_word`.

    Row w = x v, with v in W_S and x without right descent in S, loses the
    l(v) letters of v: the roots of Phi_S^+ that w sends negative, counted
    up front.  The rows are stripped longest first, so at each step those
    still stripping are a prefix of the stack.  Only the images of the
    positive roots are carried: w(-alpha) = -w(alpha), and w s_t sends a
    positive alpha other than alpha_t to w(s_t alpha), s_t alpha positive,
    and alpha_t to -w(alpha_t)."""
    m = group.num_positive
    S = np.array(sorted(S), dtype=np.intp)
    rows = np.asarray(rows, dtype=np.int16)
    counts = (rows[:, sorted(group.phi_plus(S.tolist()))] >= m).sum(axis=1)
    order = np.argsort(-counts, kind="stable")
    half, counts = rows[order, :m], counts[order]
    # the positive columns of the row of s_t, alpha_t read where it stands
    cols = {t: np.where(np.arange(m) == t - 1, t - 1, group.reflection_rows[t - 1][:m])
            for t in S.tolist()}
    negative = np.roll(np.arange(2 * m, dtype=np.int16), m)  # root r -> index of -r
    letters = np.zeros((len(rows), counts[0] if len(rows) else 0), dtype=np.int16)
    for j in range(letters.shape[1]):
        active = half[: np.count_nonzero(counts > j)]
        s = S[(active[:, S - 1] >= m).argmax(axis=1)]  # alpha_s sits at index s - 1
        letters[: len(active), j] = s
        for t in S.tolist():  # row p becomes row p * s_p: one column gather per letter
            hit = np.flatnonzero(s == t)
            if len(hit):
                moved = active[hit].take(cols[t], axis=1)
                moved[:, t - 1] = negative[moved[:, t - 1]]
                active[hit] = moved
    out, rest = np.empty_like(letters), np.empty((len(rows), 2 * m), dtype=np.int16)
    out[order] = letters
    rest[order] = np.concatenate([half, negative[half]], axis=1)
    return out, rest


def _reps(group: CoxeterGroup, I, J, universe) -> tuple[Element, ...]:
    rows, letters = rep_rows(group, I, J, universe)
    return group.elements_of_rows(rows, word_tuples(letters))


def min_left_coset_reps(group: CoxeterGroup, I, universe=None) -> tuple[Element, ...]:
    """The set of minimal-length representatives of the cosets W_I w."""
    return _reps(group, I, (), universe)


def min_right_coset_reps(group: CoxeterGroup, J, universe=None) -> tuple[Element, ...]:
    """The set of minimal-length representatives of the cosets w W_J;
    equivalently the w with w(Phi_J^+) positive."""
    return _reps(group, (), J, universe)


def min_double_coset_reps(group: CoxeterGroup, I, J, universe=None) -> tuple[Element, ...]:
    """Minimal-length representatives of the double cosets W_I w W_J
    (the intersection of the two one-sided sets)."""
    return _reps(group, I, J, universe)


def kilmoyer_subset(group: CoxeterGroup, I, J, x: Element) -> frozenset[int]:
    """The subset I_x = J n x^{-1} I x of simple indices, i.e. all t in J
    with x s_t x^{-1} a simple reflection in I.  By Kilmoyer's theorem
    W_{I_x} = W_J n x^{-1} W_I x (asserted by tests, not here)."""
    if not (in_min_left(x, I) and in_min_right(x, J)):
        raise NotDoubleCosetRep("x is not a minimal double-coset representative")
    images = group.partial_map(x.row, group.psi_table({i: i for i in I}))
    return frozenset(t for t in J if images[t - 1])


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
    """Decompose w = w_I * x * w_J by :meth:`CoxeterGroup.howlett_row` on
    the intp row of w."""
    left, x, right = group.howlett_row(w.row.astype(np.intp), sorted(I), sorted(J))
    return HowlettDecomposition(
        group.from_word(left), Element(group, x), group.from_word(right[::-1])
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
