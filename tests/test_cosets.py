import random
from itertools import combinations

import numpy as np
import pytest

from weylzip import (
    CoxeterGroup,
    build_group,
    cartan,
    howlett_decompose,
    kilmoyer_subset,
    min_double_coset_reps,
    min_left_coset_reps,
    min_right_coset_reps,
    refined_length_count,
)
from weylzip.cosets import strip_rows
from weylzip.errors import NotDoubleCosetRep, NotMinimalRep, SubsetMismatch
from weylzip.oracles import iw_oracle


def words(elements):
    return sorted(w.canonical_word() for w in elements)


def test_min_left_examples(a2):
    assert words(min_left_coset_reps(a2, {1})) == [(), (2,), (2, 1)]
    assert words(min_left_coset_reps(a2, {1, 2})) == [()]
    assert len(min_left_coset_reps(a2, set())) == 6


def test_min_right_examples(a2):
    assert words(min_right_coset_reps(a2, {2})) == [(), (1,), (2, 1)]
    assert words(min_right_coset_reps(a2, {1, 2})) == [()]
    # root criterion: [2,1] sends alpha_2 to a positive root
    w = a2.from_word([2, 1])
    image = w.act_on_root(a2.simple_root_index(2))
    assert a2.is_positive_root(image)


def test_right_reps_are_inverse_left_reps(a3):
    for k in range(4):
        for J in map(frozenset, combinations(a3.simple_indices, k)):
            lefts = {w.perm for w in min_left_coset_reps(a3, J)}
            rights = {w.inverse().perm for w in min_right_coset_reps(a3, J)}
            assert lefts == rights


def test_double_reps_examples(a2):
    assert words(min_double_coset_reps(a2, {1}, {2})) == [(), (2, 1)]
    assert words(min_double_coset_reps(a2, {1, 2}, {1, 2})) == [()]
    assert len(min_double_coset_reps(a2, set(), set())) == 6


def test_min_reps_match_bruteforce_oracle(a3, b2):
    for g in (a3, b2):
        for k in range(g.rank + 1):
            for I in map(frozenset, combinations(g.simple_indices, k)):
                assert min_left_coset_reps(g, I) == iw_oracle(g, I)


def test_kilmoyer_examples(a2):
    e = a2.identity
    assert kilmoyer_subset(a2, {1}, {2}, e) == frozenset()
    assert kilmoyer_subset(a2, {1}, {2}, a2.from_word([2, 1])) == frozenset({2})
    assert kilmoyer_subset(a2, {1, 2}, {1, 2}, e) == frozenset({1, 2})
    with pytest.raises(NotDoubleCosetRep):
        kilmoyer_subset(a2, {1}, {2}, a2.simple(2))


def test_kilmoyer_set_equality(b2):
    I, J = frozenset({1}), frozenset({2})
    w_i = set(b2.parabolic_elements(I))
    for x in min_double_coset_reps(b2, I, J):
        I_x = kilmoyer_subset(b2, I, J, x)
        lhs = set(b2.parabolic_elements(I_x))
        rhs = {v for v in b2.parabolic_elements(J) if x * v * x.inverse() in w_i}
        assert lhs == rhs


def test_howlett_examples(a2):
    I, J = {1}, {2}
    hd = howlett_decompose(a2, I, J, a2.from_word([1, 2]))
    assert hd.left == a2.simple(1) and hd.middle == a2.identity and hd.right == a2.simple(2)
    hd = howlett_decompose(a2, I, J, a2.longest_element())
    assert hd.left == a2.simple(1)
    assert hd.middle == a2.from_word([2, 1])
    assert hd.right == a2.identity
    hd = howlett_decompose(a2, I, J, a2.identity)
    assert hd.left == hd.middle == hd.right == a2.identity


def exhaustive_howlett(group, I, J, w):
    """All triples (a, x, b) with a in W_I, x double-minimal, b minimal in
    W_{I_x} cosets, and a*x*b == w with additive lengths."""
    from weylzip.cosets import min_left_coset_reps as mreps

    found = []
    for x in min_double_coset_reps(group, I, J):
        I_x = kilmoyer_subset(group, I, J, x)
        for a in group.parabolic_elements(I):
            for b in mreps(group, I_x, universe=J):
                if a * x * b == w and a.length + x.length + b.length == w.length:
                    found.append((a, x, b))
    return found


@pytest.mark.parametrize("label,I,J", [("A2", {1}, {2}), ("B2", {2}, {1}), ("A2", {1, 2}, {1, 2})])
def test_howlett_unique_vs_exhaustive(label, I, J):
    g = build_group(label)
    for w in g.elements():
        triples = exhaustive_howlett(g, I, J, w)
        hd = howlett_decompose(g, I, J, w)
        assert triples == [(hd.left, hd.middle, hd.right)]
        assert hd.element() == w


def test_refined_length_examples(a2):
    I, J = {1}, {2}
    assert refined_length_count(a2, I, J, a2.simple(2)) == 0
    assert refined_length_count(a2, I, J, a2.from_word([2, 1])) == 2
    assert refined_length_count(a2, I, J, a2.identity) == 0
    with pytest.raises(NotMinimalRep):
        refined_length_count(a2, I, J, a2.simple(1))


def test_refined_length_equals_middle_length(a3):
    I, J = frozenset({1, 3}), frozenset({2, 3})
    for w in min_left_coset_reps(a3, I):
        hd = howlett_decompose(a3, I, J, w)
        assert refined_length_count(a3, I, J, w) == hd.middle.length


@pytest.mark.parametrize("label", ["A1", "A1xA1", "A2", "B2", "G2", "A3", "B3", "C3"])
def test_coset_identity_sweep(label):
    """Representative assembly from double cosets, its dual, the Kilmoyer
    set equality, and Howlett additivity, over every (I, J) pair."""
    from weylzip.verify import check_coset_identities

    assert check_coset_identities(build_group(label)) == []


def _all_subsets(S):
    return [frozenset(c) for k in range(len(S) + 1) for c in combinations(sorted(S), k)]


def _mask_filter(g, I, J, U):
    """The reference: the elements of the enumeration of W_U with no left
    descent in I and no right descent in J, read off its descent masks."""
    e = g.enumeration(U)
    bad = e.left[:, [i - 1 for i in sorted(I)]].any(axis=1)
    bad |= e.right[:, [j - 1 for j in sorted(J)]].any(axis=1)
    at = np.flatnonzero(~bad)
    return g.elements_of_rows(e.perms[at], e.words_at(at))


def _same(got, expect):
    assert [w.perm for w in got] == [w.perm for w in expect]
    assert [w.canonical_word() for w in got] == [w.canonical_word() for w in expect]
    assert [w.length for w in got] == [w.length for w in expect]


WALK_CASES = [(label, None) for label in ("A3", "B3", "D4", "F4")] + [
    (label, U) for label in ("A3", "B3") for U in _all_subsets(range(1, 4))
]


@pytest.mark.parametrize("label,U", WALK_CASES, ids=[f"{l}-{sorted(U) if U is not None else 'W'}"
                                                     for l, U in WALK_CASES])
def test_walk_reps_equal_the_mask_filter(label, U):
    g = CoxeterGroup(*cartan.matrices_for_label(label), label)  # nothing enumerated
    universe = frozenset(g.simple_indices) if U is None else U
    subsets = _all_subsets(universe)
    pairs = [(I, ()) for I in subsets] + [((), J) for J in subsets] + [
        (I, J) for I in subsets for J in subsets]

    def reps(I, J):
        if not J:
            return min_left_coset_reps(g, I, U)
        return min_right_coset_reps(g, J, U) if not I else min_double_coset_reps(g, I, J, U)

    walked = [reps(I, J) for I, J in pairs]
    assert universe not in g._enumerations  # the walks enumerated no W_U
    for (I, J), got in zip(pairs, walked):
        expect = _mask_filter(g, I, J, universe)
        _same(got, expect)


def test_walk_reps_match_the_bruteforce_oracle(a3, b2):
    # iw_oracle groups all of W into cosets by Element products: no walk, no
    # masks; the right reps are the inverses of the left ones
    for g in (a3, b2):
        for I in _all_subsets(g.simple_indices):
            left = iw_oracle(g, I)
            assert min_left_coset_reps(g, I) == left
            right = sorted((w.inverse() for w in left), key=lambda w: w.sort_key)
            assert list(min_right_coset_reps(g, I)) == right


def test_subsets_outside_the_universe_are_refused():
    g = CoxeterGroup(*cartan.matrices_for_label("A3"), "A3")  # nothing enumerated
    for reps in (lambda: min_left_coset_reps(g, {3}, universe={1}),
                 lambda: min_right_coset_reps(g, {2}, universe={1, 3}),
                 lambda: min_double_coset_reps(g, {1}, {3}, universe={1})):
        with pytest.raises(SubsetMismatch, match="must lie in U"):
            reps()
    assert not g._enumerations


def test_strip_rows_spells_canonical_words(a3):
    g = build_group("F4")
    rng = random.Random(7)
    elements = [g.from_word(rng.choice(g.simple_indices) for _ in range(rng.randint(0, 30)))
                for _ in range(200)]
    inverses = np.array([w.inverse().perm for w in elements], dtype=np.int16)
    letters, rest = strip_rows(g, inverses, g.simple_indices)
    assert [tuple(r[r > 0]) for r in letters] == [w.canonical_word() for w in elements]
    assert np.array_equal(rest, np.tile(g.identity.perm, (len(elements), 1)))
