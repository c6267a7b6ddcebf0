import ast
import random
import time
import tracemalloc
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylzip import ZipDatum, build_group, cartan, coxeter
from weylzip.cli import main
from weylzip.coxeter import CoxeterAutomorphism, CoxeterGroup, Element
from weylzip.errors import (
    GroupMismatch,
    IndexOutOfRange,
    InvalidAutomorphism,
    MalformedMatrix,
    NonFiniteType,
    TooLargeToEnumerate,
    TooManyRoots,
)
from weylzip.oracles import (
    apply_element_oracle,
    bruhat_subword_oracle,
    canonical_word_oracle,
    shortlex_oracle,
)
from weylzip.serialize import parse_automorphism


@pytest.mark.parametrize(
    "label,order,roots",
    [
        ("A1", 2, 2),
        ("A2", 6, 6),
        ("B2", 8, 8),
        ("C2", 8, 8),
        ("G2", 12, 12),
        ("A3", 24, 12),
        ("B3", 48, 18),
        ("C3", 48, 18),
        ("D4", 192, 24),
        ("F4", 1152, 48),
        ("A1xA1", 4, 4),
        ("A1xB2", 16, 10),
    ],
)
def test_known_orders_and_root_counts(label, order, roots):
    g = build_group(label)
    assert g.order == order
    assert len(g.roots) == roots
    if order <= 200:
        assert len(g.elements()) == order


def test_large_types_construct_without_enumeration():
    for label, order in [("E6", 51840), ("E7", 2903040), ("E8", 696729600)]:
        g = build_group(label)
        assert g.order == order
    assert len(build_group("E8").roots) == 240


def _roots_by_tuple_closure(g):
    """The roots and reflection table by closing the simple roots and their
    negatives under the simple reflections on tuples, one Python reflection
    per root and letter: the positive roots sorted by height, then by
    coordinates, with the simple roots first in Bourbaki order."""
    n, C = g.rank, g.cartan
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]

    def reflect(v, j):
        pairing = sum(v[i] * C[i][j] for i in range(n))
        out = list(v)
        out[j] -= pairing
        return tuple(out)

    roots = set(simples) | {tuple(-c for c in v) for v in simples}
    frontier = list(roots)
    while frontier:
        new = []
        for v in frontier:
            for j in range(n):
                im = reflect(v, j)
                if im not in roots:
                    roots.add(im)
                    new.append(im)
        frontier = new
    positives = sorted((v for v in roots if min(v) >= 0), key=lambda v: (sum(v), v))
    positives[:n] = simples
    listed = positives + [tuple(-c for c in v) for v in positives]
    index = {v: r for r, v in enumerate(listed)}
    return tuple(listed), [[index[reflect(v, j)] for v in listed] for j in range(n)]


@pytest.mark.parametrize(
    "label",
    ["A1", "A3", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8", "B5", "C6", "D6", "A7",
     "A1xB2", "A2xB2", "G2xA1", "B2xG2xA3", "x".join(["A1"] * 14)],
)
def test_root_system_matches_the_tuple_closure(label):
    g = CoxeterGroup(*cartan.matrices_for_label(label), label)
    roots, reflections = _roots_by_tuple_closure(g)
    assert g.roots == roots
    assert g.reflections.tolist() == reflections
    assert g.reflections.dtype == np.intp and not g.reflections.flags.writeable


def test_coxeter_matrix_input_classifies():
    b2 = build_group([[1, 4], [4, 1]])
    assert b2.order == 8 and b2.label == "B2"
    g2 = build_group([[1, 6], [6, 1]])
    assert g2.order == 12
    prod = build_group([[1, 3, 2], [3, 1, 2], [2, 2, 1]])
    assert prod.order == 12 and set(prod.label.split("x")) == {"A2", "A1"}
    # numbering follows the input order: vertex 3 is the A1 factor
    assert prod.coxeter_m(1, 2) == 3


def test_matrix_rejections():
    with pytest.raises(MalformedMatrix):
        build_group([[1, 3], [4, 1]])  # asymmetric
    with pytest.raises(MalformedMatrix):
        build_group([[2, 3], [3, 1]])  # diagonal != 1
    with pytest.raises(MalformedMatrix):
        build_group([[1, 1], [1, 1]])  # off-diagonal < 2
    with pytest.raises(NonFiniteType):
        build_group([[1, 5], [5, 1]])  # H2, not crystallographic
    with pytest.raises(NonFiniteType):
        build_group([[1, 3, 3], [3, 1, 3], [3, 3, 1]])  # affine triangle
    with pytest.raises(NonFiniteType):
        build_group("H3")
    with pytest.raises(NonFiniteType):
        build_group("Z9")


def _classify_by_permutations(M):
    """The reference: the connected components of the Coxeter graph by
    growing each from its least vertex, and for each the first type among
    A, B, D, E, F, G of its rank with some vertex order matching the
    Bourbaki Coxeter matrix, that order being the first permutation, in
    lexicographic order, that every entry accepts."""
    n = len(M)
    comps, seen = [], set()
    for v in range(n):
        if v in seen:
            continue
        comp = {v}
        while more := {u for c in comp for u in range(n) if M[c][u] >= 3} - comp:
            comp |= more
        seen |= comp
        comps.append(sorted(comp))
    factors, orders = [], []
    cart = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for comp in comps:
        k = len(comp)
        for letter in "ABDEFG":
            try:
                cartan.parse_label(f"{letter}{k}")
            except NonFiniteType:
                continue
            C = cartan.coxeter_matrix(letter, k)
            hits = [p for p in permutations(range(k)) if all(
                M[comp[a]][comp[b]] == C[p[a]][p[b]] for a in range(k) for b in range(k))]
            if hits:
                break
        p, bourbaki = hits[0], cartan.cartan_matrix(letter, k)
        for a in range(k):
            for b in range(k):
                cart[comp[a]][comp[b]] = bourbaki[p[a]][p[b]]
        factors.append((letter, k))
        orders.append((comp, letter, hits))
    label = "x".join(f"{letter}{k}" for letter, k in factors)
    return (tuple(factors), cart, label), orders


SHUFFLED_TYPES = [f"{letter}{n}" for letter, ranks in (
    ("A", range(1, 7)), ("B", range(2, 7)), ("C", range(2, 7)), ("D", range(3, 7)),
    ("E", (6,)), ("F", (4,)), ("G", (2,))) for n in ranks] + ["A2xB2"]


@pytest.mark.parametrize("label", SHUFFLED_TYPES)
def test_classification_equals_the_permutation_filter(label):
    _, _, cox = cartan.matrices_for_label(label)
    rng = random.Random(label)
    for _ in range(3):
        shuffle = rng.sample(range(len(cox)), len(cox))
        M = [[cox[a][b] for b in shuffle] for a in shuffle]
        expect, orders = _classify_by_permutations(M)
        assert cartan.classify_coxeter_matrix(M) == expect
        # the search yields the filter's vertex orders, least first
        for comp, letter, hits in orders:
            target = cartan.coxeter_matrix(letter, len(comp))
            assert list(cartan.isomorphisms(M, target, comp)) == hits


def test_words_and_identity(a2):
    assert a2.from_word([]) == a2.identity
    assert a2.from_word([1, 1]) == a2.identity
    w0 = a2.from_word([1, 2, 1])
    assert w0 == a2.longest_element()
    assert w0.length == 3
    for word in ([3], [0], [-1]):
        with pytest.raises(IndexOutOfRange):
            a2.from_word(word)


def test_canonical_words(a2):
    assert a2.identity.canonical_word() == ()
    s1, s2 = a2.simple(1), a2.simple(2)
    assert (s2 * s1 * s2).canonical_word() == (1, 2, 1)
    assert s2.canonical_word() == (2,)
    assert (s1 * s2).canonical_word() == (1, 2)


def test_multiply_invert_act(a2):
    s1, s2 = a2.simple(1), a2.simple(2)
    for w in a2.elements():
        assert w * w.inverse() == a2.identity
        assert w.length == w.inverse().length
    alpha1 = a2.simple_root_index(1)
    assert s1.act_on_root(alpha1) == a2.negate_root(alpha1)
    with pytest.raises(GroupMismatch):
        s1 * build_group("B2").simple(1)


def test_descents(a2):
    w0 = a2.longest_element()
    assert a2.identity.descents("left") == frozenset()
    assert w0.descents("left") == frozenset({1, 2})
    s21 = a2.from_word([2, 1])
    assert s21.descents("left") == frozenset({2})
    assert s21.descents("right") == frozenset({1})


def test_bruhat_examples(a2):
    s1, s2 = a2.simple(1), a2.simple(2)
    for w in a2.elements():
        assert a2.bruhat_leq(a2.identity, w)
    assert not a2.bruhat_leq(s1, s2)
    assert a2.bruhat_leq(s2, a2.from_word([2, 1]))


def test_bruhat_partial_order(b2):
    elems = b2.elements()
    for x in elems:
        assert b2.bruhat_leq(x, x)
        for y in elems:
            if b2.bruhat_leq(x, y) and b2.bruhat_leq(y, x):
                assert x == y
            for z in elems:
                if b2.bruhat_leq(x, y) and b2.bruhat_leq(y, z):
                    assert b2.bruhat_leq(x, z)
    w0 = b2.longest_element()
    assert all(b2.bruhat_leq(x, w0) for x in elems)


@pytest.mark.parametrize("label,pairs", [("F4", 300), ("D6", 300), ("E8", 60)])
def test_bruhat_leq_matches_subword_oracle(label, pairs):
    # a group of its own, so its enumeration cache starts empty
    g = CoxeterGroup(*cartan.matrices_for_label(label), label)
    rng = random.Random(20240818)
    seen = set()
    for _ in range(pairs):
        w = g.from_word(rng.choice(g.simple_indices) for _ in range(rng.randint(0, 30)))
        # a subword of w's word gives an element below w; a further random
        # letter gives a near miss that may or may not be below it
        word = [s for s in w.canonical_word() if rng.random() < 0.6]
        if rng.random() < 0.5:
            word.append(rng.choice(g.simple_indices))
        x = g.from_word(word)
        got = g.bruhat_leq(x, w)
        assert got == bruhat_subword_oracle(x, w)
        seen.add(got)
    assert seen == {True, False}
    assert not g._enumerations


@given(st.lists(st.integers(min_value=1, max_value=3), max_size=12))
@settings(max_examples=150, deadline=None)
def test_length_is_root_inversion_count(word):
    g = build_group("B3")
    w = g.from_word(word)
    m = g.num_positive
    count = sum(1 for r in range(m) if not g.is_positive_root(w.act_on_root(r)))
    assert w.length == count == len(w.canonical_word())
    assert g.from_word(w.canonical_word()) == w


@given(st.lists(st.integers(min_value=1, max_value=2), max_size=10))
@settings(max_examples=80, deadline=None)
def test_descents_shorten(word):
    g = build_group("G2")
    w = g.from_word(word)
    for s in w.left_descents():
        assert (g.simple(s) * w).length == w.length - 1
    for s in set(g.simple_indices) - set(w.left_descents()):
        assert (g.simple(s) * w).length == w.length + 1


def test_simple_reflection_permutes_other_positives():
    g = build_group("B3")
    for i in g.simple_indices:
        s = g.simple(i)
        others = [r for r in range(g.num_positive) if r != g.simple_root_index(i)]
        image = {s.act_on_root(r) for r in others}
        assert image == set(others)


def test_root_subsets(b2):
    assert len(b2.phi_plus({1})) == 1
    assert len(b2.phi_plus({1, 2})) == 4
    assert b2.phi(set()) == frozenset()
    full = b2.phi({1, 2})
    assert len(full) == 8


def test_automorphisms():
    a2 = build_group("A2")
    autos = a2.coxeter_automorphisms()
    assert len(autos) == 2
    flip = next(a for a in autos if not a.is_identity())
    s1 = a2.simple(1)
    assert flip(s1) == a2.simple(2)
    assert flip(frozenset({1})) == frozenset({2})
    assert (flip * flip).is_identity()
    b3 = build_group("B3")
    assert len(b3.coxeter_automorphisms()) == 1
    b2 = build_group("B2")
    assert len(b2.coxeter_automorphisms()) == 2  # the graph flip, order swap


# For each group: the whole group, S empty, a disconnected S, and the two
# sides I and J of a datum with a non-identity psi.
ENUMERATION_SUBSETS = {
    "A3": [(1, 2, 3), (), (1, 3), (1,), (3,)],
    "B3": [(1, 2, 3), (), (1, 3), (1,), (2,)],
    "F4": [(1, 2, 3, 4), (), (1, 4), (1, 2), (3, 4)],
    "D5": [(1, 2, 3, 4, 5), (), (1, 4, 5), (1, 2, 3, 4), (1, 2, 3, 5)],
    "A6": [(1, 2, 3, 4, 5, 6), (), (1, 3, 5), (1, 2, 3), (4, 5, 6)],
}


@pytest.mark.parametrize("label", sorted(ENUMERATION_SUBSETS))
def test_layered_enumeration_matches_sorted_closure(label):
    g = build_group(label)
    for S in ENUMERATION_SUBSETS[label]:
        fast = g.parabolic_elements(S)
        ref = shortlex_oracle(g, S)
        assert [w.perm for w in fast] == [w.perm for w in ref], S
        # seeded words and lengths agree with ones derived from scratch
        assert [w.canonical_word() for w in fast] == [w.canonical_word() for w in ref]
        assert [w.length for w in fast] == [len(w.canonical_word()) for w in ref]
    assert g.elements() is g.parabolic_elements(g.simple_indices)


# the whole group, S empty and a disconnected S; and the whole of D6
WALK_SUBSETS = {
    **{label: subsets[:3] for label, subsets in ENUMERATION_SUBSETS.items()},
    "D6": [(1, 2, 3, 4, 5, 6)],
}


@pytest.mark.parametrize("label", sorted(WALK_SUBSETS))
def test_walk_spells_the_canonical_words(label):
    g = build_group(label)
    refl = g.reflections
    for S in WALK_SUBSETS[label]:
        e = g.enumeration(S)
        words = [()]
        for s, parent in zip(e.first[1:].tolist(), e.parent[1:].tolist()):
            assert parent < len(words)
            words.append((s,) + words[parent])
        assert words == [w.canonical_word() for w in shortlex_oracle(g, S)], S
        _assert_layers_step_at_lengths(e, words)
        # each step of the walk is one left multiplication: w_k = s * w_parent
        steps = refl[e.first[1:, None] - 1, e.perms[e.parent[1:]]]
        assert np.array_equal(e.perms[1:], steps)


def _assert_layers_step_at_lengths(e, words):
    """``e.layers`` bounds the runs of equal word length, from 0 to the
    number of elements, and is read-only."""
    steps = np.flatnonzero(np.diff([len(w) for w in words])) + 1
    assert e.layers.tolist() == [0, *steps.tolist(), len(words)]
    assert not e.layers.flags.writeable


def test_coset_walk_layers_step_at_lengths():
    g = build_group("F4")
    e = g.coset_walk(g.simple_indices, (2, 3))
    words = e.words_at(np.arange(len(e.perms)))
    expect = [w for w in shortlex_oracle(g, g.simple_indices) if not w.right_descents() & {2, 3}]
    assert words == [w.canonical_word() for w in expect]
    _assert_layers_step_at_lengths(e, words)


def _word_by_products(w):
    """The canonical word by stripping min(left_descents) with Element
    products."""
    word = []
    while w.length:
        s = min(w.left_descents())
        word.append(s)
        w = w.group.simple(s) * w
    return tuple(word)


def test_canonical_words_on_e8_are_reduced_and_round_trip():
    g = build_group("E8")
    rng = random.Random(8)
    for _ in range(100):
        w = g.from_word(rng.choice(g.simple_indices) for _ in range(rng.randrange(1, 90)))
        word = Element(g, w.perm).canonical_word()
        assert len(word) == w.length
        assert g.from_word(word) == w
        assert word == _word_by_products(w)


def _automorphism_cases():
    f4 = build_group("F4")
    yield "A5 flip", parse_automorphism(build_group("A5"), "flip"), None
    yield "F4 flip", CoxeterAutomorphism(f4, (4, 3, 2, 1)), None
    d4 = build_group("D4")
    for a in d4.coxeter_automorphisms():  # both triality generators among them
        yield f"D4 {a.images}", a, None
    yield "E6 flip", parse_automorphism(build_group("E6"), "flip"), 300
    yield "B2 flip", parse_automorphism(build_group("B2"), "flip"), None
    yield "G2 flip", parse_automorphism(build_group("G2"), "flip"), None


@pytest.mark.parametrize("name,a,sample", list(_automorphism_cases()))
def test_apply_element_equals_letter_by_letter(name, a, sample):
    g = a.group
    if sample is None:
        elems = g.elements()
    else:
        rng = random.Random(6)
        elems = [
            g.from_word(rng.choice(g.simple_indices) for _ in range(rng.randrange(40)))
            for _ in range(sample)
        ]
    for w in elems:
        got = a.apply_element(w)
        assert got == apply_element_oracle(a, w), (name, w)
        assert got.length == w.length
    with pytest.raises(GroupMismatch):
        a.apply_element(build_group("A1").identity)


def test_elements_of_rows_equals_slices_of_parabolic_elements():
    g = build_group("D5")
    rng = random.Random(11)
    for S in [(1, 2, 3, 4, 5), (1, 4, 5), ()]:
        every = g.parabolic_elements(S)
        e = g.enumeration(S)
        picks = [rng.randrange(len(every)) for _ in range(40)]
        for positions in [[], [0], sorted(set(picks)), picks, picks[::-1]]:
            got = g.elements_of_rows(e.perms[positions], e.words_at(positions))
            want = tuple(every[k] for k in positions)
            assert got == want
            assert [w.canonical_word() for w in got] == [w.canonical_word() for w in want]
            assert [w.length for w in got] == [w.length for w in want]


@pytest.mark.parametrize("label", ["D4", "A5"])
def test_automorphism_products_equal_validated_ones(label):
    g = build_group(label)
    auts = g.coxeter_automorphisms()
    assert auts == tuple(CoxeterAutomorphism(g, a.images) for a in auts)
    for a in auts:
        assert a.inverse() == CoxeterAutomorphism(g, a.inverse().images)
        assert (a * a.inverse()).is_identity()
        for b in auts:
            ab = a * b
            assert ab == CoxeterAutomorphism(g, ab.images)
            assert ab.images == tuple(a(b(i)) for i in g.simple_indices)
    assert g.identity_automorphism() is g.identity_automorphism()
    assert g.identity_automorphism() == CoxeterAutomorphism(g, g.simple_indices)
    # a transposition of the first two nodes preserves neither Coxeter matrix
    swap = (2, 1) + g.simple_indices[2:]
    for bad in [swap, (1,) * g.rank]:
        with pytest.raises(InvalidAutomorphism):
            CoxeterAutomorphism(g, bad)
        with pytest.raises(InvalidAutomorphism):
            parse_automorphism(g, list(bad))


@pytest.mark.parametrize(
    "label,S",
    [("A6", None), ("F4", None), ("D5", (1, 2, 4)), ("A3", None), ("B3", None),
     ("G2", None), ("A6", (1, 3, 5)), ("D5", (2, 3, 5)), ("x".join(["A1"] * 14), None),
     # braid chains with m = 4 and m = 6, in whole groups and in proper subsets
     ("B2", None), ("C3", None), ("A2xB2", None), ("F4", (2, 3)), ("F4", (1, 2, 3)),
     ("C3", (2, 3)), ("G2xA1", (1, 2)), ("A2xB2", (2, 3, 4))],
)
def test_tables_match_element_products(label, S):
    g = build_group(label)
    t = g.tables(S)
    S = g.simple_indices if S is None else S
    elems = g.parabolic_elements(S)
    position = {w.perm: k for k, w in enumerate(elems)}
    assert t.length.tolist() == [w.length for w in elems]
    # every entry of both tables, by Element products
    for s in g.simple_indices:
        if s not in S:
            assert (t.lmul[s - 1] == -1).all() and (t.rmul[s - 1] == -1).all()
            continue
        x = g.simple(s)
        assert t.lmul[s - 1].tolist() == [position[(x * w).perm] for w in elems]
        assert t.rmul[s - 1].tolist() == [position[(w * x).perm] for w in elems]


def test_verify_checks_the_tables_against_products():
    from weylzip.verify import check_group_basics

    g = CoxeterGroup(*cartan.matrices_for_label("B3"), "B3")
    assert check_group_basics(g) == []
    t = g.tables()
    t.lmul = t.lmul.copy()
    t.lmul[1, [3, 4]] = t.lmul[1, [4, 3]]
    t.length = t.length + (np.arange(len(t.length)) == 5)
    assert check_group_basics(g) == [
        "B3: table lengths differ from the element lengths",
        "B3: lmul of s_2 differs from the products s_2 w",
    ]


def test_table_cases_take_every_braid_chain():
    """The cases above fill lmul by braid chains of every m of a Weyl
    group: some w has a left descent s other than its first letter f with
    m(s, f) = 2, 3, 4 and 6, in a proper subset for m = 4 and m = 6."""
    seen = set()
    for label, S in [("F4", (2, 3)), ("G2xA1", (1, 2)), ("A6", None)]:
        g = build_group(label)
        e = g.enumeration(g.simple_indices if S is None else S)
        for w, s in zip(*np.nonzero(e.left)):
            f = e.first[w]
            if s + 1 != f:
                seen.add(g.coxeter_m(s + 1, int(f)))
    assert seen == {2, 3, 4, 6}


@pytest.mark.parametrize("label", ["D6", "E6"])
def test_whole_group_tables_on_a_seeded_sample(label):
    g = build_group(label)
    t, perms = g.tables(), g.enumeration(g.simple_indices).perms

    def row(k):
        return tuple(perms[k].tolist())

    for k in random.Random(10).sample(range(len(perms)), 200):
        w = Element(g, row(k))
        assert t.length[k] == w.length
        for s in g.simple_indices:
            assert row(t.lmul[s - 1, k]) == (g.simple(s) * w).perm
            assert row(t.rmul[s - 1, k]) == (w * g.simple(s)).perm


def test_tables_at_the_int16_boundary():
    """A1^15 has n = 2^15 = 32 768 elements, the most whose positions
    0..n-1 and the -1 of rows outside S fit int16; A7 (n = 40 320) needs
    int32."""
    label = "x".join(["A1"] * 15)
    g = build_group(label)
    t, perms = g.tables(), g.enumeration(g.simple_indices).perms
    assert len(perms) == 2 ** 15
    assert t.lmul.dtype == t.rmul.dtype == np.int16

    def row(k):
        return tuple(perms[k].tolist())

    for k in random.Random(15).sample(range(len(perms)), 200):
        w = Element(g, row(k))
        assert t.length[k] == w.length
        for s in g.simple_indices:
            assert row(t.lmul[s - 1, k]) == (g.simple(s) * w).perm
            assert row(t.rmul[s - 1, k]) == (w * g.simple(s)).perm
    a7 = build_group("A7").tables()
    assert a7.lmul.dtype == a7.rmul.dtype == np.int32


@pytest.mark.parametrize(
    "label,S",
    [("A3", None), ("G2", None), ("F4", None), ("D5", None), ("A6", None), ("D6", None),
     ("B6", None), ("E6", None), ("E6", (1, 3, 4, 5)), ("E7", (1, 3, 4, 5, 6, 7))],
)
def test_table_dtype_is_int16_iff_the_positions_fit(label, S):
    g = build_group(label)
    t = g.tables(S)
    assert t.rmul.dtype == t.lmul.dtype
    assert (t.lmul.dtype == np.int16) == (len(t.length) <= 2 ** 15)
    assert t.lmul.dtype in (np.int16, np.int32)


def test_position_dtype_holds_every_position_and_minus_one():
    for n in [1, 2, 2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 2 ** 31, 2 ** 31 + 1]:
        info = np.iinfo(coxeter.position_dtype(n))
        assert info.min <= -1 and info.max >= n - 1
    assert coxeter.position_dtype(2 ** 15) == np.int16
    assert coxeter.position_dtype(2 ** 15 + 1) == np.int32
    assert coxeter.position_dtype(2 ** 31) == np.int32


def test_table_memory_on_e6():
    """The braid chains run one length layer at a time, with no key or
    offset over all of W: on a fresh E6 whose walk is built, the traced
    peak of tables() stays within 1.25 x the bytes the tables hold
    (1.5 x with sort keys and flat offsets for every pair of W)."""
    g = CoxeterGroup(*cartan.matrices_for_label("E6"), "E6")
    g.enumeration(g.simple_indices)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        t = g.tables()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = t.lmul.nbytes + t.rmul.nbytes + t.length.nbytes
    assert peak - entry <= 1.25 * held


def test_verify_checks_the_table_width():
    from weylzip.verify import check_group_basics

    g = CoxeterGroup(*cartan.matrices_for_label("B3"), "B3")
    t = g.tables()
    rmul = t.rmul
    t.rmul = rmul.copy()
    t.rmul[2, 7] = g.order
    assert check_group_basics(g) == [
        "B3: rmul holds entries outside [0, 48)",
        "B3: rmul of s_3 differs from the products w s_3",
    ]
    t.rmul = rmul.astype(np.uint16)
    assert check_group_basics(g) == ["B3: rmul of dtype uint16 cannot hold 47 and -1"]


def _root_subsets_oracle(g, S):
    """Phi_S, Phi_S^+ and the positive roots outside it, by a plain loop
    over the coordinates of every root."""
    phi = {r for r, v in enumerate(g.roots) if all(c == 0 or k + 1 in S for k, c in enumerate(v))}
    plus = {r for r in phi if r < g.num_positive}
    return phi, plus, tuple(r for r in range(g.num_positive) if r not in plus)


@pytest.mark.parametrize("label", ["A3", "B3", "G2xA1", "F4", "E7", "E8"])
def test_root_subsets_match_a_plain_loop(label):
    g = CoxeterGroup(*cartan.matrices_for_label(label), label)
    simple = g.simple_indices
    if g.rank <= 4:
        subsets = [set(c) for k in range(g.rank + 1) for c in combinations(simple, k)]
    else:
        rng = random.Random(20261020 + g.rank)
        subsets = [{i for i in simple if rng.random() < 0.5} for _ in range(20)]
    for S in subsets:
        phi, plus, outside = _root_subsets_oracle(g, S)
        assert g.phi(S) == phi
        assert g.phi_plus(S) == plus
        assert g.positive_roots_outside(S) == outside
        assert g.phi(S) is g.phi(frozenset(S))  # cached per subset


def test_a_walk_short_of_its_order_raises():
    g = CoxeterGroup(*cartan.matrices_for_label("B3"), "B3")
    with pytest.raises(RuntimeError, match=r"walk of B3 on S = \[1, 2, 3\], J = \[\] "
                                           r"reached 48 of 49 elements"):
        g._shortlex(g.simple_indices, g.order + 1)


def test_enumeration_bound_is_enforced_up_front(monkeypatch):
    monkeypatch.setattr(coxeter, "ENUMERATION_BOUND", 50)
    # a group of its own, so no other test shares its caches
    a4 = CoxeterGroup(*cartan.matrices_for_label("A4"), "A4")
    z = ZipDatum(a4, {1}, {1}, {1: 1})
    with pytest.raises(TooLargeToEnumerate, match="120 .*bound 50"):
        z.pieces()
    with pytest.raises(TooLargeToEnumerate):
        a4.elements()
    assert not a4._enumerations  # both refused before enumerating
    assert len(a4.parabolic_elements({1, 2, 3})) == 24
    assert len(a4.parabolic_elements({1, 3, 4})) == 12
    with pytest.raises(IndexOutOfRange):
        a4.parabolic_elements({5})


def test_parabolic_order_from_coxeter_type():
    e8 = build_group("E8")
    assert e8.parabolic_order(()) == 1
    assert e8.parabolic_order((1, 3, 4, 5)) == 120  # A4
    assert e8.parabolic_order((1, 2, 3, 4, 5, 6, 7)) == 2903040  # E7
    assert e8.parabolic_order((1, 2, 5, 8)) == 16  # four commuting A1
    with pytest.raises(TooLargeToEnumerate):
        e8.parabolic_elements((1, 2, 3, 4, 5, 6, 7))
    e7 = build_group("E7")
    assert len(e7.parabolic_elements((1, 3, 4, 5, 6))) == 720  # A5


def test_root_systems_beyond_the_int16_rows_are_refused(capsys):
    # A181 has 32 942 roots: its root indices would wrap in int16 rows
    assert coxeter.ROOT_BOUND == np.iinfo(np.int16).max + 1
    start = time.perf_counter()
    with pytest.raises(TooManyRoots, match=r"A181 has 32942 roots, above the root bound "
                                           r"32768 \(coxeter.ROOT_BOUND\)"):
        build_group("A181")
    code = main(["classify", "--type", "A181", "--I", "1", "--J", "1", "--psi", "1:1",
                 "--w", "1,2"])
    assert code == 2
    assert "A181 has 32942 roots" in capsys.readouterr().err
    assert time.perf_counter() - start < 1


def test_root_bound_admits_a_system_of_exactly_its_size(monkeypatch):
    monkeypatch.setattr(coxeter, "ROOT_BOUND", 12)
    assert CoxeterGroup(*cartan.matrices_for_label("A3"), "A3").num_positive == 6
    with pytest.raises(TooManyRoots, match="B3 has 18 roots, above the root bound 12"):
        CoxeterGroup(*cartan.matrices_for_label("B3"), "B3")


@pytest.mark.parametrize("label,seed", [("E8", 20241020), ("E7", 20241021)])
def test_canonical_words_beyond_the_enumeration_bound_match_the_oracle(label, seed):
    g = build_group(label)
    assert g.order > coxeter.ENUMERATION_BOUND
    rng = random.Random(seed)
    elements = [g.longest_element()] + [
        g.from_word([rng.choice(g.simple_indices) for _ in range(rng.randint(0, g.num_positive))])
        for _ in range(60)
    ]
    for w in elements:
        # spelled below, not by the product that built it
        assert w._word is None or w is g.identity
        assert w.canonical_word() == canonical_word_oracle(w)
    assert len(elements[0].canonical_word()) == g.num_positive


def test_large_enumeration_fails_fast_on_the_command_line():
    assert main(["pieces", "--type", "E7", "--I", "1", "--J", "1", "--psi", "1:1"]) == 2


def _automorphisms_by_permutations(g):
    """The reference: every permutation of the simple set, filtered."""
    S = g.simple_indices
    return tuple(images for images in permutations(S)
                 if g.coxeter_mismatch(dict(zip(S, images)), S) is None)


AUTOMORPHISM_TYPES = [f"{letter}{n}" for letter, ranks in (
    ("A", range(1, 7)), ("B", range(2, 7)), ("C", range(2, 7)), ("D", range(3, 7)),
    ("E", (6,)), ("F", (4,)), ("G", (2,))) for n in ranks] + ["A1xA1", "A2xA2"]


@pytest.mark.parametrize("label", AUTOMORPHISM_TYPES)
def test_automorphism_search_equals_the_permutation_filter(label):
    g = build_group(label)
    assert tuple(a.images for a in g.coxeter_automorphisms()) == _automorphisms_by_permutations(g)


def test_flip_of_a12_is_found_fast():
    import time

    g = build_group("A12")
    start = time.perf_counter()
    flip = parse_automorphism(g, "flip")
    assert time.perf_counter() - start < 1.0
    assert flip.images == tuple(range(12, 0, -1))


# The modules that work on Elements read their rows; verify and oracles are
# references and may read the derived tuple.
ROW_MODULES = ("coxeter", "cosets", "zipdata", "extended", "isogeny")


@pytest.mark.parametrize("module", ROW_MODULES)
def test_row_modules_read_no_perm_tuples(module):
    path = Path(coxeter.__file__).with_name(f"{module}.py")
    reads = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "perm"
    ]
    assert not reads, f"{module}.py reads .perm at lines {reads}"
