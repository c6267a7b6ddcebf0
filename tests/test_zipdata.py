import ast
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from weylzip import ZipDatum, build_group, cartan, zipdata
from weylzip.coxeter import ENUMERATION_BOUND, CoxeterGroup, Element, ShortLex
from weylzip.errors import (
    NotDoubleCosetRep,
    NotMinimalRep,
    PosetTooLarge,
    PsiNotBijective,
    PsiNotCoxeter,
    SubsetMismatch,
)
from weylzip.cosets import howlett_decompose, in_min_right, min_double_coset_reps
from weylzip.oracles import (
    _psi_pairs,
    bruhat_subword_oracle,
    canonical_rep_oracle,
    cover_edges_oracle,
    howlett_oracle,
    induced_oracle,
    iw_oracle,
    kw_bruteforce,
    shortlex_oracle,
    sigma_oracle,
)
from weylzip.verify import subsets, sweep_zip_data


def words(elements):
    return [w.canonical_word() for w in elements]


def test_validation(a2, b2):
    ZipDatum(a2, {1}, {2}, {1: 2})
    ZipDatum(a2, {1, 2}, {1, 2}, {1: 1, 2: 2})
    ZipDatum(b2, {1}, {2}, {1: 2})  # both factors Z/2 as abstract data
    with pytest.raises(SubsetMismatch):
        ZipDatum(a2, {1, 2}, {2}, {1: 2})
    with pytest.raises(PsiNotBijective):
        ZipDatum(a2, {1, 2}, {1, 2}, {1: 2, 2: 2})
    b3 = build_group("B3")
    with pytest.raises(PsiNotCoxeter):
        # m(1,2) = 3 but m(2,3) = 4
        ZipDatum(b3, {1, 2}, {2, 3}, {1: 2, 2: 3})


def test_induced_datum(z_a2, a2):
    sub = z_a2.induced_at(a2.identity)
    assert sub.universe == frozenset({2})
    assert sub.I == sub.J == frozenset()
    sub = z_a2.induced_at(a2.from_word([2, 1]))
    assert sub.I == sub.J == frozenset({2})
    assert sub.psi == {2: 2}
    zfull = ZipDatum(a2, {1, 2}, {1, 2}, {1: 1, 2: 2})
    same = zfull.induced_at(a2.identity)
    assert same.I == zfull.I and same.J == zfull.J and same.psi == zfull.psi
    with pytest.raises(NotDoubleCosetRep):
        z_a2.induced_at(a2.simple(1))


def test_stable_subset_examples(z_a2, a2):
    assert z_a2.stable_subset(a2.identity) == frozenset()
    assert z_a2.stable_subset(a2.from_word([2, 1])) == frozenset({2})
    zfull = ZipDatum(a2, {1, 2}, {1, 2}, {1: 1, 2: 2})
    assert zfull.stable_subset(a2.identity) == frozenset({1, 2})
    with pytest.raises(NotMinimalRep):
        z_a2.stable_subset(a2.simple(1))


def test_stable_subset_matches_bruteforce_everywhere():
    for label in ("A2", "B2", "G2", "A3"):
        for z in sweep_zip_data(build_group(label)):
            for w in z.param_set("iw"):
                assert z.stable_subset(w) == kw_bruteforce(z, w)


def test_stable_subset_maximality(z_a2, a2):
    g = a2
    for w in z_a2.param_set("iw"):
        K = z_a2.stable_subset(w)
        domain = {}
        for s in (1, 2):
            i = g.simple_index_of_root(w.act_on_root(g.simple_root_index(s)))
            if i is not None and i in z_a2.I:
                domain[s] = z_a2.psi[i]
        for extra in set(domain) - K:
            K2 = K | {extra}
            assert {domain[s] for s in K2} != K2


def test_canonical_rep_examples(z_a2, a2):
    s1, s2 = a2.simple(1), a2.simple(2)
    assert z_a2.canonical_rep(s1 * s2) == a2.identity
    assert z_a2.canonical_rep(s1) == s2
    assert z_a2.canonical_rep(a2.longest_element()) == s2 * s1
    for w in a2.elements():
        assert z_a2.canonical_rep(z_a2.canonical_rep(w)) == z_a2.canonical_rep(w)


def test_canonical_rep_partitions(z_a2, a2):
    fibers = {}
    for w in a2.elements():
        fibers.setdefault(z_a2.canonical_rep(w), set()).add(w.perm)
    assert set(fibers) == set(z_a2.param_set("iw"))
    classes = {frozenset(f) for f in fibers.values()}
    abstract = {frozenset(c) for c in z_a2.abstract_datum().equivalence_classes()}
    assert classes == abstract


# (label, I, psi, seed): every element when seed is None, else 100 seeded ones
ORACLE_DATA = [
    ("A3", {1}, {1: 3}, None),
    ("B3", {1, 2}, {1: 1, 2: 2}, None),
    ("F4", {1, 2}, {1: 4, 2: 3}, None),
    ("E8", {1, 3, 4, 5}, {1: 3, 3: 4, 4: 5, 5: 6}, 20240701),
    ("E7", {1, 3, 4, 5, 6}, {1: 6, 3: 5, 4: 4, 5: 3, 6: 1}, 20240702),
]


def seeded_elements(g, seed, n):
    rng = random.Random(seed)
    top = g.num_positive
    return [
        g.from_word([rng.choice(g.simple_indices) for _ in range(rng.randint(0, top))])
        for _ in range(n)
    ]


def oracle_inputs(label, I, psi, seed):
    g = build_group(label)
    z = ZipDatum(g, I, set(psi.values()), psi)
    return z, g.elements() if seed is None else seeded_elements(g, seed, 100)


@pytest.mark.parametrize("label,I,psi,seed", ORACLE_DATA, ids=[d[0] for d in ORACLE_DATA])
def test_canonical_rep_matches_oracle(label, I, psi, seed):
    z, elements = oracle_inputs(label, I, psi, seed)
    for w in elements:
        assert z.canonical_rep(w) == canonical_rep_oracle(z, w)


@pytest.mark.parametrize("label,I,psi,seed", ORACLE_DATA, ids=[d[0] for d in ORACLE_DATA])
def test_howlett_matches_oracle(label, I, psi, seed):
    z, elements = oracle_inputs(label, I, psi, seed)
    for w in elements:
        hd = howlett_decompose(z.group, z.I, z.J, w)
        assert hd == howlett_oracle(z.group, z.I, z.J, w)
        assert hd.element() == w


def test_canonical_rep_beyond_the_bound_enumerates_nothing():
    # a group of its own, so no other test has filled its caches
    e8 = CoxeterGroup(*cartan.matrices_for_label("E8"), "E8")
    top = frozenset(range(1, 8))
    assert e8.parabolic_order(top) > ENUMERATION_BOUND
    z = ZipDatum(e8, top, top, {i: i for i in top})
    for w in seeded_elements(e8, 20240703, 20):
        assert z.canonical_rep(w) == canonical_rep_oracle(z, w)
    assert not e8._parabolic_cache


def test_canonical_rep_stops_at_the_first_level_that_strips_nothing(monkeypatch):
    # a group of its own, so that no other test has filled its caches
    e8 = CoxeterGroup(*cartan.matrices_for_label("E8"), "E8")
    z = ZipDatum(e8, {1, 3, 4, 5}, {3, 4, 5, 6}, {1: 3, 3: 4, 4: 5, 5: 6})
    # minimal double-coset representatives: the first level strips nothing
    middles = list(dict.fromkeys(
        howlett_decompose(e8, z.I, z.J, w).middle for w in seeded_elements(e8, 20241022, 40)))
    assert len(middles) > 20
    calls = []
    howlett_row = e8.howlett_row

    def counting(*args):
        calls.append(args)
        return howlett_row(*args)

    monkeypatch.setattr(e8, "howlett_row", counting)
    reps = [z.canonical_rep(x) for x in middles]
    monkeypatch.undo()
    assert len(calls) == len(middles)  # no level below the first was reached
    for x, rep in zip(middles, reps):
        assert rep == x == canonical_rep_oracle(z, x)


def test_contains_param_builds_no_inverse():
    e8 = build_group("E8")
    z = ZipDatum(e8, {1, 3, 4, 5}, {3, 4, 5, 6}, {1: 3, 3: 4, 4: 5, 5: 6})
    elements = seeded_elements(e8, 20240705, 60)
    elements += [z.canonical_rep(w) for w in elements[:20]]
    for w in elements:
        # the word test: s is a left descent of w iff s w is shorter
        minimal = all((e8.simple(i) * w).length > w.length for i in z.I)
        assert z.contains_param(w) == minimal
        assert w._inverse is None
    assert any(z.contains_param(w) for w in elements[:60])
    assert not all(z.contains_param(w) for w in elements)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_contains_param_reads_the_rows(monkeypatch, label):
    """contains_param, and every check of a parameter, is the row read of
    the walk's start: it agrees with the descent sets and never reads them."""
    data = [(z, z.group.elements()) for z in _param_check_data(label)]
    expected = {
        (z, w, side): z.in_universe(w) and (w.left_descents().isdisjoint(z.I) if side == "iw"
                                            else in_min_right(w, z.J))
        for z, elements in data for w in elements for side in ("iw", "wj")
    }
    assert any(expected.values()) and not all(expected.values())
    monkeypatch.setattr(Element, "left_descents", None)
    monkeypatch.setattr(Element, "has_right_descent", None)
    for (z, w, side), ok in expected.items():
        assert z.contains_param(w, side) == ok, (z, w, side)
        if not ok:
            with pytest.raises(NotMinimalRep):
                z.closure_set(w, side)


def test_single_element_queries_keep_no_state():
    # a group of its own, so that its caches start empty
    e8 = CoxeterGroup(*cartan.matrices_for_label("E8"), "E8")
    z = ZipDatum(e8, {1, 3, 4, 5}, {3, 4, 5, 6}, {1: 3, 3: 4, 4: 5, 5: 6})

    def sizes(obj, kinds):
        return {k: len(v) for k, v in vars(obj).items() if isinstance(v, kinds)}

    # one query of each kind first, for the per-datum tables they read once
    z.sigma_inverse(z.sigma(z.canonical_rep(e8.identity)))
    datum_before, group_before = sizes(z, (dict, list)), sizes(e8, (dict, list))
    elements = list(dict.fromkeys(seeded_elements(e8, 20241019, 520)))[:500]
    assert len(elements) == 500
    reps = list(dict.fromkeys(z.canonical_rep(w) for w in elements))
    images = [z.sigma(rep) for rep in reps]
    assert [z.sigma_inverse(v) for v in images] == reps
    assert sizes(z, (dict, list)) == datum_before
    assert sizes(e8, (dict, list)) == group_before


# Counts the ZipDatum objects that canonical_rep and sigma create, in a
# process of its own: CPython cannot put back a class's inherited __new__
# once it has been set, so the patch may not outlive the count.
_COUNT_DATA = """
import json, sys
from weylzip import ZipDatum, build_group

label, I, psi, words = json.load(sys.stdin)
g = build_group(label)
z = ZipDatum(g, I, psi.values(), {int(s): t for s, t in psi.items()})
built = []
ZipDatum.__new__ = lambda cls, *args, **kwargs: built.append(cls) or object.__new__(cls)
reps = [z.canonical_rep(g.from_word(w)) for w in words]
sigmas = [z.sigma(rep) for rep in reps]
print(json.dumps([len(built), [r.canonical_word() for r in reps],
                  [v.canonical_word() for v in sigmas]]))
"""


@pytest.mark.parametrize("label,I,psi,seed", ORACLE_DATA[3:], ids=["E8", "E7"])
def test_classify_queries_build_no_datum(label, I, psi, seed):
    g = build_group(label)
    z = ZipDatum(g, I, set(psi.values()), psi)
    elements = seeded_elements(g, seed + 10, 150)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_DATA], env=env, capture_output=True, text=True,
        timeout=120, input=json.dumps([label, sorted(I), psi, words(elements)]),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    built, reps, sigmas = json.loads(proc.stdout)
    assert built == 0
    want = [canonical_rep_oracle(z, w) for w in elements]
    assert reps == [list(rep.canonical_word()) for rep in want]
    assert sigmas == [list(sigma_oracle(z, rep, "iw").canonical_word()) for rep in want]


@pytest.mark.parametrize("label,I,psi,seed", ORACLE_DATA[3:], ids=["E8", "E7"])
def test_induced_at_follows_the_definition(label, I, psi, seed):
    g = build_group(label)
    z = ZipDatum(g, I, set(psi.values()), psi)
    middles = dict.fromkeys(
        howlett_decompose(g, z.I, z.J, w).middle for w in seeded_elements(g, seed + 30, 60))
    twisted = 0
    for x in middles:
        sub, want = z.induced_at(x), induced_oracle(z, x)
        for name in ("I", "J", "psi", "universe", "_I_sorted", "_J_sorted"):
            assert getattr(sub, name) == getattr(want, name), (x, name)
        assert np.array_equal(sub._psi_table, want._psi_table)
        twisted += sub.psi != {t: t for t in sub.I}
    assert len(middles) > 10 and twisted


def test_poset_on_d6_builds_elements_for_the_parameters_only(monkeypatch):
    g = CoxeterGroup(*cartan.matrices_for_label("D6"), "D6")
    I = {1, 2, 3, 4, 5}
    z = ZipDatum(g, I, I, {i: i for i in I})
    calls = []
    elements_of_rows = g.elements_of_rows

    def recording(rows, letters=None):
        calls.append(len(rows))
        return elements_of_rows(rows, letters)

    monkeypatch.setattr(g, "elements_of_rows", recording)
    pieces = z.pieces()
    poset = z.hasse_poset()
    assert len(pieces) == len(poset.nodes) == 32
    # the 32 parameters and their 32 sigma images (the "wj" parameters)
    assert calls == [32, 32]
    assert not g._parabolic_cache


def test_d6_pieces_walk_no_whole_group():
    g = CoxeterGroup(*cartan.matrices_for_label("D6"), "D6")
    I = {1, 2, 3, 4, 5}
    z = ZipDatum(g, I, I, {i: i for i in I})
    assert len(z.pieces()) == 32
    assert [z.sigma_inverse(z.sigma(w)) for w in z.param_set()] == list(z.param_set())
    # the coset walks are not cached, and sigma enumerates nothing of W_I
    assert not g._enumerations


def test_param_set_memory_on_d6():
    g = CoxeterGroup(*cartan.matrices_for_label("D6"), "D6")
    I = {1, 2, 3, 4, 5}
    z = ZipDatum(g, I, I, {i: i for i in I})
    tracemalloc.start()
    try:
        assert len(z.param_set()) == 32
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000  # 23.5 MB while every element became an Element


def test_sigma_examples(z_a2, a2):
    assert z_a2.sigma(a2.identity) == a2.identity
    assert z_a2.sigma(a2.simple(2)) == a2.simple(1)
    s21 = a2.from_word([2, 1])
    assert z_a2.sigma(s21) == s21
    assert z_a2.sigma_inverse(a2.simple(1)) == a2.simple(2)
    with pytest.raises(NotMinimalRep):
        z_a2.sigma(a2.simple(1))


def test_sigma_is_length_preserving_bijection():
    for label in ("B2", "A3", "G2"):
        for z in sweep_zip_data(build_group(label)):
            params = z.param_set("iw")
            images = [z.sigma(w) for w in params]
            assert sorted(w.perm for w in images) == sorted(
                w.perm for w in z.param_set("wj")
            )
            assert all(w.length == im.length for w, im in zip(params, images))


RANK_AT_MOST_3 = ("A1", "A1xA1", "A2", "B2", "G2", "A1xA1xA1", "A1xA2", "A1xB2",
                  "A1xG2", "A3", "B3", "C3")
RANK_4_DATA = [
    ("A4", {1, 2}, {3, 4}, {1: 3, 2: 4}),
    ("A4", {1, 2, 3}, {2, 3, 4}, {1: 4, 2: 3, 3: 2}),
    ("B4", {1, 2}, {2, 3}, {1: 2, 2: 3}),
    ("C4", {1, 3}, {2, 4}, {1: 2, 3: 4}),
    ("D4", {1, 3, 4}, {1, 3, 4}, {1: 3, 3: 4, 4: 1}),
    ("D4", {1, 2}, {2, 4}, {1: 4, 2: 2}),
    ("F4", {1, 2}, {3, 4}, {1: 4, 2: 3}),
    ("F4", {1, 2, 3}, {2, 3, 4}, {1: 4, 2: 3, 3: 2}),
    ("A1xA3", {1, 2, 3}, {1, 3, 4}, {1: 1, 2: 4, 3: 3}),
]


def _census_data():
    for label in RANK_AT_MOST_3:
        yield from sweep_zip_data(build_group(label))
    for label, I, J, psi in RANK_4_DATA:
        yield ZipDatum(build_group(label), I, J, psi)


def test_every_twisted_orbit_holds_one_element_of_each_parameter_set():
    """The facts the sigma walk rests on and that are not proved here: each
    W_I-twisted orbit of an "iw" parameter holds exactly one element of
    W^J, each orbit of a "wj" parameter exactly one of ^I W, and the walk
    (both sides, on the whole stack) ends at it."""
    for z in _census_data():
        g = z.group
        m = g.num_positive
        for side in ("iw", "wj"):
            X = z._param_rows(side)[0]
            orbit = z._orbit_rows(X)  # [y, p, root]
            if side == "iw":
                members, walked = orbit, z._sigma_rows("iw", X)
                S = z._J_sorted
            else:  # x lies in ^I W iff x^{-1} lies in W^I
                members = np.argsort(orbit, axis=2)
                walked = z._sigma_rows("wj", np.argsort(X, axis=1))
                S = z._I_sorted
            hit = (members[:, :, [s - 1 for s in S]] < m).all(axis=2)
            first = hit.argmax(axis=0)
            one = members[first, np.arange(len(X))]
            assert hit.any(axis=0).all(), (z, side)
            assert ((members == one).all(axis=2) | ~hit).all(), (z, side)
            assert np.array_equal(walked, one), (z, side)


def test_sigma_walk_past_its_cap_raises_and_nothing_falls_back(monkeypatch):
    # a group of its own, so that no other test has filled its caches
    g = CoxeterGroup(*cartan.matrices_for_label("F4"), "F4")
    z = ZipDatum(g, {1, 2}, {3, 4}, {1: 4, 2: 3})
    moving = next(w for w in z.param_set("iw") if w.right_descents() & z.J)
    moving_wj = next(w for w in z.param_set("wj") if w.left_descents() & z.I)
    monkeypatch.setattr(z, "_sigma_cap", 0)
    named = r"sigma walk of ZipDatum\(F4, I=\[1, 2\], J=\[3, 4\].* \|Phi_I\^\+\| = 0 steps"
    with pytest.raises(RuntimeError, match=named):
        z.sigma(moving)
    with pytest.raises(RuntimeError, match=named):
        z.sigma_inverse(moving_wj)
    with pytest.raises(RuntimeError, match=named):
        z.pieces()
    assert not g._enumerations and not g._parabolic_cache
    assert z.sigma(g.identity) == g.identity  # no step needed


@pytest.mark.parametrize(
    "label,I,J,psi",
    [
        ("A3", {1}, {3}, {1: 3}),
        ("B3", {1, 2}, {1, 2}, {1: 1, 2: 2}),
        ("F4", {1, 2}, {3, 4}, {1: 4, 2: 3}),
        ("F4", {1, 2, 3}, {2, 3, 4}, {1: 4, 2: 3, 3: 2}),
        ("D5", {1, 2, 3}, {1, 2, 3}, {1: 1, 2: 2, 3: 3}),
        ("D4", {1, 3, 4}, {1, 3, 4}, {1: 3, 3: 4, 4: 1}),
        ("A5", {1, 2, 4, 5}, {1, 2, 4, 5}, {1: 5, 2: 4, 4: 2, 5: 1}),
        ("A5", {1, 2, 3}, {3, 4, 5}, {1: 5, 2: 4, 3: 3}),
        # the benchmark data not in PIECES_DATA
        ("D6", {1, 2, 3, 4, 5}, {1, 2, 3, 4, 5}, {i: i for i in range(1, 6)}),
        ("F4", {1}, {1}, {1: 1}),
        ("A5", {1, 5}, {1, 5}, {1: 1, 5: 5}),
        ("A6", {1, 2, 3}, {4, 5, 6}, {1: 6, 2: 5, 3: 4}),
    ],
)
def test_sigma_matches_oracle(label, I, J, psi):
    z = ZipDatum(build_group(label), I, J, psi)
    for w in z.param_set("iw"):
        assert z.sigma(w) == sigma_oracle(z, w, "iw")
    for wj in z.param_set("wj"):
        assert z.sigma_inverse(wj) == sigma_oracle(z, wj, "wj")


@pytest.mark.parametrize(
    "label,I,psi,seed",
    [
        ("E8", {1, 3, 4, 5}, {1: 3, 3: 4, 4: 5, 5: 6}, 20240601),
        ("E7", {1, 3, 4, 5, 6}, {1: 6, 3: 5, 4: 4, 5: 3, 6: 1}, 20240602),
    ],
)
def test_sigma_of_canonical_reps_matches_oracle(label, I, psi, seed):
    g = build_group(label)
    z = ZipDatum(g, I, set(psi.values()), psi)
    rng = random.Random(seed)
    for _ in range(40):
        w = g.from_word([rng.choice(g.simple_indices) for _ in range(rng.randint(0, 60))])
        rep = z.canonical_rep(w)
        sig = z.sigma(rep)
        assert sig == sigma_oracle(z, rep, "iw")
        assert z.sigma_inverse(sig) == rep == sigma_oracle(z, sig, "wj")


@pytest.mark.parametrize(
    "label,I,psi",
    [
        ("E7", {1, 3, 4, 5, 6}, {1: 6, 3: 5, 4: 4, 5: 3, 6: 1}),  # reversal
        ("D4", {1, 3, 4}, {1: 3, 3: 4, 4: 1}),  # triality
        ("A5", {1, 2, 4, 5}, {1: 5, 2: 4, 4: 2, 5: 1}),  # flip
    ],
    ids=["E7rev", "D4tri", "A5flip"],
)
def test_orbit_rows_match_the_psi_pairs(label, I, psi):
    """The twisted orbit rows of a few parameters of each side are the
    Element products y p psi(y)^{-1}, with psi(y) spelled out letter by
    letter; E7 has no tables, so its rows are checked alone."""
    z = ZipDatum(build_group(label), I, set(psi.values()), psi)
    pairs = _psi_pairs(z)
    for side in ("iw", "wj"):
        X, params = z._param_rows(side)
        picks = sorted({0, 1, len(params) // 2, len(params) - 1})
        orbit = z._orbit_rows(X[picks])
        assert orbit.shape == (len(pairs), len(picks), 2 * z.group.num_positive)
        assert orbit.dtype == np.int16
        for row, (y, py) in zip(orbit, pairs):
            assert [tuple(r.tolist()) for r in row] == [
                (y * params[p] * py.inverse()).perm for p in picks]


def test_pieces_sigma_in_chunks_equals_per_element_sigma():
    I = {1, 3, 4, 5, 6}
    z = ZipDatum(build_group("E6"), I, I, {i: i for i in I})
    params = z.param_set("iw")
    # the stack is walked in rounds, each row alone by the one-row walk
    single = [z.sigma(w) for w in params]
    assert [p.dual_rep for p in z.pieces()] == single
    assert [p.dual_rep for p in ZipDatum(z.group, I, I, z.psi).pieces()] == single


@pytest.mark.parametrize("label,I,psi,seed", ORACLE_DATA[3:], ids=["E8", "E7"])
def test_sigma_reads_the_canonical_row_by_value(label, I, psi, seed):
    g = CoxeterGroup(*cartan.matrices_for_label(label), label)
    z = ZipDatum(g, I, set(psi.values()), psi)
    elements = seeded_elements(g, seed + 20, 30)
    # an Element equal to the result but built apart, before the caches fill
    for w in elements[:10]:
        rep = z.canonical_rep(w)
        twin = g.from_word(rep.canonical_word())
        assert twin == rep and twin is not rep
        assert z.sigma(twin) == sigma_oracle(z, rep, "iw")
    # the row kept is that of the last result only: sigma of an earlier one
    # or of another parameter must not read it
    reps = [z.canonical_rep(w) for w in elements[10:]]
    other = z.canonical_rep(elements[0])
    for rep in reversed(reps):
        assert z.sigma(rep) == sigma_oracle(z, rep, "iw")
        assert z.sigma(other) == sigma_oracle(z, other, "iw")
    # and after the caches have filled
    for w in elements:
        rep = z.canonical_rep(w)
        twin = g.from_word(rep.canonical_word())
        assert z.sigma(twin) == z.sigma(rep) == sigma_oracle(z, rep, "iw")


def _one_element_ways():
    """(name, build) pairs: each build(z, t) returns the element t of the
    datum z, built by its own path."""
    yield "tuple", lambda z, t: Element(z.group, t.perm)
    yield "enumeration view", lambda z, t: Element(
        z.group, z.group.enumeration(z.group.simple_indices).perms[
            z.group.elements().index(t)
        ]
    )
    yield "product", lambda z, t: z.group.from_word(t.canonical_word())
    # y t psi(y)^{-1} for y = s_1 lies in the class of the parameter t
    yield "canonical_rep", lambda z, t: z.canonical_rep(
        z.group.simple(1) * t * z.group.simple(z.psi[1])
    )
    yield "sigma", lambda z, t: z.sigma(z.sigma_inverse(t))
    yield "sigma_inverse", lambda z, t: z.sigma_inverse(z.sigma(t))


@pytest.mark.parametrize("way", [name for name, _ in _one_element_ways()])
def test_one_element_however_built(way):
    build = dict(_one_element_ways())[way]
    g = build_group("D4")
    z = ZipDatum(g, {1, 2}, {2, 4}, {1: 4, 2: 2})
    # the longest parameter of both sides, not built by any of the ways
    both = set(z.param_set("iw")) & set(z.param_set("wj"))
    t = max(both, key=lambda w: w.sort_key)
    assert t.length >= 3
    got = build(z, t)
    assert got == t and hash(got) == hash(t)
    assert isinstance(got.row, np.ndarray) and got.row.dtype == np.int16
    with pytest.raises(ValueError):
        got.row[0] = got.row[1]
    assert got.perm == tuple(t.row.tolist())
    assert Element(g, got.perm) == got


def _stored_form(got):
    """got keeps the stored form: one read-only int16 row, equal and hashed
    like the Element of the same element built by products."""
    assert got.row.dtype == np.int16 and not got.row.flags.writeable
    twin = got.group.from_word(got.canonical_word())
    assert got == twin and hash(got) == hash(twin)


@pytest.mark.parametrize("label,I,psi,seed", [ORACLE_DATA[0], *ORACLE_DATA[3:]],
                         ids=["A3", "E8", "E7"])
def test_single_element_kernels_return_int16_elements(label, I, psi, seed):
    """canonical_rep, sigma, sigma_inverse and howlett_decompose run on intp
    rows; no intp row may reach an Element they return."""
    z, elements = oracle_inputs(label, I, psi, seed)
    for w in elements:
        rep = z.canonical_rep(w)
        image = z.sigma(rep)
        for got in (rep, image, z.sigma_inverse(image), *vars(
                howlett_decompose(z.group, z.I, z.J, w)).values()):
            _stored_form(got)
    if seed is None:  # both parameter sets, whole
        for side, kernel in (("iw", z.sigma), ("wj", z.sigma_inverse)):
            for p in z.param_set(side):
                _stored_form(kernel(p))


def _param_check_data(label):
    g = build_group(label)
    yield from sweep_zip_data(g)
    # universes smaller than the group, so that the universe test counts
    yield ZipDatum(g, {1}, {2}, {1: 2}, universe={1, 2})
    yield ZipDatum(g, (), (), {}, universe={2, 3})


@pytest.mark.parametrize("label", ["A3", "B3", "E8"])
def test_sigma_parameter_check_reads_the_rows(monkeypatch, label):
    """sigma and sigma_inverse accept exactly the parameters of their side
    in the universe, as the descent mask (iw) and in_min_right (wj) tell,
    without building the mask, and refuse the rest with the message of
    _require_param."""
    if label == "E8":
        z = ZipDatum(build_group("E8"), {1, 3, 4, 5}, {3, 4, 5, 6}, {1: 3, 3: 4, 4: 5, 5: 6})
        sample = seeded_elements(z.group, 20241020, 60)
        reps = [z.canonical_rep(w) for w in sample[:30]]
        data = [(z, sample + reps + [z.sigma(rep) for rep in reps])]
    else:
        data = [(z, z.group.elements()) for z in _param_check_data(label)]
    expected = {
        (z, w, side): z.in_universe(w) and (w.left_descents().isdisjoint(z.I) if side == "iw"
                                            else in_min_right(w, z.J))
        for z, elements in data for w in elements for side in ("iw", "wj")
    }
    assert any(expected.values()) and not all(expected.values())
    monkeypatch.setattr(Element, "left_descents", None)
    for (z, w, side), ok in expected.items():
        try:
            row = z._walk_start(w, side)
        except NotMinimalRep as exc:
            assert not ok, (z, w, side)
            kind = "left" if side == "iw" else "right"
            assert str(exc) == (
                f"element is not a minimal {kind}-coset representative in the universe")
        else:
            assert ok, (z, w, side)
            want = w.row if side == "iw" else w.inverse().row
            assert row.dtype == np.intp and np.array_equal(row, want)
    z, elements = data[-1]
    for side, kernel in (("iw", z.sigma), ("wj", z.sigma_inverse)):
        with pytest.raises(NotMinimalRep):
            kernel(next(w for w in elements if not expected[z, w, side]))


def test_precedes_and_closure(z_a2, a2):
    e = a2.identity
    s2 = a2.simple(2)
    s21 = a2.from_word([2, 1])
    assert z_a2.precedes(e, s21)
    assert not z_a2.precedes(s2, e)
    assert z_a2.precedes(s2, s21)
    assert words(z_a2.closure_set(e)) == [()]
    assert words(z_a2.closure_set(s2)) == [(), (2,)]
    assert words(z_a2.closure_set(s21)) == [(), (2,), (2, 1)]
    with pytest.raises(NotMinimalRep):
        z_a2.closure_set(a2.simple(1))


def test_closure_downward_closed(a3):
    z = ZipDatum(a3, {1}, {3}, {1: 3})
    for side in ("iw", "wj"):
        for w in z.param_set(side):
            cs = set(z.closure_set(w, side))
            for wp in cs:
                assert set(z.closure_set(wp, side)) <= cs


def test_hasse_poset_shapes(z_a2, a2):
    poset = z_a2.hasse_poset()
    assert len(poset.nodes) == 3
    assert poset.cover_edges == ((0, 1), (1, 2))
    zfull = ZipDatum(a2, {1, 2}, {1, 2}, {1: 1, 2: 2})
    assert len(zfull.hasse_poset().nodes) == 1
    zborel = ZipDatum(a2, set(), set(), {})
    poset = zborel.hasse_poset()
    assert len(poset.nodes) == 6
    # with W_I trivial the order reduces to Bruhat order
    params = zborel.param_set("iw")
    for i, x in enumerate(params):
        for j, w in enumerate(params):
            assert bool(poset.leq[i, j]) == a2.bruhat_leq(x, w)


def test_piece_dimensions(z_a2, a2):
    assert z_a2.piece_dimension(a2.from_word([2, 1])) == 8 == z_a2.dim_group(0)
    assert z_a2.piece_dimension(a2.identity) == 6
    assert z_a2.piece_dimension(a2.identity, central_rank=2) == 8
    zfull = ZipDatum(a2, {1, 2}, {1, 2}, {1: 1, 2: 2})
    assert zfull.piece_dimension(a2.identity) == zfull.dim_group(0)


def test_inf_stab_dims(z_a2, a2):
    assert z_a2.inf_stab_dim(a2.simple(2)) == 2
    assert z_a2.inf_stab_dim(a2.from_word([2, 1])) == 0
    assert z_a2.inf_stab_dim(a2.identity) == 2


def test_inf_stab_depends_only_on_x_part(a3):
    from weylzip.cosets import howlett_decompose

    z = ZipDatum(a3, {1, 2}, {2, 3}, {1: 2, 2: 3})
    by_x = {}
    for w in z.param_set("iw"):
        hd = howlett_decompose(a3, z.I, z.J, w)
        by_x.setdefault(hd.middle, set()).add(z.inf_stab_dim(w))
    for values in by_x.values():
        assert len(values) == 1


def test_pieces_listing(z_a2):
    pieces = z_a2.pieces()
    table = [
        (p.length, p.dimension, sorted(p.stable_subset), p.inf_stab_dim)
        for p in pieces
    ]
    assert table == [(0, 6, [], 2), (1, 7, [], 2), (2, 8, [2], 0)]
    # dual-side listing carries the same strata sorted by sigma labels
    dual = z_a2.pieces(side="wj")
    assert sorted(p.rep.perm for p in dual) == sorted(p.rep.perm for p in pieces)


def test_pieces_borel_and_full_cases(a2):
    zfull = ZipDatum(a2, {1, 2}, {1, 2}, {1: 1, 2: 2})
    (piece,) = zfull.pieces()
    assert piece.stable_subset == frozenset({1, 2})
    assert piece.dimension == zfull.dim_group(0)
    zborel = ZipDatum(a2, set(), set(), {})
    pieces = zborel.pieces()
    assert len(pieces) == 6
    dim_b = zborel.dim_parabolic(0)
    assert all(p.dimension == dim_b + p.length for p in pieces)


def test_kw_consistent_with_induced(a3):
    from weylzip.cosets import howlett_decompose

    z = ZipDatum(a3, {1, 2}, {1, 2}, {1: 2, 2: 1})
    for w in z.param_set("iw"):
        hd = howlett_decompose(a3, z.I, z.J, w)
        sub = z.induced_at(hd.middle)
        assert sub.stable_subset(hd.right) == z.stable_subset(w)


def relation_oracle(z: ZipDatum, side: str):
    """Parameters and closure relation from the oracles alone: coset
    minima, the sorted product closure of W_I, Element products for the
    twisted orbit and the subword property for Bruhat order."""
    g = z.group
    if side == "iw":
        params = iw_oracle(g, z.I)
    else:
        params = sorted((w.inverse() for w in iw_oracle(g, z.J)), key=lambda w: w.sort_key)
    twists = [
        (y, g.from_word([z.psi[i] for i in y.canonical_word()]).inverse())
        for y in shortlex_oracle(g, z.I)
    ]
    rel = np.array(
        [[any(bruhat_subword_oracle(y * a * py, b) for y, py in twists) for b in params]
         for a in params]
    )
    return params, rel


@pytest.mark.parametrize(
    "label,I,J,psi,side",
    [
        ("A3", {1}, {3}, {1: 3}, "iw"),
        ("A3", {1}, {3}, {1: 3}, "wj"),
        ("B3", {1, 2}, {1, 2}, {1: 1, 2: 2}, "iw"),
        ("B3", {1, 2}, {1, 2}, {1: 1, 2: 2}, "wj"),
    ],
)
def test_relation_matrix_matches_oracle(label, I, J, psi, side):
    z = ZipDatum(build_group(label), I, J, psi)
    params, rel = relation_oracle(z, side)
    assert [w.perm for w in z.param_set(side)] == [w.perm for w in params]
    assert np.array_equal(z._relation_matrix(side), rel)
    assert np.array_equal(z.hasse_poset(side).leq, rel)
    for b, w in enumerate(params):
        expect = [p.perm for p, hit in zip(params, rel[:, b]) if hit]
        assert [p.perm for p in z.closure_set(w, side)] == expect
        assert [z.precedes(p, w, side) for p in params] == rel[:, b].tolist()


def test_relation_matrix_in_a_smaller_universe(a3):
    z = ZipDatum(a3, {1, 2}, {2, 3}, {1: 2, 2: 3})
    for x in min_double_coset_reps(a3, z.I, z.J):
        sub = z.induced_at(x)
        for side in ("iw", "wj"):
            params = sub.param_set(side)
            expect = [[sub.precedes(a, b, side) for b in params] for a in params]
            rel = sub._relation_matrix(side)
            assert rel.tolist() == expect
            for b, w in enumerate(params):
                hits = [p for p, hit in zip(params, rel[:, b]) if hit]
                assert sub.closure_set(w, side) == tuple(hits)


def twisted_data():
    """The data induced from A3 I={1,2} -> {2,3} (universes {2,3}, twists
    among them non-identity), a D5 datum twisted by 4 <-> 5, D4 triality
    on {1,3,4} (psi of order 3) and the A5 flip on {1,2,4,5} (psi reversing
    the order of I)."""
    a3 = build_group("A3")
    z = ZipDatum(a3, {1, 2}, {2, 3}, {1: 2, 2: 3})
    induced = [z.induced_at(x) for x in min_double_coset_reps(a3, z.I, z.J)]
    assert any(sub.universe != z.universe and any(a != b for a, b in sub.psi.items())
               for sub in induced)
    return induced + [
        ZipDatum(build_group("D5"), {2, 3, 4}, {2, 3, 5}, {2: 2, 3: 3, 4: 5}),
        ZipDatum(build_group("D4"), {1, 3, 4}, {1, 3, 4}, {1: 3, 3: 4, 4: 1}),
        ZipDatum(build_group("A5"), {1, 2, 4, 5}, {1, 2, 4, 5}, {1: 5, 2: 4, 4: 2, 5: 1}),
    ]


@pytest.mark.parametrize("z", twisted_data(), ids=repr)
def test_orbit_gather_matches_element_products(z):
    g = z.group
    position = {w.perm: k for k, w in enumerate(g.parabolic_elements(z.universe))}
    twists = [
        (y, g.from_word([z.psi[i] for i in y.canonical_word()]).inverse())
        for y in shortlex_oracle(g, z.I)
    ]
    for side in ("iw", "wj"):
        X, params = z._param_rows(side)
        products = [[(y * p * py).perm for p in params] for y, py in twists]
        assert z._orbit_positions(side).tolist() == [
            [position[perm] for perm in row] for row in products]
        assert [[tuple(r) for r in row] for row in z._orbit_rows(X).tolist()] == products


@pytest.mark.parametrize(
    "label,I,J,psi",
    [("F4", {1, 2}, {3, 4}, {1: 4, 2: 3}), ("D5", {1, 2, 3}, {1, 2, 3}, {1: 1, 2: 2, 3: 3})],
)
def test_closure_path_reads_table_positions_only(monkeypatch, label, I, J, psi):
    """Closure sets and posets walk the twisted orbits on the positions of
    the tables of W_U: on a fresh group they give the same results when the
    orbit row gather and the rebuild of the rows of W_U and of W_I (and of
    their inverses) refuse to run."""

    def results(datum):
        out = []
        for side in ("iw", "wj"):
            poset = datum.hasse_poset(side)
            closures = [[w.perm for w in datum.closure_set(w, side)]
                        for w in datum.param_set(side)]
            out.append((poset.leq.tolist(), poset.cover_edges, closures))
        return out

    expect = results(ZipDatum(build_group(label), I, J, psi))
    g = CoxeterGroup(*cartan.matrices_for_label(label), label)
    fresh = ZipDatum(g, I, J, psi)
    walks = {"W_U": g.enumeration(fresh.universe), "W_I": g.enumeration(fresh.I)}

    for name in ("perms", "inverses"):
        def guarded(e, build=getattr(ShortLex, name).func, name=name):
            for which, walk in walks.items():
                assert e is not walk, f"the closure path rebuilt the {name} of {which}"
            return build(e)

        monkeypatch.setattr(ShortLex, name, property(guarded))

    def refuse(*args, **kwargs):
        raise AssertionError("the closure path read root-permutation rows")

    monkeypatch.setattr(ZipDatum, "_orbit_rows", refuse)
    assert results(fresh) == expect
    for walk in walks.values():
        assert not {"perms", "inverses"} & set(vars(walk))


def test_zipdata_reads_no_walk_layers():
    """Every value that zipdata carries along a ShortLex walk goes through
    ShortLex.replay, so the module never reads a walk's length layers."""
    path = Path(zipdata.__file__)
    reads = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "layers"
    ]
    assert not reads, f"zipdata.py reads .layers at lines {reads}"


def test_poset_memory_on_d6():
    """The tables of W_U hold no rows: the traced peak of a D6 poset on a
    fresh group, tables included, stays within 3 MB of its entry (7.7 MB
    while the walk kept the rows of all 23 040 elements and their
    inverses)."""
    g = CoxeterGroup(*cartan.matrices_for_label("D6"), "D6")
    I = {1, 2, 3, 4, 5}
    z = ZipDatum(g, I, I, {i: i for i in I})
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        assert len(z.hasse_poset().cover_edges) == 50
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - entry <= 3_000_000


def test_poset_traced_peak_on_d6():
    """The tables of W_U are int16 when |W_U| <= 2^15: the traced peak of
    the D6 I={1,...,5} poset on a fresh group is at most 1.9 MB (2.2 MB
    with int32 tables)."""
    g = CoxeterGroup(*cartan.matrices_for_label("D6"), "D6")
    I = {1, 2, 3, 4, 5}
    z = ZipDatum(g, I, I, {i: i for i in I})
    tracemalloc.start()
    try:
        z.hasse_poset()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_900_000


def test_meeting_orbits_raise(monkeypatch):
    g = CoxeterGroup(*cartan.matrices_for_label("A3"), "A3")
    z = ZipDatum(g, {1}, {1}, {1: 1})
    orbit = z._orbit_positions("iw").copy()
    orbit[:, 1] = orbit[:, 0]
    monkeypatch.setattr(z, "_orbit_positions", lambda side: orbit)
    with pytest.raises(RuntimeError, match=r"two twisted orbits of .* \(iw\) meet"):
        z.hasse_poset()


@pytest.mark.parametrize("label,I", [("F4", {1}), ("D5", {1, 2})])
def test_cover_edges_match_oracle(label, I):
    # F4 I={1} has 576 parameters and D5 I={1,2} has 320: some pairs have a
    # multiple of 256 parameters strictly between them.
    z = ZipDatum(build_group(label), I, I, {i: i for i in I})
    poset = z.hasse_poset()
    assert poset.cover_edges == cover_edges_oracle(poset.leq)


def _packed(rel):
    """The down-sets of rel (rel[x, y] = x <= y) packed as _cover_edges reads
    them: row y holds column y of rel."""
    return np.packbits(rel.T, axis=1)


def test_uncertified_order_takes_the_product_covers():
    # 0 < 1 < 2 and 0 < 3, with l = 0, 1, 2, 2: the cover 0 < 3 skips a
    # length, so the length-one pairs (0, 1) and (1, 2) do not close to rel
    rel = np.eye(4, dtype=bool)
    for a, b in [(0, 1), (1, 2), (0, 2), (0, 3)]:
        rel[a, b] = True
    a, b, length = np.array([0, 1]), np.array([1, 2]), np.array([0, 1, 2, 2])
    edges = zipdata._cover_edges(_packed(rel), a, b, length, "a hand-built order")
    assert edges == cover_edges_oracle(rel) == ((0, 1), (0, 3), (1, 2))
    # the same pairs certify the graded order without 0 < 3
    rel[0, 3] = False
    assert zipdata._cover_edges(_packed(rel), a, b, length, "") == ((0, 1), (1, 2))


def test_uncertified_order_above_the_product_bound_is_refused(monkeypatch):
    rel = np.eye(4, dtype=bool)
    rel[0, 3] = True
    monkeypatch.setattr(zipdata, "PRODUCT_BOUND", 3)
    with pytest.raises(PosetTooLarge, match="a hand-built order .*k = 4 .*bound 3"):
        zipdata._cover_edges(_packed(rel), np.array([], dtype=int), np.array([], dtype=int),
                             np.array([0, 1, 2, 2]), "a hand-built order")


@pytest.mark.parametrize("label", ["A4", "B3", "D4", "F4", "G2", "A1xA2"])
def test_bruhat_posets_take_the_length_one_pairs_as_covers(monkeypatch, label):
    """With I = {} the order is Bruhat order: hasse_poset builds no relation
    and takes the one-letter deletions as covers, on both sides, and they
    are the oracle's covers of the relation read afterwards."""
    z = ZipDatum(build_group(label), (), (), {})
    oracle = {}
    for side in ("iw", "wj"):
        with monkeypatch.context() as m:
            m.setattr(ZipDatum, "_down_sets", None)
            poset = z.hasse_poset(side)
        key = poset.leq.tobytes()
        if key not in oracle:
            oracle[key] = cover_edges_oracle(poset.leq)
        assert poset.cover_edges == oracle[key], (label, side)
        assert len(poset.nodes) == z.group.order


def test_closure_posets_compare_and_hash_by_their_fields():
    z = ZipDatum(build_group("A3"), {1, 2}, {2, 3}, {1: 2, 2: 3})
    first, again = z.hasse_poset("iw"), z.hasse_poset("iw")
    assert first == again and hash(first) == hash(again)
    first.leq  # the relation, cached on first read, is no field
    assert first == again and hash(first) == hash(again)
    assert {first, again} == {first}
    other = z.hasse_poset("wj")
    assert first != other and other == z.hasse_poset("wj")


def test_d6_poset_builds_no_dense_relation(monkeypatch):
    """hasse_poset, to_json and to_dot on D6 I={1,2} (k = 3 840) never
    build the k x k relation, and leq is built only when it is read."""
    z = _identity_datum("D6", {1, 2})
    relation = ZipDatum._relation_matrix

    def refuse(*args, **kwargs):
        raise AssertionError("the dense relation was built")

    monkeypatch.setattr(ZipDatum, "_relation_matrix", refuse)
    poset = z.hasse_poset()
    assert len(poset.nodes) == 3_840
    assert poset.to_json().count("\n") > 3_840 and poset.to_dot().startswith("digraph")
    assert "leq" not in vars(poset)
    with pytest.raises(AssertionError, match="dense relation"):
        poset.leq
    monkeypatch.setattr(ZipDatum, "_relation_matrix", relation)
    assert poset.leq.shape == (3_840, 3_840) and poset.leq.diagonal().all()
    assert "leq" in vars(poset)


def test_length_one_pairs_certify_every_census_poset(monkeypatch):
    """Every datum of rank at most 3 and the rank-4 list, both sides: the
    length-one pairs close to the relation, so no poset takes the product
    covers, and they are the oracle's cover edges."""
    def refuse(rel):
        raise AssertionError("the length-one pairs did not certify the covers")

    monkeypatch.setattr(zipdata, "_product_covers", refuse)
    count = 0
    for z in _census_data():
        for side in ("iw", "wj"):
            poset = z.hasse_poset(side)
            assert poset.cover_edges == cover_edges_oracle(poset.leq), (z, side)
            count += 1
    assert count == 390


def test_verify_owner_lemma_names_a_datum_where_it_fails(monkeypatch):
    from weylzip.verify import check_owner_lemma

    z = ZipDatum(build_group("B3"), {1}, {1}, {1: 1})
    assert check_owner_lemma(z, "iw") == check_owner_lemma(z, "wj") == []
    owners = ZipDatum._owners

    def swapped(self, side):
        # the orbits of parameters 1 and 2 trade owners
        owner = owners(self, side).copy()
        one, two = owner == 1, owner == 2
        owner[one], owner[two] = 2, 1
        return owner

    monkeypatch.setattr(ZipDatum, "_owners", swapped)
    bad = check_owner_lemma(z, "iw")
    assert len(bad) == 1 and bad[0].startswith(f"{z!r}: on side iw, ")


def test_verify_census_names_a_datum_whose_pairs_do_not_close(monkeypatch):
    from weylzip.verify import check_length_one_closure

    z = ZipDatum(build_group("B3"), {1}, {1}, {1: 1})
    assert check_length_one_closure(z, "iw") == check_length_one_closure(z, "wj") == []
    a, b = z._length_one_pairs("iw")
    monkeypatch.setattr(ZipDatum, "_length_one_pairs", lambda self, side: (a[1:], b[1:]))
    assert check_length_one_closure(z, "iw") == [
        f"{z!r}: the length-one pairs do not close to the closure order on side iw, "
        "so hasse_poset takes the product covers"
    ]


def test_in_universe_is_a_support_test():
    a4 = build_group("A4")
    for U in subsets(a4.simple_indices):
        z = ZipDatum(a4, set(), set(), {}, universe=U)
        for w in a4.elements():
            assert z.in_universe(w) == (set(w.canonical_word()) <= U)
    e8 = build_group("E8")
    rng = random.Random(20240315)
    for _ in range(150):
        U = set(rng.sample(e8.simple_indices, rng.randint(1, 7)))
        z = ZipDatum(e8, set(), set(), {}, universe=U)
        letters = sorted(U) * 9 + list(e8.simple_indices)
        w = e8.from_word([rng.choice(letters) for _ in range(rng.randint(0, 30))])
        assert z.in_universe(w) == (set(w.canonical_word()) <= U)


def test_classify_beyond_the_enumeration_bound_builds_no_tables():
    e8 = build_group("E8")
    z = ZipDatum(e8, {1, 3, 4, 5}, {3, 4, 5, 6}, {1: 3, 3: 4, 4: 5, 5: 6})
    w = e8.from_word([2, 4, 3, 5, 4, 2, 6, 5, 7, 8, 7, 6, 1, 3])
    rep = z.canonical_rep(w)
    assert z.contains_param(rep)
    sig = z.sigma(rep)
    assert sig.length == rep.length
    assert z.sigma_inverse(sig) == rep
    assert len(z.w_I()) == 120
    orbit = z._orbit_rows(rep.row)
    assert orbit.shape == (120, 1, 240)
    assert orbit.dtype == np.int16
    assert not e8._tables
    assert all(len(elements) <= 120 for elements in e8._parabolic_cache.values())


def test_precedes_beyond_the_enumeration_bound_builds_no_tables():
    # a group of its own, so no other test has filled its caches
    e8 = CoxeterGroup(*cartan.matrices_for_label("E8"), "E8")
    z = ZipDatum(e8, {1, 3, 4, 5}, {3, 4, 5, 6}, {1: 3, 3: 4, 4: 5, 5: 6})
    rng = random.Random(20240819)
    reps = [
        z.canonical_rep(e8.from_word(rng.choice(e8.simple_indices) for _ in range(8)))
        for _ in range(6)
    ]
    twists = [
        (y, e8.from_word([z.psi[i] for i in y.canonical_word()]).inverse())
        for y in shortlex_oracle(e8, z.I)
    ]
    for side, params in (("iw", reps), ("wj", [z.sigma(rep) for rep in reps])):
        for a in params:
            for b in params:
                expect = any(bruhat_subword_oracle(y * a * py, b) for y, py in twists)
                assert z.precedes(a, b, side) == expect
    assert not e8._tables
    assert set(e8._enumerations) == {z.I}
    assert not {"perms", "inverses"} & set(vars(e8.enumeration(z.I)))


def _identity_datum(label, I):
    return ZipDatum(build_group(label), I, I, {i: i for i in I})


PIECES_DATA = [
    _identity_datum("A3", {1}),
    _identity_datum("B3", {1, 2}),
    _identity_datum("F4", {1, 2}),
    _identity_datum("D5", {1, 2, 3}),
    _identity_datum("A6", {1, 2, 3}),
    ZipDatum(build_group("F4"), {1, 2}, {3, 4}, {1: 4, 2: 3}),
    _identity_datum("E6", {1, 3, 4, 5, 6}),
    *twisted_data(),
]


@pytest.mark.parametrize("side", ["iw", "wj"])
@pytest.mark.parametrize("z", PIECES_DATA, ids=repr)
def test_batched_pieces_equal_the_per_element_api(z, side):
    g = z.group
    pieces = z.pieces(side, central_rank=1)
    labels = [p.rep if side == "iw" else p.dual_rep for p in pieces]
    assert labels == list(z.param_set(side))
    for p in pieces:
        w = p.rep
        hd = howlett_decompose(g, z.I, z.J, w)
        # sigma, sigma_inverse and the pass share one kernel: the oracles
        # share none of it
        assert p.dual_rep == z.sigma(w) == sigma_oracle(z, w)
        assert z.sigma_inverse(p.dual_rep) == sigma_oracle(z, p.dual_rep, "wj") == w
        assert p.stable_subset == z.stable_subset(w) == kw_bruteforce(z, w)
        oracle = howlett_oracle(g, z.I, z.J, w)
        assert (p.x_part, p.right_part) == (hd.middle, hd.right) == (oracle.middle, oracle.right)
        assert p.length == w.length
        assert p.dimension == z.piece_dimension(w, central_rank=1)
        assert p.inf_stab_dim == z.inf_stab_dim(w)
        # the words and lengths the pass presets are those of the rows
        for v in (w, p.dual_rep, p.x_part):
            fresh = Element(g, v.perm)
            assert (v.canonical_word(), v.length) == (fresh.canonical_word(), fresh.length)
