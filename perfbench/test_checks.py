"""Tests of the benchmark's own checkers and reference values, on
hand-made inputs.  Run with `python3 -m pytest perfbench` from the
repository root."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import checks
from reference import Reference, poly_div, subdiagram_degrees

# The worked A2 example: I = {1}, J = {2}, psi(1) = 2, three strata
# e, s2, s2 s1.  Columns computed by hand: dim = 2 + 3 + 1 + l,
# inf_stab_dim = (3 - 1) - l(x) with x the (I, J) double-coset part,
# K_w from w(alpha_s) = alpha_1 only for w = s2 s1, s = 2.
A2 = {"type": "A2", "I": [1], "J": [2], "psi": [[1, 2]]}
A2_ROWS = [
    {"word": "e", "length": 0, "dim": 6, "inf_stab_dim": 2, "K": [], "sigma": "e"},
    {"word": "2", "length": 1, "dim": 7, "inf_stab_dim": 2, "K": [], "sigma": "1"},
    {"word": "2,1", "length": 2, "dim": 8, "inf_stab_dim": 0, "K": [2], "sigma": "2,1"},
]
A2_EDGES = [(0, 1), (1, 2)]


def pieces_failures(rows) -> list[str]:
    fails: list[str] = []
    checks.check_pieces_rows(Reference("A2"), A2, rows, "A2", fails)
    return fails


def test_a2_table_passes():
    assert pieces_failures(A2_ROWS) == []


@pytest.mark.parametrize("field, value, message", [
    ("dim", 9, "has dim"),
    ("K", [1, 2], "the sweep gives"),
    ("inf_stab_dim", 1, "inf_stab_dim"),
    ("sigma", "2", "descent in [2]"),
    ("word", "1,2", "has a descent in [1]"),
])
def test_a2_table_with_one_wrong_cell_fails(field, value, message):
    rows = [dict(r) for r in A2_ROWS]
    rows[2][field] = value
    fails = pieces_failures(rows)
    assert any(message in f for f in fails), fails


def test_a2_table_with_a_missing_row_fails():
    fails = pieces_failures(A2_ROWS[:2])
    assert any("length histogram" in f for f in fails)


def test_a2_poset_passes_and_roundtrips_through_dot():
    dot = "\n".join(
        ["digraph closure {"]
        + [f'  n{k} [label="{r["word"]}\\nl={r["length"]} dim={r["dim"]}"];'
           for k, r in enumerate(A2_ROWS)]
        + [f"  n{a} -> n{b};" for a, b in A2_EDGES]
        + ["}"]) + "\n"
    nodes, edges = checks.parse_poset_dot(dot)
    assert edges == A2_EDGES
    fails: list[str] = []
    checks.check_poset(Reference("A2"), A2, "iw", nodes, edges, "A2", fails)
    assert fails == []


def test_redundant_edge_is_found():
    lengths = [0, 1, 1, 2, 3]
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4)]  # (1, 4) is implied
    fails: list[str] = []
    checks.check_order_edges(lengths, edges, "toy", fails)
    assert len(fails) == 1 and "1 of 6 cover edges are implied" in fails[0]
    fails = []
    checks.check_order_edges(lengths, edges[:-1], "toy", fails)
    assert fails == []


def test_edges_that_keep_length_or_leave_two_maxima_fail():
    fails: list[str] = []
    checks.check_order_edges([0, 1, 1], [(0, 1), (1, 2)], "toy", fails)
    assert any("does not raise length" in f for f in fails)
    fails = []
    checks.check_order_edges([0, 1, 1], [(0, 1), (0, 2)], "toy", fails)
    assert any("maximal nodes" in f for f in fails)


def classify_failures(query_word, row) -> list[str]:
    fails: list[str] = []
    checks.check_classify(Reference("A2"), A2, {"w": query_word, "y": [], "param": [2]}, row, "A2", fails)
    return fails


def test_minimal_classify_result_passes():
    # s1 s2 = s1 * e * s2 lies in W_I e W_J, and s2 * psi(s1) = e.
    assert classify_failures([1, 2], ["e", "e", [True, True, True, True]]) == []


def test_non_minimal_classify_result_fails():
    fails = classify_failures([1, 2], ["1,2", "1,2", [True, True, True, True]])
    assert any("not minimal in W_I w" in f for f in fails)


def test_classify_result_in_another_double_coset_fails():
    fails = classify_failures([1, 2], ["2,1", "2,1", [True, True, True, True]])
    assert any("another double coset" in f for f in fails)


def test_failed_canonical_rep_checks_are_reported():
    fails = classify_failures([1, 2], ["e", "e", [True, False, True, True]])
    assert fails and "y w psi(y)^-1" in fails[0]
    fails = classify_failures([1, 2], ["e", "e", [True, True, True, False]])
    assert fails and "canonical_rep(p) != p for p = 2" in fails[0]


def all_elements(ref: Reference) -> list:
    seen = {ref.key(ref.identity): ref.identity}
    frontier = [ref.identity]
    while frontier:
        new = []
        for p in frontier:
            for s in ref.reflections:
                q = p[s]
                if ref.key(q) not in seen:
                    seen[ref.key(q)] = q
                    new.append(q)
        frontier = new
    return list(seen.values())


@pytest.mark.parametrize("label, order, nplus", [
    ("A2", 6, 3), ("A3", 24, 6), ("B3", 48, 9), ("G2", 12, 6), ("F4", 1152, 24),
    ("D5", 1920, 20), ("A6", 5040, 21), ("D6", 23040, 30), ("E6", 51840, 36),
    ("E7", 2903040, 63), ("E8", 696729600, 120),
])
def test_order_and_positive_roots_from_degrees(label, order, nplus):
    ref = Reference(label)
    assert (ref.order, ref.nplus, ref.num_positive) == (order, nplus, nplus)
    assert sum(ref.poincare) == order
    if order <= 2000:
        assert len(all_elements(ref)) == order


@pytest.mark.parametrize("label, subset, order", [
    ("F4", {2, 3}, 8), ("F4", {1, 2, 3}, 48), ("F4", {2, 3, 4}, 48),
    ("D6", {1, 2, 3, 4, 5}, 720), ("D6", {3, 4, 5, 6}, 192), ("E6", {1, 3, 4, 5, 6}, 720),
    ("E7", {2, 3, 4, 5, 6, 7}, 23040), ("E8", {1, 3, 4, 5}, 120), ("B3", {1, 3}, 4),
])
def test_parabolic_types(label, subset, order):
    ref = Reference(label)
    assert ref.order_of(subset) == order
    assert sum(ref.param_histogram(subset)) == ref.order // order


def test_histogram_matches_enumeration():
    ref = Reference("B3")
    counts = [0] * (ref.nplus + 1)
    for p in all_elements(ref):
        if not ref.left_descents(p) & {1, 2}:
            counts[ref.length(p)] += 1
    want = ref.param_histogram({1, 2})
    assert counts[: len(want)] == want and not any(counts[len(want):])


def test_poly_div_refuses_inexact_quotients():
    with pytest.raises(ValueError):
        poly_div([1, 1, 1], [1, 1])


def test_subdiagram_of_e8_is_e7():
    assert subdiagram_degrees("E", 8, range(1, 8)) == (2, 6, 8, 10, 12, 14, 18)


def test_random_words_stay_reduced_and_minimal():
    ref, rng = Reference("E7"), random.Random(5)
    for length in (0, 17, 40):
        w = ref.random_word(rng, length, {1, 3, 4}, "iw")
        assert ref.is_reduced(w) and len(w) == length
        assert not ref.left_descents(ref.elem(w)) & {1, 3, 4}
        v = ref.random_word(rng, length, {2, 5}, "wj")
        assert ref.is_reduced(v) and not ref.right_descents(ref.elem(v)) & {2, 5}


def test_unreadable_output_is_a_failure():
    op = {"cmd": "poset", "datum": A2, "side": "iw", "format": "json"}
    (fails,) = checks.check_ladder_pass([op], ["{not json"])
    assert fails and "unreadable output" in fails[0]
    good = json.dumps({"side": "iw", "nodes": [{"word": r["word"], "length": r["length"],
                                                "dim": r["dim"]} for r in A2_ROWS],
                       "cover_edges": [list(e) for e in A2_EDGES]})
    assert checks.check_ladder_pass([op], [good]) == [[]]


def test_metric_lists_match_benchmark_json():
    import run

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
