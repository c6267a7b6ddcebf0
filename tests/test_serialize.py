import random

import numpy as np
import pytest

from weylzip import build_group
from weylzip.errors import MalformedInput
from weylzip.serialize import (
    abstract_datum_from_json,
    cycles_str,
    extended_datum_from_json,
    isogeny_datum_from_json,
    parse_automorphism,
    parse_cycles,
    parse_psi,
    parse_subset,
    parse_word,
    word_str,
    word_texts,
    zip_datum_from_json,
)


def test_word_round_trip(a2):
    for w in a2.elements():
        assert parse_word(a2, word_str(w)) == w
    assert word_str(a2.identity) == "e"
    assert parse_word(a2, "e") == a2.identity
    with pytest.raises(MalformedInput):
        parse_word(a2, "1,x")


def test_subsets_and_psi():
    assert parse_subset("1,3") == frozenset({1, 3})
    assert parse_subset("") == frozenset()
    assert parse_psi("1:2,2:1") == {1: 2, 2: 1}
    assert parse_psi("") == {}
    with pytest.raises(MalformedInput):
        parse_psi("1-2")


def test_cycles_round_trip():
    for text, degree in [("(1 2)", 4), ("(1 2)(3 4)", 4), ("()", 4), ("(1 2 3 4 5)", 5)]:
        perm = parse_cycles(text, degree)
        assert parse_cycles(cycles_str(perm), degree) == perm
    assert parse_cycles("e", 3) == (0, 1, 2)
    with pytest.raises(MalformedInput):
        parse_cycles("(1 9)", 4)
    with pytest.raises(MalformedInput):
        parse_cycles("(1 1)", 4)


def test_parse_automorphism(a2):
    assert parse_automorphism(a2, "id").is_identity()
    assert parse_automorphism(a2, "flip").images == (2, 1)
    assert parse_automorphism(a2, [2, 1]).images == (2, 1)
    d4 = build_group("D4")
    with pytest.raises(MalformedInput):
        parse_automorphism(d4, "flip")  # triality: several nontrivial choices
    b3 = build_group("B3")
    with pytest.raises(MalformedInput):
        parse_automorphism(b3, "flip")  # no nontrivial automorphism at all


def test_zip_datum_from_json():
    z, central = zip_datum_from_json(
        {"type": "A2", "I": [1], "J": [2], "psi": {"1": 2}, "central_rank": 1}
    )
    assert z.I == frozenset({1}) and z.J == frozenset({2}) and central == 1
    # J defaults to the psi image
    z, _ = zip_datum_from_json({"type": "A2", "I": [1], "psi": {"1": 2}})
    assert z.J == frozenset({2})
    with pytest.raises(MalformedInput):
        zip_datum_from_json({"I": [1]})


def test_abstract_datum_from_json():
    a = abstract_datum_from_json(
        {
            "domain": 4,
            "gamma_gens": ["(1 2)", "(2 3)", "(3 4)"],
            "delta_gens": ["(1 2)"],
            "psi": {"(1 2)": "(2 3)"},
        }
    )
    assert a.group.order == 24 and len(a.delta) == 2
    with pytest.raises(MalformedInput):
        abstract_datum_from_json({"domain": 4, "gamma_gens": [], "delta_gens": ["(1 2)"], "psi": {}})


def test_extended_datum_from_json():
    ext = extended_datum_from_json(
        {
            "type": "A1xA1",
            "I": [],
            "J": [],
            "psi": {},
            "omega_gens": [[2, 1]],
            "omega_I_gens": [[2, 1]],
            "psi_hat": {"[2, 1]": [2, 1]},
        }
    )
    assert len(ext.omega) == 2 and len(ext.omega_I) == 2
    # key text need not match formatting exactly; it is parsed
    ext = extended_datum_from_json(
        {
            "type": "A1xA1",
            "psi": {},
            "I": [],
            "omega_gens": [[2, 1]],
            "omega_I_gens": [[2, 1]],
            "psi_hat": {"[2,1]": [2, 1]},
        }
    )
    assert len(ext.pieces("iw")) == 6


def test_isogeny_datum_from_json():
    iso, central = isogeny_datum_from_json(
        {"type": "A3", "phi_bar": "id", "delta": "id", "I": [1], "x": "1,2"}
    )
    assert iso.zip.J == frozenset({2}) and central == 0
    iso, _ = isogeny_datum_from_json(
        {"type": "A2", "phi_bar": "flip", "delta": "id", "I": [1], "x": "e",
         "frobenius": True}
    )
    assert iso.frobenius_mode


def test_word_texts_match_word_str_past_rank_9():
    """The padded-array formatter right-aligns letters to the widest index
    and drops the padding: A11 has two-digit letters."""
    g = build_group("A11")
    rng = random.Random(5)
    elements = [g.from_word(rng.choice(g.simple_indices) for _ in range(rng.randint(0, 14)))
                for _ in range(60)]
    words = [w.canonical_word() for w in elements]
    letters = np.zeros((len(words), max(map(len, words))), dtype=np.int16)
    for row, word in zip(letters, words):
        row[:len(word)] = word
    assert any(max(w, default=0) >= 10 for w in words) and () in words
    assert word_texts(letters) == [word_str(w) for w in elements]
    assert word_texts(letters[:, :0]) == ["e"] * len(words)
