"""Golden CLI outputs: byte-identity gate for the enumeration, the tables
and the closure relation.

Each case runs `weylzip` in-process and compares its standard output with
`tests/golden/<name>.txt`.  The files were written by the CLI before the
layered ShortLex enumeration and the table-driven closure relation
replaced the sorted product closure and the per-pair relation; every
poset here has fewer than 256 parameters, so the cover-edge overflow fix
leaves them unchanged.  Rewrite a file only for an intended output change,
and name that change in CHANGES.md.

The `classify` cases on E8 and E7 lie beyond the enumeration bound
(nothing is enumerated there, W_I included: sigma is a walk in the
twisted orbit); their files were written by the CLI before canonical
representatives moved onto numpy root-permutation rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from weylzip import cli
from weylzip.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (datum options, a mid-length parameter on the datum's side,
#          that side, an element to classify)
DATA = {
    "A3": (["--type", "A3", "--I", "1", "--psi", "1:1"], "2,3", "iw", "2,1,3,2"),
    "B3": (["--type", "B3", "--I", "1,2", "--psi", "1:1,2:2"], "3,2,3", "iw",
           "3,2,1,2,3"),
    "F4": (["--type", "F4", "--I", "1,2", "--psi", "1:1,2:2"],
           "3,2,3,4,3,2,1,3,2,3", "iw", "4,3,2,1,2,3,4,3"),
    "F4tw": (["--type", "F4", "--I", "1,2", "--J", "3,4", "--psi", "1:4,2:3"],
             "2,1,3,2,1,3,2,4,3,2", "wj", "4,3,2,1,2,3,4,3"),
    "D5": (["--type", "D5", "--I", "1,2,3", "--psi", "1:1,2:2,3:3"],
           "4,3,5,3,2,4,3", "iw", "5,3,4,2,3,1,2"),
}


E8_W0 = (
    "1,2,3,1,4,2,3,1,4,3,5,4,2,3,1,4,3,5,4,2,6,5,4,2,3,1,4,3,5,4,2,6,5,4,3,1,"
    "7,6,5,4,2,3,1,4,3,5,4,2,6,5,4,3,1,7,6,5,4,2,3,4,5,6,7,8,7,6,5,4,2,3,1,4,"
    "3,5,4,2,6,5,4,3,1,7,6,5,4,2,3,4,5,6,7,8,7,6,5,4,2,3,1,4,3,5,4,2,6,5,4,3,"
    "1,7,6,5,4,2,3,4,5,6,7,8"
)
E7_W0 = (
    "1,2,3,1,4,2,3,1,4,3,5,4,2,3,1,4,3,5,4,2,6,5,4,2,3,1,4,3,5,4,2,6,5,4,3,1,"
    "7,6,5,4,2,3,1,4,3,5,4,2,6,5,4,3,1,7,6,5,4,2,3,4,5,6,7"
)

# name -> (datum options, words to classify, the last one the longest element)
ABOVE_BOUND = {
    "E8shift": (["--type", "E8", "--I", "1,3,4,5", "--psi", "1:3,3:4,4:5,5:6"],
                ["2,4,3,5,4,2,6,5,7,8,7,6,1,3",
                 "8,7,6,5,4,3,1,2,4,5,6,7,8,6,5,4,3,2,4,1,3,4,5,7,6,8", E8_W0]),
    "E7rev": (["--type", "E7", "--I", "1,3,4,5,6", "--psi", "1:6,3:5,4:4,5:3,6:1"],
              ["7,6,5,4,3,2,4,5,1,3,6,7",
               "2,4,5,3,1,6,4,7,5,2,3,4,6,5,1,3,4,2,7,6", E7_W0]),
}


def cases() -> list[tuple[str, list[str]]]:
    out = []
    for name, (datum, w, side, x) in DATA.items():
        out.append((f"{name}-pieces", ["pieces", *datum, "--format", "jsonl"]))
        for fmt in ("json", "dot"):
            out.append((f"{name}-poset-{fmt}",
                        ["poset", *datum, "--side", side, "--format", fmt]))
        out.append((f"{name}-closure", ["closure", *datum, "--side", side, "--w", w]))
        out.append((f"{name}-classify", ["classify", *datum, "--w", x]))
        if side == "iw":
            out.append((f"{name}-sigma", ["sigma", *datum, "--w", w]))
        else:
            out.append((f"{name}-sigma-inverse", ["sigma", *datum, "--w", w, "--inverse"]))
    for name, (datum, words) in ABOVE_BOUND.items():
        for k, x in enumerate(words, 1):
            out.append((f"{name}-classify-{k}", ["classify", *datum, "--w", x]))
    return out


def run_cli(argv: list[str]) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0
    return buf.getvalue().encode("utf-8")


CASES = cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[n for n, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    assert run_cli(argv) == (GOLDEN / f"{name}.txt").read_bytes()


# sha256 of the standard output of `pieces` on E6 I={1,2} (12 960 pieces),
# written by the CLI while the parameter sets were still filtered from all of
# W_U and the pieces built one parameter at a time.
E6_PIECES = ["pieces", "--type", "E6", "--I", "1,2", "--psi", "1:1,2:2"]
E6_SHA256 = {
    "text": "1c0c165da685a3f7e9a5efe0e531a02f518a1150a0b19dfe81e3bc76e261e82b",
    "jsonl": "817604f4e6e3ecf9c558917dcc411ad14956ab6ed46c7bfab5417088202b6727",
}


@pytest.mark.parametrize("fmt", sorted(E6_SHA256))
def test_e6_pieces_match_the_sha256_golden(fmt):
    out = run_cli([*E6_PIECES, "--format", fmt])
    assert hashlib.sha256(out).hexdigest() == E6_SHA256[fmt]


# sha256 of the standard output of `poset --format json`, written by the CLI
# while the cover edges still came from a float32 product of the whole
# relation.  E6 I={1,2} (12 960 nodes, 99 191 cover edges) is checked in a
# subprocess by the acceptance test next to criterion 10, under its time and
# memory bound.
# name -> (datum options, sha256)
POSET_SHA256 = {
    "D6": (["--type", "D6", "--I", "1,2", "--psi", "1:1,2:2"],
           "c0f3fc2b77de7b0468a83940fa8724f08b2a856f3bed9aa93292d9df4f6e735f"),
    "E6": (["--type", "E6", "--I", "1,2", "--psi", "1:1,2:2"],
           "85c2d20713bf905872e32cc3bff910df2ae5eb429f74cee0dd498b1246a7e55f"),
}


def test_d6_poset_matches_the_sha256_golden():
    options, digest = POSET_SHA256["D6"]
    out = run_cli(["poset", *options, "--format", "json"])
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize(
    "name,side", [(name, side) for name in DATA for side in ("iw", "wj")] + [("D6", "iw")]
)
def test_poset_json_writer_matches_json_dumps(name, side):
    """`ClosurePoset.to_json`, written for the fixed poset schema, gives the
    bytes of the indented, key-sorted json.dumps of `to_json_dict`, on both
    sides of every golden datum and on D6 I={1,2}."""
    options = DATA[name][0] if name in DATA else POSET_SHA256[name][0]
    z, _ = cli._zip_datum_from_args(cli.build_parser().parse_args(["poset", *options]))
    poset = z.hasse_poset(side)
    assert poset.to_json() == json.dumps(poset.to_json_dict(), indent=2, sort_keys=True)
