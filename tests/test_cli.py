import argparse
import functools
import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import weylzip
from weylzip.cli import main


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


A2_ARGS = ["--type", "A2", "--I", "1", "--psi", "1:2"]


def test_pieces_table():
    code, out = run_cli(["pieces", *A2_ARGS])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + 3 pieces
    assert lines[1].split() == ["e", "0", "6", "2", "{}"]
    assert lines[2].split() == ["2", "1", "7", "2", "{}"]
    assert lines[3].split() == ["2,1", "2", "8", "0", "{2}"]


def test_pieces_jsonl():
    code, out = run_cli(["pieces", *A2_ARGS, "--format", "jsonl"])
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["dim"] for r in rows] == [6, 7, 8]
    assert rows[2]["K"] == [2]


def test_closure_and_sides():
    code, out = run_cli(["closure", *A2_ARGS, "--w", "2,1"])
    assert code == 0 and out.split() == ["e", "2", "2,1"]
    code, out = run_cli(["closure", *A2_ARGS, "--w", "2,1", "--side", "wj"])
    assert code == 0 and out.split() == ["e", "1", "2,1"]


def test_poset_dot_and_json():
    code, out = run_cli(["poset", *A2_ARGS, "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 2
    code, out = run_cli(["poset", *A2_ARGS, "--format", "json"])
    doc = json.loads(out)
    assert [n["word"] for n in doc["nodes"]] == ["e", "2", "2,1"]
    assert doc["cover_edges"] == [[0, 1], [1, 2]]


def test_classify_lies_in_pieces():
    code, out = run_cli(["classify", *A2_ARGS, "--w", "1,2"])
    assert code == 0
    piece = out.splitlines()[0].split()[1]
    _, pieces_out = run_cli(["pieces", *A2_ARGS])
    assert piece in pieces_out.split()


def test_sigma_command():
    code, out = run_cli(["sigma", *A2_ARGS, "--w", "2"])
    assert code == 0 and out.strip() == "1"
    code, out = run_cli(["sigma", *A2_ARGS, "--w", "1", "--inverse"])
    assert code == 0 and out.strip() == "2"


def test_datum_file(tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"type": "A2", "I": [1], "J": [2], "psi": {"1": 2}}))
    code, out = run_cli(["pieces", "--datum", str(path)])
    assert code == 0 and "2,1" in out


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_unreadable_datum_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "datum.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b'{"type": "A2\xff"}')
    assert main(["pieces", "--datum", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read the datum document") and str(path) in err
    assert "Traceback" not in err


def test_abstract_command(tmp_path):
    path = tmp_path / "abstract.json"
    path.write_text(
        json.dumps(
            {
                "domain": 4,
                "gamma_gens": ["(1 2)", "(2 3)", "(3 4)"],
                "delta_gens": ["(1 2)"],
                "psi": {"(1 2)": "(2 3)"},
            }
        )
    )
    code, out = run_cli(["abstract", "--datum", str(path)])
    assert code == 0
    assert "classes 12" in out.splitlines()[0]
    assert all("size=2" in line for line in out.splitlines()[1:])


def test_nonconnected_command(tmp_path):
    path = tmp_path / "ext.json"
    path.write_text(
        json.dumps(
            {
                "type": "A1xA1",
                "I": [],
                "psi": {},
                "omega_gens": [[2, 1]],
                "omega_I_gens": [[2, 1]],
                "psi_hat": {"[2, 1]": [2, 1]},
            }
        )
    )
    code, out = run_cli(["nonconnected", "--datum", str(path)])
    assert code == 0
    assert "pieces 6" in out.splitlines()[0]
    code, out = run_cli(
        ["nonconnected", "--datum", str(path), "--closure-of", "1,2"]
    )
    assert "closure 1,2" in out


def test_isogeny_command(tmp_path):
    path = tmp_path / "iso.json"
    path.write_text(
        json.dumps({"type": "A3", "phi_bar": "id", "delta": "id", "I": [1], "x": "1,2"})
    )
    code, out = run_cli(["isogeny", "--datum", str(path)])
    assert code == 0
    assert "I={1} J={2} psi=1:2" in out.splitlines()[0]
    path.write_text(
        json.dumps(
            {"type": "A2", "phi_bar": "flip", "delta": "id", "I": [1], "x": "e",
             "frobenius": True}
        )
    )
    code, out = run_cli(["isogeny", "--datum", str(path)])
    assert code == 0 and "orbit representatives" in out


def test_malformed_inputs_exit_2(tmp_path):
    code, _ = run_cli(["pieces", "--type", "A2", "--I", "1", "--psi", "1:3"])
    assert code == 2
    code, _ = run_cli(["pieces", "--type", "H3"])
    assert code == 2
    code, _ = run_cli(["pieces"])
    assert code == 2
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run_cli(["pieces", "--datum", str(path)])
    assert code == 2
    code, _ = run_cli(["closure", *A2_ARGS, "--w", "1"])  # not a minimal rep
    assert code == 2
    code, _ = run_cli(["pieces", *A2_ARGS, "--central-rank", "-3"])
    assert code == 2
    # malformed fields of datum documents
    a2 = {"type": "A2", "I": [1], "psi": {"1": 2}}
    isogeny = {"type": "A3", "phi_bar": "id", "delta": "id", "I": [1], "x": "1,2"}
    abstract = {"domain": 3, "gamma_gens": ["(1 2)"], "delta_gens": ["(1 2)"],
                "psi": {"(1 2)": "(1 2)"}}
    nonconnected = {"type": "A1xA1", "I": [], "psi": {}, "omega_gens": [[2, 1]],
                    "omega_I_gens": [[2, 1]], "psi_hat": {"[2, 1]": [2, 1]}}
    for command, doc in [
        ("pieces", {**a2, "I": "x"}),
        ("pieces", {**a2, "I": [1.5]}),
        ("pieces", {**a2, "I": [True]}),
        ("pieces", {**a2, "psi": {"a": 2}}),
        ("pieces", {**a2, "psi": 5}),
        ("pieces", {**a2, "type": 5}),
        ("pieces", {**a2, "central_rank": None}),
        ("pieces", {**a2, "central_rank": "x"}),
        ("pieces", {**a2, "central_rank": -1}),
        ("isogeny", {**isogeny, "I": "x"}),
        ("isogeny", {**isogeny, "I": [1.5]}),
        ("isogeny", {**isogeny, "type": 5}),
        ("isogeny", {**isogeny, "x": 5}),
        ("isogeny", {**isogeny, "phi_bar": 5}),
        ("isogeny", {**isogeny, "central_rank": None}),
        ("isogeny", {**isogeny, "central_rank": -3}),
        ("abstract", {**abstract, "domain": "x"}),
        ("abstract", {**abstract, "domain": 4.5}),
        ("abstract", {**abstract, "psi": 5}),
        ("abstract", {**abstract, "gamma_gens": 5}),
        ("abstract", {**abstract, "delta_gens": [5]}),
        ("nonconnected", {**nonconnected, "omega_gens": 5}),
        ("nonconnected", {**nonconnected, "omega_I_gens": 5}),
        ("nonconnected", {**nonconnected, "psi_hat": 5}),
    ]:
        path.write_text(json.dumps(doc))
        code, _ = run_cli([command, "--datum", str(path)])
        assert code == 2, doc


def test_datum_documents_read_integer_strings(tmp_path):
    path = tmp_path / "datum.json"
    doc = {"type": "A2", "I": ["1"], "psi": {"1": 2}, "central_rank": "2"}
    path.write_text(json.dumps(doc))
    code, out = run_cli(["pieces", "--datum", str(path)])
    assert code == 0
    assert out.splitlines()[1].split() == ["e", "0", "8", "2", "{}"]


def test_verify_quick_exits_zero():
    code, out = run_cli(["verify", "--level", "quick"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "OK"


def test_deterministic_output():
    _, first = run_cli(["poset", *A2_ARGS, "--format", "dot"])
    _, second = run_cli(["poset", *A2_ARGS, "--format", "dot"])
    assert first == second
    _, first = run_cli(["pieces", "--type", "B2", "--I", "1,2", "--psi", "1:2,2:1"])
    _, second = run_cli(["pieces", "--type", "B2", "--I", "1,2", "--psi", "1:2,2:1"])
    assert first == second


# Modules that pieces, poset, closure, classify and sigma never execute.
NOT_LOADED = ("weylzip.verify", "weylzip.oracles", "weylzip.abstract",
              "weylzip.extended", "weylzip.isogeny", "numpy.ma")


@pytest.mark.parametrize(
    "argv",
    [
        ["pieces", "--format", "jsonl"],
        ["poset", "--format", "json"],
        ["closure", "--w", "3"],
        ["classify", "--w", "3,2,1"],
        ["sigma", "--w", "3"],
    ],
)
def test_core_subcommands_load_only_the_core(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    # -X importtime lists every module the process imports, one per line of
    # stderr, ending in "| <module name>".
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "weylzip.cli", *argv,
         "--type", "A3", "--I", "1,2", "--psi", "1:1,2:2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "weylzip.zipdata" in loaded
    assert not loaded & set(NOT_LOADED)


def test_every_public_name_resolves():
    for name in weylzip.__all__:
        value = getattr(weylzip, name)
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value
    namespace = {}
    exec("from weylzip import *", namespace)
    assert set(weylzip.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        weylzip.no_such_name


PARSER_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "cli-parser.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("name", sorted(PARSER_GOLDEN))
def test_parser_bytes_are_those_of_the_full_parser(name, capsys, monkeypatch):
    # Help, usage errors and an unknown or missing subcommand print exactly
    # what the parser of all nine subcommands printed (files written by the
    # CLI when it still built that parser in every process).
    monkeypatch.setenv("COLUMNS", "80")
    case = PARSER_GOLDEN[name]
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (out, err, code) == (case["stdout"], case["stderr"], case["exit"])


def test_a_subcommand_builds_only_its_own_parser(monkeypatch):
    from weylzip import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    args = cli.parse_args(["poset", "--type", "A3", "--format", "json"])
    assert (args.command, args.format, args.side) == ("poset", "json", "iw")
    assert built == ["weylzip poset"]
    built.clear()
    with pytest.raises(SystemExit):
        cli.parse_args(["poset", "--format", "xml"])
    assert built == ["weylzip poset", "weylzip", *(f"weylzip {name}" for name in cli.SUBCOMMANDS)]
    # the arguments a subcommand's parser reads are those of the full parser
    for name, (_, add) in cli.SUBCOMMANDS.items():
        alone = argparse.ArgumentParser(prog=f"weylzip {name}")
        add(alone)
        full = cli.build_parser()._subparsers._group_actions[0].choices[name]
        assert alone.format_help() == full.format_help()


@pytest.fixture(scope="module")
def e6_bruhat_poset():
    """The poset of E6 with I = {} (k = 51 840): Bruhat order, whose covers
    need no relation; reading its relation is refused."""
    from weylzip import ZipDatum, build_group

    return ZipDatum(build_group("E6"), (), (), {}).hasse_poset()


def test_poset_bound_fails_fast(e6_bruhat_poset):
    import time

    from weylzip import ZipDatum, build_group
    from weylzip.errors import PosetTooLarge
    from weylzip.zipdata import POSET_BOUND

    # the relation of E6 I={} (k = 51 840) is refused
    start = time.perf_counter()
    with pytest.raises(PosetTooLarge, match=rf"k = 51840 .*bound {POSET_BOUND} \(zipdata.POSET_BOUND\)"):
        e6_bruhat_poset.leq
    assert time.perf_counter() - start < 1.0
    assert "leq" not in vars(e6_bruhat_poset)
    e6 = build_group("E6")
    assert e6.order == 51_840 > POSET_BOUND
    # E6 I={1} (k = 25 920) and I={1,2} (k = 12 960) are admitted
    for I in ({1}, {1, 2}):
        z = ZipDatum(e6, I, I, {i: i for i in I})
        z._check_poset_size("iw")
        z._check_poset_size("wj")
    assert e6.order // e6.parabolic_order({1}) == 25_920 <= POSET_BOUND


@functools.lru_cache
def _bruhat_cover_count(group):
    """The number of Bruhat covers of `group`, with neither the walk nor the
    tables nor a reduced word: the pairs (w, t), t a reflection, with
    l(wt) = l(w) - 1, over the root permutations of all w (grown by left
    multiplication one length at a time) and of all t (the simple
    reflections closed under conjugation by simple reflections)."""
    import numpy as np

    m, simple = group.num_positive, group.reflections.astype(np.int16)

    def length(rows):
        return (rows[:, :m] >= m).sum(axis=1)

    def distinct(rows):
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        return rows[np.unique(keys, return_index=True)[1]]

    layer, layers = np.arange(2 * m, dtype=np.int16)[None], []
    while len(layer):
        layers.append(layer)
        grown = distinct(np.concatenate([s[layer] for s in simple]))
        layer = grown[length(grown) == len(layers)]
    W = np.concatenate(layers)
    T = simple
    while True:
        conjugates = distinct(np.concatenate([T, *(s[T][:, s] for s in simple)]))
        if len(conjugates) == len(T):
            break
        T = conjugates
    assert (len(W), len(T)) == (group.order, m)
    lw = length(W)
    return sum(int((length(W[:, t[:m]]) == lw - 1).sum()) for t in T)


@pytest.mark.parametrize("side", ["iw", "wj"])
def test_e6_bruhat_poset_in_a_subprocess(side, tmp_path):
    """E6 with I = {} is Bruhat order on all 51 840 elements: its poset takes
    the one-letter deletions as covers, with no relation, and exits 0 in
    under 5 s, start-up included; its covers are as many as the Bruhat
    covers counted from the reflections."""
    import time

    from weylzip import build_group

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = tmp_path / "poset.json"
    start = time.perf_counter()
    with open(out, "wb") as stdout:
        proc = subprocess.run(
            [sys.executable, "-m", "weylzip.cli", "poset", "--type", "E6", "--I", "",
             "--psi", "", "--side", side, "--format", "json"],
            env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120,
        )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 5.0
    poset = json.loads(out.read_text())
    assert len(poset["nodes"]) == 51_840
    assert len(poset["cover_edges"]) == 459_588 == _bruhat_cover_count(build_group("E6"))


def test_poset_bound_error_names_the_bound_and_k(e6_bruhat_poset):
    from weylzip import CoxeterGroup, ZipDatum, build_group
    from weylzip import cartan
    from weylzip.errors import PosetTooLarge
    from weylzip.zipdata import POSET_BOUND

    named = rf"k = 51840 .*bound {POSET_BOUND} \(zipdata.POSET_BOUND\)"
    with pytest.raises(PosetTooLarge, match=named):
        e6_bruhat_poset.leq
    e6 = CoxeterGroup(*cartan.matrices_for_label("E6"), "E6")  # empty caches
    z = ZipDatum(e6, (), (), {})
    with pytest.raises(PosetTooLarge, match=named):
        z._relation_matrix("wj")
    assert not e6._tables and not z._params
    # one closure set needs a k x 1 column only, and stays unbounded
    a3 = build_group("A3")
    assert len(ZipDatum(a3, (), (), {}).closure_set(a3.from_word([1, 2]))) == 4


def _identity_args(label, I):
    letters = ",".join(map(str, I))
    return ["--type", label, "--I", letters, "--J", letters,
            "--psi", ",".join(f"{i}:{i}" for i in I)]


def _poincare(degrees):
    """The Poincare polynomial prod [d]_q of a Weyl group from its degrees,
    as a coefficient list."""
    out = [1]
    for d in degrees:
        out = [sum(out[k - i] for i in range(d) if 0 <= k - i < len(out))
               for k in range(len(out) + d - 1)]
    return out


def test_e7_pieces_beyond_the_enumeration_bound():
    # |W(E7)| = 2 903 040 exceeds the bound; the coset walk builds 56 rows
    code, out = run_cli(["pieces", *_identity_args("E7", range(1, 7)), "--format", "jsonl"])
    assert code == 0
    lengths = [json.loads(line)["length"] for line in out.splitlines()]
    assert len(lengths) == 56
    counts = [lengths.count(k) for k in range(max(lengths) + 1)]
    # sum_w q^l(w) over W^I is P_W(q) / P_{W_I}(q): E7 over E6, by degrees
    product = _poincare([2, 5, 6, 8, 9, 12])
    product = [sum(counts[i] * product[k - i] for i in range(len(counts))
                   if 0 <= k - i < len(product))
               for k in range(len(counts) + len(product) - 1)]
    assert product == _poincare([2, 6, 8, 10, 12, 14, 18])


def test_coset_walk_bound_names_the_bound_and_the_rows(capsys, monkeypatch, e6_bruhat_poset):
    import numpy as np

    from weylzip import zipdata
    from weylzip.errors import PosetTooLarge

    assert main(["pieces", "--type", "E7", "--I", "1", "--psi", "1:1"]) == 2
    err = capsys.readouterr().err
    assert "|W_S| / |W_J| = 2903040 / 2 = 1451520" in err
    assert "enumeration bound 100000 (coxeter.ENUMERATION_BOUND)" in err
    # the tables of all of E8 are refused by the bound on |W_S|
    assert main(["closure", "--type", "E8", "--I", "1", "--psi", "1:1", "--w", "2"]) == 2
    err = capsys.readouterr().err
    assert "|W_S| = 696729600 for S = [1, 2, 3, 4, 5, 6, 7, 8]" in err
    assert "enumeration bound 100000 (coxeter.ENUMERATION_BOUND)" in err
    with pytest.raises(PosetTooLarge) as refused:
        e6_bruhat_poset.leq
    assert "k = 51840 parameters" in str(refused.value)
    assert "poset bound 30000 (zipdata.POSET_BOUND)" in str(refused.value)
    # an order its length-one pairs do not close to, above the product bound
    monkeypatch.setattr(zipdata, "PRODUCT_BOUND", 1)
    none = np.array([], dtype=int)
    down = np.packbits(np.ones((2, 2), dtype=bool), axis=1)
    with pytest.raises(PosetTooLarge, match=r"product bound 1 \(zipdata.PRODUCT_BOUND\)"):
        zipdata._cover_edges(down, none, none, np.array([0, 1]), "")


def test_classify_on_e8_with_i_of_type_e7():
    from weylzip import build_group
    from weylzip.serialize import parse_word, word_str

    args = _identity_args("E8", range(1, 8))
    code, out = run_cli(["classify", *args, "--w", "1,2,3,4,5,6,7,8"])
    assert code == 0
    (_, piece), (_, sigma) = (line.split() for line in out.splitlines())
    e8 = build_group("E8")
    rep, sig = parse_word(e8, piece), parse_word(e8, sigma)
    assert not sig.right_descents() & set(range(1, 8))
    assert sig.length == rep.length
    code, out = run_cli(["sigma", *args, "--w", sigma, "--inverse"])
    assert code == 0 and out.strip() == word_str(rep) == piece


def test_python_m_weylzip_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    args = ["classify", "--type", "A3", "--I", "1", "--psi", "1:1", "--w"]
    for word, code in [("3,2,1", 0), ("3,x", 2)]:
        runs = [
            subprocess.run([sys.executable, "-m", module, *args, word],
                           env=env, capture_output=True, timeout=120)
            for module in ("weylzip", "weylzip.cli")
        ]
        assert [r.returncode for r in runs] == [code, code], runs[0].stderr[-2000:]
        assert runs[0].stdout == runs[1].stdout and runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.startswith(b"error: cannot parse word")


def test_letter_zero_is_refused(capsys):
    code = main(["classify", "--type", "A3", "--I", "1", "--psi", "1:1", "--w", "0,1"])
    assert code == 2
    assert "simple index 0 not in 1..3" in capsys.readouterr().err


A5_FLIP = {"type": "A5", "I": [1, 2, 4, 5], "psi": {"1": 5, "2": 4, "4": 2, "5": 1},
           "omega_gens": [[5, 4, 3, 2, 1]], "omega_I_gens": [[5, 4, 3, 2, 1]],
           "psi_hat": {"[5, 4, 3, 2, 1]": [5, 4, 3, 2, 1]}}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Elements hash their row bytes, which Python salts per process; sets of
    # (extended) elements must not leak that order into the output.
    path = tmp_path / "a5flip.json"
    path.write_text(json.dumps(A5_FLIP))
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv in [
        ["nonconnected", "--datum", str(path), "--closure-of", "3,2,1,4,3,2,5,4,3|5,4,3,2,1"],
        ["poset", "--type", "F4", "--I", "1,2", "--psi", "1:1,2:2", "--format", "json"],
    ]:
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-m", "weylzip.cli", *argv],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv
        assert outputs[0].count(b"\n") > 10, argv
