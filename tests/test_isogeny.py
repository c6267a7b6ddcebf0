import os
import subprocess
import sys
from pathlib import Path

import pytest

from weylzip import ZipDatum, build_group, frobenius_report, zip_datum_from_isogeny
from weylzip.errors import NonSimpleConjugate, NotDoubleCosetRep, NotMinimalRep, WrongMode
from weylzip.isogeny import IsogenyDatum
from weylzip.serialize import parse_automorphism, word_str
from weylzip.verify import check_lusztig_consistency, iter_isogeny_data

from test_zipdata import relation_oracle


def test_build_a2_flip(a2):
    flip = parse_automorphism(a2, "flip")
    iso = zip_datum_from_isogeny(a2, flip, a2.identity_automorphism(), {1}, a2.identity)
    assert iso.zip.I == frozenset({1})
    assert iso.zip.J == frozenset({2})
    assert iso.zip.psi == {1: 2}


def test_build_a3_conjugation(a3):
    ident = a3.identity_automorphism()
    x = a3.from_word([1, 2])
    iso = zip_datum_from_isogeny(a3, ident, ident, {1}, x)
    assert iso.zip.I == frozenset({1})
    assert iso.zip.J == frozenset({2})
    assert iso.zip.psi == {1: 2}
    assert iso.source_subset == frozenset({1})


def test_build_rejections(a2):
    ident = a2.identity_automorphism()
    with pytest.raises(NonSimpleConjugate):
        zip_datum_from_isogeny(a2, ident, ident, {1}, a2.simple(2))
    # s1 conjugates alpha_1 to its negative: simple but not minimal
    with pytest.raises(NotDoubleCosetRep):
        zip_datum_from_isogeny(a2, ident, ident, {1}, a2.simple(1))


def test_positivity_on_the_whole_subsystem(a3):
    ident = a3.identity_automorphism()
    for iso in iter_isogeny_data(a3):
        K = iso.source_subset
        g = iso.group
        assert {iso.x.act_on_root(r) for r in g.phi_plus(K)} == g.phi_plus(iso.zip.J)


def test_reparam_examples(a3):
    ident = a3.identity_automorphism()
    x = a3.from_word([1, 2])
    iso = zip_datum_from_isogeny(a3, ident, ident, {1}, x)
    assert iso.reparam(a3.identity, "forward") == x
    assert word_str(iso.reparam(a3.identity, "forward")) == "1,2"
    for w in iso.zip.param_set("wj"):
        assert iso.reparam(iso.reparam(w, "forward"), "backward") == w
    with pytest.raises(NotMinimalRep):
        iso.reparam(a3.simple(2), "forward")  # has a right descent in J


def test_isogeny_datum_refuses_an_x_that_does_not_carry_I_onto_J(a2):
    # x = s2 sends alpha_1 to alpha_1 + alpha_2; unchecked, lusztig_closure(e)
    # returned [e, s2]
    ident = a2.identity_automorphism()
    with pytest.raises(NonSimpleConjugate, match="not a simple reflection"):
        IsogenyDatum(ZipDatum(a2, {1}, {1}, {1: 1}), a2.simple(2), ident, ident)


def test_isogeny_datum_refuses_a_twist_other_than_that_of_x(a2):
    # inn(e) * flip sends 1 to 2, the datum's psi sends 1 to 1
    flip = parse_automorphism(a2, "flip")
    ident = a2.identity_automorphism()
    with pytest.raises(NonSimpleConjugate, match="not by the datum's psi"):
        IsogenyDatum(ZipDatum(a2, {1}, {1}, {1: 1}), a2.identity, flip, ident)


# A hand-built IsogenyDatum whose x = s2 does not carry {1} onto J = {1}.
_BAD_X = """
from weylzip import ZipDatum, build_group
from weylzip.errors import NonSimpleConjugate
from weylzip.isogeny import IsogenyDatum

g = build_group("A2")
ident = g.identity_automorphism()
try:
    IsogenyDatum(ZipDatum(g, {1}, {1}, {1: 1}), g.simple(2), ident, ident)
except NonSimpleConjugate as exc:
    print(exc)
"""


def test_isogeny_datum_refuses_a_bad_x_under_optimization():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-O", "-c", _BAD_X], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "x s_1 x^-1 is not a simple reflection (root image not simple)\n"


def test_reparam_identity_x(a2):
    flip = parse_automorphism(a2, "flip")
    iso = zip_datum_from_isogeny(a2, flip, a2.identity_automorphism(), {1}, a2.identity)
    for w in iso.zip.param_set("wj"):
        assert iso.reparam(w, "forward") == w


def test_lusztig_closure_examples(a3):
    ident = a3.identity_automorphism()
    x = a3.from_word([1, 2])
    iso = zip_datum_from_isogeny(a3, ident, ident, {1}, x)
    assert iso.lusztig_closure(x) == (x,)
    # the top piece is the image of the maximal dual parameter
    wj_top = max(iso.zip.param_set("wj"), key=lambda w: w.length)
    top = iso.reparam(wj_top, "forward")
    assert set(iso.lusztig_closure(top)) == set(iso.target_set())


def test_lusztig_closure_wrong_mode(a2):
    flip = parse_automorphism(a2, "flip")
    iso = zip_datum_from_isogeny(a2, flip, a2.identity_automorphism(), {1}, a2.identity)
    with pytest.raises(WrongMode):
        iso.lusztig_closure(a2.identity)


def test_lusztig_closure_matches_reparametrized_closure():
    for label in ("A2", "B2", "A1xA1"):
        assert check_lusztig_consistency(build_group(label)) == []


@pytest.mark.parametrize("label", ["A2", "B2", "A1xA1", "A3"])
def test_lusztig_closure_matches_the_oracle(label):
    for iso in iter_isogeny_data(build_group(label)):
        params, rel = relation_oracle(iso.zip, "wj")
        position = {w.perm: b for b, w in enumerate(params)}
        for w in iso.target_set():
            b = position[(w * iso.x.inverse()).perm]
            expect = sorted(
                (p * iso.x for p, hit in zip(params, rel[:, b]) if hit),
                key=lambda v: v.sort_key,
            )
            assert iso.lusztig_closure(w) == tuple(expect)


def test_frobenius_report(z_a2, a2):
    report = frobenius_report(z_a2)
    assert len(report.rows) == 3
    assert report.cover_edges == ((0, 1), (1, 2))
    text = report.render_text()
    assert "3 pieces" in text and "dim G = 8" in text
    zfull = ZipDatum(a2, {1, 2}, {1, 2}, {1: 1, 2: 2})
    assert len(frobenius_report(zfull).rows) == 1
    zborel = ZipDatum(a2, set(), set(), {})
    report = frobenius_report(zborel)
    assert len(report.rows) == 6
    dim_b = zborel.dim_parabolic(0)
    assert all(p.dimension == dim_b + p.length for p in report.rows)
