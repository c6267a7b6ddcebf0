import pytest

from weylzip import CoxeterAutomorphism, ExtendedZipDatum, ZipDatum, build_group
from weylzip.errors import NotAHomomorphism, NotInParamSet, SubsetMismatch
from weylzip.extended import ExtendedElement
from weylzip.oracles import apply_element_oracle, bruhat_subword_oracle, shortlex_oracle
from weylzip.serialize import extended_str


@pytest.fixture(scope="module")
def swap_datum():
    g = build_group("A1xA1")
    z = ZipDatum(g, set(), set(), {})
    swap = CoxeterAutomorphism(g, (2, 1))
    return ExtendedZipDatum(z, [swap], [swap], [swap]), swap


def test_validation(a2):
    z = ZipDatum(a2, {1}, {2}, {1: 2})
    flip = CoxeterAutomorphism(a2, (2, 1))
    # flip does not preserve I = {1}
    with pytest.raises(SubsetMismatch):
        ExtendedZipDatum(z, [flip], [flip], [flip])
    # Omega_I must sit inside Omega
    with pytest.raises(SubsetMismatch):
        ExtendedZipDatum(z, [], [flip], [flip])
    zfull = ZipDatum(a2, {1, 2}, {1, 2}, {1: 2, 2: 1})
    # psi_hat = id fails to intertwine psi; conjugating by flip works
    with pytest.raises(NotAHomomorphism):
        ExtendedZipDatum(zfull, [flip], [flip], [a2.identity_automorphism()])
    ExtendedZipDatum(zfull, [flip], [flip], [flip])


def test_action_examples(swap_datum):
    ext, swap = swap_datum
    g = ext.group
    s1, s2 = g.simple(1), g.simple(2)
    what = ext.extended(s1)
    assert ext.act(g.identity_automorphism(), what) == what
    assert ext.act(swap, what).w == s2
    moved = ext.act(swap, ext.extended(s1, swap))
    assert moved == ext.extended(s2, swap)


def test_act_rejects_non_parameters(a2):
    zfull = ZipDatum(a2, {1, 2}, {1, 2}, {1: 2, 2: 1})
    flip = CoxeterAutomorphism(a2, (2, 1))
    ext = ExtendedZipDatum(zfull, [flip], [flip], [flip])
    with pytest.raises(NotInParamSet):
        ext.act(flip, ext.extended(a2.simple(1)))  # s1 is not minimal for I = S
    with pytest.raises(NotInParamSet):
        ext.precedes(ext.extended(a2.simple(1)), ext.extended(a2.identity))


def test_action_axioms(swap_datum):
    ext, swap = swap_datum
    ident = ext.group.identity_automorphism()
    for what in ext.param_set("iw"):
        assert ext.act(ident, what) == what
        assert ext.act(swap, ext.act(swap, what)) == ext.act(swap * swap, what)
        assert ext.contains_param(ext.act(swap, what), "iw")


def test_pieces_swap_dataset(swap_datum):
    ext, _ = swap_datum
    orbits = ext.pieces("iw")
    shown = [tuple(extended_str(e) for e in orb) for orb in orbits]
    assert shown == [
        ("e",),
        ("e|2,1",),
        ("1", "2"),
        ("1|2,1", "2|2,1"),
        ("1,2",),
        ("1,2|2,1",),
    ]
    flat = [e for orb in orbits for e in orb]
    assert len(flat) == len(set(flat)) == len(ext.param_set("iw"))


def test_pieces_full_I_with_omega(a2):
    z = ZipDatum(a2, {1, 2}, {1, 2}, {1: 1, 2: 2})
    flip = CoxeterAutomorphism(a2, (2, 1))
    ext = ExtendedZipDatum(z, [flip], [flip], [flip])
    orbits = ext.pieces("iw")
    # W-part trivial; orbits of the twisted conjugation of Omega on itself
    assert all(orb[0].w.is_identity() for orb in orbits)
    assert len(orbits) == 2


def test_precedes_and_closure(swap_datum):
    ext, swap = swap_datum
    g = ext.group
    s1, s2 = g.simple(1), g.simple(2)
    top = ext.extended(s1 * s2)
    assert ext.precedes(ext.extended(s1), top)
    assert ext.precedes(ext.extended(s1, swap), ext.extended(s2, swap))
    assert ext.precedes(top, top)
    closure = ext.closure_set(top)
    assert {extended_str(e) for e in closure} == {"e", "1", "2", "1,2"}
    omega_only = ext.closure_set(ext.extended(g.identity, swap))
    assert [extended_str(e) for e in omega_only] == ["e|2,1"]


def test_closure_union_of_orbits(swap_datum):
    ext, _ = swap_datum
    for orb in ext.pieces("iw"):
        union = set()
        for e in orb:
            union |= set(ext.closure_set(e))
        for e in union:
            assert set(ext.orbit_of(e)) <= union


def test_sigma_hat(swap_datum):
    ext, swap = swap_datum
    g = ext.group
    s1 = g.simple(1)
    what = ext.extended(s1, swap)
    image = ext.sigma_hat(what)
    assert image == what  # J is empty, the dual set is everything
    assert ext.sigma_hat(ext.extended(g.identity, swap)).w == g.identity
    assert ext.sigma_hat_inverse(image) == what


def test_sigma_hat_equivariant_and_order_preserving(swap_datum):
    ext, swap = swap_datum
    params = ext.param_set("iw")
    for e in params:
        assert ext.sigma_hat(ext.act(swap, e)) == ext.act(swap, ext.sigma_hat(e), side="wj")
        assert ext.sigma_hat(e).length == e.length
    images = [ext.sigma_hat(e) for e in params]
    assert sorted(i.sort_key for i in images) == sorted(
        e.sort_key for e in ext.param_set("wj")
    )
    for a, ea in enumerate(params):
        for b, eb in enumerate(params):
            assert ext.precedes(ea, eb, "iw") == ext.precedes(
                images[a], images[b], "wj"
            )


def test_trivial_omega_degenerates(a3):
    from weylzip.verify import check_extended_trivial_omega

    z = ZipDatum(a3, {1}, {3}, {1: 3})
    assert check_extended_trivial_omega(z) == []


def test_param_sets_where_omega_moves_J():
    # Omega_I is trivial, so Omega = <flip> need not preserve J = {1}
    g = build_group("A3")
    flip = CoxeterAutomorphism(g, (3, 2, 1))
    ext = ExtendedZipDatum(ZipDatum(g, {1}, {1}, {1: 1}), [flip], [], [])
    minimal = {
        "iw": lambda w, omega: not w.has_left_descent(1),
        "wj": lambda w, omega: not w.has_right_descent(omega.apply_index(1)),
    }
    for side, keep in minimal.items():
        expect = sorted(
            (ExtendedElement(w, omega) for omega in ext.omega
             for w in shortlex_oracle(g, g.simple_indices) if keep(w, omega)),
            key=lambda e: e.sort_key,
        )
        assert ext.param_set(side) == tuple(expect)


def _mul(a, b):
    """(w1, o1)(w2, o2) = (w1 o1(w2), o1 o2), with o1 applied letter by
    letter."""
    return ExtendedElement(a.w * apply_element_oracle(a.omega, b.w), a.omega * b.omega)


def _inverse(a):
    oi = a.omega.inverse()
    return ExtendedElement(apply_element_oracle(oi, a.w.inverse()), oi)


def precedes_reference(ext, ap, a):
    """The definition: some y in W_I x Omega_I has y ap psi_hat(y)^{-1}
    below a in the extended Bruhat order, with Element products, psi
    spelled out letter by letter and Bruhat order by the subword
    property."""
    g, z = ext.group, ext.base
    for u in ext.omega_I:
        for v in shortlex_oracle(g, z.I):
            y = ExtendedElement(v, u)
            psi_v = g.from_word([z.psi[i] for i in v.canonical_word()])
            cand = _mul(_mul(y, ap), _inverse(ExtendedElement(psi_v, ext.psi_hat[u])))
            if cand.omega == a.omega and bruhat_subword_oracle(cand.w, a.w):
                return True
    return False


def _a3_flip_datum(I, psi, psi_hat_is_flip):
    g = build_group("A3")
    flip = CoxeterAutomorphism(g, (3, 2, 1))
    z = ZipDatum(g, I, set(psi.values()), psi)
    image = flip if psi_hat_is_flip else g.identity_automorphism()
    return ExtendedZipDatum(z, [flip], [flip], [image])


@pytest.mark.parametrize("side", ["iw", "wj"])
def test_ext_bruhat_leq_is_componentwise(side):
    ext = _a3_flip_datum({2}, {2: 2}, True)
    params = ext.param_set(side)
    assert {a.omega for a in params} == set(ext.omega) and len(ext.omega) == 2
    for a in params:
        for b in params:
            expect = a.omega == b.omega and bruhat_subword_oracle(a.w, b.w)
            assert ext.ext_bruhat_leq(a, b) == expect, (a, b)


CLOSURE_CASES = {
    "A3 flip": lambda: _a3_flip_datum({1, 3}, {1: 3, 3: 1}, True),
    # psi_hat(flip) = id, so the Omega_I action moves the Omega-part
    "A3 flip, psi_hat trivial": lambda: _a3_flip_datum({2}, {2: 2}, False),
}


@pytest.mark.parametrize("side", ["iw", "wj"])
@pytest.mark.parametrize("case", ["A1xA1 swap", *CLOSURE_CASES])
def test_closure_matches_the_definition(swap_datum, case, side):
    ext = swap_datum[0] if case == "A1xA1 swap" else CLOSURE_CASES[case]()
    params = ext.param_set(side)
    for a in params:
        expect = [precedes_reference(ext, ap, a) for ap in params]
        assert [ext.precedes(ap, a, side) for ap in params] == expect
        assert ext.closure_set(a, side) == tuple(
            ap for ap, hit in zip(params, expect) if hit
        )
