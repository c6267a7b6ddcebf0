import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylzip import AbstractZipDatum, FiniteGroup, abstract
from weylzip.abstract import inverse, mult
from weylzip.cli import main
from weylzip.errors import ElementNotInGroup, NotAHomomorphism, TooLargeToEnumerate
from weylzip.oracles import e_gamma_bruteforce
from weylzip.serialize import cycles_str, parse_cycles
from weylzip.verify import abstract_catalog


def s3_datum():
    """Gamma = S3 acting as the rank-2 symmetric group on roots of A2 does:
    here simply on 3 points; Delta = <(1 2)>, psi sends it to (2 3)."""
    group = FiniteGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
    return AbstractZipDatum.from_generators(
        group, [parse_cycles("(1 2)", 3)], [parse_cycles("(2 3)", 3)]
    )


def weyl_a2_datum(a2):
    from weylzip import ZipDatum

    return ZipDatum(a2, {1}, {2}, {1: 2}).abstract_datum()


def test_stable_subgroup_examples(a2):
    a = weyl_a2_datum(a2)
    e = a.group.identity
    assert a.stable_subgroup(e) == frozenset({e})
    gamma = (a2.from_word([2, 1])).perm
    s2 = a2.simple(2).perm
    assert a.stable_subgroup(gamma) == frozenset({e, s2})
    with pytest.raises(ElementNotInGroup):
        a.stable_subgroup(tuple(range(len(e) + 2)))


def test_stable_subgroup_full_delta(a2):
    from weylzip import ZipDatum

    a = ZipDatum(a2, {1, 2}, {1, 2}, {1: 2, 2: 1}).abstract_datum()
    for gamma in a.group.elements():
        assert a.stable_subgroup(gamma) == a.group.element_set()


def test_orbit_examples(a2):
    a = weyl_a2_datum(a2)
    e = a.group.identity
    s1, s2 = a2.simple(1).perm, a2.simple(2).perm
    s1s2 = (a2.simple(1) * a2.simple(2)).perm
    assert a.orbit(e) == frozenset({e, s1s2})
    assert a.orbit(s2) == frozenset({s1, s2})


def test_orbit_trivial_delta():
    group = FiniteGroup(3, [parse_cycles("(1 2 3)", 3)])
    e = group.identity
    a = AbstractZipDatum(group, frozenset({e}), {e: e})
    for gamma in group.elements():
        assert a.orbit(gamma) == frozenset({gamma})


def test_all_classes_examples(a2):
    a = weyl_a2_datum(a2)
    classes = a.equivalence_classes()
    assert len(classes) == 3
    assert all(len(c) == 2 for c in classes)
    union = set().union(*classes)
    assert union == set(a.group.element_set())


def test_class_cardinality_identity_psi():
    group = FiniteGroup(4, [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)])
    delta = group.element_set()
    a = AbstractZipDatum(group, delta, {d: d for d in delta})
    assert a.equivalence_classes() == (delta,)


def test_noninjective_psi_uses_lattice():
    group = FiniteGroup(4, [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)])
    a = AbstractZipDatum.from_generators(
        group, [parse_cycles("(1 2 3 4)", 4)], [parse_cycles("(1 3)(2 4)", 4)]
    )
    assert not a.psi_injective
    classes = a.equivalence_classes()
    assert all(len(c) == 4 for c in classes) and len(classes) == 6
    for gamma in group.elements():
        assert a.stable_subgroup(gamma) == e_gamma_bruteforce(a, gamma)


def test_noninjective_psi_beyond_48_elements(tmp_path):
    # Gamma = Delta = C50 with psi(g) = g^2, whose kernel is {e, g^25}:
    # E_gamma = theta^2(C50) = C25
    g = parse_cycles("(" + " ".join(map(str, range(1, 51))) + ")", 50)
    a = AbstractZipDatum.from_generators(FiniteGroup(50, [g]), [g], [mult(g, g)])
    assert not a.psi_injective
    squares = frozenset(mult(x, x) for x in a.group.elements())
    assert len(squares) == 25
    for gamma in a.group.elements():
        assert a.stable_subgroup(gamma) == squares
    # Gamma is abelian, so E_gamma does not depend on gamma
    assert e_gamma_bruteforce(a, g, bound=50) == squares
    assert a.equivalence_classes() == (a.group.element_set(),)
    path = tmp_path / "c50.json"
    path.write_text(json.dumps({
        "domain": 50, "gamma_gens": [cycles_str(g)], "delta_gens": [cycles_str(g)],
        "psi": {cycles_str(g): cycles_str(mult(g, g))},
    }))
    assert main(["abstract", "--datum", str(path)]) == 0


def test_order_bound_names_the_bound_and_the_degree(monkeypatch):
    gens = [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)]
    monkeypatch.setattr(abstract, "ORDER_BOUND", 23)
    with pytest.raises(TooLargeToEnumerate, match=r"generated on 4 points has more than "
                       r"abstract\.ORDER_BOUND = 23 elements"):
        FiniteGroup(4, gens).elements()
    monkeypatch.setattr(abstract, "ORDER_BOUND", 24)
    assert FiniteGroup(4, gens).order == 24


def test_order_bound_on_the_command_line(tmp_path, capsys):
    # S9 has 362 880 elements, above the bound of 100 000
    path = tmp_path / "s9.json"
    path.write_text(json.dumps({"domain": 9, "gamma_gens": ["(1 2)", "(1 2 3 4 5 6 7 8 9)"],
                                "delta_gens": ["(1 2)"], "psi": {"(1 2)": "(1 2)"}}))
    assert main(["abstract", "--datum", str(path)]) == 2
    assert ("error: the group generated on 9 points has more than "
            "abstract.ORDER_BOUND = 100000 elements") in capsys.readouterr().err


def test_homomorphism_validation():
    group = FiniteGroup(4, [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)])
    with pytest.raises(NotAHomomorphism):
        # (1 2) has order 2; a 4-cycle image cannot extend
        AbstractZipDatum.from_generators(
            group, [parse_cycles("(1 2)", 4)], [parse_cycles("(1 2 3 4)", 4)]
        )
    with pytest.raises(ElementNotInGroup):
        a4 = FiniteGroup(4, [parse_cycles("(1 2 3)", 4), parse_cycles("(1 2)(3 4)", 4)])
        AbstractZipDatum.from_generators(
            a4, [parse_cycles("(1 2)", 4)], [parse_cycles("(1 2)", 4)]
        )


def test_delta_not_closed_under_products_is_refused():
    group = FiniteGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
    e, c = group.identity, (1, 2, 0)
    # {e, c} misses c * c = (2, 0, 1), so psi cannot be read at that product
    with pytest.raises(NotAHomomorphism, match="Delta is not closed under products"):
        AbstractZipDatum(group, [e, c], {e: e, c: c})


def product_table_verdict(group, delta, psi):
    """The |Delta|^2 check that psi is a homomorphism on a subgroup Delta,
    kept as the reference for the check on generators: the class of the
    error it raises, or None when it accepts."""
    gamma_set = group.element_set()
    if not delta <= gamma_set:
        return ElementNotInGroup
    if set(psi) != delta:
        return NotAHomomorphism
    if not set(psi.values()) <= gamma_set:
        return ElementNotInGroup
    for a in delta:
        for b in delta:
            ab = mult(a, b)
            if ab not in delta or psi[ab] != mult(psi[a], psi[b]):
                return NotAHomomorphism
    return None


def verdict(group, delta, psi):
    try:
        AbstractZipDatum(group, delta, psi)
    except (ElementNotInGroup, NotAHomomorphism) as exc:
        return type(exc)
    return None


def perturbations(a):
    """The datum itself, then psi with the images of each two neighbours of
    sorted(Delta) swapped, psi(e) moved off e, and Delta without each of its
    non-identity elements."""
    e, ordered = a.group.identity, sorted(a.delta)
    yield "as given", a.delta, a.psi
    for x, y in zip(ordered, ordered[1:]):
        yield f"swap {x} {y}", a.delta, {**a.psi, x: a.psi[y], y: a.psi[x]}
    moved = next(g for g in a.group.elements() if g != e)
    yield "psi(e) moved", a.delta, {**a.psi, e: moved}
    for d in ordered:
        if d != e:
            yield f"drop {d}", a.delta - {d}, {k: v for k, v in a.psi.items() if k != d}


def test_generator_check_agrees_with_the_product_table():
    refused = accepted = 0
    for name, a in abstract_catalog():
        for what, delta, psi in perturbations(a):
            expected = product_table_verdict(a.group, delta, psi)
            assert verdict(a.group, delta, psi) is expected, (name, what)
            accepted += expected is None
            refused += expected is not None
    # some perturbations are accepted, so agreement is not all refusals
    assert accepted > len(abstract_catalog()) and refused > 0


def test_empty_delta_is_refused():
    group = FiniteGroup(3, [parse_cycles("(1 2)", 3), parse_cycles("(1 2 3)", 3)])
    # the product table of the empty set has no entry to fail on
    assert product_table_verdict(group, frozenset(), {}) is None
    with pytest.raises(NotAHomomorphism, match="psi fails on the multiplication table"):
        AbstractZipDatum(group, [], {})
    # no generators still give the trivial subgroup
    a = AbstractZipDatum.from_generators(group, [], [])
    assert a.delta == frozenset({group.identity}) and len(a.equivalence_classes()) == 6


def test_explicit_psi_is_checked_in_few_products(monkeypatch):
    s6 = FiniteGroup(6, [parse_cycles("(1 2)", 6), parse_cycles("(1 2 3 4 5 6)", 6)])
    delta = s6.element_set()
    x = parse_cycles("(1 3 5)(2 6)", 6)
    psi = {d: mult(mult(x, d), inverse(x)) for d in delta}
    calls = []

    def counted(a, b):
        calls.append(None)
        return mult(a, b)

    monkeypatch.setattr(abstract, "mult", counted)
    a = AbstractZipDatum(s6, delta, psi)
    # the product table takes 2 |Delta|^2 = 1 036 800 products
    assert a.psi_injective and len(calls) < 30_000


def test_twisted_conjugation_of_stable_subgroups():
    a = s3_datum()
    for gamma in a.group.elements():
        E = a.stable_subgroup(gamma)
        assert a.group.identity in E
        for d in a.delta:
            pd = a.psi[d]
            expected = frozenset(mult(mult(pd, e), inverse(pd)) for e in E)
            for e in E:
                moved = mult(mult(mult(d, gamma), e), inverse(pd))
                assert a.stable_subgroup(moved) == expected


def test_stable_subgroup_exact_fixedness():
    a = s3_datum()
    for gamma in a.group.elements():
        E = a.stable_subgroup(gamma)
        gi = inverse(gamma)
        image = frozenset(a.psi[mult(mult(gamma, e), gi)] for e in E)
        assert image == E


def test_induced_datum_examples(a2):
    a = weyl_a2_datum(a2)
    e = a.group.identity
    s2 = a2.simple(2).perm
    sub = a.induced_at(e)
    assert sub.group.element_set() == frozenset({e, s2})
    assert sub.delta == frozenset({e})
    xi = a2.from_word([2, 1]).perm
    sub = a.induced_at(xi)
    assert sub.delta == frozenset({e, s2})
    assert sub.psi[s2] == s2


def test_induced_bijection_s3():
    a = s3_datum()
    image = frozenset(a.psi.values())
    xi = a.group.identity
    sub = a.induced_at(xi)
    double = {mult(mult(d, xi), h) for d in a.delta for h in image}
    inside = {frozenset(a.orbit(g)) for g in double}
    assert len(inside) == len(sub.equivalence_classes())
    for gamma in image:
        orb = a.orbit(mult(xi, gamma))
        restricted = frozenset(g for g in (mult(inverse(xi), h) for h in orb) if g in image)
        assert restricted in {frozenset(c) for c in sub.equivalence_classes()}


@given(st.integers(min_value=0, max_value=23))
@settings(max_examples=24, deadline=None)
def test_class_sizes_uniform_s4(index):
    group = FiniteGroup(4, [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)])
    a = AbstractZipDatum.from_generators(
        group, [parse_cycles("(1 2)", 4)], [parse_cycles("(3 4)", 4)]
    )
    gamma = group.elements()[index]
    assert len(a.orbit(gamma)) == len(a.delta)
