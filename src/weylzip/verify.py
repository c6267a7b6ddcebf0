"""Invariant suites: every theorem the package implements, checked at desk
scale against the independent oracles.

The same checks back the `verify` subcommand and the acceptance tests.
Each check returns a list of human-readable failure strings (empty means
pass); `run_verify` assembles them into a report.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from . import oracles
from .abstract import AbstractZipDatum, FiniteGroup, Perm, inverse, mult
from .coxeter import CoxeterGroup, build_group
from .errors import WeylZipError
from .extended import ExtendedZipDatum
from .isogeny import zip_datum_from_isogeny
from .serialize import parse_cycles, word_str
from .zipdata import ZipDatum, _down_rows

QUICK_TYPES = ("A1", "A1xA1", "A2", "B2", "G2")
FULL_EXTRA_TYPES = ("A3", "B3", "C3")
SWEEP_TYPES = QUICK_TYPES + FULL_EXTRA_TYPES

F4_SAMPLE_PAIRS = 10_000
F4_SAMPLE_SEED = 20240315


def subsets(indices) -> list[frozenset[int]]:
    items = sorted(indices)
    return [
        frozenset(c) for k in range(len(items) + 1) for c in combinations(items, k)
    ]


def sweep_zip_data(group: CoxeterGroup) -> tuple[ZipDatum, ...]:
    """Every valid (I, J, psi): all subsets I, all same-size J, and every
    bijection preserving Coxeter matrix entries."""
    out = []
    S = group.simple_indices
    for I in subsets(S):
        src = sorted(I)
        for J in subsets(S):
            if len(J) != len(I):
                continue
            for image in permutations(sorted(J)):
                psi = dict(zip(src, image))
                if group.coxeter_mismatch(psi, src) is None:
                    out.append(ZipDatum(group, I, J, psi))
    return tuple(out)


# -- coxeter-core checks -------------------------------------------------------

def check_group_basics(group: CoxeterGroup) -> list[str]:
    bad = []
    m = group.num_positive
    if len(group.roots) != 2 * m:
        bad.append(f"{group.label}: root list is not positives + negatives")
    for r in range(m):
        if group.roots[r + m] != tuple(-c for c in group.roots[r]):
            bad.append(f"{group.label}: negative root block is not -Phi^+")
    for i in group.simple_indices:
        s = group.simple(i)
        moved = {
            r
            for r in range(m)
            if r != group.simple_root_index(i) and not group.is_positive_root(s.act_on_root(r))
        }
        if moved:
            bad.append(f"{group.label}: s_{i} does not permute Phi+ minus alpha_{i}")
    for I in subsets(group.simple_indices):
        phi_i = group.phi(I)
        if group.phi_plus(I) != {r for r in phi_i if group.is_positive_root(r)}:
            bad.append(f"{group.label}: Phi_I n Phi+ mismatch for I={sorted(I)}")
    elems = group.elements()
    if len(elems) != group.order:
        bad.append(
            f"{group.label}: enumerated {len(elems)} elements, expected {group.order}"
        )
    for w in elems:
        word = w.canonical_word()
        root_length = sum(1 for r in range(m) if not group.is_positive_root(w.act_on_root(r)))
        if not (w.length == len(word) == root_length == w.inverse().length):
            bad.append(f"{group.label}: length mismatch at {word}")
        if group.from_word(word) != w:
            bad.append(f"{group.label}: word round trip fails at {word}")
        for s in w.left_descents():
            if (group.simple(s) * w).length != w.length - 1:
                bad.append(f"{group.label}: descent {s} does not shorten {word}")
    # the tables, built from the walk alone, against Element products; their
    # dtype must hold the positions 0..n-1 and the -1 of rows outside S
    t = group.tables()
    n = len(elems)
    for name, table in (("lmul", t.lmul), ("rmul", t.rmul)):
        info = np.iinfo(table.dtype)
        if info.min > -1 or info.max < n - 1:
            bad.append(f"{group.label}: {name} of dtype {table.dtype} cannot hold {n - 1} and -1")
        if table.min() < 0 or table.max() >= n:
            bad.append(f"{group.label}: {name} holds entries outside [0, {n})")
    position = {w: k for k, w in enumerate(elems)}
    if t.length.tolist() != [w.length for w in elems]:
        bad.append(f"{group.label}: table lengths differ from the element lengths")
    for i in group.simple_indices:
        s = group.simple(i)
        if t.lmul[i - 1].tolist() != [position[s * w] for w in elems]:
            bad.append(f"{group.label}: lmul of s_{i} differs from the products s_{i} w")
        if t.rmul[i - 1].tolist() != [position[w * s] for w in elems]:
            bad.append(f"{group.label}: rmul of s_{i} differs from the products w s_{i}")
    return bad


def check_bruhat_oracle_all_pairs(group: CoxeterGroup) -> list[str]:
    bad = []
    elems = group.elements()
    for x in elems:
        for w in elems:
            if group.bruhat_leq(x, w) != oracles.bruhat_subword_oracle(x, w):
                bad.append(
                    f"{group.label}: bruhat disagrees with subword oracle at "
                    f"({word_str(x)}, {word_str(w)})"
                )
    return bad


def check_bruhat_oracle_sampled(group: CoxeterGroup, pairs: int = F4_SAMPLE_PAIRS,
                                seed: int = F4_SAMPLE_SEED) -> list[str]:
    bad = []
    rng = random.Random(seed)
    elems = group.elements()
    for _ in range(pairs):
        x = elems[rng.randrange(len(elems))]
        w = elems[rng.randrange(len(elems))]
        if group.bruhat_leq(x, w) != oracles.bruhat_subword_oracle(x, w):
            bad.append(
                f"{group.label}: bruhat disagrees with subword oracle at "
                f"({word_str(x)}, {word_str(w)})"
            )
    return bad


# -- coset-representative checks ----------------------------------------------

def check_coset_identities(group: CoxeterGroup) -> list[str]:
    from . import cosets

    bad = []
    S = group.simple_indices
    all_subsets = subsets(S)
    for I in all_subsets:
        fast = cosets.min_left_coset_reps(group, I)
        if fast != oracles.iw_oracle(group, I):
            bad.append(f"{group.label}: minimal left reps != oracle for I={sorted(I)}")
        inv_right = tuple(
            sorted((w.inverse() for w in cosets.min_right_coset_reps(group, I)),
                   key=lambda w: w.sort_key)
        )
        if inv_right != fast:
            bad.append(f"{group.label}: right reps are not inverses of left reps, I={sorted(I)}")
    for I in all_subsets:
        w_i_set = set(group.parabolic_elements(I))
        for J in all_subsets:
            doubles = cosets.min_double_coset_reps(group, I, J)
            iw = set(cosets.min_left_coset_reps(group, I))
            wj = set(cosets.min_right_coset_reps(group, J))
            if set(doubles) != iw & wj:
                bad.append(
                    f"{group.label}: double reps != intersection for "
                    f"I={sorted(I)}, J={sorted(J)}"
                )
            built_iw = set()
            built_wj = set()
            count = 0
            for x in doubles:
                I_x = cosets.kilmoyer_subset(group, I, J, x)
                xi = x.inverse()
                lhs = set(group.parabolic_elements(I_x))
                # Kilmoyer: W_{I_x} = W_J n x^{-1} W_I x
                rhs = {v for v in group.parabolic_elements(J) if x * v * xi in w_i_set}
                if lhs != rhs:
                    bad.append(
                        f"{group.label}: Kilmoyer set equality fails at "
                        f"I={sorted(I)}, J={sorted(J)}, x={word_str(x)}"
                    )
                sub_right = cosets.min_left_coset_reps(group, I_x, universe=J)
                built_iw.update(x * wj_part for wj_part in sub_right)
                count += len(group.parabolic_elements(I)) * len(sub_right)
                inside = group.partial_map(xi.row, group.psi_table({j: j for j in J}))
                I_cap_xJ = frozenset(i for i in I if inside[i - 1])
                sub_left = cosets.min_right_coset_reps(group, I_cap_xJ, universe=I)
                built_wj.update(w_i * x for w_i in sub_left)
            if built_iw != iw:
                bad.append(
                    f"{group.label}: minimal reps != double-coset assembly for "
                    f"I={sorted(I)}, J={sorted(J)}"
                )
            if built_wj != wj:
                bad.append(
                    f"{group.label}: dual assembly fails for I={sorted(I)}, J={sorted(J)}"
                )
            if count != group.order:
                bad.append(
                    f"{group.label}: Howlett triple count {count} != |W| for "
                    f"I={sorted(I)}, J={sorted(J)}"
                )
    for I in all_subsets:
        for J in all_subsets:
            for w in group.elements():
                hd = cosets.howlett_decompose(group, I, J, w)
                if hd.element() != w or (
                    hd.left.length + hd.middle.length + hd.right.length != w.length
                ):
                    bad.append(
                        f"{group.label}: Howlett decomposition broken at {word_str(w)}"
                    )
                    break
    return bad


# -- per-datum checks ----------------------------------------------------------

def check_partition_and_reps(z: ZipDatum) -> list[str]:
    bad = []
    a = z.abstract_datum()
    classes = a.equivalence_classes()
    total = sum(len(c) for c in classes)
    union = set().union(*classes) if classes else set()
    if total != a.group.order or len(union) != a.group.order:
        bad.append(f"{z!r}: classes do not partition the group")
    params = z.param_set("iw")
    param_perms = {w.perm for w in params}
    for c in classes:
        if len(c & param_perms) != 1:
            bad.append(f"{z!r}: a class contains {len(c & param_perms)} representatives")
    by_perm = {}
    for c in classes:
        for p in c:
            by_perm[p] = c
    reps = set()
    for w in z.group.parabolic_elements(z.universe):
        r = z.canonical_rep(w)
        reps.add(r)
        if r.perm not in by_perm[w.perm]:
            bad.append(
                f"{z!r}: canonical_rep({word_str(w)}) = {word_str(r)} "
                f"is not in the same class"
            )
            break
    if reps != set(params):
        bad.append(f"{z!r}: canonical representatives differ from the parameter set")
    return bad


def check_class_cardinality(a: AbstractZipDatum, name: str = "") -> list[str]:
    bad = []
    classes = a.equivalence_classes()
    delta_size = len(a.delta)
    if any(len(c) != delta_size for c in classes):
        bad.append(f"{name or a!r}: some class size differs from |Delta|")
    if len(classes) * delta_size != a.group.order:
        bad.append(f"{name or a!r}: class count differs from [Gamma:Delta]")
    return bad


def check_sigma_duality(z: ZipDatum) -> list[str]:
    bad = []
    params = z.param_set("iw")
    dual = z.param_set("wj")
    images = [z.sigma(w) for w in params]
    if sorted(i.perm for i in images) != sorted(w.perm for w in dual):
        bad.append(f"{z!r}: sigma is not onto the dual parameter set")
    for w, im in zip(params, images):
        if im.length != w.length:
            bad.append(f"{z!r}: sigma changes length at {word_str(w)}")
        if z.sigma_inverse(im) != w:
            bad.append(f"{z!r}: sigma_inverse fails at {word_str(w)}")
    position = {w.perm: k for k, w in enumerate(dual)}
    if any(im.perm not in position for im in images):
        return bad  # reported above: sigma is not onto the dual set
    # the "wj" relation read at the sigma images of the "iw" parameters
    at = [position[im.perm] for im in images]
    moved = z._relation_matrix("wj")[np.ix_(at, at)]
    for a, b in np.argwhere(z._relation_matrix("iw") != moved).tolist():
        bad.append(
            f"{z!r}: sigma is not an order isomorphism at "
            f"({word_str(params[a])}, {word_str(params[b])})"
        )
    return bad


def check_closure_order(z: ZipDatum, side: str = "iw") -> list[str]:
    bad = []
    params = z.param_set(side)
    rel = z._relation_matrix(side)
    k = len(params)
    if not rel.diagonal().all():
        bad.append(f"{z!r}: closure order is not reflexive on side {side}")
    sym = rel & rel.T
    if (sym != np.eye(k, dtype=bool)).any():
        bad.append(f"{z!r}: closure order is not antisymmetric on side {side}")
    closure = rel @ rel  # boolean semiring: no count to wrap
    if (closure & ~rel).any():
        bad.append(f"{z!r}: closure order is not transitive on side {side}")
    for a in range(k):
        for b in range(k):
            if a != b and rel[a, b] and params[a].length >= params[b].length:
                bad.append(
                    f"{z!r}: strict precedence without length drop at "
                    f"({word_str(params[a])}, {word_str(params[b])})"
                )
    lengths = [w.length for w in params]
    top = [w for w in params if w.length == max(lengths)]
    if len(top) != 1:
        bad.append(f"{z!r}: maximal-length parameter is not unique on side {side}")
    else:
        if set(z.closure_set(top[0], side)) != set(params):
            bad.append(f"{z!r}: closure of the top piece misses parameters")
    bottom = min(params, key=lambda w: w.length)
    if not bottom.is_identity() or set(z.closure_set(bottom, side)) != {bottom}:
        bad.append(f"{z!r}: identity is not the unique minimum on side {side}")
    return bad


def check_length_one_closure(z: ZipDatum, side: str) -> list[str]:
    """The census property behind the poset's cover edges: the pairs D1 of
    :meth:`ZipDatum._length_one_pairs` close, reflexively and
    transitively, to the relation matrix.  The closure is taken by boolean
    squaring, not by the layer walk of :func:`zipdata._cover_edges`.  A
    datum that fails takes the product covers in hasse_poset, and is
    named."""
    rel = z._relation_matrix(side)
    a, b = z._length_one_pairs(side)
    closure = np.eye(len(rel), dtype=bool)
    closure[a, b] = True
    while True:
        step = closure @ closure  # boolean semiring: no count to wrap
        if (step == closure).all():
            break
        closure = step
    if (closure != rel).any():
        return [f"{z!r}: the length-one pairs do not close to the closure order on side "
                f"{side}, so hasse_poset takes the product covers"]
    return []


def check_owner_lemma(z: ZipDatum, side: str) -> list[str]:
    """A lemma toward the gradedness of the closure order: for every orbit
    member c with l(c) equal to the length of its owner a (the owner array
    of :meth:`ZipDatum._owners`), the owners of the Bruhat down-set of c
    are the owners of the down-set of w_a.  The down-sets are rows over
    W_U from the canonical words the walk spells.  A datum that fails is
    named, with its first counterexample."""
    g = z.group
    t, e = g.tables(z.universe), g.enumeration(z.universe)
    orbit, owner = z._orbit_positions(side), z._owners(side)
    params = orbit[0].tolist()
    minimal = np.unique(orbit[t.length[orbit] == t.length[orbit[0]]]).tolist()
    words = e.words_at(minimal)
    owners = {}  # minimal member -> the owners of its down-set, as bytes
    for i, down in _down_rows(t, words, True):
        found = np.unique(owner[down])
        owners[minimal[i]] = found[found >= 0].tobytes()
    bad = [i for i, c in enumerate(minimal) if owners[c] != owners[params[owner[c]]]]
    if not bad:
        return []
    c = minimal[bad[0]]
    return [f"{z!r}: on side {side}, {len(bad)} orbit members as long as their owner "
            f"have a down-set with other owners, first "
            f"{word_str(g.from_word(words[bad[0]]))} (owner "
            f"{word_str(z.param_set(side)[owner[c]])})"]


def check_refined_length(z: ZipDatum) -> list[str]:
    from . import cosets

    bad = []
    for w in z.param_set("iw"):
        hd = cosets.howlett_decompose(z.group, z.I, z.J, w)
        if cosets.refined_length_count(z.group, z.I, z.J, w) != hd.middle.length:
            bad.append(f"{z!r}: refined length count fails at {word_str(w)}")
    return bad


def check_kw(z: ZipDatum) -> list[str]:
    from . import cosets

    bad = []
    g = z.group
    for w in z.param_set("iw"):
        K = z.stable_subset(w)
        if K != oracles.kw_bruteforce(z, w):
            bad.append(f"{z!r}: stable subset != brute force at {word_str(w)}")
        f = g.partial_map(w.row, g.psi_table(z.psi))
        if any(f[s - 1] not in K for s in K):
            bad.append(f"{z!r}: stable subset not actually stable at {word_str(w)}")
        hd = cosets.howlett_decompose(g, z.I, z.J, w)
        sub = z.induced_at(hd.middle)
        if sub.stable_subset(hd.right) != K:
            bad.append(f"{z!r}: induced-datum stable subset differs at {word_str(w)}")
        if z.inf_stab_dim(w) != z.dim_levi_deficit() - hd.middle.length:
            bad.append(f"{z!r}: infinitesimal stabilizer count wrong at {word_str(w)}")
    return bad


def check_dimensions(z: ZipDatum, central_rank: int = 0) -> list[str]:
    bad = []
    pieces = z.pieces(central_rank=central_rank)
    top = max(p.length for p in pieces)
    for p in pieces:
        if p.dimension != z.dim_parabolic(central_rank) + p.length:
            bad.append(f"{z!r}: piece dimension formula fails at {word_str(p.rep)}")
    if z.dim_parabolic(central_rank) + top != z.dim_group(central_rank):
        bad.append(f"{z!r}: top piece is not dense (dimension count)")
    return bad


# -- abstract-datum oracle checks ----------------------------------------------

def check_abstract_oracles(a: AbstractZipDatum, name: str = "") -> list[str]:
    bad = []
    tag = name or repr(a)
    for gamma in a.group.elements():
        if a.stable_subgroup(gamma) != oracles.e_gamma_bruteforce(a, gamma):
            bad.append(f"{tag}: stable subgroup != lattice brute force")
            break
    fast = {frozenset(c) for c in a.equivalence_classes()}
    slow = {frozenset(c) for c in oracles.classes_bruteforce(a)}
    if fast != slow:
        bad.append(f"{tag}: classes != transitive-closure oracle")
    return bad


def check_twist_conjugation(a: AbstractZipDatum, name: str = "") -> list[str]:
    """E_{d g e psi(d)^{-1}} = psi(d) E_g psi(d)^{-1}, swept exhaustively."""
    bad = []
    tag = name or repr(a)
    for gamma in a.group.elements():
        E = a.stable_subgroup(gamma)
        if a.group.identity not in E:
            bad.append(f"{tag}: stable subgroup misses the identity")
        for d in a.delta:
            pd = a.psi[d]
            pdi = inverse(pd)
            expected = frozenset(mult(mult(pd, e), pdi) for e in E)
            for e in E:
                moved = mult(mult(mult(d, gamma), e), pdi)
                if a.stable_subgroup(moved) != expected:
                    bad.append(f"{tag}: twisted-conjugation identity fails")
                    return bad
    return bad


def check_induction_bijection(a: AbstractZipDatum, name: str = "") -> list[str]:
    """The induced datum's classes biject with the classes inside the
    double coset Delta xi psi(Delta), matching the restriction formula."""
    bad = []
    tag = name or repr(a)
    image = frozenset(a.psi.values())
    covered: set[Perm] = set()
    for xi in a.group.elements():
        if xi in covered:
            continue
        double = {
            mult(mult(d, xi), h) for d in a.delta for h in image
        }
        covered |= double
        sub = a.induced_at(xi)
        xii = inverse(xi)
        sub_classes = {frozenset(c) for c in sub.equivalence_classes()}
        restricted = set()
        for gamma in sorted(image):
            orb = a.orbit(mult(xi, gamma))
            if not orb <= double:
                bad.append(f"{tag}: a class escapes its double coset")
                return bad
            restricted.add(frozenset(
                g for g in (mult(xii, h) for h in orb) if g in image
            ))
        if sub_classes != restricted:
            bad.append(f"{tag}: induced classes do not match restriction")
            return bad
        inside = {frozenset(a.orbit(g)) for g in double}
        if len(inside) != len(sub_classes):
            bad.append(f"{tag}: induced class count mismatch")
            return bad
    return bad


# -- extended and isogeny consistency -------------------------------------------

def check_extended_trivial_omega(z: ZipDatum) -> list[str]:
    bad = []
    ext = ExtendedZipDatum(z, [], [], [])
    for side in ("iw", "wj"):
        orbits = ext.pieces(side)
        if [o[0].w for o in orbits] != list(
            sorted(z.param_set(side), key=lambda w: w.sort_key)
        ) or any(len(o) != 1 for o in orbits):
            bad.append(f"{z!r}: trivial-Omega pieces do not collapse to the base")
    for w in z.param_set("iw"):
        what = ext.extended(w)
        if ext.sigma_hat(what).w != z.sigma(w):
            bad.append(f"{z!r}: trivial-Omega sigma_hat differs from sigma")
        got = {e.w for e in ext.closure_set(what, "iw")}
        if got != set(z.closure_set(w, "iw")):
            bad.append(f"{z!r}: trivial-Omega closure differs from the base")
    return bad


def iter_isogeny_data(group: CoxeterGroup):
    """All valid (phi_bar=id, delta, I, x) isogeny data on the group."""
    for delta in group.coxeter_automorphisms():
        for I in subsets(group.simple_indices):
            for x in group.elements():
                try:
                    yield zip_datum_from_isogeny(
                        group, group.identity_automorphism(), delta, I, x
                    )
                except WeylZipError:
                    continue


def check_lusztig_consistency(group: CoxeterGroup) -> list[str]:
    """The reparametrization by x is a bijection onto the target set, and
    each Lusztig closure, order included, is the set of "wj" parameters
    whose twisted orbit meets the Bruhat interval below w x^{-1}, carried
    by x and sorted ShortLex: orbit rows from one replay of the walk of W_I
    per datum (:meth:`ZipDatum._orbit_rows`, no row of W_I and not the table
    positions of closure sets), one lifting loop
    (:meth:`CoxeterGroup.bruhat_below`) per target, no closure set."""
    bad = []
    m2 = 2 * group.num_positive
    for iso in iter_isogeny_data(group):
        z, target = iso.zip, iso.target_set()
        params = z.param_set("wj")
        forward = [iso.reparam(w, "forward") for w in params]
        if sorted(w.perm for w in forward) != sorted(w.perm for w in target):
            bad.append(f"{iso!r}: reparametrization is not onto")
            continue
        rows = np.array([v.row for v in params])
        orbits = z._orbit_rows(rows).reshape(-1, m2)
        shortlex = sorted(range(len(forward)), key=lambda p: forward[p].sort_key)
        for w in target:
            v = iso.reparam(w, "backward")
            if iso.reparam(v, "forward") != w:
                bad.append(f"{iso!r}: reparametrization round trip fails")
            below = group.bruhat_below(orbits, v.canonical_word())
            below = below.reshape(-1, len(params)).any(axis=0)
            expect = tuple(forward[p] for p in shortlex if below[p])
            if iso.lusztig_closure(w) != expect:
                bad.append(
                    f"{iso!r}: reparametrized closure mismatch at {word_str(w)}"
                )
    return bad


# -- the abstract catalog --------------------------------------------------------

def _abstract(degree, gamma_gens, delta_gens, images, name):
    group = FiniteGroup(degree, [parse_cycles(g, degree) for g in gamma_gens])
    return name, AbstractZipDatum.from_generators(
        group,
        [parse_cycles(g, degree) for g in delta_gens],
        [parse_cycles(h, degree) for h in images],
    )


def abstract_catalog() -> tuple[tuple[str, AbstractZipDatum], ...]:
    """Hand-picked abstract zip data on permutation groups of order <= 48,
    including several non-injective twists."""
    s4 = ["(1 2)", "(1 2 3 4)"]
    d4 = ["(1 2 3 4)", "(1 3)"]
    s3 = ["(1 2)", "(1 2 3)"]
    c6 = ["(1 2 3 4 5 6)"]
    v8 = ["(1 2)", "(3 4)", "(5 6)"]
    c2s4 = ["(1 2)", "(1 2 3 4)", "(5 6)"]
    a4 = ["(1 2 3)", "(1 2)(3 4)"]
    data = [
        _abstract(4, s4, ["(1 2)"], ["(3 4)"], "S4/C2 shift"),
        _abstract(4, s4, ["(1 2 3)"], ["(2 3 4)"], "S4/C3 shift"),
        _abstract(4, s4, ["(1 2)", "(3 4)"], ["(3 4)", "(1 2)"], "S4/V4 swap"),
        _abstract(4, s4, ["(1 2 3 4)"], ["(1 3)(2 4)"], "S4/C4 collapse"),
        _abstract(4, s4, ["(1 2 3 4)", "(1 3)"], ["(1 3 4 2)", "(2 3)"], "S4/D4 conj"),
        _abstract(4, s4, ["(1 2 3)", "(1 2)(3 4)"], ["()", "()"], "S4/A4 trivial"),
        _abstract(4, s4, s4, s4, "S4 identity"),
        _abstract(4, s4, s4, ["(2 1)", "(2 1 3 4)"], "S4 inner twist"),
        _abstract(
            4, s4, ["(1 2)(3 4)", "(1 3)(2 4)"], ["(1 3)(2 4)", "(1 4)(2 3)"],
            "S4/V4 cycle"
        ),
        _abstract(4, s4, ["(1 2)(3 4)"], ["(1 2)"], "S4/C2 mixed"),
        _abstract(3, s3, ["(1 2)"], ["(1 3)"], "S3/C2 shift"),
        _abstract(3, s3, s3, s3, "S3 identity"),
        _abstract(3, s3, ["(1 2 3)"], ["(1 3 2)"], "S3/C3 invert"),
        _abstract(3, s3, ["(1 2 3)"], ["()"], "S3/C3 trivial"),
        _abstract(3, s3, s3, ["(2 3)", "(1 2 3)"], "S3 inner twist"),
        _abstract(4, d4, ["(1 3)(2 4)"], ["(1 2)(3 4)"], "D4 center shift"),
        _abstract(4, d4, ["(1 2 3 4)"], ["(1 4 3 2)"], "D4/C4 invert"),
        _abstract(4, d4, d4, d4, "D4 identity"),
        _abstract(6, c6, c6, ["(1 6 5 4 3 2)"], "C6 invert"),
        _abstract(6, c6, ["(1 3 5)(2 4 6)"], ["(1 5 3)(2 6 4)"], "C6/C3 invert"),
        _abstract(6, c6, c6, ["(1 4)(2 5)(3 6)"], "C6 collapse"),
        _abstract(6, v8, ["(1 2)", "(3 4)"], ["(3 4)", "(5 6)"], "V8 shift"),
        _abstract(6, v8, ["(1 2)", "(3 4)"], ["(3 4)", "(3 4)"], "V8 collapse"),
        _abstract(6, c2s4, ["(5 6)"], ["(1 2)"], "C2xS4 cross"),
        _abstract(6, c2s4, ["(1 2)", "(5 6)"], ["(5 6)", "(1 2)"], "C2xS4 swap"),
        _abstract(4, a4, ["(1 2)(3 4)", "(1 3)(2 4)"], ["(1 3)(2 4)", "(1 4)(2 3)"],
                  "A4/V4 cycle"),
    ]
    assert len(data) >= 20
    assert any(not a.psi_injective for _, a in data)
    return tuple(data)


# -- report assembly -------------------------------------------------------------

@dataclass(frozen=True)
class SuiteResult:
    name: str
    elapsed: float
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _run(name: str, fn) -> SuiteResult:
    start = time.perf_counter()
    failures = tuple(fn())
    return SuiteResult(name, time.perf_counter() - start, failures)


def group_suites(label: str, include_abstract_oracles: bool) -> list[SuiteResult]:
    group = build_group(label)
    data = sweep_zip_data(group)
    out = [
        _run(f"{label} group basics", lambda: check_group_basics(group)),
        _run(f"{label} coset identities", lambda: check_coset_identities(group)),
    ]
    if group.order <= 120:
        out.append(
            _run(f"{label} Bruhat vs subword oracle",
                 lambda: check_bruhat_oracle_all_pairs(group))
        )

    def datum_checks():
        bad = []
        for z in data:
            bad += check_partition_and_reps(z)
            bad += check_class_cardinality(z.abstract_datum(), repr(z))
            bad += check_sigma_duality(z)
            bad += check_closure_order(z, "iw")
            bad += check_closure_order(z, "wj")
            bad += check_refined_length(z)
            bad += check_kw(z)
            bad += check_dimensions(z)
        return bad

    out.append(_run(f"{label} zip-datum sweep ({len(data)} data)", datum_checks))
    if include_abstract_oracles:
        def abstract_checks():
            bad = []
            for z in data:
                a = z.abstract_datum()
                bad += check_abstract_oracles(a, repr(z))
                bad += check_twist_conjugation(a, repr(z))
            return bad

        out.append(_run(f"{label} abstract oracle sweep", abstract_checks))
    return out


def run_verify(level: str = "quick") -> list[SuiteResult]:
    """The invariant suites behind `verify`: quick covers ranks <= 2, full
    adds rank 3, the F4 Bruhat sample, the abstract catalog with its
    brute-force oracles, the reparametrization sweep, and the census of
    the length-one pairs and of the owner lemma on every swept datum and
    side."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    results: list[SuiteResult] = []
    for label in QUICK_TYPES:
        results += group_suites(label, include_abstract_oracles=True)
    if level == "full":
        for label in FULL_EXTRA_TYPES:
            results += group_suites(label, include_abstract_oracles=False)

        def catalog_checks():
            bad = []
            for name, a in abstract_catalog():
                bad += check_class_cardinality(a, name)
                bad += check_abstract_oracles(a, name)
                bad += check_twist_conjugation(a, name)
                bad += check_induction_bijection(a, name)
            return bad

        results.append(_run("abstract catalog", catalog_checks))

        def extended_checks():
            bad = []
            for label in ("A2", "B2", "A1xA1"):
                for z in sweep_zip_data(build_group(label)):
                    bad += check_extended_trivial_omega(z)
            return bad

        results.append(_run("extended trivial-Omega collapse", extended_checks))

        def lusztig_checks():
            bad = []
            for label in SWEEP_TYPES:
                bad += check_lusztig_consistency(build_group(label))
            return bad

        results.append(_run("reparametrized closures", lusztig_checks))

        def census(check):
            def checks():
                bad = []
                for label in SWEEP_TYPES:
                    for z in sweep_zip_data(build_group(label)):
                        bad += check(z, "iw") + check(z, "wj")
                return bad
            return checks

        results.append(_run("length-one pairs close to the closure order",
                            census(check_length_one_closure)))
        results.append(_run("owner lemma on the minimal orbit members",
                            census(check_owner_lemma)))
        results.append(
            _run(
                f"F4 Bruhat sample ({F4_SAMPLE_PAIRS} pairs)",
                lambda: check_bruhat_oracle_sampled(build_group("F4")),
            )
        )
    return results
