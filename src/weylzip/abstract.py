"""Abstract zip data (Gamma, Delta, psi) on finite permutation groups.

Permutations are tuples of 0-based images ("one-line" form); composition
is (a*b)(i) = a[b[i]].  The key object is the largest subgroup E of
gamma^{-1} Delta gamma carried onto itself by psi * inn(gamma): for
injective psi it is found by a decreasing fixpoint, otherwise by a
bounded brute force over the subgroup lattice.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    ElementNotInGroup,
    LatticeTooLarge,
    NotAHomomorphism,
    TooLargeToEnumerate,
)

Perm = tuple[int, ...]

#: Default cap on full element enumeration of a FiniteGroup.
ORDER_BOUND = 100_000

#: Default cap on |gamma^{-1} Delta gamma| for subgroup-lattice brute force.
LATTICE_BOUND = 48


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def mult(a: Perm, b: Perm) -> Perm:
    return tuple(a[i] for i in b)


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def close_subgroup(degree: int, generators: Iterable[Perm], bound: int | None = None) -> frozenset[Perm]:
    """Subgroup generated by the given permutations (BFS closure)."""
    gens = [tuple(g) for g in generators]
    seen = {identity_perm(degree)}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                ag = mult(a, g)
                if ag not in seen:
                    seen.add(ag)
                    new.append(ag)
                    if bound is not None and len(seen) > bound:
                        raise TooLargeToEnumerate(
                            f"subgroup closure exceeded bound {bound}"
                        )
        frontier = new
    return frozenset(seen)


def subgroup_lattice(elements: frozenset[Perm]) -> tuple[frozenset[Perm], ...]:
    """All subgroups of a small group, by closing joins of cyclic subgroups."""
    degree = len(next(iter(elements)))
    e = identity_perm(degree)
    cyclics = set()
    for g in elements:
        sub = [e]
        x = g
        while x != e:
            sub.append(x)
            x = mult(x, g)
        cyclics.add(frozenset(sub))
    lattice = {frozenset([e])} | cyclics
    frontier = list(lattice)
    while frontier:
        new = []
        for H in frontier:
            for C in cyclics:
                if C <= H:
                    continue
                join = close_subgroup(degree, tuple(H | C))
                if join not in lattice:
                    lattice.add(join)
                    new.append(join)
        frontier = new
    return tuple(sorted(lattice, key=lambda H: (len(H), sorted(H))))


class FiniteGroup:
    """A finite permutation group on {0..degree-1}, given by generators;
    elements are enumerated lazily up to a configurable bound."""

    def __init__(self, degree: int, generators: Sequence[Perm], order_bound: int = ORDER_BOUND):
        self.degree = int(degree)
        self.generators = tuple(tuple(g) for g in generators)
        for g in self.generators:
            if sorted(g) != list(range(self.degree)):
                raise ElementNotInGroup(f"{g} is not a permutation of 0..{degree - 1}")
        self.order_bound = order_bound
        self.identity = identity_perm(self.degree)
        self._elements: tuple[Perm, ...] | None = None
        self._element_set: frozenset[Perm] | None = None

    @classmethod
    def from_elements(cls, degree: int, elements: Iterable[Perm],
                      generators: Sequence[Perm] | None = None) -> "FiniteGroup":
        elems = frozenset(tuple(e) for e in elements)
        group = cls(degree, tuple(generators) if generators else tuple(elems))
        group._element_set = elems
        group._elements = tuple(sorted(elems))
        return group

    @property
    def order(self) -> int:
        return len(self.elements())

    def elements(self) -> tuple[Perm, ...]:
        if self._elements is None:
            closed = close_subgroup(self.degree, self.generators, self.order_bound)
            self._element_set = closed
            self._elements = tuple(sorted(closed))
        return self._elements

    def element_set(self) -> frozenset[Perm]:
        self.elements()
        assert self._element_set is not None
        return self._element_set

    def __contains__(self, perm: Perm) -> bool:
        return tuple(perm) in self.element_set()

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


def extend_homomorphism(degree: int, gens: Sequence[Perm], images: Sequence[Perm]) -> dict[Perm, Perm]:
    """Extend generator images to the whole generated subgroup, failing if
    the assignment is inconsistent on any product."""
    table: dict[Perm, Perm] = {identity_perm(degree): identity_perm(degree)}
    frontier = [identity_perm(degree)]
    while frontier:
        new = []
        for a in frontier:
            fa = table[a]
            for g, fg in zip(gens, images):
                ag = mult(a, g)
                fag = mult(fa, fg)
                known = table.get(ag)
                if known is None:
                    table[ag] = fag
                    new.append(ag)
                elif known != fag:
                    raise NotAHomomorphism(
                        "generator images are inconsistent on the subgroup"
                    )
        frontier = new
    return table


class AbstractZipDatum:
    """(Gamma, Delta, psi) with Delta a subgroup of Gamma and psi a
    homomorphism Delta -> Gamma, given as explicit element data."""

    def __init__(self, group: FiniteGroup, delta: Iterable[Perm],
                 psi: dict[Perm, Perm], lattice_bound: int = LATTICE_BOUND):
        self.group = group
        self.delta = frozenset(tuple(d) for d in delta)
        self.psi = {tuple(a): tuple(b) for a, b in psi.items()}
        self.lattice_bound = lattice_bound
        self._validate()
        self.psi_injective = len(set(self.psi.values())) == len(self.psi)
        self._stable: dict[Perm, frozenset[Perm]] = {}

    @classmethod
    def from_generators(cls, group: FiniteGroup, delta_gens: Sequence[Perm],
                        psi_images: Sequence[Perm],
                        lattice_bound: int = LATTICE_BOUND) -> "AbstractZipDatum":
        """Build from generators of Delta and their images under psi."""
        degree = group.degree
        gens = [tuple(g) for g in delta_gens]
        images = [tuple(h) for h in psi_images]
        for g in gens:
            if g not in group:
                raise ElementNotInGroup(f"Delta generator {g} lies outside Gamma")
        psi = extend_homomorphism(degree, gens, images)
        return cls(group, frozenset(psi), psi, lattice_bound)

    def _validate(self) -> None:
        gamma_set = self.group.element_set()
        if not self.delta <= gamma_set:
            raise ElementNotInGroup("Delta is not contained in Gamma")
        if set(self.psi) != self.delta:
            raise NotAHomomorphism("psi must be defined on exactly Delta")
        if not set(self.psi.values()) <= gamma_set:
            raise ElementNotInGroup("psi image leaves Gamma")
        for a in self.delta:
            for b in self.delta:
                if self.psi[mult(a, b)] != mult(self.psi[a], self.psi[b]):
                    raise NotAHomomorphism("psi fails on the multiplication table")

    def __repr__(self) -> str:
        return (
            f"AbstractZipDatum(|Gamma|={self.group.order}, |Delta|={len(self.delta)}, "
            f"injective={self.psi_injective})"
        )

    def _conjugate_with_twist(self, gamma: Perm):
        """The subgroup gamma^{-1} Delta gamma together with the twist map
        theta(gamma^{-1} d gamma) = psi(d)."""
        gi = inverse(gamma)
        theta = {}
        for d in self.delta:
            theta[mult(mult(gi, d), gamma)] = self.psi[d]
        return theta

    def stable_subgroup(self, gamma: Perm) -> frozenset[Perm]:
        """The largest subgroup E of gamma^{-1} Delta gamma with
        psi(gamma E gamma^{-1}) = E."""
        gamma = tuple(gamma)
        if gamma not in self.group:
            raise ElementNotInGroup("gamma lies outside Gamma")
        got = self._stable.get(gamma)
        if got is not None:
            return got
        theta = self._conjugate_with_twist(gamma)
        if self.psi_injective:
            # decreasing fixpoint; injectivity turns theta(E) <= E into equality
            E = set(theta)
            while True:
                E2 = {c for c in E if theta[c] in E}
                if E2 == E:
                    break
                E = E2
            got = frozenset(E)
        else:
            conj = frozenset(theta)
            if len(conj) > self.lattice_bound:
                raise LatticeTooLarge(
                    f"|conjugate| = {len(conj)} exceeds lattice bound "
                    f"{self.lattice_bound} and psi is not injective"
                )
            fixed = [
                H
                for H in subgroup_lattice(conj)
                if {theta[h] for h in H} == H
            ]
            union_gens = [h for H in fixed for h in H]
            got = close_subgroup(self.group.degree, union_gens)
            assert {theta[h] for h in got} == got
        self._stable[gamma] = got
        return got

    def orbit(self, gamma: Perm) -> frozenset[Perm]:
        """The equivalence class of gamma: all d gamma e psi(d)^{-1} for
        d in Delta and e in the stable subgroup of gamma."""
        gamma = tuple(gamma)
        E = self.stable_subgroup(gamma)
        out = set()
        for d in self.delta:
            head = mult(d, gamma)
            tail = inverse(self.psi[d])
            for e in E:
                out.add(mult(mult(head, e), tail))
        return frozenset(out)

    def equivalence_classes(self) -> tuple[frozenset[Perm], ...]:
        """The partition of Gamma into equivalence classes, in discovery
        order over the sorted element list."""
        seen: set[Perm] = set()
        classes = []
        for gamma in self.group.elements():
            if gamma in seen:
                continue
            cls_ = self.orbit(gamma)
            classes.append(cls_)
            seen |= cls_
        return tuple(classes)

    def induced_at(self, xi: Perm) -> "AbstractZipDatum":
        """The induced datum at xi: Gamma restricted to psi(Delta), Delta to
        psi(Delta) n xi^{-1} Delta xi, and psi twisted by inn(xi)."""
        xi = tuple(xi)
        if xi not in self.group:
            raise ElementNotInGroup("xi lies outside Gamma")
        image = frozenset(self.psi.values())
        gamma_xi = FiniteGroup.from_elements(self.group.degree, image)
        xii = inverse(xi)
        conj = frozenset(mult(mult(xii, d), xi) for d in self.delta)
        delta_xi = image & conj
        psi_xi = {d: self.psi[mult(mult(xi, d), xii)] for d in delta_xi}
        return AbstractZipDatum(gamma_xi, delta_xi, psi_xi, self.lattice_bound)
