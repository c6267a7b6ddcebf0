"""Abstract zip data (Gamma, Delta, psi) on finite permutation groups.

Permutations are tuples of 0-based images ("one-line" form); composition
is (a*b)(i) = a[b[i]].  The key object is the largest subgroup E of
gamma^{-1} Delta gamma carried onto itself by psi * inn(gamma), found for
every psi by a decreasing fixpoint followed by iterated images.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

from .errors import ElementNotInGroup, NotAHomomorphism, TooLargeToEnumerate

Perm = tuple[int, ...]

#: Cap on full element enumeration of a FiniteGroup.
ORDER_BOUND = 100_000


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def mult(a: Perm, b: Perm) -> Perm:
    return tuple(a[i] for i in b)


def inverse(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def closure(identity: Hashable, gens: Iterable, mul: Callable,
            bound: int | None = None) -> frozenset:
    """The monoid generated by `gens` under `mul` (a group, when it is
    finite), by breadth-first search from `identity`; TooLargeToEnumerate
    once it passes `bound` elements."""
    gens = list(gens)
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                ag = mul(a, g)
                if ag not in seen:
                    seen.add(ag)
                    new.append(ag)
                    if bound is not None and len(seen) > bound:
                        raise TooLargeToEnumerate(
                            f"subgroup closure exceeded bound {bound}"
                        )
        frontier = new
    return frozenset(seen)


class FiniteGroup:
    """A finite permutation group on {0..degree-1}, given by generators;
    elements are enumerated lazily up to ORDER_BOUND."""

    def __init__(self, degree: int, generators: Sequence[Perm]):
        self.degree = int(degree)
        self.generators = tuple(tuple(g) for g in generators)
        for g in self.generators:
            if sorted(g) != list(range(self.degree)):
                raise ElementNotInGroup(f"{g} is not a permutation of 0..{degree - 1}")
        self.identity = identity_perm(self.degree)
        self._elements: tuple[Perm, ...] | None = None
        self._element_set: frozenset[Perm] | None = None

    @classmethod
    def from_elements(cls, degree: int, elements: Iterable[Perm],
                      generators: Sequence[Perm] | None = None) -> "FiniteGroup":
        elems = frozenset(tuple(e) for e in elements)
        group = cls(degree, tuple(generators) if generators else tuple(elems))
        group._element_set = elems
        return group

    @property
    def order(self) -> int:
        return len(self.elements())

    def elements(self) -> tuple[Perm, ...]:
        if self._elements is None:
            self._elements = tuple(sorted(self.element_set()))
        return self._elements

    def element_set(self) -> frozenset[Perm]:
        if self._element_set is None:
            try:
                self._element_set = closure(self.identity, self.generators, mult, ORDER_BOUND)
            except TooLargeToEnumerate:
                raise TooLargeToEnumerate(
                    f"the group generated on {self.degree} points has more than "
                    f"abstract.ORDER_BOUND = {ORDER_BOUND} elements"
                ) from None
        return self._element_set

    def __contains__(self, perm: Perm) -> bool:
        return tuple(perm) in self.element_set()

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


def extend_homomorphism(identity: Hashable, gens: Sequence, images: Sequence,
                        mul: Callable) -> dict:
    """Extend generator images (and identity -> identity) to the whole
    generated group by breadth-first search over products;
    NotAHomomorphism if two words for one element get different images."""
    table = {identity: identity}
    frontier = [identity]
    while frontier:
        new = []
        for a in frontier:
            fa = table[a]
            for g, fg in zip(gens, images):
                ag = mul(a, g)
                fag = mul(fa, fg)
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

    def __init__(self, group: FiniteGroup, delta: Iterable[Perm], psi: dict[Perm, Perm]):
        self.group = group
        self.delta = frozenset(tuple(d) for d in delta)
        self.psi = {tuple(a): tuple(b) for a, b in psi.items()}
        self._validate()
        self.psi_injective = len(set(self.psi.values())) == len(self.psi)
        self._stable: dict[Perm, frozenset[Perm]] = {}

    @classmethod
    def from_generators(cls, group: FiniteGroup, delta_gens: Sequence[Perm],
                        psi_images: Sequence[Perm]) -> "AbstractZipDatum":
        """Build from generators of Delta and their images under psi."""
        gens = [tuple(g) for g in delta_gens]
        images = [tuple(h) for h in psi_images]
        for g in gens:
            if g not in group:
                raise ElementNotInGroup(f"Delta generator {g} lies outside Gamma")
        psi = extend_homomorphism(group.identity, gens, images, mult)
        return cls(group, frozenset(psi), psi)

    def _validate(self) -> None:
        gamma_set = self.group.element_set()
        if not self.delta <= gamma_set:
            raise ElementNotInGroup("Delta is not contained in Gamma")
        if set(self.psi) != self.delta:
            raise NotAHomomorphism("psi must be defined on exactly Delta")
        if not set(self.psi.values()) <= gamma_set:
            raise ElementNotInGroup("psi image leaves Gamma")
        # psi(a g) = psi(a) psi(g) for greedy generators g and all a in their span
        e = self.group.identity
        gens, span = [], {e: e}
        for d in sorted(self.delta):
            if d in span:
                continue
            gens.append(d)
            try:
                span = extend_homomorphism(e, gens, [self.psi[g] for g in gens], mult)
            except NotAHomomorphism:
                raise NotAHomomorphism("psi fails on the multiplication table") from None
            if not span.keys() <= self.delta:
                raise NotAHomomorphism("Delta is not closed under products")
        if span != self.psi:
            raise NotAHomomorphism("psi fails on the multiplication table")

    def __repr__(self) -> str:
        return (
            f"AbstractZipDatum(|Gamma|={self.group.order}, |Delta|={len(self.delta)}, "
            f"injective={self.psi_injective})"
        )

    def stable_subgroup(self, gamma: Perm) -> frozenset[Perm]:
        """The largest subgroup E of H = gamma^{-1} Delta gamma with
        theta(E) = E, where theta(c) = psi(gamma c gamma^{-1}).

        theta is a homomorphism H -> Gamma.  The decreasing fixpoint
        E_0 = H, E_{n+1} = E_n n theta^{-1}(E_n) ends at the largest
        subgroup E_oo with theta(E_oo) <= E_oo.  Its images theta^n(E_oo)
        are then a decreasing chain of subgroups, which stops at some E*
        with theta(E*) = E*.  Any E with theta(E) = E lies in every E_n,
        hence in E_oo, so E = theta^N(E) <= theta^N(E_oo) = E*: E* is the
        largest.  When psi is injective, theta(E_oo) = E_oo already."""
        gamma = tuple(gamma)
        if gamma not in self.group:
            raise ElementNotInGroup("gamma lies outside Gamma")
        got = self._stable.get(gamma)
        if got is not None:
            return got
        gi = inverse(gamma)
        theta = {mult(mult(gi, d), gamma): self.psi[d] for d in self.delta}
        E = frozenset(theta)
        while True:
            smaller = frozenset(c for c in E if theta[c] in E)
            if smaller == E:
                break
            E = smaller
        while True:
            image = frozenset(theta[c] for c in E)
            if image == E:
                break
            E = image
        self._stable[gamma] = E
        return E

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
        return AbstractZipDatum(gamma_xi, delta_xi, psi_xi)
