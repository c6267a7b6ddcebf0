"""Zip data built from isogeny-style input, the reparametrization used by
Lusztig's pieces, and the orbit report for the vanishing-differential
(Frobenius) case.

Input: Coxeter automorphisms phi_bar and delta of (W, S), a subset I,
and an element x conjugating delta(phi_bar(I)) into the simple set.  The
resulting datum has J = x delta(phi_bar(I)) x^{-1} and twist
psi = inn(x) * delta * phi_bar.  A Lusztig closure is the "wj" closure set
of w x^{-1} moved by x, read off the target set of the datum (cached on
it) in that set's ShortLex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from . import cosets
from .automorphisms import CoxeterAutomorphism
from .coxeter import CoxeterGroup, Element
from .errors import (
    MatrixViolation,
    NonSimpleConjugate,
    NotDoubleCosetRep,
    NotMinimalRep,
    PsiNotCoxeter,
    WrongMode,
)
from .pieces import Pieces
from .zipdata import ZipDatum

if TYPE_CHECKING:
    from .poset import ClosurePoset


@dataclass(frozen=True)
class IsogenyDatum:
    """A zip datum remembering the isogeny data it was built from.  x is
    checked once, at construction, by the test of
    :func:`zip_datum_from_isogeny`, and the datum's twist must be inn(x) *
    delta * phi_bar: NonSimpleConjugate or NotDoubleCosetRep otherwise."""

    zip: ZipDatum
    x: Element
    phi_bar: CoxeterAutomorphism
    delta: CoxeterAutomorphism
    frobenius_mode: bool = False

    def __post_init__(self):
        psi = _isogeny_twist(self.group, self.phi_bar, self.delta, self.zip.I, self.x)
        if psi != self.zip.psi:
            raise NonSimpleConjugate(
                f"x = {self.x!r} carries delta(phi_bar(I)) = {sorted(self.source_subset)} "
                f"by inn(x) * delta * phi_bar = {psi}, not by the datum's psi = {self.zip.psi}")

    @property
    def group(self) -> CoxeterGroup:
        return self.zip.group

    @cached_property
    def source_subset(self) -> frozenset[int]:
        """delta(phi_bar(I)), the subset parametrizing the reparametrized
        side W^{delta(phi_bar(I))}."""
        return self.delta.apply_subset(self.phi_bar.apply_subset(self.zip.I))

    def in_target_set(self, w: Element) -> bool:
        return cosets.in_min_right(w, self.source_subset)

    def target_set(self) -> tuple[Element, ...]:
        """The minimal right reps of delta(phi_bar(I)), ShortLex ordered."""
        return self._target_set

    @cached_property
    def _target_set(self) -> tuple[Element, ...]:
        return cosets.min_right_coset_reps(self.group, self.source_subset)

    def reparam(self, w: Element, direction: str = "forward") -> Element:
        """Right multiplication by x (forward: from the minimal right reps
        of J onto those of delta(phi_bar(I))) or by x^{-1} (backward).  The
        product lies in its target set, as x carries the simple roots of
        delta(phi_bar(I)) onto those of J (checked at construction)."""
        if direction == "forward":
            if not self.zip.contains_param(w, "wj"):
                raise NotMinimalRep("w is not a minimal right-coset representative of J")
            return w * self.x
        if direction == "backward":
            if not self.in_target_set(w):
                raise NotMinimalRep(
                    "w is not a minimal right-coset representative of delta(phi_bar(I))"
                )
            return w * self.x.inverse()
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")

    def lusztig_closure(self, w: Element) -> tuple[Element, ...]:
        """Closure of the piece labeled w in the W^{delta(I)} parametrization
        (identity phi_bar only): all w' with w' x^{-1} preceding w x^{-1},
        i.e. the "wj" closure set of w x^{-1} right-multiplied by x, read
        off :meth:`target_set` in its ShortLex order."""
        if not self.phi_bar.is_identity():
            raise WrongMode("the Lusztig parametrization requires phi_bar = id")
        if not self.in_target_set(w):
            raise NotMinimalRep("w lies outside the reparametrized set")
        closure = {v * self.x for v in self.zip.closure_set(w * self.x.inverse(), "wj")}
        return tuple(v for v in self.target_set() if v in closure)


def zip_datum_from_isogeny(group: CoxeterGroup,
                           phi_bar: CoxeterAutomorphism,
                           delta: CoxeterAutomorphism,
                           I,
                           x: Element,
                           frobenius_mode: bool = False) -> IsogenyDatum:
    """Build the zip datum (W, I, J, inn(x) * delta * phi_bar) from isogeny
    data, validating that x carries delta(phi_bar(I)) to simple reflections
    and is the minimal representative of its (J, delta(phi_bar(I)))-double
    coset."""
    I = frozenset(int(i) for i in I)
    psi = _isogeny_twist(group, phi_bar, delta, I, x)
    try:
        datum = ZipDatum(group, I, frozenset(psi.values()), psi)
    except PsiNotCoxeter as exc:
        raise MatrixViolation(str(exc)) from exc
    return IsogenyDatum(datum, x, phi_bar, delta, frobenius_mode)


def _isogeny_twist(group: CoxeterGroup, phi_bar: CoxeterAutomorphism,
                   delta: CoxeterAutomorphism, I: frozenset[int], x: Element) -> dict[int, int]:
    """inn(x) * delta * phi_bar on I, once x is checked to carry the simple
    roots of K = delta(phi_bar(I)) onto simple roots, those of a set J
    (NonSimpleConjugate otherwise), and to be the minimal representative
    of its (J, K)-double coset (NotDoubleCosetRep otherwise)."""
    K = delta.apply_subset(phi_bar.apply_subset(I))
    psi: dict[int, int] = {}
    for s in sorted(I):
        k = delta.apply_index(phi_bar.apply_index(s))
        image_root = x.act_on_root(group.simple_root_index(k))
        j = group.simple_index_of_root(image_root)
        if j is None:
            raise NonSimpleConjugate(
                f"x s_{k} x^-1 is not a simple reflection (root image not simple)"
            )
        if not group.is_positive_root(image_root):
            raise NotDoubleCosetRep(
                f"x sends alpha_{k} to a negative root, so x is not minimal "
                f"on the right for {sorted(K)}"
            )
        psi[s] = j
    J = frozenset(psi.values())
    if any(x.has_left_descent(j) for j in J):
        raise NotDoubleCosetRep("x has a left descent in J")
    # positivity of x on Phi_K^+, not just on the simples of K
    if {x.act_on_root(r) for r in group.phi_plus(K)} != group.phi_plus(J):
        raise NotDoubleCosetRep(f"x = {x!r} does not carry Phi^+ of {sorted(K)} onto that of J")
    return psi


@dataclass(frozen=True)
class FrobeniusReport:
    """Pieces annotated as single orbits (orbitally-finite reading), plus
    the closure cover edges: the nodes and edges of `poset`."""

    datum: ZipDatum
    central_rank: int
    poset: ClosurePoset
    orbitally_finite: bool = True

    @property
    def rows(self) -> Pieces:
        return self.poset.nodes

    @property
    def cover_edges(self) -> tuple[tuple[int, int], ...]:
        return self.poset.cover_edges

    def render_text(self) -> str:
        """The report's text, formatted from the columns of the pieces and
        the edge arrays of the poset."""
        from .serialize import subset_str

        rows, poset = self.rows, self.poset
        words = rows.words("rep")
        K = [subset_str(s) for s in rows.stable_subsets]
        lines = [
            f"orbit representatives ({len(rows)} pieces, "
            f"dim G = {self.datum.dim_group(self.central_rank)})"
        ]
        lines += [
            f"  {w:>12}  l={n:<3} dim={d:<4} infstab={i:<3} K={K[c]}"
            for w, n, d, i, c in zip(words, rows.length.tolist(), rows.dimension.tolist(),
                                     rows.inf_stab_dim.tolist(), rows.stable_code.tolist())
        ]
        lines.append("closure cover edges:")
        lines += [f"  {words[a]} -> {words[b]}"
                  for a, b in zip(poset.lower.tolist(), poset.upper.tolist())]
        lines.append("")
        return "\n".join(lines)


def frobenius_report(datum: ZipDatum | IsogenyDatum, central_rank: int = 0) -> FrobeniusReport:
    """The pieces listing read as a full orbit classification: in the
    vanishing-differential case each piece is a single orbit, so the rows
    double as orbit representatives and the poset as orbit closures."""
    z = datum.zip if isinstance(datum, IsogenyDatum) else datum
    poset = z.hasse_poset(side="iw", central_rank=central_rank)
    return FrobeniusReport(datum=z, central_rank=central_rank, poset=poset)
