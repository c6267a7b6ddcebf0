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

from . import cosets
from .coxeter import CoxeterAutomorphism, CoxeterGroup, Element
from .errors import (
    MatrixViolation,
    NonSimpleConjugate,
    NotDoubleCosetRep,
    NotMinimalRep,
    PsiNotCoxeter,
    WrongMode,
)
from .zipdata import Piece, ZipDatum


@dataclass(frozen=True)
class IsogenyDatum:
    """A zip datum remembering the isogeny data it was built from."""

    zip: ZipDatum
    x: Element
    phi_bar: CoxeterAutomorphism
    delta: CoxeterAutomorphism
    frobenius_mode: bool = False

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
        of J onto those of delta(phi_bar(I))) or by x^{-1} (backward).  A
        product outside its target set means that x does not carry the
        simple roots of delta(phi_bar(I)) onto those of J: NonSimpleConjugate."""
        if direction == "forward":
            if not self.zip.contains_param(w, "wj"):
                raise NotMinimalRep("w is not a minimal right-coset representative of J")
            out = w * self.x
            ok = self.in_target_set(out)
        elif direction == "backward":
            if not self.in_target_set(w):
                raise NotMinimalRep(
                    "w is not a minimal right-coset representative of delta(phi_bar(I))"
                )
            out = w * self.x.inverse()
            ok = self.zip.contains_param(out, "wj")
        else:
            raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
        if not ok:
            raise NonSimpleConjugate(
                f"x = {self.x!r} does not carry delta(phi_bar(I)) = {sorted(self.source_subset)} "
                f"onto J = {sorted(self.zip.J)}: {w!r} went to {out!r}, outside the target set")
        return out

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
    K = delta.apply_subset(phi_bar.apply_subset(I))
    psi: dict[int, int] = {}
    J = set()
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
        J.add(j)
    if any(x.has_left_descent(j) for j in J):
        raise NotDoubleCosetRep("x has a left descent in J")
    # positivity of x on Phi_K^+, not just on the simples of K
    if {x.act_on_root(r) for r in group.phi_plus(K)} != group.phi_plus(J):
        raise NotDoubleCosetRep(f"x = {x!r} does not carry Phi^+ of {sorted(K)} onto that of J")
    try:
        datum = ZipDatum(group, I, frozenset(J), psi)
    except PsiNotCoxeter as exc:
        raise MatrixViolation(str(exc)) from exc
    return IsogenyDatum(datum, x, phi_bar, delta, frobenius_mode)


@dataclass(frozen=True)
class FrobeniusReport:
    """Pieces annotated as single orbits (orbitally-finite reading), plus
    the closure cover edges."""

    datum: ZipDatum
    central_rank: int
    rows: tuple[Piece, ...]
    cover_edges: tuple[tuple[int, int], ...]
    orbitally_finite: bool = True

    def render_text(self) -> str:
        from .serialize import subset_str, word_str

        lines = [
            f"orbit representatives ({len(self.rows)} pieces, "
            f"dim G = {self.datum.dim_group(self.central_rank)})"
        ]
        for p in self.rows:
            lines.append(
                f"  {word_str(p.rep):>12}  l={p.length:<3} dim={p.dimension:<4} "
                f"infstab={p.inf_stab_dim:<3} K={subset_str(p.stable_subset)}"
            )
        lines.append("closure cover edges:")
        for a, b in self.cover_edges:
            lines.append(
                f"  {word_str(self.rows[a].rep)} -> {word_str(self.rows[b].rep)}"
            )
        return "\n".join(lines) + "\n"


def frobenius_report(datum: ZipDatum | IsogenyDatum, central_rank: int = 0) -> FrobeniusReport:
    """The pieces listing read as a full orbit classification: in the
    vanishing-differential case each piece is a single orbit, so the rows
    double as orbit representatives and the poset as orbit closures."""
    z = datum.zip if isinstance(datum, IsogenyDatum) else datum
    poset = z.hasse_poset(side="iw", central_rank=central_rank)
    return FrobeniusReport(
        datum=z,
        central_rank=central_rank,
        rows=poset.nodes,
        cover_edges=poset.cover_edges,
    )
