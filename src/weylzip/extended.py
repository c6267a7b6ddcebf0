"""The non-connected extension: pieces of W x Omega modulo the
Omega_I-action.

Omega is a finite group of Coxeter automorphisms of (W, S); elements of
the extended group are pairs (w, omega) multiplying by
(w1, o1)(w2, o2) = (w1 * o1(w2), o1 o2), with extended length l(w).
The extended Bruhat order compares W-parts and requires equal
Omega-parts.  Parameter sets are the minimal left reps times Omega on
one side and, on the other, the pairs (w, omega) with w minimal on the
right for the omega-conjugated subset of J.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import cosets
from .abstract import closure, extend_homomorphism
from .automorphisms import CoxeterAutomorphism
from .coxeter import Element
from .errors import NotAHomomorphism, NotInParamSet, SubsetMismatch
from .zipdata import ZipDatum, _check_side


@dataclass(frozen=True)
class ExtendedElement:
    """An element w * omega of the extended group W x Omega."""

    w: Element
    omega: CoxeterAutomorphism

    def __mul__(self, other: "ExtendedElement") -> "ExtendedElement":
        return ExtendedElement(self.w * self.omega(other.w), self.omega * other.omega)

    def inverse(self) -> "ExtendedElement":
        oi = self.omega.inverse()
        return ExtendedElement(oi(self.w.inverse()), oi)

    @property
    def length(self) -> int:
        return self.w.length

    @property
    def sort_key(self):
        return (self.w.sort_key, self.omega.images)

    def __repr__(self) -> str:
        from .serialize import extended_str

        return f"ExtendedElement({extended_str(self)})"


def close_automorphisms(gens: Iterable[CoxeterAutomorphism]) -> tuple[CoxeterAutomorphism, ...]:
    """Close a set of Coxeter automorphisms under composition."""
    gens = list(gens)
    if not gens:
        return ()
    seen = closure(gens[0].group.identity_automorphism(), gens, operator.mul)
    return tuple(sorted(seen, key=lambda a: a.images))


class ExtendedZipDatum:
    """A zip datum together with component data (Omega, Omega_I, psi_hat).

    psi_hat is given on generators of Omega_I and extended by closure; it
    must map into the automorphisms preserving J and intertwine psi:
    psi_hat(u)(psi(s)) = psi(u(s)) for all s in I.
    """

    def __init__(self, base: ZipDatum,
                 omega_gens: Sequence[CoxeterAutomorphism],
                 omega_I_gens: Sequence[CoxeterAutomorphism],
                 psi_hat_images: Sequence[CoxeterAutomorphism]):
        if base.universe != frozenset(base.group.simple_indices):
            raise SubsetMismatch("extended data require a full-universe base datum")
        self.base = base
        self.group = base.group
        self.omega = close_automorphisms(omega_gens) or (
            self.group.identity_automorphism(),
        )
        self._omega_set = frozenset(self.omega)
        for g in omega_I_gens:
            if g not in self._omega_set:
                raise SubsetMismatch("Omega_I generator lies outside Omega")
        self.omega_I = close_automorphisms(omega_I_gens) or (
            self.group.identity_automorphism(),
        )
        self._omega_I_set = frozenset(self.omega_I)
        self.psi_hat = self._extend_psi_hat(list(omega_I_gens), list(psi_hat_images))
        self._validate()
        self._conjugate_data: dict[CoxeterAutomorphism, ZipDatum] = {}

    def _extend_psi_hat(self, gens, images) -> dict[CoxeterAutomorphism, CoxeterAutomorphism]:
        if len(gens) != len(images):
            raise NotAHomomorphism("psi_hat needs one image per Omega_I generator")
        ident = self.group.identity_automorphism()
        try:
            table = extend_homomorphism(ident, gens, images, operator.mul)
        except NotAHomomorphism:
            raise NotAHomomorphism("psi_hat images are inconsistent") from None
        if set(table) != self._omega_I_set:
            raise NotAHomomorphism("psi_hat generators do not generate Omega_I")
        return table

    def _validate(self) -> None:
        I, J, psi = self.base.I, self.base.J, self.base.psi
        for u in self.omega_I:
            if u.apply_subset(I) != I:
                raise SubsetMismatch(f"Omega_I element {u.images} does not preserve I")
            uh = self.psi_hat[u]
            if uh not in self._omega_set:
                raise SubsetMismatch("psi_hat image lies outside Omega")
            if uh.apply_subset(J) != J:
                raise SubsetMismatch(f"psi_hat image {uh.images} does not preserve J")
            for s in I:
                if uh.apply_index(psi[s]) != psi[u.apply_index(s)]:
                    raise NotAHomomorphism(
                        "psi_hat does not intertwine psi on the simple subset"
                    )

    def __repr__(self) -> str:
        return f"ExtendedZipDatum({self.base!r}, |Omega|={len(self.omega)}, |Omega_I|={len(self.omega_I)})"

    # -- extended elements and parameter sets --

    def extended(self, w: Element, omega: CoxeterAutomorphism | None = None) -> ExtendedElement:
        return ExtendedElement(w, omega if omega is not None else self.group.identity_automorphism())

    def contains_param(self, what: ExtendedElement, side: str = "iw") -> bool:
        _check_side(side)
        if what.omega not in self._omega_set:
            return False
        if side == "iw":
            return cosets.in_min_left(what.w, self.base.I)
        return cosets.in_min_right(what.w, what.omega.apply_subset(self.base.J))

    def _require_param(self, what: ExtendedElement, side: str) -> None:
        if not self.contains_param(what, side):
            raise NotInParamSet(f"extended element outside the {side} parameter set")

    def param_set(self, side: str = "iw") -> tuple[ExtendedElement, ...]:
        """Side "iw": all w * omega with w minimal for I.  Side "wj": all
        omega * v with v minimal on the right for J, stored in the normal
        form (omega(v), omega)."""
        _check_side(side)
        out = []
        for omega in self.omega:
            base = self.base if side == "iw" else self._conjugate_datum(omega)
            out.extend(ExtendedElement(w, omega) for w in base.param_set(side))
        return tuple(sorted(out, key=lambda e: e.sort_key))

    # -- the Omega_I action --

    def act(self, upsilon: CoxeterAutomorphism, what: ExtendedElement,
            side: str = "iw") -> ExtendedElement:
        """The action u . what = u * what * psi_hat(u)^{-1}, which preserves
        both parameter sets."""
        if upsilon not in self._omega_I_set:
            raise NotInParamSet("upsilon must lie in Omega_I")
        self._require_param(what, side)
        uh = self.psi_hat[upsilon]
        return ExtendedElement(
            upsilon(what.w), upsilon * what.omega * uh.inverse()
        )

    def orbit_of(self, what: ExtendedElement, side: str = "iw") -> tuple[ExtendedElement, ...]:
        return tuple(
            sorted(
                {self.act(u, what, side) for u in self.omega_I},
                key=lambda e: e.sort_key,
            )
        )

    def pieces(self, side: str = "iw") -> tuple[tuple[ExtendedElement, ...], ...]:
        """The Omega_I-orbits on the chosen parameter set: one orbit per
        extended piece, ordered by their smallest member."""
        seen: set[ExtendedElement] = set()
        orbits = []
        for what in self.param_set(side):
            if what in seen:
                continue
            orb = self.orbit_of(what, side)
            orbits.append(orb)
            seen.update(orb)
        return tuple(orbits)

    # -- extended orders --

    def ext_bruhat_leq(self, a: ExtendedElement, b: ExtendedElement) -> bool:
        """Componentwise extended Bruhat order: equal Omega-parts and
        Bruhat comparison of W-parts."""
        return a.omega == b.omega and self.group.bruhat_leq(a.w, b.w)

    def precedes(self, ap: ExtendedElement, a: ExtendedElement, side: str = "iw") -> bool:
        """ap precedes a iff some y in W_I x Omega_I has
        y * ap * psi_hat(y)^{-1} below a in the extended Bruhat order.

        For y = (v, u) and ap = (w', omega') that product is
        (v u(w') (omega psi)(v)^{-1}, omega) with omega = u omega'
        psi_hat(u)^{-1}, so ap precedes a = (w, omega) iff some u in
        Omega_I gives that omega and u(w') precedes w in the datum
        (W, I, omega(J), omega * psi)."""
        _check_side(side)
        self._require_param(ap, side)
        self._require_param(a, side)
        conj = self._conjugate_datum(a.omega)
        return any(
            u * ap.omega * self.psi_hat[u].inverse() == a.omega
            and conj.precedes(u(ap.w), a.w, side)
            for u in self.omega_I
        )

    def closure_set(self, a: ExtendedElement, side: str = "iw") -> tuple[ExtendedElement, ...]:
        """All parameters preceding a, ordered by sort key: the closure of
        a.w in the datum (W, I, omega(J), omega * psi), carried back by
        each u in Omega_I to (u^{-1}(w'), u^{-1} omega psi_hat(u))."""
        self._require_param(a, side)
        closure = self._conjugate_datum(a.omega).closure_set(a.w, side)
        out = set()
        for u in self.omega_I:
            ui = u.inverse()
            omega = ui * a.omega * self.psi_hat[u]
            out.update(ExtendedElement(ui(w), omega) for w in closure)
        return tuple(sorted(out, key=lambda e: e.sort_key))

    # -- the extended sigma --

    def _conjugate_datum(self, omega: CoxeterAutomorphism) -> ZipDatum:
        """The datum (W, I, omega(J), omega * psi) that carries sigma and
        the closure order on the omega-component."""
        got = self._conjugate_data.get(omega)
        if got is None:
            base = self.base
            psi = {s: omega.apply_index(base.psi[s]) for s in base.I}
            got = ZipDatum(self.group, base.I, omega.apply_subset(base.J), psi)
            self._conjugate_data[omega] = got
        return got

    def sigma_hat(self, what: ExtendedElement) -> ExtendedElement:
        """The unique element of the dual parameter set of the form
        y * what * psi(y)^{-1} with y in W_I; Omega_I-equivariant."""
        self._require_param(what, "iw")
        conj = self._conjugate_datum(what.omega)
        return ExtendedElement(conj.sigma(what.w), what.omega)

    def sigma_hat_inverse(self, what: ExtendedElement) -> ExtendedElement:
        self._require_param(what, "wj")
        conj = self._conjugate_datum(what.omega)
        return ExtendedElement(conj.sigma_inverse(what.w), what.omega)
