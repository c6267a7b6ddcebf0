"""The JSON datum documents of the command line (``--datum``,
``abstract``, ``nonconnected``, ``isogeny``) and the Coxeter
automorphisms they name ("id", "flip" or image lists).

A process that builds its datum from a type label never imports this
module; the readers also resolve from :mod:`weylzip.serialize` (PEP 562).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .coxeter import CoxeterGroup, build_group
from .errors import MalformedInput
from .serialize import parse_cycles, parse_nonnegative, parse_word
from .zipdata import ZipDatum

if TYPE_CHECKING:
    from .abstract import AbstractZipDatum
    from .automorphisms import CoxeterAutomorphism
    from .extended import ExtendedZipDatum
    from .isogeny import IsogenyDatum


def parse_automorphism(group: CoxeterGroup, spec) -> CoxeterAutomorphism:
    """Parse "id", "flip" (the unique nontrivial diagram automorphism, when
    there is exactly one) or an explicit image list like [2, 1]."""
    from .automorphisms import CoxeterAutomorphism

    if isinstance(spec, str):
        spec = spec.strip()
        if spec == "id":
            return group.identity_automorphism()
        if spec == "flip":
            nontrivial = [a for a in group.coxeter_automorphisms() if not a.is_identity()]
            if len(nontrivial) != 1:
                raise MalformedInput(
                    f"'flip' is ambiguous for {group.label}: "
                    f"{len(nontrivial)} nontrivial automorphisms"
                )
            return nontrivial[0]
        raise MalformedInput(f"cannot parse automorphism {spec!r}")
    return CoxeterAutomorphism(group, _nonnegatives(spec, "automorphism"))


def load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInput("datum document must be a JSON object")
    return doc


def _list(values, field: str):
    """A list field of a datum document; anything else is MalformedInput."""
    if not isinstance(values, (list, tuple)):
        raise MalformedInput(f"{field}: expected a list, got {values!r}")
    return values


def _object(value, field: str) -> dict:
    """An object field of a datum document as a dict; anything dict() cannot
    read is MalformedInput."""
    try:
        return dict(value)
    except (TypeError, ValueError) as exc:
        raise MalformedInput(f"{field}: expected an object, got {value!r}") from exc


def _nonnegatives(values, field: str) -> list[int]:
    if not isinstance(values, (list, tuple)):
        raise MalformedInput(f"{field}: expected a list of integers, got {values!r}")
    return [parse_nonnegative(v, field) for v in values]


def zip_datum_from_json(doc: dict) -> tuple[ZipDatum, int]:
    """Build a zip datum from {"type", "I", "J"?, "psi", "central_rank"?};
    J defaults to the psi image."""
    try:
        group = build_group(doc["type"])
    except KeyError as exc:
        raise MalformedInput("datum document needs a 'type'") from exc
    psi_doc = _object(doc.get("psi", {}), "psi")
    psi = {parse_nonnegative(a, "psi"): parse_nonnegative(b, "psi") for a, b in psi_doc.items()}
    I = frozenset(_nonnegatives(doc.get("I", sorted(psi)), "I"))
    J = frozenset(_nonnegatives(doc.get("J", sorted(psi.values())), "J"))
    central_rank = parse_nonnegative(doc.get("central_rank", 0), "central_rank")
    return ZipDatum(group, I, J, psi), central_rank


def abstract_datum_from_json(doc: dict) -> AbstractZipDatum:
    """Build an abstract datum from {"domain", "gamma_gens", "delta_gens",
    "psi"} with permutations in cycle notation."""
    from .abstract import AbstractZipDatum, FiniteGroup, identity_perm

    try:
        degree = parse_nonnegative(doc["domain"], "domain")
        gamma_gens = [parse_cycles(t, degree) for t in _list(doc["gamma_gens"], "gamma_gens")]
        delta_gens = [parse_cycles(t, degree) for t in _list(doc["delta_gens"], "delta_gens")]
        psi_doc = _object(doc["psi"], "psi")
    except KeyError as exc:
        raise MalformedInput(f"abstract datum document missing {exc}") from exc
    group = FiniteGroup(degree, gamma_gens or [identity_perm(degree)])
    images = []
    for g in delta_gens:
        key = next(
            (k for k in psi_doc if parse_cycles(k, degree) == g),
            None,
        )
        if key is None:
            raise MalformedInput("psi must assign an image to every delta generator")
        images.append(parse_cycles(psi_doc[key], degree))
    return AbstractZipDatum.from_generators(group, delta_gens, images)


def extended_datum_from_json(doc: dict) -> ExtendedZipDatum:
    """Build an extended datum from the zip-datum fields plus
    {"omega_gens", "omega_I_gens", "psi_hat"} (automorphisms as image
    lists; psi_hat keys are the JSON texts of the generator lists)."""
    from .extended import ExtendedZipDatum

    base, _ = zip_datum_from_json(doc)
    group = base.group
    omega_gens, omega_I_gens = (
        [parse_automorphism(group, g) for g in _list(doc.get(field, []), field)]
        for field in ("omega_gens", "omega_I_gens")
    )
    psi_hat_doc = {}
    for key, value in _object(doc.get("psi_hat", {}), "psi_hat").items():
        try:
            parsed_key = parse_automorphism(group, json.loads(key))
        except (json.JSONDecodeError, TypeError) as exc:
            raise MalformedInput(f"cannot parse psi_hat key {key!r}") from exc
        psi_hat_doc[parsed_key] = parse_automorphism(group, value)
    images = []
    for g in omega_I_gens:
        if g not in psi_hat_doc:
            raise MalformedInput("psi_hat must assign an image to every Omega_I generator")
        images.append(psi_hat_doc[g])
    return ExtendedZipDatum(base, omega_gens, omega_I_gens, images)


def isogeny_datum_from_json(doc: dict) -> tuple[IsogenyDatum, int]:
    """Build an isogeny datum from {"type", "phi_bar", "delta", "I", "x",
    "frobenius"?, "central_rank"?}."""
    from .isogeny import zip_datum_from_isogeny

    try:
        group = build_group(doc["type"])
        I = frozenset(_nonnegatives(doc["I"], "I"))
        x = parse_word(group, doc["x"])
    except KeyError as exc:
        raise MalformedInput(f"isogeny document missing {exc}") from exc
    phi_bar = parse_automorphism(group, doc.get("phi_bar", "id"))
    delta = parse_automorphism(group, doc.get("delta", "id"))
    frobenius = bool(doc.get("frobenius", False))
    central_rank = parse_nonnegative(doc.get("central_rank", 0), "central_rank")
    return (
        zip_datum_from_isogeny(group, phi_bar, delta, I, x, frobenius),
        central_rank,
    )
