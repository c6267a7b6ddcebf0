"""Parsing and formatting: words, simple subsets, permutations in cycle
notation, Coxeter automorphisms, and the JSON datum documents used by the
command line.

Words are comma-separated 1-based simple indices ("2,1"); the empty word
is "e".  Cartan types are strings like "A2", "B3" or "A1xA1".
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

import numpy as np

from .coxeter import CoxeterAutomorphism, CoxeterGroup, Element, build_group
from .errors import MalformedInput
from .zipdata import ZipDatum

if TYPE_CHECKING:
    from .abstract import AbstractZipDatum, Perm
    from .extended import ExtendedElement, ExtendedZipDatum
    from .isogeny import IsogenyDatum


# -- words and subsets --------------------------------------------------------

def word_str(w: Element) -> str:
    word = w.canonical_word()
    return "e" if not word else ",".join(map(str, word))


def word_texts(letters: np.ndarray) -> list[str]:
    """:func:`word_str` of each row of a padded int16 letter array (the
    letters of a canonical word in order, then 0).  Every letter becomes
    its index right-aligned to the width of the largest, and a comma, by
    one gather into one ASCII text; row p is a slice of that text, with
    the alignment's spaces removed."""
    k, width = letters.shape
    top = int(letters.max()) if letters.size else 0
    digits = len(str(top))
    tokens = np.array([list(f"{s:>{digits}},".encode()) for s in range(top + 1)], dtype=np.uint8)
    text = tokens[letters].tobytes().decode("ascii")
    starts = (np.arange(k) * (width * (digits + 1))).tolist()
    ends = (np.count_nonzero(letters, axis=1) * (digits + 1) - 1).tolist()
    words = [text[at:at + end] if end > 0 else "e" for at, end in zip(starts, ends)]
    return words if digits == 1 else [w.replace(" ", "") for w in words]


def parse_word(group: CoxeterGroup, text: str) -> Element:
    if not isinstance(text, str):
        raise MalformedInput(f"a word must be a string, got {text!r}")
    text = text.strip()
    if text in ("e", ""):
        return group.identity
    try:
        letters = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise MalformedInput(f"cannot parse word {text!r}") from exc
    return group.from_word(letters)


def subset_str(subset) -> str:
    return "{" + ",".join(map(str, sorted(subset))) + "}"


def parse_subset(text: str) -> frozenset[int]:
    text = text.strip().strip("{}")
    if not text:
        return frozenset()
    try:
        return frozenset(int(part) for part in text.split(","))
    except ValueError as exc:
        raise MalformedInput(f"cannot parse subset {text!r}") from exc


# -- psi mappings -------------------------------------------------------------

def parse_psi(text: str) -> dict[int, int]:
    """Parse "1:2,3:4" into {1: 2, 3: 4}."""
    text = text.strip()
    if not text:
        return {}
    out = {}
    try:
        for pair in text.split(","):
            a, b = pair.split(":")
            out[int(a)] = int(b)
    except ValueError as exc:
        raise MalformedInput(f"cannot parse psi mapping {text!r}") from exc
    return out


# -- permutations in cycle notation -------------------------------------------

def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based cycle notation like "(1 2)(3 4)"; "e" and "()" denote
    the identity."""
    if not isinstance(text, str):
        raise MalformedInput(f"a permutation must be a string, got {text!r}")
    text = text.strip()
    perm = list(range(degree))
    if text in ("e", "()", ""):
        return tuple(perm)
    if not (text.startswith("(") and text.endswith(")")):
        raise MalformedInput(f"cannot parse cycles {text!r}")
    try:
        for chunk in text[1:-1].split(")("):
            points = [int(p) - 1 for p in chunk.replace(",", " ").split()]
            if any(not 0 <= p < degree for p in points) or len(set(points)) != len(points):
                raise ValueError(chunk)
            for a, b in zip(points, points[1:] + points[:1]):
                perm[a] = b
    except ValueError as exc:
        raise MalformedInput(f"cannot parse cycles {text!r}") from exc
    out = tuple(perm)
    if sorted(out) != list(range(degree)):
        raise MalformedInput(f"{text!r} is not a permutation on {degree} points")
    return out


def cycles_str(perm: Perm) -> str:
    """Format a permutation in 1-based cycle notation ("()" for identity),
    mapping a -> perm[a]."""
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


# -- Coxeter automorphisms ----------------------------------------------------

def parse_automorphism(group: CoxeterGroup, spec) -> CoxeterAutomorphism:
    """Parse "id", "flip" (the unique nontrivial diagram automorphism, when
    there is exactly one) or an explicit image list like [2, 1]."""
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


def extended_str(what: ExtendedElement) -> str:
    omega = what.omega
    if omega.is_identity():
        return word_str(what.w)
    return f"{word_str(what.w)}|{','.join(str(i) for i in omega.images)}"


# -- JSON datum documents ------------------------------------------------------

def load_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInput("datum document must be a JSON object")
    return doc


def parse_nonnegative(value, field: str) -> int:
    """A non-negative integer of a datum document (an index or the central
    rank): a JSON integer, or a string holding one, as object keys are
    strings.  Anything else is MalformedInput."""
    try:
        if (type(value) is int or isinstance(value, str)) and int(value) >= 0:
            return int(value)
    except ValueError:
        pass
    raise MalformedInput(f"{field}: expected a non-negative integer, got {value!r}")


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
