"""Parsing and formatting: words, simple subsets, psi mappings,
permutations in cycle notation and extended elements.

Words are comma-separated 1-based simple indices ("2,1"); the empty word
is "e".  Cartan types are strings like "A2", "B3" or "A1xA1".

The JSON datum documents of the command line and the Coxeter
automorphisms they name are read by :mod:`weylzip.documents`, which only
``--datum``, ``abstract``, ``nonconnected`` and ``isogeny`` load; its
readers also resolve here (PEP 562).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import MalformedInput
from .lazy import lazy_names

if TYPE_CHECKING:
    from .abstract import Perm
    from .coxeter import CoxeterGroup, Element
    from .extended import ExtendedElement

#: Names whose code lives in weylzip.documents, imported on first use.
_LAZY = dict.fromkeys(
    ("abstract_datum_from_json", "extended_datum_from_json", "isogeny_datum_from_json",
     "load_json", "parse_automorphism", "zip_datum_from_json"),
    "documents")
__getattr__ = lazy_names(globals(), _LAZY)


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


# -- extended elements ----------------------------------------------------

def extended_str(what: ExtendedElement) -> str:
    omega = what.omega
    if omega.is_identity():
        return word_str(what.w)
    return f"{word_str(what.w)}|{','.join(str(i) for i in omega.images)}"


# -- document fields ---------------------------------------------------------

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
