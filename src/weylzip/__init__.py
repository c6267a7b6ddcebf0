"""Weyl-group combinatorics of algebraic zip data.

The package builds finite Weyl groups with their root systems, computes
minimal coset representatives and Howlett decompositions, and implements
the combinatorics of zip data: the piece parametrization, the closure
partial order, canonical representatives of the twisted equivalence
relation, the length-preserving duality between the two parameter sets,
abstract zip data on finite permutation groups, the non-connected
extension, and zip data built from isogeny-style input.
"""

from importlib import import_module

from .coxeter import CoxeterAutomorphism, CoxeterGroup, Element, build_group
from .cosets import (
    HowlettDecomposition,
    howlett_decompose,
    kilmoyer_subset,
    min_double_coset_reps,
    min_left_coset_reps,
    min_right_coset_reps,
    refined_length_count,
)
from .zipdata import ClosurePoset, Piece, ZipDatum

# The abstract, non-connected and isogeny layers are imported on first
# access (PEP 562), so a process that never uses them does not load them.
_LAZY = {
    "AbstractZipDatum": "abstract",
    "FiniteGroup": "abstract",
    "ExtendedElement": "extended",
    "ExtendedZipDatum": "extended",
    "FrobeniusReport": "isogeny",
    "IsogenyDatum": "isogeny",
    "frobenius_report": "isogeny",
    "zip_datum_from_isogeny": "isogeny",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "AbstractZipDatum",
    "ClosurePoset",
    "CoxeterAutomorphism",
    "CoxeterGroup",
    "Element",
    "ExtendedElement",
    "ExtendedZipDatum",
    "FiniteGroup",
    "FrobeniusReport",
    "HowlettDecomposition",
    "IsogenyDatum",
    "Piece",
    "ZipDatum",
    "build_group",
    "frobenius_report",
    "howlett_decompose",
    "kilmoyer_subset",
    "min_double_coset_reps",
    "min_left_coset_reps",
    "min_right_coset_reps",
    "refined_length_count",
    "zip_datum_from_isogeny",
]
