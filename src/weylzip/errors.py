"""Exception types shared across the package."""


class WeylZipError(Exception):
    """Base class for all errors raised by weylzip."""


# -- group construction ------------------------------------------------------

class MalformedMatrix(WeylZipError):
    """Coxeter matrix is not square/symmetric or has bad diagonal entries."""


class NonFiniteType(WeylZipError):
    """Input does not describe a finite Weyl group."""


class IndexOutOfRange(WeylZipError):
    """A simple-reflection index is outside 1..rank."""


class TooManyRoots(WeylZipError):
    """A root system has more roots than int16 root-permutation rows index."""


class GroupMismatch(WeylZipError):
    """Elements of different groups were combined."""


class TooLargeToEnumerate(WeylZipError):
    """Full element enumeration was requested beyond the configured bound."""


class PosetTooLarge(WeylZipError):
    """A closure poset was requested on more parameters than its bound, or
    its cover edges, not certified, need the product above its bound."""


# -- coset representatives ---------------------------------------------------

class NotMinimalRep(WeylZipError):
    """Argument is not a minimal coset representative of the required kind."""


class NotDoubleCosetRep(WeylZipError):
    """Argument is not a minimal double-coset representative."""


class NonUniqueMinimum(WeylZipError):
    """A coset had no unique shortest element (indicates an upstream bug)."""


# -- zip datum validation ----------------------------------------------------

class SubsetMismatch(WeylZipError):
    """Simple subsets that do not fit together: the two of a zip datum have
    different sizes, or one leaves the universe it must lie in."""


class PsiNotBijective(WeylZipError):
    """psi is not a bijection between the given simple subsets."""


class PsiNotCoxeter(WeylZipError):
    """psi does not preserve Coxeter matrix entries."""


# -- abstract zip data -------------------------------------------------------

class ElementNotInGroup(WeylZipError):
    """A permutation is not an element of the ambient group."""


class LatticeTooLarge(WeylZipError):
    """The subgroup-lattice oracle was asked for a subgroup beyond its bound."""


class NotAHomomorphism(WeylZipError):
    """The generator images do not extend to a group homomorphism."""


# -- non-connected extension -------------------------------------------------

class InvalidAutomorphism(WeylZipError):
    """A permutation of the simple reflections does not preserve the Coxeter matrix."""


class NotInParamSet(WeylZipError):
    """Extended element lies outside the relevant parameter set."""


# -- isogeny-built data ------------------------------------------------------

class NonSimpleConjugate(WeylZipError):
    """Conjugation by x does not carry the given simple subset into S."""


class MatrixViolation(WeylZipError):
    """The isogeny data induce a map that violates the Coxeter matrix."""


class WrongMode(WeylZipError):
    """Operation requires a datum built with the identity outer automorphism."""


# -- input/output ------------------------------------------------------------

class MalformedInput(WeylZipError):
    """A word, permutation, or JSON document could not be parsed."""
