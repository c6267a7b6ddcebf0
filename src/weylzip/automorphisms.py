"""Diagram automorphisms (:class:`CoxeterAutomorphism`) and the search
over explicit Coxeter matrices: one backtracking search,
:func:`isomorphisms`, yields the vertex bijections between two Coxeter
matrices in lexicographic order; the first one places each component of
an explicit matrix in Bourbaki order (:func:`classify_coxeter_matrix`),
and all of them from a matrix onto itself are the diagram automorphisms
(:func:`coxeter_automorphisms`).

A group built from a type label never needs this module: it is imported
by :func:`build_group` on a matrix and by the automorphism methods of
:class:`CoxeterGroup`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .cartan import cartan_matrix, coxeter_matrix
from .coxeter import CoxeterGroup, Element
from .errors import GroupMismatch, InvalidAutomorphism, MalformedMatrix, NonFiniteType

# Coxeter matrix entries of finite Weyl (crystallographic) type.
WEYL_ENTRIES = frozenset({2, 3, 4, 6})


class CoxeterAutomorphism:
    """Automorphism of (W, S) given by a Coxeter-matrix preserving
    permutation of the simple reflections."""

    __slots__ = ("group", "images")

    def __init__(self, group: "CoxeterGroup", images: Sequence[int]):
        images = tuple(int(i) for i in images)
        n = group.rank
        if sorted(images) != list(range(1, n + 1)):
            raise InvalidAutomorphism(f"{images} is not a permutation of 1..{n}")
        if group.coxeter_mismatch(dict(enumerate(images, 1)), group.simple_indices) is not None:
            raise InvalidAutomorphism(f"{images} does not preserve the Coxeter matrix")
        self.group = group
        self.images = images

    @classmethod
    def _trusted(cls, group: "CoxeterGroup", images: tuple[int, ...]) -> "CoxeterAutomorphism":
        """An automorphism known to be valid (a product or inverse of valid
        ones, or one already checked), built without re-validation."""
        out = cls.__new__(cls)
        out.group = group
        out.images = images
        return out

    def apply_index(self, i: int) -> int:
        return self.images[i - 1]

    def apply_subset(self, subset: Iterable[int]) -> frozenset[int]:
        return frozenset(self.images[i - 1] for i in subset)

    def _root_permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """The permutation sigma of the root list by which this automorphism
        acts, as an int16 row, and its inverse, as an intp row, cached on the
        group by the images:
        sigma(alpha_i) = alpha_pi(i) and sigma(s_j beta) = s_pi(j) sigma(beta),
        so sigma s_j sigma^-1 = s_pi(j).  It is built from the action on
        reflections, not from the Cartan matrix, which the flips of B2, G2
        and F4 do not preserve: they swap long and short roots."""
        g = self.group
        got = g._automorphism_roots.get(self.images)
        if got is None:
            m, refl = g.num_positive, g.reflections.tolist()
            sigma = [0] * (2 * m)
            for r in range(m):
                if r < g.rank:  # the simple roots
                    sigma[r] = self.images[r] - 1
                    continue
                # Positive roots are listed by height, so some s_j sends the
                # non-simple root r to a positive root of smaller index.
                j = next(j for j in range(g.rank) if refl[j][r] < r)
                sigma[r] = refl[self.images[j] - 1][sigma[refl[j][r]]]
            for r in range(m):
                sigma[r + m] = g.negate_root(sigma[r])
            row = np.array(sigma, dtype=np.intp)
            got = (row.astype(np.int16), g.inverse_row(row))
            for array in got:
                array.flags.writeable = False
            g._automorphism_roots[self.images] = got
        return got

    def apply_element(self, w: Element) -> Element:
        """The image of w, whose root permutation is sigma w sigma^-1: one
        gather, ``sigma[row[inv]]``."""
        if w.group is not self.group:
            raise GroupMismatch("element of a different group")
        sigma, inv = self._root_permutation()
        out = Element(self.group, sigma[w.row[inv]])
        out._length = w._length
        return out

    def __call__(self, arg):
        if isinstance(arg, Element):
            return self.apply_element(arg)
        if isinstance(arg, (set, frozenset)):
            return self.apply_subset(arg)
        return self.apply_index(arg)

    def __mul__(self, other: "CoxeterAutomorphism") -> "CoxeterAutomorphism":
        if self.group is not other.group:
            raise GroupMismatch("automorphisms of different groups")
        return CoxeterAutomorphism._trusted(
            self.group, tuple(self.images[j - 1] for j in other.images)
        )

    def inverse(self) -> "CoxeterAutomorphism":
        n = self.group.rank
        inv = [0] * n
        for i, j in enumerate(self.images):
            inv[j - 1] = i + 1
        return CoxeterAutomorphism._trusted(self.group, tuple(inv))

    def is_identity(self) -> bool:
        return all(self.images[i] == i + 1 for i in range(self.group.rank))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoxeterAutomorphism)
            and self.group is other.group
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"CoxeterAutomorphism{self.images}"


def coxeter_automorphisms(group: CoxeterGroup) -> tuple[CoxeterAutomorphism, ...]:
    """All Coxeter-matrix preserving permutations of the simple set, in
    lexicographic order of their images: the isomorphisms of the Coxeter
    matrix onto itself (:func:`isomorphisms`)."""
    return tuple(
        CoxeterAutomorphism._trusted(group, tuple(t + 1 for t in iso))
        for iso in isomorphisms(group._coxeter, group._coxeter)
    )


def validate_coxeter_matrix(M) -> tuple[tuple[int, ...], ...]:
    try:
        rows = tuple(tuple(int(x) for x in row) for row in M)
    except (TypeError, ValueError) as exc:
        raise MalformedMatrix("Coxeter matrix must be a square array of integers") from exc
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise MalformedMatrix("Coxeter matrix must be square and non-empty")
    for i in range(n):
        if rows[i][i] != 1:
            raise MalformedMatrix("diagonal entries must equal 1")
        for j in range(n):
            if i != j:
                if rows[i][j] != rows[j][i]:
                    raise MalformedMatrix("Coxeter matrix must be symmetric")
                if rows[i][j] < 2:
                    raise MalformedMatrix("off-diagonal entries must be >= 2")
    return rows


def _components(M) -> list[list[int]]:
    n = len(M)
    seen, comps = set(), []
    for start in range(n):
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in range(n):
                if u not in seen and M[v][u] >= 3:
                    seen.add(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def isomorphisms(M, target, verts=None):
    """Every bijection verts -> range(len(target)) (default verts: all of M)
    with M[verts[p]][verts[q]] = target[t[p]][t[q]] for all p, q, yielded as
    the tuple t in lexicographic order; M and target are Coxeter matrices
    (symmetric, with 1 on the diagonal).

    A backtracking search: a partial assignment grows by the unused targets
    in ascending order and is dropped at its first mismatch with the entries
    already assigned, so no extension of it is visited."""
    verts = range(len(M)) if verts is None else verts
    k = len(verts)
    assign: list[int] = []

    def extend():
        pos = len(assign)
        if pos == k:
            yield tuple(assign)
            return
        row = M[verts[pos]]
        for t in range(k):
            if t not in assign and all(
                row[verts[p]] == target[tp][t] for p, tp in enumerate(assign)
            ):
                assign.append(t)
                yield from extend()
                assign.pop()

    return extend()


def _candidate_types(k: int) -> list[tuple[str, int]]:
    cands: list[tuple[str, int]] = [("A", k)]
    if k >= 2:
        cands.append(("B", k))
    if k >= 3:
        cands.append(("D", k))
    if k in (6, 7, 8):
        cands.append(("E", k))
    if k == 4:
        cands.append(("F", 4))
    if k == 2:
        cands.append(("G", 2))
    return cands


def classify_coxeter_matrix(M):
    """Classify a validated Coxeter matrix as a product of finite Weyl types.

    Returns (factors, cartan, label) where `factors` lists (letter, rank)
    per component, in order of its least vertex, and `cartan` is expressed
    in the input numbering, read through the first vertex order of the
    component that matches the Bourbaki Coxeter matrix.  A Coxeter matrix
    does not distinguish B_n from C_n; such components are reported as
    B_n.
    """
    rows = validate_coxeter_matrix(M)
    n = len(rows)
    for i, j in combinations(range(n), 2):
        if rows[i][j] not in WEYL_ENTRIES:
            raise NonFiniteType(
                f"entry m({i + 1},{j + 1}) = {rows[i][j]} is not of finite Weyl type"
            )
    factors = []
    cart = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for comp in _components(rows):
        # the first candidate type with a matching vertex order, and that order
        hit = next(
            ((letter, rank, iso) for letter, rank in _candidate_types(len(comp))
             for iso in isomorphisms(rows, coxeter_matrix(letter, rank), comp)),
            None,
        )
        if hit is None:
            raise NonFiniteType("matrix component is not of finite Weyl type")
        letter, rank, iso = hit
        C = cartan_matrix(letter, rank)
        for p, q in combinations(range(len(comp)), 2):
            cart[comp[p]][comp[q]] = C[iso[p]][iso[q]]
            cart[comp[q]][comp[p]] = C[iso[q]][iso[p]]
        factors.append((letter, rank))
    label = "x".join(f"{l}{r}" for l, r in factors)
    return tuple(factors), cart, label
