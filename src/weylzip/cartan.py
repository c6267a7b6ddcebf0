"""Cartan data for the finite Weyl types and Coxeter-matrix classification.

Supported irreducible types: A_n (n>=1), B_n/C_n (n>=2), D_n (n>=3),
E6, E7, E8, F4, G2, plus arbitrary products.  Simple reflections are
numbered in Bourbaki order within each irreducible factor; factors of a
product are numbered consecutively.

One backtracking search, :func:`isomorphisms`, yields the vertex
bijections between two Coxeter matrices in lexicographic order: the first
one places each component of an explicit matrix in Bourbaki order
(:func:`classify_coxeter_matrix`), and all of them from a matrix onto
itself are the diagram automorphisms of the group.
"""

from __future__ import annotations

import math
import re
from itertools import combinations

from .errors import MalformedMatrix, NonFiniteType

# Coxeter matrix entries of finite Weyl (crystallographic) type.
WEYL_ENTRIES = frozenset({2, 3, 4, 6})

_LABEL_RE = re.compile(r"^([A-G])([0-9]+)$")


def parse_label(label: str) -> tuple[tuple[str, int], ...]:
    """Parse a Cartan type label like "A2", "B3" or "A1xA1" into factors."""
    factors = []
    for part in label.strip().split("x"):
        m = _LABEL_RE.match(part.strip())
        if m is None:
            raise NonFiniteType(f"cannot parse Cartan type {part!r}")
        letter, rank = m.group(1), int(m.group(2))
        _check_rank(letter, rank)
        factors.append((letter, rank))
    return tuple(factors)


def _check_rank(letter: str, rank: int) -> None:
    ok = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }.get(letter, False)
    if not ok:
        raise NonFiniteType(f"no finite Weyl type {letter}{rank}")


def weyl_order(factors) -> int:
    """Order of the Weyl group of the given product type."""
    total = 1
    for letter, n in factors:
        if letter == "A":
            total *= math.factorial(n + 1)
        elif letter in ("B", "C"):
            total *= 2**n * math.factorial(n)
        elif letter == "D":
            total *= 2 ** (n - 1) * math.factorial(n)
        elif letter == "E":
            total *= {6: 51840, 7: 2903040, 8: 696729600}[n]
        elif letter == "F":
            total *= 1152
        else:  # G2
            total *= 12
    return total


def root_count(factors) -> int:
    """Number of roots of the given product type."""
    total = 0
    for letter, n in factors:
        if letter == "A":
            total += n * (n + 1)
        elif letter in ("B", "C"):
            total += 2 * n * n
        elif letter == "D":
            total += 2 * n * (n - 1)
        elif letter == "E":
            total += {6: 72, 7: 126, 8: 240}[n]
        elif letter == "F":
            total += 48
        else:
            total += 12
    return total


def _simply_laced_edges(letter: str, n: int) -> list[tuple[int, int]]:
    # 0-based Bourbaki edges for A, D, E.
    if letter == "A":
        return [(i, i + 1) for i in range(n - 1)]
    if letter == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    # E_n: node 2 (index 1) hangs off node 4 (index 3) of the chain 1-3-4-5-...
    chain = [0, 2] + list(range(3, n))
    edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    edges.append((1, 3))
    return edges


def cartan_matrix(letter: str, n: int) -> list[list[int]]:
    """Integer Cartan matrix C with C[i][j] = <alpha_i, alpha_j^vee>.

    The simple reflection s_j acts on a root with coordinate vector c by
    c |-> c - (sum_i c_i C[i][j]) e_j.
    """
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if letter in ("A", "D", "E"):
        for i, j in _simply_laced_edges(letter, n):
            edge(i, j)
    elif letter == "B":
        # alpha_n is short: <alpha_{n-1}, alpha_n^vee> = -2
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -2, -1)
    elif letter == "C":
        # alpha_n is long: <alpha_n, alpha_{n-1}^vee> = -2
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 2, n - 1, -1, -2)
    elif letter == "F":
        edge(0, 1)
        edge(1, 2, -2, -1)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        edge(2, 3)
    else:  # G2: alpha_1 short, alpha_2 long
        edge(0, 1, -1, -3)
    return C


def coxeter_matrix(letter: str, n: int) -> list[list[int]]:
    """Coxeter matrix of an irreducible type, in Bourbaki numbering."""
    return coxeter_from_cartan(cartan_matrix(letter, n))


def coxeter_from_cartan(C) -> list[list[int]]:
    n = len(C)
    M = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    lookup = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(n):
        for j in range(i + 1, n):
            M[i][j] = M[j][i] = lookup[C[i][j] * C[j][i]]
    return M


def block_diag(blocks: list[list[list[int]]], off: int) -> list[list[int]]:
    """Assemble a block-diagonal integer matrix with `off` off the blocks."""
    n = sum(len(b) for b in blocks)
    M = [[off] * n for _ in range(n)]
    base = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                M[base + i][base + j] = b[i][j]
        base += k
    return M


def matrices_for_label(label: str):
    """Return (factors, cartan, coxeter) for a Cartan type label."""
    factors = parse_label(label)
    cart = block_diag([cartan_matrix(l, n) for l, n in factors], 0)
    cox = block_diag([coxeter_matrix(l, n) for l, n in factors], 2)
    return factors, cart, cox


# -- classification of explicit Coxeter matrices ------------------------------

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
