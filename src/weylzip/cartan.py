"""Cartan data for the finite Weyl types.

Supported irreducible types: A_n (n>=1), B_n/C_n (n>=2), D_n (n>=3),
E6, E7, E8, F4, G2, plus arbitrary products.  Simple reflections are
numbered in Bourbaki order within each irreducible factor; factors of a
product are numbered consecutively.

The search over explicit Coxeter matrices, which a group built from a
type label never runs, lives in :mod:`weylzip.automorphisms`, imported on
first use: ``automorphisms.validate_coxeter_matrix``, ``isomorphisms``,
``classify_coxeter_matrix`` and ``WEYL_ENTRIES``.
"""

from __future__ import annotations

import math
import re

from .errors import NonFiniteType

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
