"""Reference values computed apart from weylzip.

Everything here is derived from the Dynkin diagrams in Bourbaki numbering
and the degrees of the basic invariants; nothing imports the package under
test.  It provides

* |W|, |Phi+| and the Poincare polynomial W(q) = prod (1 + q + ... + q^(d-1)),
* the type of every standard parabolic subgroup, hence W_I(q), and the
  length histogram of a parameter set as the quotient W(q) / W_I(q),
* a small Weyl-group kernel on root permutations (numpy), used by the
  checks for lengths, descents, the K_w subset sweep and double cosets.
"""

from __future__ import annotations

import math
import re
from itertools import combinations

import numpy as np

DEGREES_EXCEPTIONAL = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


def parse_type(label: str) -> tuple[str, int]:
    m = re.fullmatch(r"([A-G])([0-9]+)", label)
    if m is None:
        raise ValueError(f"not an irreducible type label: {label!r}")
    return m.group(1), int(m.group(2))


def degrees(letter: str, n: int) -> tuple[int, ...]:
    if letter == "A":
        return tuple(range(2, n + 2))
    if letter in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if letter == "D":
        return tuple(sorted(tuple(range(2, 2 * n - 1, 2)) + (n,)))
    return DEGREES_EXCEPTIONAL[(letter, n)]


def diagram(letter: str, n: int) -> dict[tuple[int, int], int]:
    """Edges {(i, j): m} of the Coxeter diagram, 1-based, i < j."""
    if letter == "A":
        return {(i, i + 1): 3 for i in range(1, n)}
    if letter in ("B", "C"):
        edges = {(i, i + 1): 3 for i in range(1, n - 1)}
        edges[(n - 1, n)] = 4
        return edges
    if letter == "D":
        edges = {(i, i + 1): 3 for i in range(1, n - 1)}
        edges[(n - 2, n)] = 3
        return edges
    if letter == "E":
        chain = [1, 3] + list(range(4, n + 1))
        edges = {tuple(sorted(p)): 3 for p in zip(chain, chain[1:])}
        edges[(2, 4)] = 3
        return edges
    if letter == "F":
        return {(1, 2): 3, (2, 3): 4, (3, 4): 3}
    return {(1, 2): 6}


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_div(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b of integer polynomials, or ValueError."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(a[k + len(b) - 1], b[-1])
        if rem:
            raise ValueError("polynomial division is not exact")
        q[k] = c
        for j, y in enumerate(b):
            a[k + j] -= c * y
    if any(a):
        raise ValueError("polynomial division is not exact")
    return q


def poincare(degs) -> list[int]:
    out = [1]
    for d in degs:
        out = poly_mul(out, [1] * d)
    return out


def subdiagram_degrees(letter: str, n: int, subset) -> tuple[int, ...]:
    """Degrees of the parabolic subgroup W_I, from the types of the
    connected components of the diagram restricted to I."""
    subset = set(subset)
    edges = {e: m for e, m in diagram(letter, n).items() if set(e) <= subset}
    adj = {i: set() for i in subset}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    out: list[int] = []
    seen: set[int] = set()
    for start in sorted(subset):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            v = stack.pop()
            if v not in comp:
                comp.add(v)
                stack.extend(adj[v] - comp)
        seen |= comp
        out.extend(degrees(*_component_type(comp, adj, edges)))
    return tuple(sorted(out))


def _component_type(comp, adj, edges) -> tuple[str, int]:
    k = len(comp)
    marks = {e: m for e, m in edges.items() if set(e) <= comp}
    if 6 in marks.values():
        return "G", 2
    double = [e for e, m in marks.items() if m == 4]
    if double:
        # F4 is the one diagram whose double bond is not at an end
        inner = all(len(adj[v]) == 2 for v in double[0])
        return ("F", 4) if inner else ("B", k)
    branch = [v for v in comp if len(adj[v]) == 3]
    if not branch:
        return "A", k
    (b,) = branch
    arms = []
    for first in adj[b]:
        length, prev, cur = 1, b, first
        while True:
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return "D", k
    return {(1, 2, 2): ("E", 6), (1, 2, 3): ("E", 7), (1, 2, 4): ("E", 8)}[tuple(arms)]


class Reference:
    """Reference data and a root-permutation kernel for one irreducible type."""

    def __init__(self, label: str):
        self.label = label
        self.letter, self.rank = parse_type(label)
        self.degrees = degrees(self.letter, self.rank)
        self.order = math.prod(self.degrees)
        self.nplus = sum(d - 1 for d in self.degrees)
        self.poincare = poincare(self.degrees)
        self._build_roots()

    # -- numbers from the degrees --

    def nplus_of(self, subset) -> int:
        return sum(d - 1 for d in subdiagram_degrees(self.letter, self.rank, subset))

    def order_of(self, subset) -> int:
        return math.prod(subdiagram_degrees(self.letter, self.rank, subset))

    def param_histogram(self, subset) -> list[int]:
        """Length histogram of the minimal coset representatives of W_I,
        the coefficients of W(q) / W_I(q)."""
        sub = poincare(subdiagram_degrees(self.letter, self.rank, subset))
        return poly_div(self.poincare, sub)

    def piece_dim(self, subset, length: int) -> int:
        return self.rank + self.nplus + self.nplus_of(subset) + length

    def top_dim(self) -> int:
        return self.rank + 2 * self.nplus

    # -- root permutations --

    def _build_roots(self) -> None:
        n = self.rank
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), m in diagram(self.letter, n).items():
            a[i - 1][j - 1] = -1
            a[j - 1][i - 1] = {3: -1, 4: -2, 6: -3}[m]

        def reflect(v, i):
            c = sum(a[i][j] * v[j] for j in range(n))
            return v[:i] + (v[i] - c,) + v[i + 1:]

        simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        roots = set(simples)
        frontier = list(simples)
        while frontier:
            new = []
            for v in frontier:
                for i in range(n):
                    im = reflect(v, i)
                    if im not in roots:
                        roots.add(im)
                        new.append(im)
            frontier = new
        positives = [v for v in roots if min(v) >= 0]
        positives.sort(key=lambda v: (sum(v), tuple(-c for c in v)))
        positives = simples + [v for v in positives if v not in simples]
        self.num_positive = len(positives)
        listed = positives + [tuple(-c for c in v) for v in positives]
        index = {v: r for r, v in enumerate(listed)}
        self.reflections = [
            np.array([index[reflect(v, i)] for v in listed], dtype=np.int32)
            for i in range(n)
        ]
        self.identity = np.arange(len(listed), dtype=np.int32)

    def elem(self, word) -> np.ndarray:
        p = self.identity
        for i in word:
            p = p[self.reflections[i - 1]]
        return p

    @staticmethod
    def inverse(p: np.ndarray) -> np.ndarray:
        inv = np.empty_like(p)
        inv[p] = np.arange(len(p), dtype=p.dtype)
        return inv

    def length(self, p: np.ndarray) -> int:
        return int(np.count_nonzero(p[: self.num_positive] >= self.num_positive))

    def right_descents(self, p: np.ndarray) -> set[int]:
        m = self.num_positive
        return {i + 1 for i in range(self.rank) if p[i] >= m}

    def left_descents(self, p: np.ndarray) -> set[int]:
        return self.right_descents(self.inverse(p))

    def is_reduced(self, word) -> bool:
        return self.length(self.elem(word)) == len(word)

    @staticmethod
    def key(p: np.ndarray) -> bytes:
        return p.tobytes()

    def double_coset_min(self, p: np.ndarray, I, J) -> np.ndarray:
        """The shortest element of W_I p W_J, by stripping descents."""
        I, J = sorted(I), sorted(J)
        while True:
            s = next((i for i in I if i in self.left_descents(p)), None)
            if s is None:
                break
            p = self.reflections[s - 1][p]
        while True:
            t = next((j for j in J if j in self.right_descents(p)), None)
            if t is None:
                return p
            p = p[self.reflections[t - 1]]

    def stable_subset(self, p: np.ndarray, I, psi: dict[int, int]) -> frozenset[int]:
        """K_w by a sweep over all subsets: the union of the K with
        psi(w K w^-1) = K, where s -> psi(i) when w(alpha_s) = +-alpha_i."""
        m = self.num_positive
        f = {}
        for s in range(1, self.rank + 1):
            r = int(p[s - 1]) % m
            if r < self.rank and (r + 1) in I:
                f[s] = psi[r + 1]
        union: set[int] = set()
        dom = sorted(f)
        for k in range(1, len(dom) + 1):
            for K in combinations(dom, k):
                if {f[s] for s in K} == set(K):
                    union |= set(K)
        return frozenset(union)

    def random_word(self, rng, length: int, side_subset=None, side: str = "iw") -> list[int]:
        """A reduced word of the given length, built by length-increasing
        products of simple reflections.  With side_subset, the element stays
        minimal in its coset: no left descent in it ("iw", growing on the
        right) or no right descent in it ("wj", growing on the left)."""
        avoid = set(side_subset or ())
        word: list[int] = []
        p = self.identity
        m = self.num_positive
        while len(word) < length:
            if side == "iw":
                cands = [
                    s for s in range(1, self.rank + 1)
                    if p[s - 1] < m
                    and not (avoid and avoid & self.left_descents(p[self.reflections[s - 1]]))
                ]
            else:
                inv = self.inverse(p)
                cands = [
                    s for s in range(1, self.rank + 1)
                    if inv[s - 1] < m
                    and not (avoid and avoid & self.right_descents(self.reflections[s - 1][p]))
                ]
            if not cands:
                raise ValueError(f"no reduced extension of length {len(word) + 1}")
            s = rng.choice(cands)
            if side == "iw":
                word.append(s)
                p = p[self.reflections[s - 1]]
            else:
                word.insert(0, s)
                p = self.reflections[s - 1][p]
        return word
