"""Naive reference implementations used to validate the fast paths.

Each oracle transcribes a definition as literally as practical and shares
nothing with the fast implementations beyond element arithmetic:

* Bruhat order via the subword property of one fixed reduced word,
* canonical words by taking the smallest left descent off one Element
  product at a time (the fast path strips the inverse row),
* parabolic subgroups by closure under products, sorted by canonical word
  (the fast path enumerates ShortLex layers and never sorts),
* minimal coset representatives by exhaustive coset minimum search,
* cover edges of a finite order as the successors of each node above none
  of its other successors, by an OR of packed rows (the fast path
  certifies length-one pairs or counts the nodes between by a product),
* the largest twist-stable subgroup by filtering the full subgroup
  lattice (enumerated by closing single-element extensions; the fast path
  enumerates no subgroups, it takes a fixpoint and iterated images),
* equivalence classes by symmetric-transitive closure of one-step moves,
* the stable subset K_w by testing all subsets,
* sigma and its inverse by a scan of Element products over W_I,
* the Howlett decomposition by stripping descents with Element products,
* canonical representatives by the induction replayed in Elements, with
  psi spelled out letter by letter and each induced datum built from its
  definition,
* a Coxeter automorphism applied to an element letter by letter, as a
  product of simple reflections (the fast path conjugates the root
  permutation).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .abstract import AbstractZipDatum, Perm, closure, identity_perm, inverse, mult
from .cosets import HowlettDecomposition
from .automorphisms import CoxeterAutomorphism
from .coxeter import CoxeterGroup, Element
from .errors import LatticeTooLarge, NonUniqueMinimum
from .zipdata import ZipDatum


def bruhat_subword_oracle(x: Element, w: Element) -> bool:
    """x <= w iff one (equivalently any) reduced word of w contains a
    reduced word of x as a subsequence.  Fixes the canonical word of w and
    searches subsequences left to right with memoization."""
    group = x.group
    word = w.canonical_word()
    memo: dict[tuple[int, Element], bool] = {}

    def search(i: int, u: Element) -> bool:
        if u.length == 0:
            return True
        if len(word) - i < u.length:
            return False
        key = (i, u)
        got = memo.get(key)
        if got is None:
            got = search(i + 1, u)
            if not got and u.has_left_descent(word[i]):
                got = search(i + 1, group.simple(word[i]) * u)
            memo[key] = got
        return got

    return search(0, x)


def apply_element_oracle(a: CoxeterAutomorphism, w: Element) -> Element:
    """a(w) as the product of the simple reflections s_a(i) over a reduced
    word of w."""
    g = a.group
    out = g.identity
    for i in w.canonical_word():
        out = out * g.simple(a.apply_index(i))
    return out


def canonical_word_oracle(w: Element) -> tuple[int, ...]:
    """The ShortLex-minimal reduced word of w: its smallest left descent s,
    found by :meth:`Element.has_left_descent`, then the word of s * w, one
    Element product per letter."""
    g = w.group
    word = []
    while not w.is_identity():
        s = next(i for i in g.simple_indices if w.has_left_descent(i))
        word.append(s)
        w = g.simple(s) * w
    return tuple(word)


def shortlex_oracle(group: CoxeterGroup, subset) -> tuple[Element, ...]:
    """The standard parabolic subgroup W_S: close {e} under right products
    with the simple reflections of S, then sort by canonical word."""
    gens = [group.simple(i) for i in sorted(set(subset))]
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        new = []
        for w in frontier:
            for s in gens:
                ws = w * s
                if ws not in seen:
                    seen.add(ws)
                    new.append(ws)
        frontier = new
    return tuple(sorted(seen, key=lambda w: w.sort_key))


def iw_oracle(group: CoxeterGroup, I) -> tuple[Element, ...]:
    """Minimal left-coset representatives by brute force: group all of W
    into cosets W_I w and pick each unique shortest element."""
    I = frozenset(I)
    parabolic = shortlex_oracle(group, I)
    seen: set[Element] = set()
    reps = []
    for w in shortlex_oracle(group, group.simple_indices):
        if w in seen:
            continue
        coset = [y * w for y in parabolic]
        seen.update(coset)
        shortest = min(c.length for c in coset)
        mins = [c for c in coset if c.length == shortest]
        if len(mins) != 1:
            raise NonUniqueMinimum(f"coset of {w!r} has {len(mins)} shortest elements")
        reps.append(mins[0])
    return tuple(sorted(reps, key=lambda w: w.sort_key))


def _all_subgroups_by_extension(elements: frozenset[Perm]) -> list[frozenset[Perm]]:
    degree = len(next(iter(elements)))
    trivial = frozenset([identity_perm(degree)])
    found = {trivial}
    frontier = [trivial]
    while frontier:
        new = []
        for H in frontier:
            for g in elements:
                if g in H:
                    continue
                ext = closure(identity_perm(degree), tuple(H) + (g,), mult)
                if ext not in found:
                    found.add(ext)
                    new.append(ext)
        frontier = new
    return sorted(found, key=lambda H: (len(H), sorted(H)))


def e_gamma_bruteforce(a: AbstractZipDatum, gamma: Perm, bound: int = 48) -> frozenset[Perm]:
    """The largest subgroup of gamma^{-1} Delta gamma fixed by
    psi * inn(gamma): filter the full subgroup lattice and take the
    subgroup generated by every fixed member."""
    gamma = tuple(gamma)
    gi = inverse(gamma)
    conj = frozenset(mult(mult(gi, d), gamma) for d in a.delta)
    if len(conj) > bound:
        raise LatticeTooLarge(f"|conjugate subgroup| = {len(conj)} exceeds {bound}")

    def twist(e: Perm) -> Perm:
        return a.psi[mult(mult(gamma, e), gi)]

    fixed = [
        H for H in _all_subgroups_by_extension(conj) if {twist(h) for h in H} == H
    ]
    generated = closure(a.group.identity, chain.from_iterable(fixed), mult)
    if {twist(h) for h in generated} != generated:
        raise RuntimeError(f"the subgroup generated by the twist-fixed subgroups at "
                           f"gamma = {gamma} is not fixed by the twist")
    return generated


def classes_bruteforce(a: AbstractZipDatum, bound: int = 48) -> tuple[frozenset[Perm], ...]:
    """Equivalence classes by symmetric-transitive closure of the one-step
    moves gamma -> d gamma e psi(d)^{-1}, with e ranging over the
    brute-forced stable subgroup."""
    elements = a.group.elements()
    neighbors: dict[Perm, set[Perm]] = {}
    for gamma in elements:
        E = e_gamma_bruteforce(a, gamma, bound)
        out = set()
        for d in a.delta:
            head = mult(d, gamma)
            tail = inverse(a.psi[d])
            for e in E:
                out.add(mult(mult(head, e), tail))
        neighbors[gamma] = out
    undirected: dict[Perm, set[Perm]] = {g: set() for g in elements}
    for g, outs in neighbors.items():
        for h in outs:
            undirected[g].add(h)
            undirected[h].add(g)
    seen: set[Perm] = set()
    classes = []
    for g in elements:
        if g in seen:
            continue
        stack, comp = [g], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(undirected[v] - comp)
        seen |= comp
        classes.append(frozenset(comp))
    return tuple(classes)


def kw_bruteforce(z: ZipDatum, w: Element) -> frozenset[int]:
    """The stable subset by testing every subset of the candidate domain
    for psi(inn(w)(K)) = K and taking the union of the passing ones."""
    g = z.group
    domain = {}
    for s in z.universe:
        i = g.simple_index_of_root(w.act_on_root(g.simple_root_index(s)))
        if i is not None and i in z.I:
            domain[s] = z.psi[i]
    items = sorted(domain)
    passing = []
    for k in range(len(items) + 1):
        for K in combinations(items, k):
            if {domain[s] for s in K} == set(K):
                passing.append(set(K))
    union = set().union(*passing) if passing else set()
    if {domain[s] for s in union} != union:
        raise RuntimeError(f"the union {sorted(union)} of the stable subsets of {w!r} "
                           f"is not stable")
    return frozenset(union)


def cover_edges_oracle(rel: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Cover edges of the order rel[a, b] = (a <= b): the pairs a < b with
    no third node c such that a < c < b, in row-major order.  Per node a,
    the b above some c above a are the OR of the rows of its successors c,
    packed 8 to a byte; the covers of a are its other successors."""
    k = rel.shape[0]
    strict = rel & ~np.eye(k, dtype=bool)
    above = np.packbits(strict, axis=1)
    edges = []
    for a in range(k):
        beyond = np.bitwise_or.reduce(above[strict[a]], axis=0)
        covers = np.unpackbits(above[a] & ~beyond, count=k)
        edges += [(a, b) for b in np.flatnonzero(covers).tolist()]
    return tuple(edges)


def sigma_oracle(z: ZipDatum, w: Element, side: str = "iw") -> Element:
    """sigma(w) for an "iw" parameter w, or sigma^{-1}(w) for a "wj" one:
    the first y w psi(y)^{-1} (y^{-1} w psi(y)) over W_I, closed under
    products and sorted, with psi(y) spelled out letter by letter, that has
    no right descent in J (no left descent in I)."""
    for y, py in _psi_pairs(z):
        if side == "iw":
            cand = y * w * py.inverse()
            if not any(cand.has_right_descent(j) for j in z.J):
                return cand
        else:
            cand = y.inverse() * w * py
            if not any(cand.has_left_descent(i) for i in z.I):
                return cand
    raise AssertionError(f"no twist of {w!r} is a {side} parameter")


@lru_cache(maxsize=16)
def _psi_pairs(z: ZipDatum) -> tuple[tuple[Element, Element], ...]:
    """(y, psi(y)) for y in W_I in sorted order, psi(y) spelled out letter
    by letter."""
    g = z.group
    return tuple(
        (y, g.from_word([z.psi[i] for i in y.canonical_word()]))
        for y in shortlex_oracle(g, z.I)
    )


def howlett_oracle(group: CoxeterGroup, I, J, w: Element) -> HowlettDecomposition:
    """w = w_I * x * w_J by stripping, with Element products, first the
    left descents of w lying in I, then the right descents lying in J."""
    left_word = []
    x = w
    while True:
        s = next((i for i in sorted(I) if x.has_left_descent(i)), None)
        if s is None:
            break
        left_word.append(s)
        x = group.simple(s) * x
    right_word = []
    while True:
        t = next((j for j in sorted(J) if x.has_right_descent(j)), None)
        if t is None:
            break
        right_word.append(t)
        x = x * group.simple(t)
    return HowlettDecomposition(
        group.from_word(left_word), x, group.from_word(reversed(right_word))
    )


def canonical_rep_oracle(z: ZipDatum, w: Element) -> Element:
    """The canonical representative by the induction of the source paper:
    w = w_I x w_J (:func:`howlett_oracle`) is equivalent to x w_J psi(w_I),
    with psi(w_I) spelled out letter by letter, and the class of w_J psi(w_I)
    is decided in the datum induced at x, built from its definition
    (:func:`induced_oracle`)."""
    g = z.group
    if z.I == z.universe:
        return g.identity
    hd = howlett_oracle(g, z.I, z.J, w)
    v = hd.right * g.from_word([z.psi[i] for i in hd.left.canonical_word()])
    return hd.middle * canonical_rep_oracle(induced_oracle(z, hd.middle), v)


def induced_oracle(z: ZipDatum, x: Element) -> ZipDatum:
    """The datum induced at x, built from its definition: universe J and
    twist t -> psi(i) where x(alpha_t) = alpha_i, i in I."""
    g = z.group
    twist = {}
    for t in z.J:
        i = g.simple_index_of_root(x.act_on_root(g.simple_root_index(t)))
        if i in z.I:
            twist[t] = z.psi[i]
    return ZipDatum(g, set(twist), set(twist.values()), twist, universe=z.J)
