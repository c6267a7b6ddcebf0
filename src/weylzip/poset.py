"""The closure poset of :meth:`ZipDatum.hasse_poset`
(:class:`ClosurePoset`): its nodes are the pieces, as columns, and its
cover edges two index arrays, and its JSON and DOT text is formatted from
them.  :func:`order.hasse_poset` imports this module when it starts, so a
closure set never loads it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from . import order

if TYPE_CHECKING:
    from .coxeter import Element
    from .pieces import Pieces
    from .zipdata import ZipDatum


class ClosurePoset:
    """The closure order on a parameter set.

    The cover edges are the transitive reduction, edge e pointing from node
    ``lower[e]`` to node ``upper[e]``, the smaller to the larger piece,
    row-major; ``cover_edges``, the same edges as a tuple of pairs, is
    built on first read.  Node order matches `nodes`.  Two posets are equal
    when their datum, side, nodes and edges are.
    """

    def __init__(self, datum: ZipDatum, side: str, nodes: Pieces, lower: np.ndarray,
                 upper: np.ndarray):
        self.datum, self.side, self.nodes = datum, side, nodes
        self.lower, self.upper = lower, upper
        for array in (lower, upper):
            array.flags.writeable = False

    @cached_property
    def cover_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.lower.tolist(), self.upper.tolist()))

    @cached_property
    def leq(self) -> np.ndarray:
        """``leq[a, b]``: node a lies in the closure of node b.  Built on
        first read, with no lock, and refused above POSET_BOUND nodes."""
        return order.relation_matrix(self.datum, self.side)

    def _key(self) -> tuple:
        return (self.datum, self.side, self.nodes, self.lower.tobytes(), self.upper.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClosurePoset):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"ClosurePoset({self.datum!r}, side={self.side!r}, {len(self.nodes)} nodes, "
                f"{len(self.lower)} cover edges)")

    def label(self, k: int) -> Element:
        p = self.nodes[k]
        return p.rep if self.side == "iw" else p.dual_rep

    def _node_columns(self) -> list[list]:
        """The label words, lengths and dimensions of the nodes."""
        nodes = self.nodes
        return [nodes.words("rep" if self.side == "iw" else "dual_rep"),
                nodes.length.tolist(), nodes.dimension.tolist()]

    def to_dot(self) -> str:
        words, length, dim = self._node_columns()
        return "digraph closure {\n%s%s}\n" % (
            _formatted('  n%d [label="%s\\nl=%d dim=%d"];\n', "",
                       [range(len(words)), words, length, dim]),
            _formatted("  n%d -> n%d;\n", "", [self.lower.tolist(), self.upper.tolist()]))

    def to_json(self) -> str:
        """The text of ``json.dumps(self.to_json_dict(), indent=2,
        sort_keys=True)``, written for its fixed schema from the columns,
        each array in one pass of ``%`` formatting (:func:`_formatted`):
        with an indent, json.dumps runs the pure-Python encoder.  A word is
        digits, commas or "e", and the side "iw" or "wj", which JSON quotes
        as they are."""
        return '{\n  "cover_edges": %s,\n  "nodes": %s,\n  "side": "%s"\n}' % (
            _json_array("    [\n      %d,\n      %d\n    ]",
                        [self.lower.tolist(), self.upper.tolist()]),
            _json_array('    {\n      "dim": %d,\n      "length": %d,\n      "word": "%s"\n    }',
                        self._node_columns()[::-1]),
            self.side)

    def to_json_dict(self) -> dict:
        words, length, dim = self._node_columns()
        return {
            "side": self.side,
            "nodes": [{"word": w, "length": n, "dim": d} for w, n, d in zip(words, length, dim)],
            "cover_edges": [[a, b] for a, b in zip(self.lower.tolist(), self.upper.tolist())],
        }


def _formatted(item: str, sep: str, columns: list) -> str:
    """`item` % (entry i of each column) for each i, joined by `sep`: one
    template repeated and formatted in one pass, with no string per item."""
    n = len(columns[0])
    return sep.join([item] * n) % tuple(chain.from_iterable(zip(*columns)))


def _json_array(item: str, columns: list) -> str:
    """The text at indent level 1 of a JSON array whose items, indented
    already, are formatted by :func:`_formatted`; "[]" when it is empty."""
    return "[\n%s\n  ]" % _formatted(item, ",\n", columns) if len(columns[0]) else "[]"
