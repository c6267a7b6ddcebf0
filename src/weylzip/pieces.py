"""The result of :meth:`ZipDatum.pieces`: pieces held as columns
(:class:`Pieces`), each :class:`Piece` built only when it is read, their
text formatted from the columns.

The closure poset on them, :class:`poset.ClosurePoset`, lives in
:mod:`weylzip.poset`, which the ``pieces`` subcommand never loads.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .coxeter import CoxeterGroup, Element, word_tuples

if TYPE_CHECKING:
    from .zipdata import ZipDatum


@dataclass(frozen=True)
class Piece:
    """One stratum: its parameter w (and dual label sigma(w)), the largest
    psi*inn(w)-stable subset, Howlett parts, and dimension counts."""

    rep: Element
    dual_rep: Element
    stable_subset: frozenset[int]
    length: int
    x_part: Element
    right_part: Element
    dimension: int
    inf_stab_dim: int


class Pieces(Sequence):
    """The pieces of a datum, one per parameter in the ShortLex order of the
    chosen side's labels, held as columns: ``pieces[k]`` builds its
    :class:`Piece`, and that Piece's Elements, only when it is read.

    The public columns are read-only numpy arrays, one entry per piece:
    ``length``, ``dimension`` and ``inf_stab_dim``, and ``stable_code``, the
    index of the piece's K_w in ``stable_subsets``, the distinct subsets.
    :meth:`words` gives the text of the labels.  The rest, per piece: the
    positions of its rep and x part among the "iw" parameter rows and
    words cached on the datum, the images of the simple roots under its
    sigma image, whose position among the "wj" parameters is looked up
    when first read, and the letters stripped off as its right part.

    Indexing, iteration and ``len`` behave as on a tuple of Pieces, and a
    slice is a Pieces.  Two Pieces are equal when their Pieces are equal
    one by one (a Pieces never equals a tuple, as a tuple never equals a
    list), which is checked on the columns, and equal Pieces hash alike.
    """

    def __init__(self, datum: ZipDatum, stable_subsets: tuple[frozenset[int], ...], *,
                 rep_at: np.ndarray, sigma: np.ndarray, x_at: np.ndarray, right: np.ndarray,
                 stable_code: np.ndarray, length: np.ndarray, dimension: np.ndarray,
                 inf_stab_dim: np.ndarray):
        self._datum, self.group = datum, datum.group
        self._iw = datum._param_rows("iw")
        self.stable_subsets = stable_subsets
        self._rep_at, self._sigma, self._x_at, self._right = rep_at, sigma, x_at, right
        self.stable_code, self.length = stable_code, length
        self.dimension, self.inf_stab_dim = dimension, inf_stab_dim
        for column in self._columns().values():
            column.flags.writeable = False
        self._hash: int | None = None

    def _columns(self) -> dict[str, np.ndarray]:
        return {"rep_at": self._rep_at, "sigma": self._sigma, "x_at": self._x_at,
                "right": self._right, "stable_code": self.stable_code, "length": self.length,
                "dimension": self.dimension, "inf_stab_dim": self.inf_stab_dim}

    def _take(self, key) -> Pieces:
        """The Pieces at a slice or an index array of these, with the
        positions of their sigma images when these have found theirs."""
        columns = {name: column[key] for name, column in self._columns().items()}
        taken = Pieces(self._datum, self.stable_subsets, **columns)
        if "_dual_at" in vars(self):
            taken._dual_at = self._dual_at[key]
        return taken

    @property
    def _wj(self) -> tuple[np.ndarray, np.ndarray]:
        return self._datum._param_rows("wj")

    @cached_property
    def _dual_at(self) -> np.ndarray:
        """The position of each sigma image among the "wj" parameters
        (sigma is a bijection onto them), found when first read."""
        return _positions(self._wj[0], self._sigma, self.group.rank)

    def __len__(self) -> int:
        return len(self.length)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._take(key)
        k = operator.index(key)
        n = len(self)
        if not -n <= k < n:
            raise IndexError("pieces index out of range")
        k %= n
        g, iw = self.group, self._iw
        return Piece(
            rep=_element(g, iw, self._rep_at[k]),
            dual_rep=_element(g, self._wj, self._dual_at[k]),
            stable_subset=self.stable_subsets[self.stable_code[k]],
            length=self.length.item(k),
            x_part=_element(g, iw, self._x_at[k]),
            # the letters t_1, ..., t_k stripped from w spell t_k ... t_1
            right_part=g.from_word([t for t in reversed(self._right[k].tolist()) if t]),
            dimension=self.dimension.item(k),
            inf_stab_dim=self.inf_stab_dim.item(k),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def words(self, label: str = "rep") -> list[str]:
        """The text (:func:`serialize.word_str`) of each piece's ``rep`` or
        ``dual_rep``, read off the padded words of the parameters."""
        from .serialize import word_texts

        if label == "rep":
            return word_texts(self._iw[1][self._rep_at])
        if label == "dual_rep":
            return word_texts(self._wj[1][self._dual_at])
        raise ValueError(f"label must be 'rep' or 'dual_rep', got {label!r}")

    def _key(self) -> tuple:
        """What the Pieces are made of: the rows of each rep and x part and
        the sigma images (the right part is x^{-1} rep, and the length that
        of rep), each K_w, and the two counts."""
        X = self._iw[0]
        return (X[self._rep_at].tobytes(), self._sigma.tobytes(), X[self._x_at].tobytes(),
                tuple(map(self.stable_subsets.__getitem__, self.stable_code.tolist())),
                self.dimension.tobytes(), self.inf_stab_dim.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pieces):
            return NotImplemented
        return self is other or (
            self.group is other.group and len(self) == len(other) and self._key() == other._key())

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        return f"Pieces({len(self)} pieces of {self.group.label})"


def _positions(table: np.ndarray, rows: np.ndarray, rank: int) -> np.ndarray:
    """The position in the stack `table` of each of the root-permutation
    `rows`, all of which it holds, by one sort and one binary search.  An
    element is the linear map fixed by its images of the rank simple roots,
    which sit at indices 0..rank-1: rows are compared by the raw bytes of
    those columns alone."""
    whole_row = np.dtype((np.void, table.itemsize * rank))
    keys = np.ascontiguousarray(table[:, :rank]).view(whole_row).ravel()
    wanted = np.ascontiguousarray(rows[:, :rank], dtype=table.dtype).view(whole_row).ravel()
    order = np.argsort(keys)
    return order[np.searchsorted(keys[order], wanted)]


def _element(group: CoxeterGroup, params: tuple[np.ndarray, np.ndarray], p) -> Element:
    """The Element of parameter p of a side's rows and padded words."""
    rows, letters = params
    return group.elements_of_rows(rows[p:p + 1], word_tuples(letters[p:p + 1]))[0]
