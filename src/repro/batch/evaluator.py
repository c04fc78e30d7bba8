"""Batched predicate phase (phase 1 of the kernel).

The scalar path probes per-attribute operator indexes once per event;
here each index's constants are read as flat numpy arrays — the index's
own compiled form (:meth:`repro.indexes.OperatorIndex.vector_form`) —
so every deduplicated predicate is evaluated against every event of a
batch in one vectorized operation per (attribute, operator) index:

* ``=``  — ``searchsorted`` of the batch's column values into the sorted
  constant array, then a scatter of the exact hits;
* ``!=`` — set every not-equal bit for rows carrying the attribute, then
  clear the (at most one) own-constant hit per row;
* ``<, <=, >=, >`` — a broadcast compare of ``(values × constants)``,
  row-chunked to bound the temporary.

Exactness contract: results must be *identical* to the scalar indexes,
which compare with full Python precision.  Vectorizing through float64
is exact for floats and for ints with ``|v| < 2**53``; any other pair —
a string, a huge int, a NaN value (dict identity semantics) — is one
call to :meth:`PredicateIndexSet.probe`, the probe the scalar
algorithm makes for every event pair.  An attribute with an index
holding a constant that float64 cannot represent exactly sends **all**
of its values that way, so an inexact constant can never produce a
wrong boundary.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Union

import numpy as np

from repro.batch.columns import ColumnarBatch, cell_table, exact_float64
from repro.core.types import Event, Operator
from repro.indexes.composite import PredicateIndexSet

#: Cell cap for one broadcast (rows × constants) range compare.
_BROADCAST_CELLS = 1 << 22


def _hits(form, vals: np.ndarray):
    """``(mask, idx)``: which of *vals* equal a constant, and which one."""
    idx = np.searchsorted(form.keys, vals)
    np.clip(idx, 0, len(form.keys) - 1, out=idx)
    return form.keys[idx] == vals, idx


def _apply_eq(form, truth: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
    if not len(form.keys):
        return
    hit, idx = _hits(form, vals)
    if hit.any():
        truth[rows[hit], form.bits[idx[hit]]] = True


def _apply_ne(form, truth: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
    truth[np.ix_(rows, form.all_bits)] = True
    if not len(form.keys):
        return
    hit, idx = _hits(form, vals)
    if hit.any():
        truth[rows[hit], form.bits[idx[hit]]] = False


def _apply_range(ufunc: np.ufunc):
    def apply(form, truth: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
        step = max(1, _BROADCAST_CELLS // len(form.keys))
        for s in range(0, len(rows), step):
            cmp = ufunc(vals[s : s + step, None], form.keys[None, :])
            truth[np.ix_(rows[s : s + step], form.bits)] = cmp

    return apply


#: The vector kernel of each operator class, over one index's compiled form.
_KERNELS = {
    Operator.EQ: _apply_eq,
    Operator.NE: _apply_ne,
    Operator.LT: _apply_range(np.less),
    Operator.LE: _apply_range(np.less_equal),
    Operator.GE: _apply_range(np.greater_equal),
    Operator.GT: _apply_range(np.greater),
}


def _cells_by_attribute(batch: Union[Sequence[Event], ColumnarBatch]):
    """Every cell of *batch* grouped by attribute, each group in row order.

    ``(col_of, rows, bounds, flat, values_at)``: the cells of attribute
    ``j = col_of[attr]`` are positions ``bounds[j]:bounds[j + 1]``;
    ``rows[i]`` is cell *i*'s event, ``flat[i]`` its float64 value
    (``flat`` is None when the batch as a whole cannot ride float64) and
    ``values_at(positions)`` the exact value objects of the cells at
    *positions* (a slice or an index array).

    Each input form builds the table its cheapest way.  An event list
    numbers its cells row-major (:func:`cell_table`) and sorts them by
    attribute, stably.  A :class:`ColumnarBatch` reads its presence
    matrix column-major, which needs no sort; its values are exact by
    construction, and an exact value is rebuilt as int or float from
    the was-int bit.
    """
    if isinstance(batch, ColumnarBatch):
        col_of = {attr: j for j, attr in enumerate(batch.attrs)}
        cols, rows = np.nonzero(batch.present().T)
        flat = batch.values[rows, cols]

        def values_at(at) -> List[Any]:
            ints = batch.int_mask()[rows[at], cols[at]].tolist()
            return [int(v) if i else v for v, i in zip(flat[at].tolist(), ints)]

    else:
        col_of, cells, rows, cols = cell_table(batch)
        flat = exact_float64(cells)
        order = np.argsort(cols, kind="stable")
        rows = rows[order]
        if flat is not None:
            flat = flat[order]

        def values_at(at) -> List[Any]:
            return [cells[i] for i in order[at].tolist()]

    bounds = [0, *np.cumsum(np.bincount(cols, minlength=len(col_of))).tolist()]
    return col_of, rows, bounds, flat, values_at


class BatchPredicateEvaluator:
    """Predicate phase over a whole batch, run off the live indexes.

    Holds no copy of them: the arrays it reads are each index's own
    compiled form, so a write to one index is the only thing the next
    batch recompiles.
    """

    __slots__ = ("_indexes",)

    def __init__(self, indexes: PredicateIndexSet) -> None:
        self._indexes = indexes

    def evaluate(
        self,
        batch: Union[Sequence[Event], ColumnarBatch],
        n_slots: int,
        out: "np.ndarray" = None,
    ) -> np.ndarray:
        """Boolean ``(len(batch), n_slots)`` truth matrix.

        *batch* is an event list or a :class:`ColumnarBatch`.  Cell
        ``[e, b]`` is True iff event *e* satisfies the predicate in
        registry slot *b* — exactly the bit vector the scalar phase 1
        would produce for each event in turn.

        *out*, when given, must be a boolean array with at least
        ``(len(batch), n_slots)`` cells; the leading view is zeroed and
        written in place instead of allocating a fresh matrix per batch
        (the two-phase matchers reuse one scratch buffer across batches).

        One scan whatever the form: the batch's cells, grouped by
        attribute (:func:`_cells_by_attribute`), run through each
        indexed attribute's vector kernels in one call.  When the batch
        as a whole cannot ride float64 each attribute's cells convert on
        their own; an attribute whose cells still cannot, a NaN value
        and an attribute with an inexact constant are resolved cell by
        cell through the exact path.
        """
        truth = self._prepare_truth(len(batch), n_slots, out)
        col_of, rows, bounds, flat, values_at = _cells_by_attribute(batch)
        for attr, forms in self._indexes.vector_forms():
            j = col_of.get(attr)
            if j is None:
                continue
            at = slice(bounds[j], bounds[j + 1])  # its cells, in row order
            col = flat[at] if flat is not None else exact_float64(values_at(at))
            if col is not None:
                nan_mask = np.isnan(col)
                if nan_mask.any():
                    # A real NaN value must still probe the = / != dicts
                    # exactly like the scalar indexes (dict identity
                    # semantics and all).
                    at = np.arange(at.start, at.stop)
                    nan_at = at[nan_mask]
                    self._exact(truth, attr, rows[nan_at], values_at(nan_at))
                    at, col = at[~nan_mask], col[~nan_mask]
                if self._vector(truth, forms, rows[at], col):
                    continue
            self._exact(truth, attr, rows[at], values_at(at))
        return truth

    @staticmethod
    def _vector(truth: np.ndarray, forms, rows: np.ndarray, col: np.ndarray) -> bool:
        """Run one attribute's vector kernels (*forms*: its indexes'
        compiled forms) over *rows*, whose values *col* float64 carries
        exactly.  False — and nothing written — when one of the indexes
        holds a constant float64 cannot carry: the caller sends each
        row's own value down the exact path."""
        for _op, form in forms:
            if form.exact:
                return False
        if len(rows):
            for op, form in forms:
                _KERNELS[op](form, truth, rows, col)
        return True

    def _exact(self, truth: np.ndarray, attr: str, rows: np.ndarray, values: List[Any]) -> None:
        """Each (row, value) cell of *attr* through the scalar indexes,
        with its own value object."""
        for row, value in zip(rows.tolist(), values):
            bits: List[int] = []
            self._indexes.probe(((attr, value),), bits.append)
            truth[row, bits] = True

    @staticmethod
    def _prepare_truth(n: int, n_slots: int, out: "np.ndarray") -> np.ndarray:
        """A zeroed ``(n, n_slots)`` bool truth matrix — a leading view
        of *out* written in place when given, else a fresh allocation."""
        if out is None:
            return np.zeros((n, n_slots), dtype=bool)
        if out.dtype != np.bool_ or out.ndim != 2:
            raise ValueError(
                f"scratch buffer must be a 2-D bool array, got "
                f"{out.dtype} with shape {out.shape}"
            )
        if out.shape[0] < n or out.shape[1] < n_slots:
            raise ValueError(
                f"scratch buffer {out.shape} too small for "
                f"({n}, {n_slots}) truth matrix"
            )
        truth = out[:n, :n_slots]
        truth[:] = False
        return truth
