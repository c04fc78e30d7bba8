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

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.batch.columns import cell_table, exact_float64
from repro.core.types import Event, Operator, Value
from repro.indexes.composite import PredicateIndexSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.batch.columns import ColumnarBatch

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
        events: Sequence[Event],
        n_slots: int,
        out: "np.ndarray" = None,
    ) -> np.ndarray:
        """Boolean ``(len(events), n_slots)`` truth matrix.

        Cell ``[e, b]`` is True iff event *e* satisfies the predicate in
        registry slot *b* — exactly the bit vector the scalar phase 1
        would produce for each event in turn.

        *out*, when given, must be a boolean array with at least
        ``(len(events), n_slots)`` cells; the leading view is zeroed and
        written in place instead of allocating a fresh matrix per batch
        (the two-phase matchers reuse one scratch buffer across batches).

        The scan is column-oriented whatever the events' shapes: every
        value of the batch is converted once (:func:`exact_float64`, the
        test :meth:`ColumnarBatch.from_events` applies too), its cells
        are sorted by attribute, and each indexed attribute's cells run
        through the vector kernels in one call.  When the batch as a
        whole cannot ride float64 (a string or an int at or past 2**53
        somewhere in it) each attribute's cells convert on their own,
        and an attribute whose cells still cannot is resolved cell by
        cell through the exact path, as is a NaN value.
        """
        truth = self._prepare_truth(len(events), n_slots, out)
        col_of, cells, rows, cols = cell_table(events)
        flat = exact_float64(cells)
        by_attr = np.argsort(cols, kind="stable")
        bounds = np.searchsorted(cols, np.arange(len(col_of) + 1), sorter=by_attr)
        for attr, forms in self._indexes.vector_forms():
            j = col_of.get(attr)
            if j is None:
                continue
            at = by_attr[bounds[j] : bounds[j + 1]]  # its cells, in row order
            col = flat[at] if flat is not None else exact_float64([cells[i] for i in at.tolist()])
            if col is None:
                self._exact_cells(truth, attr, cells, rows, at)
                continue
            nan_mask = np.isnan(col)
            if nan_mask.any():
                # A real NaN value must still probe the = / != dicts
                # exactly like the scalar indexes (dict identity
                # semantics and all).
                self._exact_cells(truth, attr, cells, rows, at[nan_mask])
                at, col = at[~nan_mask], col[~nan_mask]
            if not self._vector(truth, forms, rows[at], col):
                self._exact_cells(truth, attr, cells, rows, at)
        return truth

    def evaluate_columnar(
        self,
        batch: "ColumnarBatch",
        n_slots: int,
        out: "np.ndarray" = None,
    ) -> np.ndarray:
        """:meth:`evaluate` straight off a :class:`ColumnarBatch`.

        Identical truth matrix, but phase 1 never materializes
        :class:`Event` objects or per-attribute dict gathers: each
        attribute's column is sliced from the batch's float64 value
        matrix under its presence bits.  Columnar values are exact by
        construction (strings and ints at or past 2**53 never encode),
        so the only exact-path work left is real NaN values and
        attributes whose *constants* are inexact, resolved per row with
        the value rebuilt as int or float from the was-int bit.
        """
        n = len(batch)
        truth = self._prepare_truth(n, n_slots, out)
        col_of = {attr: j for j, attr in enumerate(batch.attrs)}
        present = ints = None
        for attr, forms in self._indexes.vector_forms():
            j = col_of.get(attr)
            if j is None:
                continue
            if present is None:
                present = batch.present()
                ints = batch.int_mask()
            rows = np.nonzero(present[:, j])[0]
            col = batch.values[rows, j]
            nan_mask = np.isnan(col)
            if nan_mask.any():
                for row in rows[nan_mask]:
                    self._exact(truth, int(row), attr, float("nan"))
                rows, col = rows[~nan_mask], col[~nan_mask]
            if not self._vector(truth, forms, rows, col):
                for row, value in zip(rows, col.tolist()):
                    self._exact(
                        truth, int(row), attr, int(value) if ints[row, j] else value
                    )
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

    def _exact(self, truth: np.ndarray, row: int, attr: str, value: Value) -> None:
        """One (row, attribute, value) through the scalar indexes."""
        bits = []
        self._indexes.probe(((attr, value),), bits.append)
        truth[row, bits] = True

    def _exact_cells(self, truth, attr: str, cells, rows: np.ndarray, at: np.ndarray) -> None:
        """:meth:`_exact` for each of the cells *at* (indexes into *cells*
        and *rows*), each with its own value object."""
        for row, i in zip(rows[at].tolist(), at.tolist()):
            self._exact(truth, row, attr, cells[i])

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
