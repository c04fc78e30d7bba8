"""Columnar event batches: encode once, consume anywhere without objects.

The batch kernel, the pipe transport and the shared-memory data plane
all speak the same columnar form of an event batch — a float64 value
matrix plus packed presence/was-int bit rows over a shared attribute
table.  :class:`ColumnarBatch` is that form as a first-class value, so
one encode can feed any number of consumers:

* the process-executor transports ship its arrays (pickled on the pipe,
  placed in a shared-memory slot by :mod:`repro.system.shm`);
* :meth:`repro.batch.evaluator.BatchPredicateEvaluator.evaluate`
  runs phase 1 straight off the matrices — no :class:`Event` objects;
* :meth:`to_events` materializes real events only where object
  semantics are required (cluster phase 2 probes, the dynamic engine's
  event statistics, scalar fallbacks).

Exactness contract (shared with the evaluator): a batch is columnar
only when **every** value rides float64 without rounding — floats
(NaN included; the presence bit distinguishes it from "attribute
missing") and ints of magnitude below 2**53.  Strings and huge ints
make :meth:`from_events` return None and the batch rides the object
path.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.bitmatrix import pack_bits, unpack_bits
from repro.core.types import Event

#: Largest |int| float64 represents exactly; at or past it the columnar
#: value matrix would silently round.
_EXACT_INT_LIMIT = 2**53

_SHAPE, _ATTRS, _VALUES = attrgetter("shape"), attrgetter("attrs"), attrgetter("values")


def exact_float64(values: Sequence[Any]) -> Optional[np.ndarray]:
    """*values* as a float64 array — or None when one of them cannot
    ride float64 exactly: a string, or an int at or past 2**53.

    The one place that decides it, for the list kernel and for
    :meth:`ColumnarBatch.from_events` alike.
    """
    # No dtype: asked for float64 numpy would *parse* a numeric string;
    # left to infer, a string anywhere makes the array non-numeric.
    array = np.asarray(values)
    if array.dtype.kind not in "if":
        return None
    array = array.astype(np.float64, copy=False)
    if (np.abs(array) >= _EXACT_INT_LIMIT).any() and any(
        isinstance(v, int) and abs(v) >= _EXACT_INT_LIMIT for v in values
    ):
        # Floats that large are exact; an int may have rounded on the way in.
        return None
    return array


def cell_table(
    events: Sequence[Event],
) -> Tuple[Dict[str, int], List[Any], np.ndarray, np.ndarray]:
    """Every value *events* carry, row-major: ``(col_of, cells, rows, cols)``.

    ``col_of`` numbers the batch's attributes in first-seen order;
    ``cells[i]`` is a value, ``rows[i]`` the event it came from and
    ``cols[i]`` its attribute's number.  What this costs follows the
    pairs the batch carries, not rows × attributes.
    """
    shapes = list(map(_SHAPE, events))
    distinct = dict.fromkeys(shapes)
    col_of = {
        attr: j
        for j, attr in enumerate(dict.fromkeys(chain.from_iterable(map(_ATTRS, distinct))))
    }
    number = col_of.__getitem__
    if 2 * len(distinct) <= len(events):
        # Shapes are shared (a W0 batch has one): number each one once.
        for shape in distinct:
            distinct[shape] = tuple(map(number, shape.attrs))
        numbered = chain.from_iterable(map(distinct.__getitem__, shapes))
    else:
        # Most events bring their own shape: number the cells directly.
        numbered = map(number, chain.from_iterable(map(_ATTRS, shapes)))
    cells = list(chain.from_iterable(map(_VALUES, events)))
    rows = np.repeat(np.arange(len(events)), list(map(len, map(_ATTRS, shapes))))
    cols = np.fromiter(numbered, dtype=np.intp, count=len(cells))
    return col_of, cells, rows, cols


class ColumnarBatch:
    """One event batch as (attrs, values, presence, ints) columns.

    ``values`` is ``(n_events, n_attrs)`` float64; ``presence`` and
    ``ints`` are uint64-packed boolean rows of the same logical shape
    (bit *j* of row *r*: does event *r* carry ``attrs[j]``, and was the
    value an int).  The arrays may alias shared memory — consumers must
    not retain views past the batch's lifetime.
    """

    __slots__ = ("attrs", "values", "presence", "ints")

    def __init__(
        self,
        attrs: Sequence[str],
        values: np.ndarray,
        presence: np.ndarray,
        ints: np.ndarray,
    ) -> None:
        self.attrs = list(attrs)
        self.values = values
        self.presence = presence
        self.ints = ints

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __iter__(self) -> Iterator[Event]:
        """The object-path fallback: a batch iterates as its events, so
        any ``match_batch`` that is not column-aware still accepts it."""
        return iter(self.to_events())

    @property
    def n_attrs(self) -> int:
        return len(self.attrs)

    @classmethod
    def from_events(cls, events: Sequence[Event]) -> Optional["ColumnarBatch"]:
        """Encode *events*, or None when any value cannot ride float64
        exactly (strings, ints at or past 2**53)."""
        if not events:
            return None
        col_of, cells, rows, cols = cell_table(events)
        flat = exact_float64(cells)
        if flat is None:
            return None
        shape = (len(events), len(col_of))
        values = np.zeros(shape, dtype=np.float64)
        presence = np.zeros(shape, dtype=bool)
        ints = np.zeros(shape, dtype=bool)
        values[rows, cols] = flat
        presence[rows, cols] = True
        ints[rows, cols] = np.fromiter(
            map(isinstance, cells, repeat(int)), dtype=bool, count=len(cells)
        )
        return cls(list(col_of), values, pack_bits(presence), pack_bits(ints))

    def select(self, rows: Sequence[int]) -> "ColumnarBatch":
        """The sub-batch of *rows*, in the given order (contiguous copies)."""
        sel = np.asarray(rows, dtype=np.intp)
        return ColumnarBatch(
            self.attrs,
            np.ascontiguousarray(self.values[sel]),
            np.ascontiguousarray(self.presence[sel]),
            np.ascontiguousarray(self.ints[sel]),
        )

    def present(self) -> np.ndarray:
        """Boolean ``(n_events, n_attrs)`` attribute-presence matrix."""
        return unpack_bits(np.ascontiguousarray(self.presence), self.n_attrs)

    def int_mask(self) -> np.ndarray:
        """Boolean ``(n_events, n_attrs)`` was-the-value-an-int matrix."""
        return unpack_bits(np.ascontiguousarray(self.ints), self.n_attrs)

    def to_events(self) -> List[Event]:
        """Materialize real :class:`Event` objects (the object path)."""
        attrs = self.attrs
        values = self.values
        present = self.present()
        ints = self.int_mask()
        events = []
        for row in range(values.shape[0]):
            pairs: Dict[str, Any] = {}
            for col in np.nonzero(present[row])[0]:
                value = float(values[row, col])
                pairs[attrs[col]] = int(value) if ints[row, col] else value
            events.append(Event(pairs))
        return events
