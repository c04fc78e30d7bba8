"""Interface shared by the per-operator predicate indexes.

An :class:`OperatorIndex` stores, for one attribute and one operator
class, the mapping *predicate constant → bit-vector slot*, and can
enumerate the slots of every stored predicate an event value satisfies.
Phase 1 of the matching algorithm is a loop over these indexes.

The batch kernel reads the same constants as flat numpy arrays.  That
compiled form belongs to the index it is compiled from: built on the
first batch that needs it, dropped by the index's own ``insert`` /
``remove`` — so a write costs the next batch one index's recompile, not
every index's.
"""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.core.types import Value

#: Largest |int| guaranteed exactly representable as float64.
_SAFE_INT = 2**53


class _VectorForm:
    """One index's constants as the arrays the vector kernels read.

    ``keys`` / ``bits`` are the numeric constants float64 carries
    exactly (floats, ints with ``|v| <= 2**53``), ascending, and their
    bit slots; ``all_bits`` is every stored bit, ascending — strings
    and NaN constants included, which no float64 column value can equal
    (the ``!=`` kernel sets them all).  ``exact`` is True when some
    numeric constant does *not* survive float64: comparing through the
    arrays could then put a boundary in the wrong place, so every value
    must take the exact path (:meth:`PredicateIndexSet.probe`) instead.
    """

    __slots__ = ("keys", "bits", "all_bits", "exact")

    def __init__(self, entries: Iterable[Tuple[Value, int]]) -> None:
        pairs = list(entries)
        numeric = [(v, b) for v, b in pairs if not isinstance(v, str) and v == v]
        safe = sorted(
            (float(v), b)
            for v, b in numeric
            if isinstance(v, float) or -_SAFE_INT <= v <= _SAFE_INT
        )
        self.exact = len(safe) < len(numeric)
        self.keys = np.array([k for k, _ in safe], dtype=np.float64)
        self.bits = np.array([b for _, b in safe], dtype=np.int64)
        self.all_bits = np.array(sorted(b for _, b in pairs), dtype=np.int64)


class OperatorIndex(abc.ABC):
    """value→bit index for one (attribute, operator-class) pair."""

    __slots__ = ("_vector",)

    def __init__(self) -> None:
        self._vector: Optional[_VectorForm] = None

    @abc.abstractmethod
    def insert(self, value: Value, bit: int) -> None:
        """Store a predicate constant under its bit slot."""

    @abc.abstractmethod
    def remove(self, value: Value) -> int:
        """Remove a constant; returns its bit (KeyError if absent)."""

    @abc.abstractmethod
    def satisfied(self, event_value: Value) -> Iterator[int]:
        """Yield the bit of every stored predicate *event_value* satisfies."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored predicate constants."""

    @abc.abstractmethod
    def entries(self) -> Iterator[Tuple[Value, int]]:
        """All (constant, bit) pairs, order unspecified."""

    def vector_form(self) -> _VectorForm:
        """The compiled form of :meth:`entries` the batch kernel reads.

        Compiled on first use; ``insert`` and ``remove`` drop it.
        """
        form = self._vector
        if form is None:
            form = self._vector = _VectorForm(self.entries())
        return form

    def __bool__(self) -> bool:
        return len(self) > 0
