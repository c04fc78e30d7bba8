"""Hash index for equality predicates (paper Section 2.3).

For one attribute, maps each distinct equality constant to its bit slot.
An event pair satisfies at most one stored equality predicate, so
:meth:`satisfied` is a single dict probe — this is what makes the
predicate phase cheap even with millions of subscriptions sharing a few
thousand distinct predicates.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.core.errors import id_repr
from repro.core.types import Value
from repro.indexes.base import OperatorIndex


class EqualityHashIndex(OperatorIndex):
    """constant → bit dict for ``=`` predicates on one attribute."""

    __slots__ = ("_bits",)

    def __init__(self) -> None:
        super().__init__()
        self._bits: Dict[Value, int] = {}

    def insert(self, value: Value, bit: int) -> None:
        if value in self._bits:
            raise KeyError(f"equality constant {id_repr(value)} already indexed")
        self._bits[value] = bit
        self._vector = None

    def remove(self, value: Value) -> int:
        self._vector = None
        return self._bits.pop(value)

    def satisfied(self, event_value: Value) -> Iterator[int]:
        bit = self._bits.get(event_value)
        if bit is not None:
            yield bit

    def __len__(self) -> int:
        return len(self._bits)

    def entries(self) -> Iterator[Tuple[Value, int]]:
        return iter(self._bits.items())
