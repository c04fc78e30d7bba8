"""Index for ``!=`` predicates.

A ``!=`` predicate is satisfied by *every* event value except its own
constant, so :meth:`satisfied` yields all stored bits minus (at most) one.
The cost is O(#distinct ``!=`` constants on the attribute) per event pair
— unavoidable, since that many predicates genuinely become true.  The
evaluation loop exploits the single-exclusion structure instead of
testing each constant.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.core.errors import id_repr
from repro.core.types import Value
from repro.indexes.base import OperatorIndex


class NotEqualIndex(OperatorIndex):
    """constant → bit dict for ``!=`` predicates on one attribute."""

    __slots__ = ("_bits",)

    def __init__(self) -> None:
        super().__init__()
        self._bits: Dict[Value, int] = {}

    def insert(self, value: Value, bit: int) -> None:
        if value in self._bits:
            raise KeyError(f"!= constant {id_repr(value)} already indexed")
        self._bits[value] = bit
        self._vector = None

    def remove(self, value: Value) -> int:
        self._vector = None
        return self._bits.pop(value)

    def satisfied(self, event_value: Value) -> Iterator[int]:
        excluded = self._bits.get(event_value)
        if excluded is None:
            yield from self._bits.values()
        else:
            for value, bit in self._bits.items():
                if bit != excluded:
                    yield bit

    def __len__(self) -> int:
        return len(self._bits)

    def entries(self) -> Iterator[Tuple[Value, int]]:
        return iter(self._bits.items())
