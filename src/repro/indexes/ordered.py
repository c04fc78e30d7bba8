"""Ordered indexes for the four range operators ``< <= >= >``.

For one attribute and one operator, the index stores the predicate
constants in order; evaluating an event value reduces to reporting a
prefix or suffix of that order:

=========  ============================  =================
operator   predicate is satisfied when   reported range
=========  ============================  =================
``<``      event_value <  c              constants > event
``<=``     event_value <= c              constants >= event
``>=``     event_value >= c              constants <= event
``>``      event_value >  c              constants < event
=========  ============================  =================

Two interchangeable implementations are provided: a sorted pair of
parallel arrays (bisect; O(n) updates, fastest scans) and the paper's
"simple B-Tree" (logarithmic updates).  Both are exercised by the same
test suite; the matcher picks via ``IndexKind``.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right, insort
from typing import Iterator, List, Tuple

from repro.core.errors import InvalidPredicateError, id_repr
from repro.core.types import Operator, Value
from repro.indexes.base import OperatorIndex
from repro.indexes.btree import BTree


class IndexKind(enum.Enum):
    """Which backing structure range-operator indexes use."""

    SORTED_ARRAY = "sorted-array"
    BTREE = "btree"


def _require_range(op: Operator) -> None:
    if not op.is_range:
        raise InvalidPredicateError(f"ordered index cannot store operator {op.value!r}")


class SortedArrayOrderedIndex(OperatorIndex):
    """Parallel sorted arrays of (constant, bit) for one range operator."""

    __slots__ = ("_op", "_values", "_bits")

    def __init__(self, op: Operator) -> None:
        _require_range(op)
        super().__init__()
        self._op = op
        self._values: List[Value] = []
        self._bits: List[int] = []

    def insert(self, value: Value, bit: int) -> None:
        i = bisect_left(self._values, value)
        if i < len(self._values) and self._values[i] == value:
            raise KeyError(f"constant {id_repr(value)} already indexed")
        self._values.insert(i, value)
        self._bits.insert(i, bit)
        self._vector = None

    def remove(self, value: Value) -> int:
        i = bisect_left(self._values, value)
        if i >= len(self._values) or self._values[i] != value:
            raise KeyError(value)
        self._vector = None
        self._values.pop(i)
        return self._bits.pop(i)

    def satisfied(self, event_value: Value) -> Iterator[int]:
        op = self._op
        values, bits = self._values, self._bits
        if op is Operator.LT:  # constants strictly greater
            start = bisect_right(values, event_value)
            yield from bits[start:]
        elif op is Operator.LE:  # constants >= event value
            start = bisect_left(values, event_value)
            yield from bits[start:]
        elif op is Operator.GE:  # constants <= event value
            end = bisect_right(values, event_value)
            yield from bits[:end]
        else:  # GT: constants strictly less
            end = bisect_left(values, event_value)
            yield from bits[:end]

    def __len__(self) -> int:
        return len(self._values)

    def entries(self) -> Iterator[Tuple[Value, int]]:
        return iter(zip(self._values, self._bits))


class BTreeOrderedIndex(OperatorIndex):
    """B-tree-backed range-operator index (paper's stated structure)."""

    __slots__ = ("_op", "_tree")

    def __init__(self, op: Operator, order: int = 16) -> None:
        _require_range(op)
        super().__init__()
        self._op = op
        self._tree = BTree(order=order)

    def insert(self, value: Value, bit: int) -> None:
        self._tree.insert(value, bit)
        self._vector = None

    def remove(self, value: Value) -> int:
        self._vector = None
        return self._tree.delete(value)

    def satisfied(self, event_value: Value) -> Iterator[int]:
        op = self._op
        if op is Operator.LT:
            items = self._tree.items_greater(event_value, inclusive=False)
        elif op is Operator.LE:
            items = self._tree.items_greater(event_value, inclusive=True)
        elif op is Operator.GE:
            items = self._tree.items_less(event_value, inclusive=True)
        else:
            items = self._tree.items_less(event_value, inclusive=False)
        for _value, bit in items:
            yield bit

    def __len__(self) -> int:
        return len(self._tree)

    def entries(self) -> Iterator[Tuple[Value, int]]:
        return self._tree.items()


def make_ordered_index(op: Operator, kind: IndexKind = IndexKind.SORTED_ARRAY) -> OperatorIndex:
    """Factory selecting the backing structure for a range operator."""
    if kind is IndexKind.BTREE:
        return BTreeOrderedIndex(op)
    return SortedArrayOrderedIndex(op)
