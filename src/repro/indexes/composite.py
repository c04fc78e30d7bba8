"""Phase 1 of the matching algorithm: the predicate index set.

Owns one :class:`OperatorIndex` per (attribute, operator class) actually
used by live predicates, routes inserted/removed predicates to the right
index, and evaluates an incoming event by probing, for each event pair,
the indexes of that attribute — setting the bit of every satisfied
predicate in the shared bit vector (paper Figure 2, step 1).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.bitvector import BitVector
from repro.core.types import Event, Operator, Predicate, Value
from repro.indexes.base import OperatorIndex, _VectorForm
from repro.indexes.hash_index import EqualityHashIndex
from repro.indexes.notequal import NotEqualIndex
from repro.indexes.ordered import IndexKind, make_ordered_index


class PredicateIndexSet:
    """All per-attribute predicate indexes plus the evaluation loop."""

    __slots__ = ("_kind", "_by_attr", "_count")

    def __init__(self, kind: IndexKind = IndexKind.SORTED_ARRAY) -> None:
        self._kind = kind
        # attribute -> {operator -> index}; range ops get one index each.
        self._by_attr: Dict[str, Dict[Operator, OperatorIndex]] = {}
        self._count = 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _index_for(self, attribute: str, op: Operator, create: bool) -> Optional[OperatorIndex]:
        ops = self._by_attr.get(attribute)
        if ops is None:
            if not create:
                return None
            ops = self._by_attr[attribute] = {}
        index = ops.get(op)
        if index is None and create:
            if op is Operator.EQ:
                index = EqualityHashIndex()
            elif op is Operator.NE:
                index = NotEqualIndex()
            else:
                index = make_ordered_index(op, self._kind)
            ops[op] = index
        return index

    def insert(self, predicate: Predicate, bit: int) -> None:
        """Index a newly-interned predicate under its bit slot."""
        index = self._index_for(predicate.attribute, predicate.operator, create=True)
        index.insert(predicate.value, bit)
        self._count += 1

    def remove(self, predicate: Predicate) -> int:
        """Un-index a predicate whose last reference was released."""
        index = self._index_for(predicate.attribute, predicate.operator, create=False)
        if index is None:
            raise KeyError(f"no index holds {predicate!r}")
        bit = index.remove(predicate.value)
        self._count -= 1
        if not index:
            ops = self._by_attr[predicate.attribute]
            del ops[predicate.operator]
            if not ops:
                del self._by_attr[predicate.attribute]
        return bit

    # ------------------------------------------------------------------
    # evaluation (phase 1)
    # ------------------------------------------------------------------
    def evaluate(self, event: Event, bits: BitVector) -> int:
        """Set the bit of every predicate satisfied by *event*.

        Returns the number of satisfied predicates (for instrumentation).
        """
        return self.probe(event.items(), bits.set)

    def probe(
        self, pairs: Iterable[Tuple[str, Value]], hit: Callable[[int], None]
    ) -> int:
        """Call ``hit(bit)`` for every stored predicate some pair satisfies.

        Exact for any value: the scalar algorithm runs it over an
        event's pairs, the batch kernel over the single pairs its
        float64 columns cannot carry.  Returns the number of hits.  The
        one place that routes a value to operator classes: string
        values only probe the = and != indexes; the ordered indexes
        hold numeric constants exclusively, matching
        :meth:`Predicate.matches` semantics (ordered comparisons across
        types are false).  NaN values skip the ordered indexes the same
        way — every ordered compare with NaN is false, and a bisect
        probe with NaN would report garbage prefixes instead.
        """
        n = 0
        by_attr = self._by_attr
        for attribute, value in pairs:
            ops = by_attr.get(attribute)
            if ops is None:
                continue
            no_range = isinstance(value, str) or value != value
            for op, index in ops.items():
                if no_range and op.is_range:
                    continue
                for bit in index.satisfied(value):
                    hit(bit)
                    n += 1
        return n

    def vector_forms(
        self,
    ) -> Iterator[Tuple[str, List[Tuple[Operator, _VectorForm]]]]:
        """Per attribute, the ``(operator, compiled form)`` of each of
        its indexes — what the batch kernel runs its vector kernels
        over.  Each form is its index's own
        (:meth:`OperatorIndex.vector_form`)."""
        for attribute, ops in self._by_attr.items():
            yield attribute, [(op, index.vector_form()) for op, index in ops.items()]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def predicate_count(self) -> int:
        """Total predicates currently indexed."""
        return self._count

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attributes with at least one live predicate."""
        return tuple(self._by_attr)

    def operators_on(self, attribute: str) -> Tuple[Operator, ...]:
        """Operator classes indexed for one attribute."""
        return tuple(self._by_attr.get(attribute, ()))

    def entries(self) -> Iterator[Tuple[str, Operator, object, int]]:
        """Iterate all (attribute, operator, constant, bit) tuples."""
        for attribute, ops in self._by_attr.items():
            for op, index in ops.items():
                for value, bit in index.entries():
                    yield attribute, op, value, bit

    def __len__(self) -> int:
        return self._count
