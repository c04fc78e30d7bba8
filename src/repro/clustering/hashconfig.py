"""Schemas, probe keys, multi-attribute hash tables and the hashing
configuration (Section 3.1).

An *access predicate* is the key under which a subscription is
clustered: a conjunction of equality predicates over pairwise distinct
attributes.  Its :data:`Schema` is the attribute set; its :data:`Key` is
the value tuple in schema order — the probe key of the hash table for
that schema (:func:`key_for_schema`).

A :class:`MultiAttrHashTable` indexes, for one schema (attribute set), the
cluster lists of all access predicates over that schema; probing with an
event is one dict lookup on the tuple of the event's values for the
schema.  A :class:`HashingConfiguration` is the set of tables; matching
an event probes every table whose schema the event covers (the paper's
"a lookup per hash table of the configuration whose schema is included in
the schema of e").
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.algorithms.clusters import Cluster, ClusterList
from repro.core.errors import ClusteringError, id_repr
from repro.core.types import Event, Subscription, Value

#: A hash-table schema: attributes in sorted order.
Schema = Tuple[str, ...]
#: A hash-table probe key: the values of a schema's attributes, in order.
Key = Tuple[Value, ...]


def normalize_schema(attributes: Iterable[str]) -> Schema:
    """Sorted, duplicate-free attribute tuple."""
    return tuple(sorted(set(attributes)))


def equality_values(sub: Subscription) -> Dict[str, Value]:
    """``A(s)`` → the value of *sub*'s first equality predicate on each
    attribute: over any schema within ``A(s)``, the access predicate's
    key is these values in schema order (:func:`key_for_schema`)."""
    values: Dict[str, Value] = {}
    for p in sub.predicates:
        if p.operator.is_equality and p.attribute not in values:
            values[p.attribute] = p.value
    return values


def key_for_schema(sub: Subscription, schema: Schema) -> Key:
    """Probe-key values of *sub* for *schema* (same order as the schema).

    This is the key of the subscription's *access predicate* over the
    schema (Section 3.1): its first equality predicate per schema
    attribute, which every schema attribute must carry.
    """
    values = equality_values(sub)
    try:
        return tuple(values[a] for a in schema)
    except KeyError as missing:
        raise ClusteringError(
            f"subscription {id_repr(sub.id)} lacks an equality predicate on {missing}"
        ) from None


class MultiAttrHashTable:
    """schema → {value-tuple → ClusterList} with membership counting."""

    __slots__ = ("schema", "_entries", "_count")

    def __init__(self, schema: Schema) -> None:
        if not schema or list(schema) != sorted(set(schema)):
            raise ValueError(f"schema must be sorted and duplicate-free: {schema!r}")
        self.schema = schema
        self._entries: Dict[Key, ClusterList] = {}
        self._count = 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def add(self, handle: int, key: Key, bit_refs: List[int]) -> Cluster:
        """Insert a subscription under its probe key; returns its home."""
        lst = self._entries.get(key)
        if lst is None:
            lst = self._entries[key] = ClusterList(key=(self.schema, key))
        home = lst.add(handle, bit_refs)
        self._count += 1
        return home

    def remove(self, home: Cluster, column: int) -> Optional[int]:
        """Remove *home*'s member at *column*; returns the handle moved there."""
        lst = home.owner
        key = lst.key[1]
        if self._entries.get(key) is not lst:
            raise ClusteringError(f"{home!r} is not stored in table {self.schema!r}")
        moved = lst.remove(home, column)
        self._count -= 1
        if not lst:
            del self._entries[key]
        return moved

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def probe(self, event: Event) -> Optional[ClusterList]:
        """Cluster list of the event's value combination, if any.

        Returns None when the event lacks a schema attribute (μ filter)
        or no subscription carries this value combination.
        """
        position, values = event.shape.position, event.values
        key: List[Any] = []
        for attribute in self.schema:
            pos = position(attribute)
            if pos is None:
                return None
            key.append(values[pos])
        return self._entries.get(tuple(key))

    def entry(self, key: Key) -> Optional[ClusterList]:
        """Direct entry lookup (for maintenance walks)."""
        return self._entries.get(key)

    def entries(self) -> Iterator[Tuple[Key, ClusterList]]:
        """All (key, cluster list) pairs."""
        return iter(self._entries.items())

    @property
    def entry_count(self) -> int:
        """Number of distinct access predicates (hash entries)."""
        return len(self._entries)

    def __len__(self) -> int:
        """Total subscriptions stored (the paper's |H|)."""
        return self._count

    def memory_bytes(self) -> int:
        """Approximate resident bytes: dict overhead + clusters."""
        n = 64 + 48 * len(self._entries)
        for lst in self._entries.values():
            n += lst.memory_bytes()
        return n

    def __repr__(self) -> str:
        return (
            f"MultiAttrHashTable(schema={'/'.join(self.schema)}, "
            f"entries={len(self._entries)}, subs={self._count})"
        )


class HashingConfiguration:
    """The set of multi-attribute hash tables currently in force."""

    __slots__ = ("_tables", "_version")

    def __init__(self) -> None:
        self._tables: Dict[Schema, MultiAttrHashTable] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Moves whenever a table is created or dropped.

        Anything derived from *which schemas exist* (a subscription's
        eligible tables, the cheapest of them) stays valid while this
        stands still.
        """
        return self._version

    def table(self, schema: Schema) -> Optional[MultiAttrHashTable]:
        """The table for *schema*, or None."""
        return self._tables.get(schema)

    def entry(self, schema: Schema, key: Key) -> Optional[ClusterList]:
        """The cluster list of the access predicate (*schema*, *key*), or None."""
        table = self._tables.get(schema)
        return None if table is None else table.entry(key)

    def ensure_table(self, schema: Schema) -> MultiAttrHashTable:
        """Get-or-create the table for *schema*."""
        tbl = self._tables.get(schema)
        if tbl is None:
            tbl = self._tables[schema] = MultiAttrHashTable(schema)
            self._version += 1
        return tbl

    def drop_table(self, schema: Schema) -> MultiAttrHashTable:
        """Remove and return a table (KeyError if absent)."""
        tbl = self._tables.pop(schema)
        self._version += 1
        return tbl

    def schemas(self) -> Tuple[Schema, ...]:
        """All table schemas (insertion order)."""
        return tuple(self._tables)

    def tables(self) -> Iterator[MultiAttrHashTable]:
        """All tables."""
        return iter(self._tables.values())

    def __contains__(self, schema: Schema) -> bool:
        return schema in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def eligible_schemas(self, eq_attributes: frozenset) -> List[Schema]:
        """Schemas usable by a subscription with equality attrs *eq_attributes*."""
        return [s for s in self._tables if eq_attributes.issuperset(s)]

    def memory_bytes(self) -> int:
        """Approximate resident bytes across tables."""
        return sum(t.memory_bytes() for t in self._tables.values())

    def __repr__(self) -> str:
        schemas = ["/".join(s) for s in self._tables]
        return f"HashingConfiguration({schemas})"
