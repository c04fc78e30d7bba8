"""Base matcher for multi-attribute schema-based clustering (Section 3).

Subscriptions are placed in cluster lists reached through the tables of a
:class:`HashingConfiguration`; matching an event probes every table whose
schema the event covers, then checks only the members of the probed
cluster lists.  The static and dynamic matchers differ solely in *how the
set of tables evolves*; placement, probing and removal live here.

Both use the vectorized (prefetch-analogue) check kernel — in the paper
"Both algorithms are implemented with prefetching."
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.algorithms.base import TwoPhaseMatcher
from repro.algorithms.clusters import Cluster, ClusterList, Homes
from repro.clustering.hashconfig import HashingConfiguration, Key, Schema
from repro.clustering.statistics import Statistics
from repro.core.errors import ClusteringError, id_repr
from repro.core.types import Event, Operator, Subscription
from repro.indexes.ordered import IndexKind

_EQ = Operator.EQ


def _equality_attributes(sub: Subscription) -> List[Optional[str]]:
    """Each predicate's attribute if it is an equality, else None — the
    one pass over a subscription's predicates that placement makes."""
    return [p.attribute if p.operator is _EQ else None for p in sub.predicates]


class ClusteredMatcher(TwoPhaseMatcher):
    """Phase-2 storage behind multi-attribute hash tables."""

    name = "clustered"
    vectorized = True

    def __init__(
        self,
        statistics: Statistics,
        index_kind: IndexKind = IndexKind.SORTED_ARRAY,
        vectorized: bool = True,
    ) -> None:
        super().__init__(index_kind)
        # Check kernel: vectorized (prefetch-analogue, default) or scalar.
        # The scalar kernel is the regime where per-subscription work
        # dominates fixed per-table overhead — useful for studying
        # clustering effects at laptop-scale populations.
        self.vectorized = vectorized
        self.statistics = statistics
        self.config = HashingConfiguration()
        # Keyed like a table entry — (schema, probe key) — with no schema.
        self._universal = ClusterList(key=(None, ()))
        # handle -> the cluster (and column) that holds it; schema, probe
        # key and residual size are read off the cluster and its list.
        self._home = Homes()
        # Every table's schema, cheapest first, and the table-set and
        # statistics versions that order was computed at.
        self._ranked: List[Schema] = []
        self._ranked_tables = -1
        self._ranked_statistics: Any = None

    # ------------------------------------------------------------------
    # schema choice (subclass hook)
    # ------------------------------------------------------------------
    def _choose_schema(self, sub: Subscription, eq_attrs: Set[str]) -> Optional[Schema]:
        """Schema to cluster *sub* (equality attributes *eq_attrs*)
        under; None → universal list.

        The cheapest *existing* table eligible for *eq_attrs*: the first
        schema of :meth:`_ranking` they cover.
        """
        if not eq_attrs:
            return None
        for schema in self._ranking():
            if eq_attrs.issuperset(schema):
                return schema
        return None

    def _ranking(self) -> List[Schema]:
        """Every table's schema, cheapest first by schema-level expected ν.

        Which table is cheaper than which depends on the tables and the
        statistics, never on the subscription, so the tables are ranked
        once per version of those two (on every call for a statistics
        provider without a ``version``).
        """
        statistics_version = getattr(self.statistics, "version", None)
        if (
            statistics_version is None
            or statistics_version != self._ranked_statistics
            or self.config.version != self._ranked_tables
        ):
            # Schema-level expected ν, quantized to log-scale buckets:
            # tables whose estimated cost differs only by sampling noise
            # must compare equal, so the lexical tie-break concentrates
            # same-schema subscriptions into one table — without
            # concentration no cluster ever crosses the maintenance
            # thresholds and the engine cannot learn which
            # multi-attribute tables to build.
            self._ranked = sorted(
                self.config.schemas(), key=lambda s: (self._nu_bucket(s), s)
            )
            self._ranked_tables = self.config.version
            self._ranked_statistics = statistics_version
        return self._ranked

    def _nu_bucket(self, schema: Schema) -> int:
        """Expected ν of *schema*, bucketed by factor-e steps."""
        nu = max(1e-300, self.statistics.expected_nu_schema(schema))
        return math.floor(math.log(nu))

    # ------------------------------------------------------------------
    # placement plumbing
    # ------------------------------------------------------------------
    def _place(self, handle: int, sub: Subscription, bits: List[int]) -> Cluster:
        """Choose the schema, lay the subscription out under it and put it
        there.  The decision depends on the equality attributes (the
        schema) and the predicates in order (probe key and residual) —
        nothing else of the subscription."""
        eq_of = _equality_attributes(sub)
        if None in eq_of:
            eq_attrs = {attribute for attribute in eq_of if attribute is not None}
        else:
            eq_attrs = set(eq_of)
        schema = self._choose_schema(sub, eq_attrs)
        key, refs = self._layout(sub, bits, eq_of, schema)
        return self._put(handle, schema, key, refs)

    @staticmethod
    def _layout(
        sub: Subscription, bits: List[int], eq_of: List[Optional[str]], schema: Optional[Schema]
    ) -> Tuple[Key, List[int]]:
        """Probe key and residual refs of *sub* under *schema*.

        *bits* and *eq_of* are aligned with ``sub.predicates``: each
        predicate's bit, and its attribute if it is an equality (else
        None).  The key is the value of the first equality predicate on
        each schema attribute; the residual is every other bit, equality
        first so the scalar kernel short-circuits on them (Section
        6.2.1).  Raises :class:`ClusteringError`, changing nothing, when
        *sub* lacks an equality predicate on a schema attribute.
        """
        predicates = sub.predicates
        key: List[Any] = []
        taken: List[int] = []
        for attribute in schema or ():
            try:
                i = eq_of.index(attribute)
            except ValueError:
                missing = [a for a in schema if a not in eq_of]
                raise ClusteringError(
                    f"subscription {id_repr(sub.id)} lacks equality predicates on {missing}"
                ) from None
            key.append(predicates[i].value)
            taken.append(i)
        if None in eq_of:
            refs = [
                bit
                for i, (bit, attribute) in enumerate(zip(bits, eq_of))
                if attribute is not None and i not in taken
            ]
            refs += [bit for bit, attribute in zip(bits, eq_of) if attribute is None]
        else:
            # All equalities: the residual is the bits in order, less the key's.
            refs = bits.copy()
            for i in sorted(taken, reverse=True):
                del refs[i]
        return tuple(key), refs

    def _put(self, handle: int, schema: Optional[Schema], key: Key, refs: List[int]) -> Cluster:
        """Append *handle* under *schema*'s table (created on demand) or
        the universal list; returns its home cluster."""
        if schema is None:
            home = self._universal.add(handle, refs)
        else:
            home = self.config.ensure_table(schema).add(handle, key, refs)
        self._home.settle(handle, home)
        return home

    def _displace(self, handle: int, sub: Subscription) -> None:
        schema = self._home[handle].owner.key[0]
        holder = self._universal if schema is None else self.config.table(schema)
        if holder is None:
            raise ClusteringError(f"home cluster references dropped table {schema!r}")
        self._home.evict(handle, holder)

    def move_subscription(self, sub_id: Any, new_schema: Optional[Schema]) -> None:
        """Re-cluster one live subscription under another schema.

        Predicates stay interned (the subscription itself is unchanged);
        only phase-2 placement moves.  The new key and residual are
        derived before the subscription leaves its home, so a schema it
        lacks an equality predicate for raises and moves nothing.
        """
        handle = self._subs.handle_of(sub_id)
        sub = self._subs.get(handle)
        bits = [self.registry.slot(p) for p in sub.predicates]
        key, refs = self._layout(sub, bits, _equality_attributes(sub), new_schema)
        self._displace(handle, sub)
        self._put(handle, new_schema, key, refs)

    def placement_of(self, sub_id: Any) -> Tuple[Optional[Schema], Key, int]:
        """(schema, key, residual size) of a live subscription."""
        home = self._home[self._subs.handle_of(sub_id)]
        return (*home.owner.key, home.size)

    # ------------------------------------------------------------------
    # phase 2
    # ------------------------------------------------------------------
    def _match_phase2(self, event: Event) -> List[int]:
        out: List[int] = []
        bits = self.bits.array
        reads = 0
        span = self._active_span
        clusters_visited = 0
        tables_probed = 0
        if len(self._universal):
            checked = self._universal.match(bits, out, self.vectorized)
            reads += checked
            if span is not None:
                clusters_visited += self._universal.cluster_count
                span.child(
                    "universal",
                    clusters=self._universal.cluster_count,
                    checked=checked,
                )
        for table in self.config.tables():
            if not len(table):
                continue  # drained singletons keep their slot but hold nobody
            lst = table.probe(event)
            if lst is not None:
                checked = lst.match(bits, out, self.vectorized)
                reads += checked
                if span is not None:
                    tables_probed += 1
                    clusters_visited += lst.cluster_count
                    span.child(
                        "table",
                        schema="/".join(table.schema),
                        clusters=lst.cluster_count,
                        checked=checked,
                    )
        self.counters["subscription_checks"] += reads
        if span is not None:
            span.add(tables_probed=tables_probed, clusters_visited=clusters_visited)
        return out

    def _match_phase2_batch(
        self, events: Sequence[Event], truth: np.ndarray
    ) -> List[List[int]]:
        """Row-grouped table probing: one gather per probed entry.

        For each table, batch events are bucketed by their probe key so
        a cluster list reached by many events runs a single columnar
        kernel over all their truth rows.
        """
        out: List[List[int]] = [[] for _ in events]
        reads = 0
        if len(self._universal):
            all_rows = np.arange(len(events), dtype=np.intp)
            reads += self._universal.match_rows(truth, all_rows, out)
        shapes = dict.fromkeys(event.shape for event in events)
        for table in self.config.tables():
            if not len(table):
                continue
            # The schema's positions are resolved once per event shape.
            positions_of = {shape: shape.positions(table.schema) for shape in shapes}
            rows_of: Dict[Tuple, List[int]] = {}
            for row, event in enumerate(events):
                positions = positions_of[event.shape]
                if positions is not None:
                    values = event.values
                    key = tuple([values[pos] for pos in positions])
                    rows_of.setdefault(key, []).append(row)
            for key, rows in rows_of.items():
                lst = table.entry(key)
                if lst is not None:
                    reads += lst.match_rows(
                        truth, np.asarray(rows, dtype=np.intp), out
                    )
        self.counters["subscription_checks"] += reads
        return out

    # ------------------------------------------------------------------
    # debugging
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        super().check_invariants()
        lists = [self._universal]
        for table in self.config.tables():
            for key, lst in table.entries():
                assert lst, "empty entry retained"
                assert lst.key == (table.schema, key), "entry filed under another key"
                lists.append(lst)
        # Every handle's home is the cluster its table entry reaches, and
        # that cluster fits the subscription.
        homes = self._home.members(lists, (handle for handle, _sub in self._subs.items()))
        for handle, cluster in homes.items():
            sub, schema = self._subs.get(handle), cluster.owner.key[0] or ()
            assert sub.equality_attributes.issuperset(schema)
            assert cluster.size == sub.size - len(schema), (
                f"residual drift for {id_repr(sub.id)}"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def table_sizes(self) -> Dict[Schema, int]:
        """Subscription count per table (the paper's |H| values)."""
        return {t.schema: len(t) for t in self.config.tables()}

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base.update(
            tables={"/".join(t.schema): len(t) for t in self.config.tables()},
            universal_members=len(self._universal),
        )
        return base
