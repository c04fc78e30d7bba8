"""The dynamic algorithm: incrementally self-optimizing clustering (§4).

Starts from the natural clustering (singleton tables, created lazily as
equality attributes appear) and adapts online:

* every insert lands in the cheapest *existing* eligible table;
* when a cluster entry's benefit margin ``BM = ν(p)·|entry|`` exceeds
  ``BMmax``, its subscriptions are redistributed to better existing
  tables, and subscriptions that cannot improve vote for *potential*
  multi-attribute tables;
* a potential table is created once its accumulated benefit reaches
  ``Bcreate``; its candidate entries are redistributed into it;
* a (non-singleton) table whose population falls below ``Bdelete`` is
  dropped and its members redistributed;
* all ν estimates come from an online :class:`EventStatistics`, so the
  same machinery adapts to value skew (Figure 4(b)) and to schema drift
  (Figure 4(a)).
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.algorithms.clusters import ClusterList
from repro.clustering.hashconfig import Key, Schema, equality_values
from repro.clustering.dynamic import DynamicParams, EntryId, PotentialTableTracker
from repro.clustering.statistics import EventStatistics, Statistics
from repro.core.types import Event, Subscription, Value
from repro.indexes.ordered import IndexKind
from repro.matchers.clustered import ClusteredMatcher


class DynamicMatcher(ClusteredMatcher):
    """Self-adapting multi-attribute clustering."""

    name = "dynamic"

    def __init__(
        self,
        statistics: Optional[Statistics] = None,
        params: DynamicParams = DynamicParams(),
        index_kind: IndexKind = IndexKind.SORTED_ARRAY,
        observe_events: bool = True,
        observe_every: int = 4,
        vectorized: bool = True,
    ) -> None:
        if statistics is None:
            statistics = EventStatistics()
        super().__init__(statistics, index_kind, vectorized)
        self.params = params
        self._tracker = PotentialTableTracker()
        self._ops = 0
        # Handled entry -> its BM when last handled.  Like the ν memo
        # below it only ever holds live entries (see _displace).
        self._last_handled: Dict[EntryId, float] = {}
        # Entry read by an insert or a sweep -> ν of its access
        # predicate, and the statistics version those were read at.
        self._entry_nus: Dict[EntryId, float] = {}
        self._entry_nus_version: Any = None
        # Attributes that have their singleton table, and the table-set
        # version that was read at.
        self._singleton_attrs: Set[str] = set()
        self._singletons_version = -1
        self._observe = observe_events and isinstance(statistics, EventStatistics)
        # Statistics are estimates; sampling every k-th event keeps the
        # estimator current at a fraction of the census cost.
        self._observe_every = max(1, observe_every)
        self._event_seq = 0
        self._frozen = False
        # min_improvement as a log-bucket gap: a move/potential-table vote
        # requires the subscription's ν to drop by at least this many
        # factor-e steps.  Online ν estimates for individual values are
        # noisy (few observations per value); comparing quantized buckets
        # keeps noise from causing move thrash while real structural
        # improvements (singleton → pair ≈ e^3.5) pass easily.
        self._gap = max(1, round(-math.log(params.min_improvement)))
        #: Maintenance counters exposed through stats().
        self.maintenance: Dict[str, int] = {
            "moves": 0,
            "tables_created": 0,
            "tables_dropped": 0,
            "distributions": 0,
            "sweeps": 0,
        }

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _bind_metrics(self) -> None:
        super()._bind_metrics()
        labels = {"engine": self.name, "shard": self.metrics_shard}
        maint = self.metrics.counter(
            "repro_dynamic_maintenance_total",
            "Maintenance actions of the dynamic clustering algorithm, by kind.",
            ("engine", "shard", "kind"),
        )
        for kind in self.maintenance:
            maint.read(self, lambda k=kind: self.maintenance[k], kind=kind, **labels)
        thresholds = self.metrics.counter(
            "repro_dynamic_threshold_crossings_total",
            "Times a Section-4 maintenance threshold (BMmax, Bcreate, Bdelete) fired.",
            ("engine", "shard", "threshold"),
        )
        self._m_thresholds = {
            name: thresholds.labels(threshold=name, **labels)
            for name in ("bm_max", "b_create", "b_delete")
        }
        self._tracker.on_ready = lambda schema: self._note_threshold("b_create")

    def _note_threshold(self, which: str) -> None:
        """Record one threshold crossing in the registry."""
        if self.metrics.enabled:
            self._m_thresholds[which].inc()

    # ------------------------------------------------------------------
    # schema choice: cheapest existing table; singletons created lazily
    # ------------------------------------------------------------------
    def _choose_schema(self, sub: Subscription, eq_attrs: Set[str]) -> Optional[Schema]:
        if not eq_attrs:
            return None
        config = self.config
        if self._singletons_version != config.version:
            self._singleton_attrs = {s[0] for s in config.schemas() if len(s) == 1}
            self._singletons_version = config.version
        if not eq_attrs <= self._singleton_attrs:
            for attribute in eq_attrs:
                config.ensure_table((attribute,))
        # Then the base class's quantized schema-level choice (see
        # ClusteredMatcher._ranking for why value-specific estimates
        # must not drive insertion), scanned here.
        for schema in self._ranking():
            if eq_attrs.issuperset(schema):
                return schema
        return None

    # ------------------------------------------------------------------
    # operation hooks
    # ------------------------------------------------------------------
    def add(self, subscription: Subscription) -> None:
        lst = self._insert(subscription).owner
        # ν ≤ 1, so BM = ν·|entry| can only exceed BMmax when the entry
        # itself does: an insert into a small entry costs two comparisons.
        if not self._frozen and len(lst) > self.params.bm_max and lst is not self._universal:
            self._touch_entry(lst)
        self._ops += 1
        if not self._ops % self.params.maintenance_interval and not self._frozen:
            self.sweep()

    def remove(self, sub_id: Any) -> Subscription:
        sub = super().remove(sub_id)
        self._tracker.unmark(sub_id)
        self._tick()
        return sub

    def match(self, event: Event) -> List[Any]:
        self._event_seq += 1
        if self._observe and self._event_seq % self._observe_every == 0:
            self.statistics.observe(event)
        result = super().match(event)
        self._tick()
        return result

    def match_batch(self, events: Sequence[Event]) -> List[List[Any]]:
        # A ColumnarBatch becomes its events here: observation samples
        # Event objects, and phase 2 probes clusters with them anyway.
        events = list(events)
        if len(events) == 1:
            # The base class takes (and counts) the scalar path through
            # self.match, which does its own observation and maintenance
            # bookkeeping per event.
            return super().match_batch(events)
        # Observation and maintenance never change match results (they
        # only re-cluster), so sampling every k-th event up front and
        # ticking after the kernel is result-equivalent to the scalar
        # interleaving while keeping the estimator cadence identical.
        if self._observe:
            for event in events:
                self._event_seq += 1
                if self._event_seq % self._observe_every == 0:
                    self.statistics.observe(event)
        else:
            self._event_seq += len(events)
        result = super().match_batch(events)
        self._tick(len(events))
        return result

    def _tick(self, n: int = 1) -> None:
        """Count *n* operations; sweep once per interval boundary crossed."""
        interval = self.params.maintenance_interval
        due = (self._ops + n) // interval - self._ops // interval
        self._ops += n
        if not self._frozen:
            for _ in range(due):
                self.sweep()

    def _displace(self, handle: int, sub: Subscription) -> None:
        lst = self._home[handle].owner
        super()._displace(handle, sub)
        # What is remembered about an entry dies with it: a re-created
        # entry starts from scratch, and drifting keys leave nothing behind.
        if not lst:
            self._last_handled.pop(lst.key, None)
            self._entry_nus.pop(lst.key, None)

    # ------------------------------------------------------------------
    # the "no change" strategy of Figure 4
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Stop adapting: keep the current table configuration forever.

        Inserts still use the cheapest existing table (and still create
        missing *singleton* tables — those are the free natural
        clustering the paper's predicate indexes imply), but no
        redistribution, creation of multi-attribute tables, or deletion
        happens.  This is the Figure 4 "no change" strategy.
        """
        self._frozen = True

    def unfreeze(self) -> None:
        """Resume adaptive maintenance."""
        self._frozen = False

    @property
    def frozen(self) -> bool:
        """Is maintenance disabled?"""
        return self._frozen

    # ------------------------------------------------------------------
    # benefit-margin handling
    # ------------------------------------------------------------------
    def _entry_nu(self, schema: Schema, key: Key) -> float:
        return self.statistics.nu_of_pairs(zip(schema, key))

    def benefit_margin(self, schema: Schema, key: Key) -> float:
        """``BM`` of one entry: expected checks per event it causes.

        This is the paper's *first approximation* ``BM(c) ≈ ν(p_c)·|c|``,
        used by the maintenance loop; :meth:`exact_benefit_margin` has
        the exact form.
        """
        lst = self.config.entry(schema, key)
        return 0.0 if lst is None else self._entry_nu(schema, key) * len(lst)

    def exact_benefit_margin(self, schema: Schema, key: Key) -> float:
        """The paper's exact ``BM(c) = Σ_{s∈c} (ν(p_c) − ν(P(s)))``.

        The checks that could still be saved if every member were
        clustered under its *maximal* equality conjunction.  More
        expensive than the approximation (touches every member), so the
        maintenance loop uses :meth:`benefit_margin`; this exists for
        inspection and for validating the approximation in tests.
        """
        lst = self.config.entry(schema, key)
        if lst is None:
            return 0.0
        entry_nu = self._entry_nu(schema, key)
        total = 0.0
        for sub in map(self._subs.get, lst.handles()):
            full = self.statistics.nu_of_pairs(
                (p.attribute, p.value) for p in sub.equality_predicates()
            )
            total += max(0.0, entry_nu - full)
        return total

    def _touch_entry(self, lst: ClusterList) -> None:
        """An insert landed in *lst*, an entry larger than ``BMmax``:
        handle it if its BM is now excessive."""
        entry: EntryId = lst.key  # the list's own (schema, key): no new tuple kept
        nus = self._entry_nus
        version = getattr(self.statistics, "version", None)
        if version is None or version != self._entry_nus_version:
            nus = self._remembered_nus()
        nu = nus.get(entry)
        if nu is None:
            nu = nus[entry] = self._entry_nu(*entry)
        if nu * len(lst) > self.params.bm_max:
            self._maybe_handle_entry(lst, nu)

    def _remembered_nus(self) -> Dict[EntryId, float]:
        """``_entry_nus``, emptied first if the statistics moved since it
        was filled (always, for a provider without a ``version``).

        ν of an entry moves only with the statistics, so between two
        events every insert into the same entry and every sweep reads it
        from here (a load asks once per entry, not once per subscription
        or per sweep): the same function of the same inputs, so the same
        float.
        """
        version = getattr(self.statistics, "version", None)
        if version is None or version != self._entry_nus_version:
            self._entry_nus.clear()
            self._entry_nus_version = version
        return self._entry_nus

    def _maybe_handle_entry(self, lst: ClusterList, nu: float) -> None:
        """Distribute an entry when its BM is excessive and still growing.

        An entry whose residents cannot improve yet keeps an excessive
        BM after distribution; re-handling it on every touch would be
        quadratic, so the BM at the last handling is recorded and the
        entry is reconsidered only after growing past it by
        ``growth_factor`` (covers both population growth and ν growth
        under event skew).
        """
        bm = nu * len(lst)
        if bm <= self.params.bm_max:
            return
        entry: EntryId = lst.key
        last = self._last_handled.get(entry, 0.0)
        if last and bm < last * self.params.growth_factor:
            return
        self._note_threshold("bm_max")
        self._distribute_entry(*entry)
        if lst:  # not emptied by the distribution
            self._last_handled[entry] = nu * len(lst)

    def _distribute_entry(self, schema: Schema, key: Key) -> None:
        """The paper's ``Cluster_distribute`` for one oversized entry."""
        params = self.params
        lst = self.config.entry(schema, key)
        if lst is None:
            return
        self.maintenance["distributions"] += 1
        entry: EntryId = (schema, key)
        entry_nu = self._entry_nu(schema, key)
        stayers: List[Tuple[Subscription, Dict[str, Value]]] = []
        for sub in map(self._subs.get, lst.handles()):
            values = equality_values(sub)
            eligible = self.config.eligible_schemas(frozenset(values))
            best_schema = None
            best_bucket = self._sub_nu_bucket(values, schema)
            for cand in eligible:
                if cand == schema:
                    continue
                bucket = self._sub_nu_bucket(values, cand)
                if bucket <= best_bucket - self._gap:
                    best_schema, best_bucket = cand, bucket
            if best_schema is not None:
                self.move_subscription(sub.id, best_schema)
                if self._tracker.is_marked(sub.id):
                    self._tracker.reset_votes(sub.equality_attributes)
                    self._tracker.unmark(sub.id)
                self.maintenance["moves"] += 1
            else:
                stayers.append((sub, values))
        # Redistribution not enough: vote for potential tables.
        if entry_nu * len(stayers) > params.bm_max:
            for sub, values in stayers:
                if self._tracker.is_marked(sub.id):
                    continue
                potentials = self._potential_schemas(values, entry_nu)
                self._tracker.note(sub.id, potentials, entry)
            for new_schema in self._tracker.ready(params.b_create):
                self._create_table(new_schema)

    def _sub_nu_bucket(self, values: Dict[str, Value], schema: Schema) -> int:
        """Value-specific ν over *schema*, log-bucketed, of the member whose
        :func:`equality_values` (one pass per member) are *values*."""
        nu = self.statistics.nu_of_pairs((a, values[a]) for a in schema)
        return math.floor(math.log(max(1e-300, nu)))

    def _potential_schemas(self, values: Dict[str, Value], entry_nu: float) -> List[Schema]:
        """Uncreated schemas over A(s) (*values*' keys) that would clearly beat the entry."""
        params = self.params
        attrs = sorted(values)
        entry_bucket = math.floor(math.log(max(1e-300, entry_nu)))
        out: List[Schema] = []
        for k in range(2, min(len(attrs), params.max_schema_size) + 1):
            for combo in itertools.combinations(attrs, k):
                if combo in self.config:
                    continue
                if self._sub_nu_bucket(values, combo) <= entry_bucket - self._gap:
                    out.append(combo)
        return out

    # ------------------------------------------------------------------
    # table creation / deletion
    # ------------------------------------------------------------------
    def _create_table(self, schema: Schema) -> None:
        """Create a potential table and pull in its candidates' members."""
        candidates = self._tracker.candidates_of(schema)
        self._tracker.clear_schema(schema)
        if schema in self.config:
            return
        self.config.ensure_table(schema)
        self.maintenance["tables_created"] += 1
        for src_schema, src_key in candidates:
            lst = self.config.entry(src_schema, src_key)
            if lst is None:
                continue
            for sub in map(self._subs.get, lst.handles()):
                values = equality_values(sub)
                if not all(a in values for a in schema):
                    continue
                cur_bucket = self._sub_nu_bucket(values, src_schema)
                new_bucket = self._sub_nu_bucket(values, schema)
                if new_bucket <= cur_bucket - self._gap:
                    self.move_subscription(sub.id, schema)
                    self._tracker.unmark(sub.id)
                    self.maintenance["moves"] += 1

    def _drop_table(self, schema: Schema) -> None:
        """Delete a table, redistributing its members to the best rest."""
        table = self.config.table(schema)
        if table is None:
            return
        members = [handle for _key, lst in table.entries() for handle in lst.handles()]
        for sub in map(self._subs.get, members):
            eligible = self.config.eligible_schemas(sub.equality_attributes)
            target = min(
                (s for s in eligible if s != schema),
                key=lambda s: (self._nu_bucket(s), s),
                default=None,
            )
            self.move_subscription(sub.id, target)
            self.maintenance["moves"] += 1
        self.config.drop_table(schema)
        self.maintenance["tables_dropped"] += 1

    # ------------------------------------------------------------------
    # periodic sweep
    # ------------------------------------------------------------------
    def sweep(self) -> None:
        """Periodic maintenance: oversized entries, underused tables."""
        params = self.params
        self.maintenance["sweeps"] += 1
        if not self._frozen:
            bm_max = params.bm_max
            # One ν read per entry and statistics version, shared with
            # the inserts (no event arrives during a sweep).
            nus = self._remembered_nus()
            for table in list(self.config.tables()):
                for _key, lst in list(table.entries()):
                    # ν ≤ 1, so BM = ν·|entry| can only exceed the
                    # threshold when the entry itself does — skipping
                    # small entries keeps sweeps O(large entries), not
                    # O(all entries).
                    size = len(lst)
                    if size > bm_max:
                        entry = lst.key
                        nu = nus.get(entry)
                        if nu is None:
                            nu = nus[entry] = self._entry_nu(*entry)
                        if nu * size > bm_max:
                            self._maybe_handle_entry(lst, nu)
        # Drop starved multi-attribute tables (singletons are the free
        # natural clustering and stay).
        for table in list(self.config.tables()):
            if len(table.schema) > 1 and len(table) < params.b_delete:
                self._note_threshold("b_delete")
                self._drop_table(table.schema)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base["maintenance"] = dict(self.maintenance)
        base["potential_tables"] = self._tracker.potential_count
        return base
