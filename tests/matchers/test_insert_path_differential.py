"""The dynamic engine's insert path against the layered path it replaced.

``LayeredDynamicMatcher`` below carries that path verbatim: ``add``
numbers the subscription, interns its predicates into a
``Dict[Predicate, int]``, chooses the schema through
``_choose_schema`` → ``_cheapest_table`` (dynamic, then clustered) →
``_statistics_version``, lays it out in ``_place_under`` from the dict,
then looks the handle up again for its home list, touches the entry
(ν read through the memo) and ticks; ``sweep`` reads every large
entry's ν afresh; ``move_subscription`` displaces before it derives the
new key; and a distribution or a table creation re-derives a member's
probe key through ``key_for_schema`` for every candidate schema.  Only the column writes underneath are the engine's own (the
pending buffer, which ``tests/algorithms/test_clusters.py`` holds to a
list model).

Driven through the same add / remove / observe / decay / sweep /
``match_batch`` sequences — W0 and the Figure 4(a) (W3 → W4) and 4(b)
(W5 → W6) drift populations, mixed with equality-heavy subscriptions
over a few values so that entries are distributed and tables created
and dropped within a few steps — both must agree on
every live subscription's ``placement_of``, the maintenance and
threshold counters, ``table_sizes()``, the table order and every
result list; ``check_invariants()`` holds after every step.  The same
holds for 50k loads of those populations at the default thresholds.
"""

import itertools
import math
import random
from typing import Any, Dict, List, Optional, Set

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.clustering import DynamicParams, EventStatistics
from repro.clustering.dynamic import EntryId
from repro.clustering.hashconfig import Key, Schema
from repro.core.errors import ClusteringError
from repro.core import eq
from repro.core.types import Operator, Predicate, Subscription
from repro.matchers import DynamicMatcher
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import w0, w3, w4, w5, w6
from tests.properties.strategies import ATTRIBUTES, events, predicates

_EQ = Operator.EQ


def key_for_schema(sub: Subscription, schema: Schema) -> Key:
    """The probe key of *sub* over *schema*, derived from its predicates
    for this schema alone (as ``repro.clustering.key_for_schema`` did)."""
    values: Dict[str, Any] = {}
    for p in sub.predicates:
        if p.operator.is_equality and p.attribute in schema and p.attribute not in values:
            values[p.attribute] = p.value
    return tuple(values[a] for a in schema)


class LayeredDynamicMatcher(DynamicMatcher):
    """The insert path as it was, kept as the oracle of the one-pass path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._layered_ranked: List[Schema] = []
        self._layered_ranked_version: Any = None

    # TwoPhaseMatcher.add / _intern_predicates, then DynamicMatcher.add
    def add(self, subscription):
        handle = self._subs.put(subscription)
        slots = self._intern_predicates(subscription)
        try:
            self._place(handle, subscription, slots)
        except Exception:
            self._release_predicates(subscription)
            self._subs.drop(subscription.id)
            raise
        lst = self._home[self._subs.handle_of(subscription.id)].owner
        if lst is not self._universal:
            self._touch_entry(lst)
        self._tick()

    def _intern_predicates(self, sub: Subscription) -> Dict[Predicate, int]:
        slots: Dict[Predicate, int] = {}
        for pred in sub.predicates:
            bit, added = self.registry.intern(pred)
            if added:
                self.indexes.insert(pred, bit)
            slots[pred] = bit
        return slots

    # ClusteredMatcher._statistics_version / _choose_schema / _place
    def _statistics_version(self) -> Any:
        return getattr(self.statistics, "version", None)

    def _choose_schema(self, sub, eq_attrs=None):
        eq_attrs = {p.attribute for p in sub.predicates if p.operator is _EQ}
        if not eq_attrs:
            return None
        return self._cheapest_table(eq_attrs)

    def _place(self, handle, sub, slots):
        self._place_under(handle, sub, slots, self._choose_schema(sub))

    # DynamicMatcher._cheapest_table, then ClusteredMatcher._cheapest_table
    def _cheapest_table(self, eq_attrs: Set[str]) -> Optional[Schema]:
        config = self.config
        if self._singletons_version != config.version:
            self._singleton_attrs = {s[0] for s in config.schemas() if len(s) == 1}
            self._singletons_version = config.version
        if not eq_attrs <= self._singleton_attrs:
            for attribute in eq_attrs:
                config.ensure_table((attribute,))
        stats_version = self._statistics_version()
        version = (self.config.version, stats_version)
        if stats_version is None or version != self._layered_ranked_version:
            self._layered_ranked = sorted(
                self.config.schemas(), key=lambda s: (self._nu_bucket(s), s)
            )
            self._layered_ranked_version = version
        for schema in self._layered_ranked:
            if eq_attrs.issuperset(schema):
                return schema
        return None

    # ClusteredMatcher._place_under / move_subscription
    def _place_under(self, handle, sub, slots, schema):
        wanted = schema or ()
        values: Dict[str, Any] = {}
        eq_bits: List[int] = []
        other_bits: List[int] = []
        for pred in sub.predicates:
            if pred.operator is not _EQ:
                other_bits.append(slots[pred])
            elif pred.attribute in wanted and pred.attribute not in values:
                values[pred.attribute] = pred.value
            else:
                eq_bits.append(slots[pred])
        if len(values) != len(wanted):
            missing = sorted(set(wanted) - set(values))
            raise ClusteringError(
                f"subscription {sub.id!r} lacks equality predicates on {missing}"
            )
        refs = eq_bits + other_bits
        if schema is None:
            home = self._universal.add(handle, refs)
        else:
            key = tuple([values[attribute] for attribute in schema])
            home = self.config.ensure_table(schema).add(handle, key, refs)
        self._home.settle(handle, home)

    def move_subscription(self, sub_id, new_schema):
        handle = self._subs.handle_of(sub_id)
        sub = self._subs.get(handle)
        self._displace(handle, sub)
        slots = {pred: self.registry.slot(pred) for pred in sub.predicates}
        self._place_under(handle, sub, slots, new_schema)

    # DynamicMatcher._touch_entry / sweep
    def _touch_entry(self, lst):
        if self._frozen or len(lst) <= self.params.bm_max:
            return
        entry: EntryId = lst.key
        nus = self._entry_nus
        version = self._statistics_version()
        if version is None or version != self._entry_nus_version:
            nus.clear()
            self._entry_nus_version = version
        nu = nus.get(entry)
        if nu is None:
            nu = nus[entry] = self._entry_nu(*entry)
        self._maybe_handle_entry(lst, nu)

    def sweep(self):
        params = self.params
        self.maintenance["sweeps"] += 1
        if not self._frozen:
            for table in list(self.config.tables()):
                for _key, lst in list(table.entries()):
                    if len(lst) > params.bm_max:
                        self._maybe_handle_entry(lst, self._entry_nu(*lst.key))
        for table in list(self.config.tables()):
            if len(table.schema) > 1 and len(table) < params.b_delete:
                self._note_threshold("b_delete")
                self._drop_table(table.schema)

    # DynamicMatcher._distribute_entry / _sub_nu_bucket /
    # _potential_schemas / _create_table, each member's key re-derived
    # per candidate schema
    def _distribute_entry(self, schema, key):
        params = self.params
        table = self.config.table(schema)
        if table is None:
            return
        lst = table.entry(key)
        if lst is None:
            return
        self.maintenance["distributions"] += 1
        entry: EntryId = (schema, key)
        entry_nu = self._entry_nu(schema, key)
        stayers: List[Subscription] = []
        for sub in map(self._subs.get, lst.handles()):
            eligible = self.config.eligible_schemas(sub.equality_attributes)
            best_schema = None
            best_bucket = self._sub_nu_bucket(sub, schema)
            for cand in eligible:
                if cand == schema:
                    continue
                bucket = self._sub_nu_bucket(sub, cand)
                if bucket <= best_bucket - self._gap:
                    best_schema, best_bucket = cand, bucket
            if best_schema is not None:
                self.move_subscription(sub.id, best_schema)
                if self._tracker.is_marked(sub.id):
                    self._tracker.reset_votes(sub.equality_attributes)
                    self._tracker.unmark(sub.id)
                self.maintenance["moves"] += 1
            else:
                stayers.append(sub)
        if entry_nu * len(stayers) > params.bm_max:
            for sub in stayers:
                if self._tracker.is_marked(sub.id):
                    continue
                potentials = self._potential_schemas(sub, entry_nu)
                self._tracker.note(sub.id, potentials, entry)
            for new_schema in self._tracker.ready(params.b_create):
                self._create_table(new_schema)

    def _sub_nu_bucket(self, sub, schema):
        nu = self.statistics.nu_of_pairs(zip(schema, key_for_schema(sub, schema)))
        return math.floor(math.log(max(1e-300, nu)))

    def _potential_schemas(self, sub, entry_nu):
        params = self.params
        attrs = sorted(sub.equality_attributes)
        entry_bucket = math.floor(math.log(max(1e-300, entry_nu)))
        out: List[Schema] = []
        for k in range(2, min(len(attrs), params.max_schema_size) + 1):
            for combo in itertools.combinations(attrs, k):
                if combo in self.config:
                    continue
                if self._sub_nu_bucket(sub, combo) <= entry_bucket - self._gap:
                    out.append(combo)
        return out

    def _create_table(self, schema):
        candidates = self._tracker.candidates_of(schema)
        self._tracker.clear_schema(schema)
        if schema in self.config:
            return
        self.config.ensure_table(schema)
        self.maintenance["tables_created"] += 1
        for src_schema, src_key in candidates:
            table = self.config.table(src_schema)
            if table is None:
                continue
            lst = table.entry(src_key)
            if lst is None:
                continue
            for sub in map(self._subs.get, lst.handles()):
                if not sub.equality_attributes.issuperset(schema):
                    continue
                cur_bucket = self._sub_nu_bucket(sub, src_schema)
                new_bucket = self._sub_nu_bucket(sub, schema)
                if new_bucket <= cur_bucket - self._gap:
                    self.move_subscription(sub.id, schema)
                    self._tracker.unmark(sub.id)
                    self.maintenance["moves"] += 1


#: Low thresholds: a few hundred subscriptions distribute entries, vote
#: for, create and drop multi-attribute tables, and sweep often.
PARAMS = DynamicParams(bm_max=0.5, b_create=3, b_delete=2, maintenance_interval=16)

#: The populations: W0, and the before / after of Figure 4(a) and 4(b).
SPECS = {"w0": w0, "w3": w3, "w4": w4, "w5": w5, "w6": w6}


def thresholds(matcher) -> Dict[str, float]:
    family = matcher.metrics.family("repro_dynamic_threshold_crossings_total")
    index = family.labelnames.index("threshold")
    return {labels[index]: child.value for labels, child in family.children()}


def assert_same(real, oracle, live_ids) -> None:
    assert real.config.schemas() == oracle.config.schemas()
    assert real.table_sizes() == oracle.table_sizes()
    assert real.maintenance == oracle.maintenance
    assert thresholds(real) == thresholds(oracle)
    for sid in live_ids:
        assert real.placement_of(sid) == oracle.placement_of(sid)
    real.check_invariants()
    oracle.check_invariants()


def pair(**kwargs):
    out = []
    for cls in (DynamicMatcher, LayeredDynamicMatcher):
        m = cls(
            statistics=EventStatistics(decay=0.5, decay_every=40),
            params=PARAMS,
            observe_every=2,
            **kwargs,
        )
        m.use_metrics()
        out.append(m)
    return out


@st.composite
def clusterable_subscriptions(draw):
    """Equality-heavy over few values, some inequalities and repeated
    attributes: several tables are eligible for most subscriptions and
    entries grow past the thresholds within a few steps."""
    equalities = draw(
        st.lists(st.builds(eq, ATTRIBUTES, st.integers(0, 2)), min_size=0, max_size=4)
    )
    others = draw(st.lists(predicates(), min_size=0 if equalities else 1, max_size=2))
    return Subscription(0, equalities + others)


class InsertPathMachine(RuleBasedStateMachine):
    """Both engines get every operation; they must never part."""

    @initialize(
        names=st.lists(st.sampled_from(sorted(SPECS)), min_size=1, max_size=3, unique=True),
        seed=st.integers(0, 2**16),
    )
    def start(self, names, seed):
        self.real, self.oracle = pair()
        self.generators = [
            WorkloadGenerator(SPECS[name](n_subscriptions=10_000, seed=seed + i))
            for i, name in enumerate(names)
        ]
        self.live: Dict[Any, Subscription] = {}
        self.ids = itertools.count()

    def both(self, op, *args):
        return [getattr(m, op)(*args) for m in (self.real, self.oracle)]

    @rule(which=st.integers(0, 2), n=st.integers(1, 40))
    def add(self, which, n):
        gen = self.generators[which % len(self.generators)]
        for sub in itertools.islice(gen.subscriptions(), n):
            sub = Subscription(next(self.ids), sub.predicates)
            self.both("add", sub)
            self.live[sub.id] = sub

    @rule(subs=st.lists(clusterable_subscriptions(), min_size=1, max_size=12))
    def add_clusterable(self, subs):
        for sub in subs:
            sub = Subscription(next(self.ids), sub.predicates)
            self.both("add", sub)
            self.live[sub.id] = sub

    @rule(data=st.data())
    def remove(self, data):
        if self.live:
            count = data.draw(st.integers(1, min(20, len(self.live))))
            for sid in data.draw(st.permutations(sorted(self.live)))[:count]:
                self.both("remove", sid)
                del self.live[sid]

    @rule(which=st.integers(0, 2), n=st.integers(2, 24))
    def match_batch(self, which, n):
        gen = self.generators[which % len(self.generators)]
        events = list(gen.events(n))
        real, oracle = self.both("match_batch", events)
        assert real == oracle

    @rule(batch=st.lists(events(), min_size=2, max_size=8))
    def match_small_events(self, batch):
        real, oracle = self.both("match_batch", batch)
        assert real == oracle
        for event, got in zip(batch, real):
            assert set(got) == {
                sid for sid, sub in self.live.items() if sub.is_satisfied_by(event)
            }

    @rule(which=st.integers(0, 2), n=st.integers(1, 30))
    def observe(self, which, n):
        # Straight into the statistics: only their version tells the
        # engines that what they remember is stale.
        gen = self.generators[which % len(self.generators)]
        for event in gen.events(n):
            for m in (self.real, self.oracle):
                m.statistics.observe(event)

    @rule(batch=st.lists(events(), min_size=1, max_size=12))
    def observe_small_events(self, batch):
        for event in batch:
            for m in (self.real, self.oracle):
                m.statistics.observe(event)

    @rule()
    def decay(self):
        for m in (self.real, self.oracle):
            m.statistics._apply_decay()

    @rule()
    def sweep(self):
        self.both("sweep")

    @invariant()
    def indistinguishable(self):
        if hasattr(self, "real"):
            assert_same(self.real, self.oracle, self.live)


TestInsertPathDifferential = InsertPathMachine.TestCase
TestInsertPathDifferential.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


@pytest.mark.parametrize("before,after", [("w0", "w0"), ("w3", "w4"), ("w5", "w6")])
def test_a_drifting_population_loads_and_churns_identically(before, after):
    """The same differential at population scale: a load of *before*,
    then churn that replaces it with *after* while batches are matched
    (Figure 4's storyline, compressed)."""
    n = 3000
    old = WorkloadGenerator(SPECS[before](n_subscriptions=n, seed=21))
    new = WorkloadGenerator(SPECS[after](n_subscriptions=n, seed=22))
    real, oracle = pair()
    live = list(old.subscriptions(n))
    for sub in live:
        for m in (real, oracle):
            m.add(sub)
    assert_same(real, oracle, [s.id for s in live])
    rng = random.Random(5)
    fresh = new.subscriptions()
    for step in range(12):
        batch = list((new if rng.random() < step / 12 else old).events(64))
        assert real.match_batch(batch) == oracle.match_batch(batch)
        leaving, live = live[:150], live[150:]
        for sub in leaving:
            for m in (real, oracle):
                m.remove(sub.id)
        for sub in itertools.islice(fresh, 150):
            sub = Subscription((after, step, sub.id), sub.predicates)
            for m in (real, oracle):
                m.add(sub)
            live.append(sub)
        assert_same(real, oracle, [s.id for s in live])
    assert real.maintenance["moves"] and real.maintenance["tables_created"]


def test_a_frozen_engine_places_identically():
    """Frozen, neither path touches entries or sweeps: placement alone."""
    real, oracle = pair()
    for m in (real, oracle):
        m.freeze()
    subs = list(WorkloadGenerator(w5(n_subscriptions=2000, seed=3)).subscriptions(2000))
    for sub in subs:
        for m in (real, oracle):
            m.add(sub)
    assert_same(real, oracle, [s.id for s in subs])
    assert real.maintenance["sweeps"] == 0


@pytest.mark.parametrize("before,after", [("w0", "w0"), ("w3", "w4"), ("w5", "w6")])
def test_a_50k_load_places_and_maintains_identically(before, after):
    """At full scale and the default thresholds the e2e workloads run
    with: a 50k load of *before*, then batches of *after* events that
    move the statistics, and a sweep."""
    n = 50_000
    real, oracle = DynamicMatcher(), LayeredDynamicMatcher()
    for m in (real, oracle):
        m.use_metrics()
    subs = list(WorkloadGenerator(SPECS[before](n_subscriptions=n, seed=31)).subscriptions(n))
    for sub in subs:
        for m in (real, oracle):
            m.add(sub)
    ids = [s.id for s in subs]
    assert_same(real, oracle, ids)
    events = WorkloadGenerator(SPECS[after](n_subscriptions=n, seed=32))
    for _ in range(4):
        batch = list(events.events(256))
        assert real.match_batch(batch) == oracle.match_batch(batch)
    for m in (real, oracle):
        m.sweep()
    assert_same(real, oracle, ids)
    assert real.maintenance["distributions"] and real.maintenance["moves"]
