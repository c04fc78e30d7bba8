"""Placement equivalence: versioned decisions vs. re-deriving them every time.

``DynamicMatcher`` ranks the tables once per (table set, statistics)
version, remembers each entry's ν per statistics version (inserts and
sweeps share it) and builds probe key and residual refs in one pass.
The reference below re-derives every decision from the statistics on
every call, through the engine's own hooks — ``_choose_schema``,
``_place``, ``move_subscription``, ``_touch_entry`` and ``sweep`` are
overridden, and the machine checks that each override is the one that
ran — placing through ``access_for_schema`` → ``AccessPredicate`` →
``ordered_residual_bits`` (all three live here: nothing in ``src/``
builds an access predicate object or a predicate → bit dict any more).
The two must stay indistinguishable under any interleaving of writes,
observation, decay, sweeps and table creation and deletion.
"""

import random
from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.clustering import DynamicParams, EventStatistics
from repro.clustering.dynamic import EntryId
from repro.matchers import DynamicMatcher
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import w0
from repro.core import Subscription, eq
from repro.core.errors import ClusteringError
from tests.properties.strategies import ATTRIBUTES, events, predicates


class AccessPredicate:
    """Immutable conjunction of equality predicates keyed for hashing —
    the validated form of what ``_place_under`` derives in one pass
    (``tests/clustering/test_access_hashconfig.py`` holds it to the
    paper's definition and to ``key_for_schema``)."""

    __slots__ = ("predicates", "schema", "key")

    def __init__(self, predicates):
        preds = tuple(sorted(predicates, key=lambda p: p.attribute))
        seen = set()
        for p in preds:
            if not p.operator.is_equality:
                raise ClusteringError(f"access predicates are equality-only, got {p!r}")
            if p.attribute in seen:
                raise ClusteringError(
                    f"access predicate has two predicates on {p.attribute!r}"
                )
            seen.add(p.attribute)
        if not preds:
            raise ClusteringError("access predicate must be non-empty")
        object.__setattr__(self, "predicates", preds)
        object.__setattr__(self, "schema", tuple(p.attribute for p in preds))
        object.__setattr__(self, "key", tuple(p.value for p in preds))

    def __setattr__(self, name, value):
        raise AttributeError("AccessPredicate is immutable")

    def __eq__(self, other):
        if not isinstance(other, AccessPredicate):
            return NotImplemented
        return self.predicates == other.predicates

    def __hash__(self):
        return hash(self.predicates)


def access_for_schema(sub, schema):
    """The access predicate of *sub* over *schema*: its first equality
    predicate on every schema attribute (``schema ⊆ A(s)``)."""
    wanted = set(schema)
    chosen = []
    for p in sub.predicates:
        if p.operator.is_equality and p.attribute in wanted:
            chosen.append(p)
            wanted.discard(p.attribute)
    if wanted:
        raise ClusteringError(
            f"subscription {sub.id!r} lacks equality predicates on {sorted(wanted)}"
        )
    return AccessPredicate(chosen)


def ordered_residual_bits(sub, slots, access):
    """Bit refs of ``sub``'s predicates minus *access*, equality first."""
    skip = set(access)
    eq_bits, other_bits = [], []
    for pred in sub.predicates:
        if pred in skip:
            continue
        (eq_bits if pred.operator.is_equality else other_bits).append(slots[pred])
    return eq_bits + other_bits


class UnmemoizedDynamicMatcher(DynamicMatcher):
    """Every decision re-derived on every call, and a subscription's
    home recorded beside the engine's own bookkeeping: this reference
    writes the ``(schema, key, residual size)`` tuple per placement and
    answers ``placement_of`` from it, so the engine's answer (read off
    the home cluster and its list) is compared with independent
    bookkeeping.  ``calls`` counts the overrides that ran."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tuples = {}
        self.calls = Counter()

    def _choose_schema(self, sub, eq_attrs):
        self.calls["_choose_schema"] += 1
        if not eq_attrs:
            return None
        for attribute in eq_attrs:
            self.config.ensure_table((attribute,))
        eligible = self.config.eligible_schemas(eq_attrs)
        return min(eligible, key=lambda s: (self._nu_bucket(s), s))

    def _place(self, handle, sub, bits):
        self.calls["_place"] += 1
        slots = dict(zip(sub.predicates, bits))
        return self._settle(handle, sub, slots, self._choose_schema(sub, sub.equality_attributes))

    def move_subscription(self, sub_id, new_schema):
        self.calls["move_subscription"] += 1
        handle = self._subs.handle_of(sub_id)
        sub = self._subs.get(handle)
        if new_schema is not None:
            access_for_schema(sub, new_schema)  # refuse before moving
        self._displace(handle, sub)
        slots = {pred: self.registry.slot(pred) for pred in sub.predicates}
        self._settle(handle, sub, slots, new_schema)

    def _settle(self, handle, sub, slots, schema):
        if schema is None:
            refs = ordered_residual_bits(sub, slots, ())
            home = self._universal.add(handle, refs)
            self._tuples[sub.id] = (None, (), len(refs))
        else:
            ap = access_for_schema(sub, schema)
            refs = ordered_residual_bits(sub, slots, ap.predicates)
            home = self.config.ensure_table(schema).add(handle, ap.key, refs)
            self._tuples[sub.id] = (schema, ap.key, len(refs))
        self._home.settle(handle, home)
        return home

    def _displace(self, handle, sub):
        super()._displace(handle, sub)
        del self._tuples[sub.id]

    def placement_of(self, sub_id):
        return self._tuples[sub_id]

    def _touch_entry(self, lst):
        self.calls["_touch_entry"] += 1
        self._handle_unmemoized(lst)

    def _handle_unmemoized(self, lst):
        schema, key = lst.key
        if self._frozen:
            return
        bm = self._entry_nu(schema, key) * len(lst)
        if bm <= self.params.bm_max:
            return
        entry: EntryId = (schema, key)
        last = self._last_handled.get(entry, 0.0)
        if last and bm < last * self.params.growth_factor:
            return
        self._note_threshold("bm_max")
        self._distribute_entry(schema, key)
        self._last_handled[entry] = self.benefit_margin(schema, key)

    def sweep(self):
        self.calls["sweep"] += 1
        self.maintenance["sweeps"] += 1
        for table in list(self.config.tables()):
            for _key, lst in list(table.entries()):
                self._handle_unmemoized(lst)
        for table in list(self.config.tables()):
            if len(table.schema) > 1 and len(table) < self.params.b_delete:
                self._note_threshold("b_delete")
                self._drop_table(table.schema)


@st.composite
def clusterable_subscriptions(draw):
    """Equality-heavy over few values: several tables are eligible for
    most subscriptions and entries grow past the thresholds."""
    equalities = draw(
        st.lists(
            st.builds(eq, ATTRIBUTES, st.integers(min_value=0, max_value=2)),
            min_size=1,
            max_size=4,
        )
    )
    others = draw(st.lists(predicates(), max_size=2))
    return Subscription(0, equalities + others)


def assert_same_clustering(real, reference, live_ids):
    assert real.config.schemas() == reference.config.schemas()
    assert real.table_sizes() == reference.table_sizes()
    assert real.maintenance == reference.maintenance
    for sid in live_ids:
        assert real.placement_of(sid) == reference.placement_of(sid)


class PlacementMachine(RuleBasedStateMachine):
    """Both matchers get every operation; they must never diverge."""

    def __init__(self):
        super().__init__()
        # Aggressive thresholds so moves, table creation and deletion
        # all happen inside a 30-step run; a short decay period so the
        # estimator's own decay fires too.
        params = DynamicParams(
            bm_max=1.0, b_create=3, b_delete=2, maintenance_interval=8
        )
        self.pair = [
            cls(
                statistics=EventStatistics(decay=0.05, decay_every=7),
                params=params,
                observe_every=2,
            )
            for cls in (DynamicMatcher, UnmemoizedDynamicMatcher)
        ]
        self.live = {}
        self.counter = 0
        self.adds = 0

    @rule(sub=clusterable_subscriptions())
    def add(self, sub):
        self.counter += 1
        sub = Subscription(f"p{self.counter}", sub.predicates)
        for matcher in self.pair:
            matcher.add(sub)
        self.live[sub.id] = sub
        self.adds += 1

    @rule(data=st.data())
    def remove(self, data):
        if not self.live:
            return
        sid = data.draw(st.sampled_from(sorted(self.live)))
        for matcher in self.pair:
            matcher.remove(sid)
        del self.live[sid]

    @rule(batch=st.lists(events(), min_size=1, max_size=6))
    def match_batch(self, batch):
        real, reference = (m.match_batch(batch) for m in self.pair)
        assert real == reference
        for event, got in zip(batch, real):
            assert set(got) == {
                sid for sid, sub in self.live.items() if sub.is_satisfied_by(event)
            }

    @rule(event=events())
    def observe_directly(self, event):
        # Not through the matcher: only the statistics' own version can
        # tell it that its decisions are stale.
        for matcher in self.pair:
            matcher.statistics.observe(event)

    @rule()
    def force_decay(self):
        for matcher in self.pair:
            matcher.statistics._apply_decay()

    @rule()
    def sweep(self):
        for matcher in self.pair:
            matcher.sweep()

    @rule(attrs=st.lists(ATTRIBUTES, min_size=1, max_size=3, unique=True))
    def create_table(self, attrs):
        for matcher in self.pair:
            matcher.config.ensure_table(tuple(sorted(attrs)))

    @rule(data=st.data())
    def drop_table(self, data):
        schemas = self.pair[0].config.schemas()
        if not schemas:
            return
        schema = data.draw(st.sampled_from(schemas))
        for matcher in self.pair:
            matcher._drop_table(schema)

    @invariant()
    def indistinguishable(self):
        real, reference = self.pair
        assert_same_clustering(real, reference, self.live)
        real.check_invariants()

    @invariant()
    def the_reference_decided(self):
        """Every placement, move and sweep went through an override."""
        calls, maintenance = self.pair[1].calls, self.pair[1].maintenance
        assert calls["_place"] == calls["_choose_schema"] == self.adds
        assert calls["move_subscription"] == maintenance["moves"]
        assert calls["sweep"] == maintenance["sweeps"]


TestPlacementEquivalence = PlacementMachine.TestCase
TestPlacementEquivalence.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)


def test_w0_load_events_and_removes_cluster_identically():
    """The same differential at workload scale: a W0 load, observed
    batches, removes and re-adds."""
    n = 4000
    gen = WorkloadGenerator(w0(n_subscriptions=n, seed=11))
    subs = list(gen.subscriptions(n))
    batches = [list(gen.events(64)) for _ in range(6)]
    # Thresholds low enough that a 4k population distributes entries
    # and builds multi-attribute tables.
    params = DynamicParams(bm_max=0.5, b_create=16, maintenance_interval=256)
    real, reference = (
        cls(params=params) for cls in (DynamicMatcher, UnmemoizedDynamicMatcher)
    )
    rng = random.Random(3)
    leaving = rng.sample(subs, 400)
    for matcher in (real, reference):
        for sub in subs:
            matcher.add(sub)
    assert_same_clustering(real, reference, [s.id for s in subs])
    for batch in batches:
        assert real.match_batch(batch) == reference.match_batch(batch)
        for matcher in (real, reference):
            for sub in leaving[:100]:
                matcher.remove(sub.id)
            for sub in leaving[:100]:
                matcher.add(sub)
        leaving = leaving[100:] + leaving[:100]
        assert_same_clustering(real, reference, [s.id for s in subs])
    real.check_invariants()
    assert real.maintenance["moves"] and real.maintenance["tables_created"]
    assert reference.calls["_place"] == n + 6 * 100
    assert reference.calls["_touch_entry"] and reference.calls["sweep"]
    assert reference.calls["move_subscription"] == reference.maintenance["moves"]
