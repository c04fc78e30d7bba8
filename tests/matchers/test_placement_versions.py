"""What a placement decision depends on, and what must invalidate it.

The table ranking is kept per (table set, statistics) version and each
touched entry's ν per statistics version; these tests move exactly one
of those inputs between two placements and require the second placement
to see it.  Also here: the count-based guard on the ``add`` path, the
heap the kept decisions may cost, ``_last_handled`` pruning and the
batched ``_tick``.
"""

import gc
import tracemalloc

import pytest

import repro.clustering
from repro.clustering import DynamicParams, EventStatistics, UniformStatistics
from repro.core import Event, Subscription, eq, le
from repro.matchers import DynamicMatcher
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import w0


def ab(sub_id, extra=0):
    """A subscription eligible for tables (a), (b) and (a, b)."""
    return Subscription(sub_id, [eq("a", 1), eq("b", 1), le("p", extra)])


def schema_of(matcher, sub_id):
    return matcher.placement_of(sub_id)[0]


def skew_a(statistics, n=200):
    """Events in which ``a`` is always 1 and ``b`` is spread out: a
    random access predicate on ``a`` now collides far more often."""
    for i in range(n):
        statistics.observe(Event({"a": 1, "b": i}))


class VersionlessStatistics:
    """An estimator from before ``version`` existed."""

    def __init__(self, inner):
        self._inner = inner

    def attr_prob(self, attribute):
        return self._inner.attr_prob(attribute)

    def pair_prob(self, attribute, value):
        return self._inner.pair_prob(attribute, value)

    def nu_of_pairs(self, pairs):
        return self._inner.nu_of_pairs(pairs)

    def mu_of_schema(self, schema):
        return self._inner.mu_of_schema(schema)

    def expected_nu_schema(self, schema):
        return self._inner.expected_nu_schema(schema)


class TestRankingStaleness:
    def test_observe_reranks(self):
        stats = EventStatistics()
        m = DynamicMatcher(statistics=stats, observe_events=False)
        m.add(ab("before"))
        assert schema_of(m, "before") == ("a",)  # a tie, broken lexically
        skew_a(stats)
        m.add(ab("after"))
        assert schema_of(m, "after") == ("b",)

    def test_decay_reranks(self):
        stats = EventStatistics(decay=0.01, decay_every=10**9)
        m = DynamicMatcher(statistics=stats, observe_events=False)
        skew_a(stats)
        m.add(ab("skewed"))
        assert schema_of(m, "skewed") == ("b",)
        for _ in range(3):
            stats._apply_decay()  # back to the prior: a tie again
        m.add(ab("decayed"))
        assert schema_of(m, "decayed") == ("a",)

    def test_created_table_is_seen(self):
        m = DynamicMatcher(observe_events=False)
        m.add(ab("before"))
        m.config.ensure_table(("a", "b"))
        m.add(ab("after"))
        assert schema_of(m, "before") == ("a",)
        assert schema_of(m, "after") == ("a", "b")

    def test_dropped_table_is_not_chosen_again(self):
        m = DynamicMatcher(observe_events=False)
        m.config.ensure_table(("a", "b"))
        m.add(ab("first"))
        assert schema_of(m, "first") == ("a", "b")
        m._drop_table(("a", "b"))
        m.add(ab("second"))
        assert ("a", "b") not in m.config  # a stale choice would re-create it
        assert schema_of(m, "first") == schema_of(m, "second") == ("a",)
        m.check_invariants()

    def test_dropped_singleton_is_recreated(self):
        m = DynamicMatcher(observe_events=False)
        m.add(ab("first"))
        m._drop_table(("a",))
        m.add(ab("second"))
        assert ("a",) in m.config
        m.check_invariants()

    def test_statistics_without_version_count_as_always_changed(self):
        inner = EventStatistics()
        m = DynamicMatcher(statistics=VersionlessStatistics(inner))
        m.add(ab("before"))
        assert schema_of(m, "before") == ("a",)
        skew_a(inner)
        m.add(ab("after"))
        assert schema_of(m, "after") == ("b",)
        m.sweep()
        m.check_invariants()


class TestEntryNuStaleness:
    PARAMS = DynamicParams(bm_max=4.0, maintenance_interval=10**9)

    def loaded(self, statistics):
        m = DynamicMatcher(
            statistics=statistics, params=self.PARAMS, observe_events=False
        )
        for i in range(10):
            m.add(Subscription(i, [eq("a", 1), le("p", i)]))
        # ν(a=1) is the prior 1/35: BM = 10/35, far below BMmax.
        assert m.maintenance["distributions"] == 0
        return m

    @pytest.mark.parametrize("wrap", [lambda s: s, VersionlessStatistics])
    def test_hot_value_is_seen_by_the_next_touch(self, wrap):
        inner = EventStatistics()
        m = self.loaded(wrap(inner))
        for _ in range(200):
            inner.observe(Event({"a": 1}))
        # ν(a=1) is now about 1 and BM about 10: the next insert into
        # the entry must read that, not the ν it remembered.
        m.add(Subscription(10, [eq("a", 1), le("p", 10)]))
        assert m.maintenance["distributions"] == 1


class TestLastHandledPruning:
    def test_churn_over_distinct_keys_leaves_no_dead_records(self):
        # Domain 1 makes every ν 1, so BM = |entry| and any entry of
        # two members is handled on its second insert.
        m = DynamicMatcher(
            statistics=UniformStatistics(default_domain=1),
            params=DynamicParams(bm_max=1.0),
        )
        m.add(Subscription("stays-0", [eq("a", -1), le("p", 0)]))
        m.add(Subscription("stays-1", [eq("a", -1), le("p", 1)]))
        for key in range(10_000):
            ids = [(key, j) for j in range(2)]
            for j, sid in enumerate(ids):
                m.add(Subscription(sid, [eq("a", key), le("p", j)]))
            assert (("a",), (key,)) in m._last_handled
            for sid in ids:
                m.remove(sid)
        assert m.maintenance["distributions"] >= 10_000
        assert set(m._last_handled) == {(("a",), (-1,))}
        assert set(m._entry_nus) <= {(("a",), (-1,))}

    def population_when_distributed(self, m, prefix, upto=40):
        """Sizes of entry a=1 at which adding one more distributed it."""
        sizes = []
        for i in range(upto):
            before = m.maintenance["distributions"]
            m.add(Subscription(f"{prefix}{i}", [eq("a", 1), le("p", i)]))
            if m.maintenance["distributions"] > before:
                sizes.append(i + 1)
        return sizes

    def test_recreated_entry_is_distributed_like_a_fresh_one(self):
        params = DynamicParams(bm_max=4.0, maintenance_interval=10**9)
        m = DynamicMatcher(
            statistics=UniformStatistics(default_domain=1), params=params
        )
        fresh = self.population_when_distributed(m, "x")
        assert fresh[:3] == [5, 8, 12]  # BMmax, then growth_factor apart
        for i in range(40):
            m.remove(f"x{i}")
        assert not m._last_handled
        assert self.population_when_distributed(m, "y") == fresh


class TestBatchedTick:
    @pytest.mark.parametrize("interval", [7, 100, 256, 1000])
    def test_sweeps_once_per_interval_boundary(self, interval):
        params = DynamicParams(maintenance_interval=interval)
        batched, scalar = DynamicMatcher(params=params), DynamicMatcher(params=params)
        events = [Event({"a": i % 5}) for i in range(256)]
        for m in (batched, scalar):
            for i in range(30):
                m.add(Subscription(i, [eq("a", i % 5), le("p", i)]))
        for _ in range(4):
            batched.match_batch(events)
            for event in events:
                scalar.match(event)
        ops = 30 + 4 * 256
        assert batched._ops == scalar._ops == ops
        assert batched.maintenance["sweeps"] == scalar.maintenance["sweeps"]
        assert batched.maintenance["sweeps"] == ops // interval

    def test_cadence_is_the_same_however_the_events_arrive(self):
        """One batch of N, N batches of one and N ``match`` calls observe
        the same every-k-th events and sweep at the same boundaries — a
        batch of one takes the scalar path, which must not skew either."""

        class Recording(EventStatistics):
            def __init__(self):
                super().__init__()
                self.seen = []

            def observe(self, event):
                self.seen.append(event)
                super().observe(event)

        params = DynamicParams(maintenance_interval=50)
        events = [Event({"a": i % 5, "n": i}) for i in range(203)]
        feeds = {
            "batch": lambda m: m.match_batch(events),
            "ones": lambda m: [m.match_batch([e])[0] for e in events],
            "scalar": lambda m: [m.match(e) for e in events],
        }
        runs = {}
        for name, feed in feeds.items():
            m = DynamicMatcher(statistics=Recording(), params=params, observe_every=4)
            for i in range(30):
                m.add(Subscription(i, [eq("a", i % 5), le("p", i)]))
            results = [sorted(ids) for ids in feed(m)]
            runs[name] = (
                results, m.statistics.seen, m._event_seq, m._ops, m.maintenance["sweeps"]
            )
        assert runs["batch"] == runs["ones"] == runs["scalar"]
        _results, seen, event_seq, ops, sweeps = runs["batch"]
        assert seen == events[3::4]
        assert event_seq == 203 and ops == 233 and sweeps == 233 // 50

    def test_frozen_counts_but_never_sweeps(self):
        m = DynamicMatcher(params=DynamicParams(maintenance_interval=8))
        m.freeze()
        m.match_batch([Event({"a": 1})] * 64)
        assert m._ops == 64 and m.maintenance["sweeps"] == 0


class CountingStatistics(EventStatistics):
    """Counts the schema-level ν evaluations a load asks for."""

    def __init__(self):
        super().__init__()
        self.expected_nu_calls = 0

    def expected_nu_schema(self, schema):
        self.expected_nu_calls += 1
        return super().expected_nu_schema(schema)


def w0_subscriptions(n, seed):
    return list(WorkloadGenerator(w0(n_subscriptions=n, seed=seed)).subscriptions(n))


class TestAddPathWork:
    """Counts, not timings: what one ``add`` may ask of its inputs."""

    def test_load_ranks_once_per_version_and_builds_no_access_predicates(self):
        # The add path cannot build one: the object form lives with the
        # placement differential's reference model, not in src/.
        assert not hasattr(repro.clustering, "AccessPredicate")
        stats = CountingStatistics()
        m = DynamicMatcher(statistics=stats)
        for sub in w0_subscriptions(5000, seed=2):
            m.add(sub)
        # Nothing was observed, so the only versions the load saw are
        # the table set's, one per table created (none was dropped).
        assert stats.version == 0 and m.maintenance["tables_dropped"] == 0
        versions = m.config.version + 1
        assert stats.expected_nu_calls <= len(m.config) * versions < 5000

    def test_kept_decisions_cost_under_one_percent_of_the_loads_heap(self):
        """The heap of a 20k W0 load — the subscriptions and everything
        the matcher built for them — with and without what the matcher
        keeps between placements.  (A chosen-schema memo per ``A(s)``,
        keyed on sorted attribute tuples, measured +3.0 % here; the
        ranking that replaced it is one list.)"""
        gc.collect()
        tracemalloc.start()
        try:
            subs = w0_subscriptions(20_000, seed=5)
            m = DynamicMatcher()
            for sub in subs:
                m.add(sub)
            assert m._entry_nus and m._ranked
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
            m._ranked = []
            m._singleton_attrs = set()
            m._entry_nus.clear()
            gc.collect()
            cleared = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 0 <= kept - cleared <= 0.01 * cleared
