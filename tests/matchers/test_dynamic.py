"""The dynamic matcher: adaptation machinery."""

import random

import pytest

from repro.clustering import DynamicParams, EventStatistics
from repro.core import Event, Subscription, eq, le
from repro.matchers import DynamicMatcher


def fixed_pair_subs(n, seed=0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        out.append(
            Subscription(
                f"s{i}",
                [
                    eq("f1", rng.randint(1, 5)),
                    eq("f2", rng.randint(1, 5)),
                    eq(f"x{rng.randint(0, 3)}", rng.randint(1, 5)),
                ],
            )
        )
    return out


class TestLazySingletons:
    def test_singleton_tables_created_on_demand(self):
        m = DynamicMatcher()
        m.add(Subscription("s", [eq("a", 1), eq("b", 2)]))
        assert ("a",) in m.config and ("b",) in m.config

    def test_no_equality_goes_universal(self):
        m = DynamicMatcher()
        m.add(Subscription("s", [le("p", 10)]))
        assert m.stats()["universal_members"] == 1
        assert m.match(Event({"p": 3})) == ["s"]


class TestAdaptation:
    def test_creates_pair_table_under_load(self):
        params = DynamicParams(bm_max=2.0, b_create=16, maintenance_interval=64)
        m = DynamicMatcher(params=params)
        for s in fixed_pair_subs(600):
            m.add(s)
        assert ("f1", "f2") in m.config
        assert len(m.config.table(("f1", "f2"))) > 0
        assert m.maintenance["tables_created"] >= 1

    def test_matching_correct_after_adaptation(self):
        params = DynamicParams(bm_max=2.0, b_create=16, maintenance_interval=64)
        m = DynamicMatcher(params=params)
        subs = fixed_pair_subs(600)
        for s in subs:
            m.add(s)
        rng = random.Random(1)
        for _ in range(30):
            e = Event(
                {
                    "f1": rng.randint(1, 5),
                    "f2": rng.randint(1, 5),
                    **{f"x{j}": rng.randint(1, 5) for j in range(4)},
                }
            )
            expected = sorted(s.id for s in subs if s.is_satisfied_by(e))
            assert sorted(m.match(e)) == expected

    def test_benefit_margin_reported(self):
        m = DynamicMatcher()
        m.add(Subscription("s", [eq("a", 1)]))
        assert m.benefit_margin(("a",), (1,)) > 0
        assert m.benefit_margin(("a",), (99,)) == 0.0
        assert m.benefit_margin(("zz",), (1,)) == 0.0

    def test_sweep_drops_starved_multi_tables(self):
        params = DynamicParams(bm_max=2.0, b_create=8, b_delete=100,
                               maintenance_interval=32)
        m = DynamicMatcher(params=params)
        subs = fixed_pair_subs(600)
        for s in subs:
            m.add(s)
        assert any(len(schema) > 1 for schema in m.config.schemas())
        # remove almost everything; multi-attr tables starve below b_delete
        for s in subs[:-3]:
            m.remove(s.id)
        m.sweep()
        assert all(len(schema) == 1 for schema in m.config.schemas())
        # survivors still match
        e = Event({"f1": 1, "f2": 1, "x0": 1, "x1": 1, "x2": 1, "x3": 1})
        expected = sorted(s.id for s in subs[-3:] if s.is_satisfied_by(e))
        assert sorted(m.match(e)) == expected

    def test_singleton_tables_never_dropped(self):
        m = DynamicMatcher()
        s = Subscription("s", [eq("a", 1)])
        m.add(s)
        m.remove("s")
        m.sweep()
        assert ("a",) in m.config


class TestFreeze:
    def test_freeze_stops_table_creation(self):
        params = DynamicParams(bm_max=2.0, b_create=16, maintenance_interval=64)
        m = DynamicMatcher(params=params)
        m.freeze()
        assert m.frozen
        for s in fixed_pair_subs(600):
            m.add(s)
        assert all(len(schema) == 1 for schema in m.config.schemas())
        assert m.maintenance["tables_created"] == 0

    def test_frozen_still_matches_correctly(self):
        m = DynamicMatcher()
        m.freeze()
        subs = fixed_pair_subs(100)
        for s in subs:
            m.add(s)
        e = Event({"f1": 2, "f2": 3, "x0": 1, "x1": 2, "x2": 3, "x3": 4})
        expected = sorted(s.id for s in subs if s.is_satisfied_by(e))
        assert sorted(m.match(e)) == expected

    def test_unfreeze_resumes(self):
        params = DynamicParams(bm_max=2.0, b_create=16, maintenance_interval=64)
        m = DynamicMatcher(params=params)
        m.freeze()
        for s in fixed_pair_subs(600):
            m.add(s)
        m.unfreeze()
        m.sweep()
        assert m.maintenance["distributions"] >= 1


class TestObservation:
    def test_event_statistics_observed_with_sampling(self):
        stats = EventStatistics()
        m = DynamicMatcher(statistics=stats, observe_every=2)
        m.add(Subscription("s", [eq("a", 1)]))
        for _ in range(10):
            m.match(Event({"a": 1}))
        assert stats.events_observed == 5

    def test_observation_disabled(self):
        stats = EventStatistics()
        m = DynamicMatcher(statistics=stats, observe_events=False)
        m.add(Subscription("s", [eq("a", 1)]))
        m.match(Event({"a": 1}))
        assert stats.events_observed == 0

    def test_stats_surface(self):
        m = DynamicMatcher()
        m.add(Subscription("s", [eq("a", 1)]))
        s = m.stats()
        assert s["name"] == "dynamic"
        assert "maintenance" in s and "potential_tables" in s


def test_resident_bytes_per_subscription_stay_under_200():
    """What the engine itself holds for a W0 subscription (the caller
    keeps the ``Subscription`` objects, as the e2e harness does): the
    registry, the clusters, its handle and its home.  279 B while every
    placement also kept a ``(schema, key, size)`` tuple, 175 B while
    ids were mapped to homes and cluster columns by dicts; 165 B with
    one numbering (the bound is that + 10 %)."""
    import gc
    import tracemalloc

    from repro.workload.generator import WorkloadGenerator
    from repro.workload.scenarios import w0

    n = 20_000
    subs = list(WorkloadGenerator(w0(n_subscriptions=n, seed=0)).subscriptions(n))
    gc.collect()
    tracemalloc.start()
    try:
        matcher = DynamicMatcher()
        for sub in subs:
            matcher.add(sub)
        gc.collect()
        resident, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matcher) == n
    assert resident / n <= 182, f"{resident / n:.0f} B/subscription"
