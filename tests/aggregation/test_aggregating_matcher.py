"""AggregatingMatcher: dedup, covering, expansion, composition, metrics."""

import pytest

from repro.aggregation import AggregatingMatcher
from repro.core import (
    DuplicateSubscriptionError,
    Event,
    Subscription,
    UnknownSubscriptionError,
    eq,
    ge,
    le,
)
from repro.core.oracle import OracleMatcher
from repro.matchers import MATCHER_FACTORIES, make_matcher
from repro.system.resilience import PartialResults
from repro.system.sharding import ShardedMatcher
from repro.testing.faults import FlakyMatcher, InjectedFault
from repro.workload import WorkloadGenerator, w0


def sub(sid, *preds):
    return Subscription(sid, list(preds))


def norm(ids):
    return sorted(ids, key=str)


class TestDedup:
    def test_exact_duplicates_share_one_frontier_entry(self):
        m = AggregatingMatcher()
        for i in range(5):
            m.add(sub(f"u{i}", eq("x", 1)))
        assert len(m) == 5 and m.frontier_size == 1
        assert len(m.inner) == 1
        assert norm(m.match(Event({"x": 1}))) == [f"u{i}" for i in range(5)]

    def test_syntactic_variants_canonicalize_together(self):
        m = AggregatingMatcher()
        m.add(sub("a", eq("x", 5), le("x", 9)))  # simplifies to x = 5
        m.add(sub("b", eq("x", 5)))
        m.add(sub("c", le("x", 9), eq("x", 5.0)))  # 5.0 interns with 5
        assert m.frontier_size == 1
        assert norm(m.match(Event({"x": 5}))) == ["a", "b", "c"]

    def test_refcount_survives_partial_removal(self):
        m = AggregatingMatcher()
        m.add(sub("a", eq("x", 1)))
        m.add(sub("b", eq("x", 1)))
        m.remove("a")
        assert m.match(Event({"x": 1})) == ["b"]
        m.remove("b")
        assert m.match(Event({"x": 1})) == [] and m.frontier_size == 0

    def test_duplicate_id_rejected(self):
        m = AggregatingMatcher()
        m.add(sub("a", eq("x", 1)))
        with pytest.raises(DuplicateSubscriptionError):
            m.add(sub("a", eq("x", 2)))

    def test_unknown_removal_rejected(self):
        m = AggregatingMatcher()
        with pytest.raises(UnknownSubscriptionError):
            m.remove("ghost")


class TestCovering:
    def test_covered_subscription_never_reaches_inner(self):
        m = AggregatingMatcher()
        m.add(sub("broad", le("p", 100)))
        m.add(sub("narrow", le("p", 50)))
        assert len(m.inner) == 1 and m.frontier_size == 1

    def test_expansion_tests_covered_children(self):
        m = AggregatingMatcher()
        m.add(sub("broad", le("p", 100)))
        m.add(sub("narrow", le("p", 50)))
        assert norm(m.match(Event({"p": 30}))) == ["broad", "narrow"]
        # Covering is one-directional: the parent matching must not
        # drag a non-matching child into the result.
        assert norm(m.match(Event({"p": 80}))) == ["broad"]

    def test_broad_late_arrival_demotes(self):
        m = AggregatingMatcher()
        m.add(sub("narrow", le("p", 50)))
        m.add(sub("broad", le("p", 100)))
        assert m.frontier_size == 1 and len(m.inner) == 1
        assert norm(m.match(Event({"p": 30}))) == ["broad", "narrow"]

    def test_unsubscribing_frontier_promotes_covered(self):
        m = AggregatingMatcher()
        m.add(sub("broad", le("p", 100)))
        m.add(sub("narrow", le("p", 50)))
        m.remove("broad")
        assert m.frontier_size == 1
        assert m.match(Event({"p": 30})) == ["narrow"]
        assert m.match(Event({"p": 80})) == []

    def test_unsatisfiable_subscription_is_inert(self):
        m = AggregatingMatcher()
        m.add(sub("never", eq("x", 1), eq("x", 2)))
        assert len(m) == 1 and m.frontier_size == 0 and len(m.inner) == 0
        assert m.match(Event({"x": 1})) == []
        assert m.remove("never").id == "never"
        assert len(m) == 0


class TestFailedInnerWrite:
    """A write the inner matcher refuses changes nothing: the forest,
    the group maps and the inner matcher stay as they were, and a retry
    gives the oracle's answer."""

    EVENTS = [Event({"a": 0}), Event({"a": 2}), Event({"a": 6})]

    @staticmethod
    def flaky(op):
        return FlakyMatcher(make_matcher("dynamic"), failures=0, operations=(op,))

    def observed(self, m):
        return (
            len(m),
            m.frontier_size,
            len(m.inner),
            [norm(m.match(e)) for e in self.EVENTS],
        )

    def fail_once(self, m, op, call):
        m.inner.rearm(1)
        before = self.observed(m)
        with pytest.raises(InjectedFault):
            call()
        assert m.inner.healed
        assert self.observed(m) == before
        m._forest.check_invariants()

    def assert_oracle(self, m, subs):
        oracle = OracleMatcher()
        for s in subs:
            oracle.add(s)
        assert [norm(m.match(e)) for e in self.EVENTS] == [
            norm(oracle.match(e)) for e in self.EVENTS
        ]

    def test_a_failed_add_leaves_no_ghost_group(self):
        m = AggregatingMatcher(inner=self.flaky("add"))
        x, y = sub("x", ge("a", 1)), sub("y", ge("a", 5))
        self.fail_once(m, "add", lambda: m.add(x))
        m.add(y)  # was filed under the ghost of x and matched nothing
        assert norm(m.match(Event({"a": 6}))) == ["y"]
        m.add(x)
        self.assert_oracle(m, [x, y])

    @pytest.mark.parametrize("op", ["add", "remove"])
    def test_a_failed_demoting_add_changes_nothing(self, op):
        # x's group is demoted under the broader newcomer z: the inner
        # add of z or the inner remove of x may fail.
        m = AggregatingMatcher(inner=self.flaky(op))
        x, z = sub("x", ge("a", 5)), sub("z", ge("a", 1))
        m.add(x)
        self.fail_once(m, op, lambda: m.add(z))
        m.add(z)
        assert m.frontier_size == 1
        self.assert_oracle(m, [x, z])

    @pytest.mark.parametrize("op", ["remove", "add"])
    def test_a_failed_remove_leaves_the_group_in_place(self, op):
        # Removing frontier x removes it from the inner matcher and
        # promotes the covered y into it: either write may fail.
        m = AggregatingMatcher(inner=self.flaky(op))
        x, y = sub("x", ge("a", 1)), sub("y", ge("a", 5))
        m.add(x)
        m.add(y)
        self.fail_once(m, op, lambda: m.remove("x"))
        assert m.get("x") is x
        m.remove("x")
        self.assert_oracle(m, [y])
        m._forest.check_invariants()


class TestMatcherSurface:
    def test_iter_subscriptions_returns_raw(self):
        m = AggregatingMatcher()
        raw = [sub("a", le("p", 100)), sub("b", le("p", 50)), sub("c", le("p", 50))]
        for s in raw:
            m.add(s)
        assert sorted(s.id for s in m.iter_subscriptions()) == ["a", "b", "c"]
        assert m.get("b").predicates == raw[1].predicates
        with pytest.raises(UnknownSubscriptionError):
            m.get("ghost")

    def test_match_batch_equals_scalar(self):
        gen = WorkloadGenerator(w0(n_subscriptions=300, seed=3))
        subs = list(gen.subscriptions())
        events = list(gen.events(30))
        a, b = AggregatingMatcher(), AggregatingMatcher()
        for s in subs:
            a.add(s)
            b.add(s)
        batched = a.match_batch(events)
        for e, ids in zip(events, batched):
            assert norm(ids) == norm(b.match(e))

    def test_stats_contract_and_shape(self):
        m = AggregatingMatcher()
        m.add(sub("a", le("p", 100)))
        m.add(sub("b", le("p", 50)))
        m.add(sub("c", le("p", 50)))
        m.match(Event({"p": 10}))
        st = m.stats()
        assert st["name"] == "aggregating"
        assert st["subscriptions"] == 3
        assert st["frontier_size"] == 1
        assert st["groups"] == 2 and st["covered_groups"] == 1
        assert st["counters"]["duplicates"] == 1
        assert st["counters"]["covered"] == 1
        assert st["counters"]["expansions"] == 3
        assert st["inner"]["name"]

    def test_metrics_families_exported(self):
        m = AggregatingMatcher()
        registry = m.use_metrics()
        m.add(sub("a", le("p", 100)))
        m.add(sub("b", le("p", 50)))
        m.add(sub("c", le("p", 50)))
        m.match(Event({"p": 10}))
        snap = registry.snapshot()
        values = {
            fam["name"]: fam["samples"][0]["value"]
            for fam in snap["metrics"]
            if fam["name"].startswith("repro_agg_") and fam["samples"]
        }
        assert values["repro_agg_frontier_size"] == 1
        assert values["repro_agg_subscribers"] == 3
        assert values["repro_agg_duplicates_total"] == 1
        assert values["repro_agg_covered_total"] == 1
        assert values["repro_agg_expansions_total"] == 3

    def test_registered_in_factories(self):
        m = make_matcher("aggregating", inner="counting")
        assert isinstance(m, AggregatingMatcher)
        assert "aggregating" in MATCHER_FACTORIES


class TestComposition:
    def test_sharded_inner_preserves_degraded_flag(self):
        m = AggregatingMatcher(
            inner=lambda: ShardedMatcher(shards=2, router="hash", breaker=True)
        )
        m.add(sub("a", eq("x", 1)))
        m.add(sub("b", eq("x", 1)))
        sharded = m.inner
        # Force both breakers open: every shard is quarantined, so the
        # match degrades instead of failing.
        for breaker in sharded._breakers:
            while breaker.state != "open":
                breaker.record_failure()
        result = m.match(Event({"x": 1}))
        assert isinstance(result, PartialResults) and result.degraded
        m.close()

    def test_aggregating_as_sharded_inner(self):
        m = ShardedMatcher(shards=2, router="hash", inner="aggregating")
        gen = WorkloadGenerator(w0(n_subscriptions=200, seed=5))
        subs = list(gen.subscriptions())
        events = list(gen.events(20))
        oracle = OracleMatcher()
        for s in subs:
            m.add(s)
            oracle.add(s)
        for e in events:
            assert norm(m.match(e)) == norm(oracle.match(e))
        m.close()

    def test_differential_with_churn(self):
        gen = WorkloadGenerator(w0(n_subscriptions=400, seed=9))
        subs = list(gen.subscriptions())
        events = list(gen.events(25))
        m, oracle = AggregatingMatcher(), OracleMatcher()
        for s in subs:
            m.add(s)
            oracle.add(s)
        for e in events[:10]:
            assert norm(m.match(e)) == norm(oracle.match(e))
        # Churn: remove every third subscription (frontier members
        # among them — promotions exercised), then re-check.
        for s in subs[::3]:
            m.remove(s.id)
            oracle.remove(s.id)
        for e in events[10:]:
            assert norm(m.match(e)) == norm(oracle.match(e))
        assert len(m) == len(oracle)
