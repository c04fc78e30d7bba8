"""Covering soundness and aggregation conformance, hypothesis-driven.

Two claims:

* ``covers(broad, narrow)`` is *sound*: whenever it answers True, the
  oracle's match sets nest — every event the narrow subscription
  matches, the broad one matches too (the semantic definition of
  subsumption, checked against generated events).
* The :class:`~repro.aggregation.AggregatingMatcher` is a transparent
  wrapper: over any generated population (small pools force duplicate
  canonical keys and covering chains) its expanded results equal the
  brute-force oracle over the raw subscriptions — before and after
  churn that removes frontier members, forcing covered groups to
  promote.  After every add and remove its covering forest passes
  :meth:`~repro.aggregation.forest.CoveringForest.check_invariants`.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregation import AggregatingMatcher
from repro.core import OracleMatcher, Subscription
from repro.core.covering import covers
from tests.properties.strategies import events, subscriptions

COMMON_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def norm(ids):
    return sorted(ids, key=str)


def add(agg, sub):
    agg.add(sub)
    agg._forest.check_invariants()


def remove(agg, sub_id):
    agg.remove(sub_id)
    agg._forest.check_invariants()


class TestCoveringSoundness:
    @COMMON_SETTINGS
    @given(
        broad=subscriptions(sub_id="broad"),
        narrow=subscriptions(sub_id="narrow"),
        evs=st.lists(events(), min_size=1, max_size=20),
    )
    def test_covers_implies_match_subset(self, broad, narrow, evs):
        if not covers(broad, narrow):
            return
        oracle = OracleMatcher()
        oracle.add(broad)
        oracle.add(narrow)
        for e in evs:
            matched = set(oracle.match(e))
            if "narrow" in matched:
                assert "broad" in matched, (broad, narrow, e)


class TestAggregationConformance:
    @COMMON_SETTINGS
    @given(
        population=st.lists(subscriptions(), min_size=1, max_size=25),
        evs=st.lists(events(), min_size=1, max_size=10),
        churn_seed=st.integers(min_value=2, max_value=5),
    )
    def test_expanded_results_equal_oracle(self, population, evs, churn_seed):
        agg, oracle = AggregatingMatcher(), OracleMatcher()
        added = []
        for i, s in enumerate(population):
            # Re-id to guarantee uniqueness; reuse of predicate pools
            # still produces duplicate canonical keys and coverings.
            s = Subscription(f"u{i}", s.predicates)
            add(agg, s)
            oracle.add(s)
            added.append(s)
        assert len(agg) == len(oracle)
        assert agg.frontier_size <= len(agg)
        for e in evs:
            assert norm(agg.match(e)) == norm(oracle.match(e))
        # Churn: remove a deterministic slice — frontier members among
        # them, exercising promotion of covered groups — then re-check.
        for s in added[::churn_seed]:
            remove(agg, s.id)
            oracle.remove(s.id)
        for e in evs:
            assert norm(agg.match(e)) == norm(oracle.match(e))

    @COMMON_SETTINGS
    @given(
        population=st.lists(subscriptions(), min_size=2, max_size=15),
        evs=st.lists(events(), min_size=1, max_size=8),
    )
    def test_remove_all_then_readd(self, population, evs):
        """Draining the matcher and rebuilding it converges (the WAL
        replay path is exactly this add-stream)."""
        subs = [
            Subscription(f"u{i}", s.predicates) for i, s in enumerate(population)
        ]
        agg, oracle = AggregatingMatcher(), OracleMatcher()
        for s in subs:
            add(agg, s)
            oracle.add(s)
        for s in subs:
            remove(agg, s.id)
        assert len(agg) == 0 and agg.frontier_size == 0
        for s in subs:
            add(agg, s)
        for e in evs:
            assert norm(agg.match(e)) == norm(oracle.match(e))
