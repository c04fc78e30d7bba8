"""The counting-algorithm baseline."""

import pytest

from repro.algorithms import CountingMatcher
from repro.core import (
    DuplicateSubscriptionError,
    Event,
    Subscription,
    UnknownSubscriptionError,
    eq,
    ge,
    le,
)


@pytest.fixture
def matcher():
    m = CountingMatcher()
    m.add(Subscription("movie-fan", [eq("movie", "gd"), le("price", 10)]))
    m.add(Subscription("collector", [eq("movie", "gd")]))
    m.add(Subscription("range", [ge("price", 5), le("price", 9)]))
    return m


class TestCounting:
    def test_full_match(self, matcher):
        got = matcher.match(Event({"movie": "gd", "price": 8}))
        assert sorted(got) == ["collector", "movie-fan", "range"]

    def test_partial_hits_do_not_match(self, matcher):
        # price 12 satisfies only ge(5): 1 of 2 hits for "range".
        got = matcher.match(Event({"movie": "gd", "price": 12}))
        assert sorted(got) == ["collector"]

    def test_count_resets_between_events(self, matcher):
        matcher.match(Event({"movie": "gd"}))
        # second event must not inherit hit counts
        got = matcher.match(Event({"price": 8}))
        assert got == ["range"]

    def test_shared_predicate_counts_once_per_sub(self):
        m = CountingMatcher()
        m.add(Subscription("a", [eq("x", 1), eq("y", 2)]))
        m.add(Subscription("b", [eq("x", 1)]))
        assert sorted(m.match(Event({"x": 1, "y": 2}))) == ["a", "b"]
        assert m.match(Event({"x": 1})) == ["b"]

    def test_remove_cleans_association(self, matcher):
        matcher.remove("collector")
        got = matcher.match(Event({"movie": "gd", "price": 8}))
        assert sorted(got) == ["movie-fan", "range"]
        assert len(matcher) == 2

    def test_remove_frees_shared_bits_correctly(self):
        m = CountingMatcher()
        m.add(Subscription("a", [eq("x", 1)]))
        m.add(Subscription("b", [eq("x", 1)]))
        m.remove("a")
        assert m.match(Event({"x": 1})) == ["b"]

    def test_duplicate_and_unknown(self, matcher):
        with pytest.raises(DuplicateSubscriptionError):
            matcher.add(Subscription("range", [eq("z", 1)]))
        with pytest.raises(UnknownSubscriptionError):
            matcher.remove("zzz")

    def test_stats(self, matcher):
        matcher.match(Event({"movie": "gd", "price": 8}))
        s = matcher.stats()
        assert s["name"] == "counting"
        assert s["association_entries"] >= 3
        assert s["counters"]["events"] == 1
        assert s["distinct_predicates"] == 4


def test_resident_bytes_per_subscription_stay_under_129():
    """What the engine itself holds for a W0 subscription (the caller
    keeps the ``Subscription`` objects): the registry, its handle, its
    threshold and one association entry per predicate.  290 B while
    the association held sets of ids and thresholds a dict; 118 B with
    handles in per-bit lists (the bound is that + 10 %)."""
    import gc
    import tracemalloc

    from repro.workload.generator import WorkloadGenerator
    from repro.workload.scenarios import w0

    n = 20_000
    subs = list(WorkloadGenerator(w0(n_subscriptions=n, seed=0)).subscriptions(n))
    gc.collect()
    tracemalloc.start()
    try:
        matcher = CountingMatcher()
        for sub in subs:
            matcher.add(sub)
        gc.collect()
        resident, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(matcher) == n
    assert resident / n <= 129, f"{resident / n:.0f} B/subscription"
