"""The counting-algorithm baseline."""

import itertools
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.algorithms.counting as counting
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
from tests.properties.strategies import events, predicates


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


@st.composite
def shared_populations(draw):
    """Subscriptions drawn from a small predicate pool — so a predicate
    has a long member list — some removed again, and a batch of events."""
    pool = draw(st.lists(predicates(), min_size=1, max_size=10))
    n = draw(st.integers(min_value=1, max_value=80))
    subs = [
        Subscription(i, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
        for i in range(n)
    ]
    removed = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    batch = draw(st.lists(events(), min_size=2, max_size=40))
    return subs, removed, batch


class TestBoundedBatchKernel:
    """The batch kernel walks the truth matrix in chunks under
    ``_CHUNK_CELLS``; where the chunks fall changes neither a row nor
    the count of association entries touched."""

    @staticmethod
    def run(subs, removed, batch, budget):
        with mock.patch.object(counting, "_CHUNK_CELLS", budget):
            matcher = CountingMatcher()
            for sub in subs:
                matcher.add(sub)
            for i in sorted(removed):
                matcher.remove(i)
            rows = matcher.match_batch(batch)
            return rows, matcher.counters["subscription_checks"], matcher

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(shared_populations())
    def test_any_chunking_gives_the_same_rows_and_checks(self, population):
        subs, removed, batch = population
        one_row, checks, matcher = self.run(subs, removed, batch, budget=1)
        whole, whole_checks, _ = self.run(subs, removed, batch, budget=1 << 40)
        default, default_checks, _ = self.run(subs, removed, batch, counting._CHUNK_CELLS)
        assert one_row == whole == default
        assert checks == whole_checks == default_checks
        # ... and the scalar walk, row by row (ascending handle order).
        scalar = CountingMatcher()
        for sub in subs:
            scalar.add(sub)
        for i in sorted(removed):
            scalar.remove(i)
        assert one_row == [scalar.match(e) for e in batch]
        assert checks == scalar.counters["subscription_checks"]
        matcher.check_invariants()


def test_batch_kernel_scratch_stays_bounded():
    """Phase 2 of a W0 20k x 256 counting batch: 18 MiB of scratch when
    a chunk took as many rows as kept its int64 counts matrix under
    2**20 cells; about 0.4 MiB with both a chunk's expanded cells and
    its counts matrix under ``_CHUNK_CELLS``."""
    import gc
    import tracemalloc

    from repro.workload.generator import WorkloadGenerator
    from repro.workload.scenarios import w0

    gen = WorkloadGenerator(w0(n_subscriptions=20_000, seed=0))
    matcher = CountingMatcher()
    for sub in gen.subscriptions(20_000):
        matcher.add(sub)
    batch = list(itertools.islice(gen.events(), 256))
    truth = matcher._kernel.evaluate(batch, matcher.bits.size, out=matcher._scratch(256))
    matcher._match_phase2_batch(batch, truth)  # builds the association arrays
    gc.collect()
    tracemalloc.start()
    try:
        matcher._match_phase2_batch(batch, truth)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matcher.counters["subscription_checks"] > 0
    assert peak <= 1 << 20, f"{peak / 2**20:.2f} MiB of phase-2 scratch"
