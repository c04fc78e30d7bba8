"""The event store's retro-matching index: one probe per subscription of
a unit (a plain subscription, or a formula's disjuncts)."""

import random

import pytest

from repro.core import Event, Subscription, eq, ge, le
from repro.system.event_store import EventStore
from tests.conftest import make_event, make_subscription


class TestRetroMatch:
    @pytest.fixture
    def store(self):
        s = EventStore()
        s.add(Event({"movie": "gd", "price": 8}), expires_at=100.0)
        s.add(Event({"movie": "gd", "price": 14}), expires_at=100.0)
        s.add(Event({"movie": "other", "price": 5}), expires_at=100.0)
        return s

    def test_equality_narrowing(self, store):
        sub = Subscription("s", [eq("movie", "gd"), le("price", 10)])
        assert store.retro_match([sub], now=0.0) == [Event({"movie": "gd", "price": 8})]

    def test_unknown_pair_short_circuits(self, store):
        sub = Subscription("s", [eq("movie", "missing")])
        assert store.retro_match([sub], now=0.0) == []

    def test_no_equality_scans(self, store):
        sub = Subscription("s", [le("price", 8)])
        got = store.retro_match([sub], now=0.0)
        assert got == [
            Event({"movie": "gd", "price": 8}),
            Event({"movie": "other", "price": 5}),
        ]

    def test_expired_events_excluded(self, store):
        sub = Subscription("s", [eq("movie", "gd")])
        assert store.retro_match([sub], now=100.0) == []

    def test_purge_cleans_index(self, store):
        store.purge(100.0)
        sub = Subscription("s", [eq("movie", "gd")])
        assert store.retro_match([sub], now=0.0) == []
        assert "pairs=0" in repr(store)

    def test_publication_order(self):
        store = EventStore()
        for i in range(5):
            store.add(Event({"k": 1, "n": i}), 100.0)
        sub = Subscription("s", [eq("k", 1)])
        assert [e["n"] for e in store.retro_match([sub], 0.0)] == [0, 1, 2, 3, 4]

    def test_rarest_pair_probed(self):
        store = EventStore()
        for i in range(50):
            store.add(Event({"common": 1, "unique": i}), 100.0)
        sub = Subscription("s", [eq("common", 1), eq("unique", 7)])
        got = store.retro_match([sub], 0.0)
        assert got == [Event({"common": 1, "unique": 7})]

    def test_agrees_with_scan(self, rng):
        store = EventStore()
        events = [make_event(rng) for _ in range(100)]
        for e in events:
            store.add(e, 100.0)
        for i in range(40):
            sub = make_subscription(rng, f"s{i}")
            expected = [e for e in events if sub.is_satisfied_by(e)]
            assert store.retro_match([sub], 0.0) == expected

    def test_a_unit_is_the_union_of_its_subscriptions(self, rng):
        store = EventStore()
        events = [make_event(rng) for _ in range(100)]
        for e in events:
            store.add(e, 100.0)
        for i in range(40):
            unit = [make_subscription(rng, f"s{i}#{k}") for k in range(rng.randint(1, 3))]
            expected = [e for e in events if any(s.is_satisfied_by(e) for s in unit)]
            assert store.retro_match(unit, 0.0) == expected

    def test_an_event_both_disjuncts_match_comes_once(self, store):
        unit = [Subscription("f#0", [eq("movie", "gd")]), Subscription("f#1", [le("price", 8)])]
        assert store.retro_match(unit, now=0.0) == [
            Event({"movie": "gd", "price": 8}),
            Event({"movie": "gd", "price": 14}),
            Event({"movie": "other", "price": 5}),
        ]
        assert store.retro_match([], now=0.0) == []
