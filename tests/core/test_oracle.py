"""The brute-force oracle matcher and the Matcher base conveniences."""

import pytest

from repro.core import (
    DuplicateSubscriptionError,
    Event,
    OracleMatcher,
    Subscription,
    UnknownSubscriptionError,
    eq,
    le,
)


@pytest.fixture
def oracle():
    m = OracleMatcher()
    m.add(Subscription("cheap", [eq("movie", "gd"), le("price", 10)]))
    m.add(Subscription("any", [eq("movie", "gd")]))
    return m


class TestOracle:
    def test_match(self, oracle):
        got = oracle.match(Event({"movie": "gd", "price": 8}))
        assert sorted(got) == ["any", "cheap"]

    def test_partial_match(self, oracle):
        assert oracle.match(Event({"movie": "gd", "price": 20})) == ["any"]

    def test_no_match(self, oracle):
        assert oracle.match(Event({"movie": "other", "price": 5})) == []

    def test_duplicate_id_rejected(self, oracle):
        with pytest.raises(DuplicateSubscriptionError):
            oracle.add(Subscription("cheap", [eq("x", 1)]))

    def test_remove_returns_subscription(self, oracle):
        sub = oracle.remove("cheap")
        assert sub.id == "cheap"
        assert len(oracle) == 1

    def test_remove_unknown_raises(self, oracle):
        with pytest.raises(UnknownSubscriptionError):
            oracle.remove("nope")

    def test_get(self, oracle):
        assert oracle.get("any").id == "any"
        with pytest.raises(UnknownSubscriptionError):
            oracle.get("nope")


class TestMatcherConveniences:
    def test_add_batch(self):
        m = OracleMatcher()
        m.add_batch(Subscription(f"s{i}", [eq("x", i)]) for i in range(5))
        assert len(m) == 5
        assert [s.id for s in m.remove_batch(["s3", "s1"])] == ["s3", "s1"]
        assert len(m) == 3

    def test_match_batch(self):
        m = OracleMatcher()
        m.add(Subscription("s", [eq("x", 1)]))
        results = m.match_batch([Event({"x": 1}), Event({"x": 2})])
        assert results == [["s"], []]

    def test_stats(self):
        m = OracleMatcher()
        m.add(Subscription("s", [eq("x", 1)]))
        s = m.stats()
        assert s["name"] == "oracle" and s["subscriptions"] == 1
