"""Engine conformance battery: the Matcher contract, per engine.

One parametrized suite over every registered engine, so a new engine
automatically inherits the full behavioural contract.
"""

import pytest

from repro.bench.harness import uniform_statistics_for
from repro.core import (
    DuplicateSubscriptionError,
    Event,
    Subscription,
    UnknownSubscriptionError,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
)
from repro.matchers import MATCHER_FACTORIES
from repro.workload import w0

ENGINES = sorted(MATCHER_FACTORIES)


def build(engine):
    if engine == "static":
        return MATCHER_FACTORIES[engine](uniform_statistics_for(w0()))
    return MATCHER_FACTORIES[engine]()


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


@pytest.fixture
def matcher(engine):
    return build(engine)


class TestContract:
    def test_empty_matcher_matches_nothing(self, matcher):
        assert matcher.match(Event({"x": 1})) == []
        assert len(matcher) == 0

    def test_single_predicate_each_operator(self, matcher):
        matcher.add(Subscription("lt", [lt("v", 10)]))
        matcher.add(Subscription("le", [le("v", 10)]))
        matcher.add(Subscription("eq", [eq("v", 10)]))
        matcher.add(Subscription("ne", [ne("v", 10)]))
        matcher.add(Subscription("ge", [ge("v", 10)]))
        matcher.add(Subscription("gt", [gt("v", 10)]))
        assert sorted(matcher.match(Event({"v": 10}))) == ["eq", "ge", "le"]
        assert sorted(matcher.match(Event({"v": 9}))) == ["le", "lt", "ne"]
        assert sorted(matcher.match(Event({"v": 11}))) == ["ge", "gt", "ne"]

    def test_conjunction_requires_all(self, matcher):
        matcher.add(Subscription("s", [eq("a", 1), eq("b", 2), le("c", 3)]))
        assert matcher.match(Event({"a": 1, "b": 2, "c": 3})) == ["s"]
        assert matcher.match(Event({"a": 1, "b": 2, "c": 4})) == []
        assert matcher.match(Event({"a": 1, "b": 2})) == []

    def test_missing_attribute_never_matches(self, matcher):
        matcher.add(Subscription("s", [eq("needed", 1)]))
        assert matcher.match(Event({"other": 1})) == []

    def test_string_values(self, matcher):
        matcher.add(Subscription("s", [eq("movie", "groundhog day")]))
        assert matcher.match(Event({"movie": "groundhog day"})) == ["s"]
        assert matcher.match(Event({"movie": "other"})) == []

    def test_duplicate_id_rejected(self, matcher):
        matcher.add(Subscription("s", [eq("x", 1)]))
        with pytest.raises(DuplicateSubscriptionError):
            matcher.add(Subscription("s", [eq("x", 2)]))
        # and the original stays intact
        assert matcher.match(Event({"x": 1})) == ["s"]

    def test_remove_unknown_raises(self, matcher):
        with pytest.raises(UnknownSubscriptionError):
            matcher.remove("ghost")

    def test_remove_returns_subscription_and_stops_matching(self, matcher):
        sub = Subscription("s", [eq("x", 1)])
        matcher.add(sub)
        removed = matcher.remove("s")
        assert removed.id == "s"
        assert matcher.match(Event({"x": 1})) == []
        assert len(matcher) == 0

    def test_readd_after_remove(self, matcher):
        sub = Subscription("s", [eq("x", 1), le("y", 5)])
        matcher.add(sub)
        matcher.remove("s")
        matcher.add(sub)
        assert matcher.match(Event({"x": 1, "y": 3})) == ["s"]

    def test_identical_predicates_distinct_ids(self, matcher):
        matcher.add(Subscription("a", [eq("x", 1)]))
        matcher.add(Subscription("b", [eq("x", 1)]))
        assert sorted(matcher.match(Event({"x": 1}))) == ["a", "b"]
        matcher.remove("a")
        assert matcher.match(Event({"x": 1})) == ["b"]

    def test_no_duplicates_in_result(self, matcher):
        matcher.add(Subscription("s", [eq("a", 1), le("a", 5)]))
        got = matcher.match(Event({"a": 1}))
        assert got == ["s"]

    def test_int_ids_supported(self, matcher):
        matcher.add(Subscription(7, [eq("x", 1)]))
        assert matcher.match(Event({"x": 1})) == [7]
        assert matcher.remove(7).id == 7

    def test_stats_has_name_and_count(self, matcher, engine):
        matcher.add(Subscription("s", [eq("x", 1)]))
        stats = matcher.stats()
        assert stats["name"] == engine
        assert stats["subscriptions"] == 1

    def test_match_batch(self, matcher):
        matcher.add(Subscription("s", [eq("x", 1)]))
        assert matcher.match_batch([Event({"x": 1}), Event({"x": 2})]) == [["s"], []]

    def test_float_and_int_values_interchangeable(self, matcher):
        matcher.add(Subscription("s", [le("p", 10)]))
        assert matcher.match(Event({"p": 9.5})) == ["s"]
        assert matcher.match(Event({"p": 10.5})) == []
