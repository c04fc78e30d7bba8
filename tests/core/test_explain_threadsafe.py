"""Match explanation and the thread-safe wrapper."""

import threading

import pytest

from repro.core import Event, OracleMatcher, Subscription, eq, ge, le
from repro.core.explain import MatchExplanation, explain, why_not
from repro.core.threadsafe import ThreadSafeMatcher
from repro.matchers import DynamicMatcher, PropagationMatcher


@pytest.fixture
def matcher():
    m = DynamicMatcher()
    m.add(Subscription("cheap", [eq("movie", "gd"), le("price", 10)]))
    m.add(Subscription("any", [eq("movie", "gd")]))
    m.add(Subscription("other", [eq("movie", "casablanca")]))
    return m


class TestExplain:
    def test_structure(self, matcher):
        exp = explain(matcher, Event({"movie": "gd", "price": 8}))
        assert isinstance(exp, MatchExplanation)
        assert sorted(exp.matched) == ["any", "cheap"]
        assert exp.total_predicates == 3  # movie=gd shared between two subs
        sat = {p.as_tuple() for p, _bit in exp.satisfied_predicates}
        assert sat == {("movie", "=", "gd"), ("price", "<=", 10)}
        assert exp.subscriptions_checked >= 2

    def test_selectivity(self, matcher):
        exp = explain(matcher, Event({"movie": "gd", "price": 8}))
        assert exp.selectivity == pytest.approx(2 / 3)

    def test_describe_readable(self, matcher):
        text = explain(matcher, Event({"movie": "gd", "price": 8})).describe()
        assert "phase 1" in text and "phase 2" in text and "matched" in text
        assert "movie = 'gd'" in text

    def test_describe_names_values_and_ids_past_the_digit_limit(self):
        """``repr(10**5000)`` raises ``ValueError``: the summary names
        such a value or id by type and size."""
        huge = 10**5000
        named = f"<int of {huge.bit_length()} bits>"
        m = DynamicMatcher()
        m.add(Subscription(huge, [eq("n", huge)]))
        m.add(Subscription("s", [eq("n", huge)]))
        text = explain(m, Event({"n": huge})).describe()
        assert f"event: Event(n={named})" in text
        assert f"n = {named}" in text
        assert f"matched: ['s', {named}]" in text

    def test_matches_plain_match(self, matcher):
        e = Event({"movie": "gd", "price": 30})
        assert sorted(explain(matcher, e).matched) == sorted(matcher.match(e))

    def test_requires_two_phase_matcher(self):
        with pytest.raises(TypeError):
            explain(OracleMatcher(), Event({"x": 1}))

    def test_works_on_propagation(self):
        m = PropagationMatcher()
        m.add(Subscription("s", [eq("x", 1), ge("y", 5)]))
        exp = explain(m, Event({"x": 1, "y": 2}))
        assert exp.matched == []
        assert len(exp.satisfied_predicates) == 1


class TestWhyNot:
    def test_lists_failing_predicates(self, matcher):
        failing = why_not(matcher, "cheap", Event({"movie": "gd", "price": 30}))
        assert failing == [le("price", 10)]

    def test_missing_attribute_reported(self, matcher):
        failing = why_not(matcher, "cheap", Event({"price": 5}))
        assert failing == [eq("movie", "gd")]

    def test_empty_when_matching(self, matcher):
        assert why_not(matcher, "cheap", Event({"movie": "gd", "price": 5})) == []


class TestThreadSafeMatcher:
    def test_delegation(self):
        ts = ThreadSafeMatcher(DynamicMatcher())
        ts.add(Subscription("s", [eq("x", 1)]))
        assert ts.match(Event({"x": 1})) == ["s"]
        assert len(ts) == 1
        assert ts.name == "dynamic"
        assert ts.stats()["thread_safe"] is True
        assert ts.remove("s").id == "s"

    def test_concurrent_hammering_stays_consistent(self):
        ts = ThreadSafeMatcher(DynamicMatcher())
        errors = []

        def worker(tid):
            try:
                for i in range(100):
                    sid = f"t{tid}-{i}"
                    ts.add(Subscription(sid, [eq("x", i % 5), le("y", i % 7)]))
                    ts.match(Event({"x": i % 5, "y": 3}))
                    ts.remove(sid)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(ts) == 0
        # the engine is still coherent afterwards
        ts.add(Subscription("final", [eq("x", 1)]))
        assert ts.match(Event({"x": 1})) == ["final"]


class TestExactBenefitMargin:
    def test_exact_at_most_approximation(self):
        m = DynamicMatcher()
        for i in range(40):
            m.add(Subscription(f"s{i}", [eq("a", 1), eq("b", i % 4)]))
        approx = m.benefit_margin(("a",), (1,))
        exact = m.exact_benefit_margin(("a",), (1,))
        assert 0.0 <= exact <= approx + 1e-9

    def test_zero_for_missing_entry(self):
        m = DynamicMatcher()
        assert m.exact_benefit_margin(("a",), (1,)) == 0.0
