"""The promoted fault-injection toolkit: public surface and wrappers."""

from __future__ import annotations

import math

import pytest

from repro.core import Event, Subscription, eq
from repro.matchers import DynamicMatcher
from repro.testing import (
    MATCHER_OPS,
    FaultyFile,
    FlakyMatcher,
    InjectedFault,
    SimulatedCrash,
    SlowMatcher,
    crash_at,
    faulty_opener,
)


def test_toolkit_is_importable_from_the_package_root():
    import repro.testing as testing

    for name in (
        "FaultyFile",
        "FlakyMatcher",
        "SlowMatcher",
        "InjectedFault",
        "SimulatedCrash",
        "crash_at",
        "faulty_opener",
    ):
        assert hasattr(testing, name)


class TestFlakyMatcher:
    def test_faults_until_budget_spent_then_heals(self):
        flaky = FlakyMatcher(DynamicMatcher(), failures=2)
        flaky.add(Subscription("a", [eq("x", 1)]))
        event = Event({"x": 1})
        for _ in range(2):
            with pytest.raises(InjectedFault):
                flaky.match(event)
        assert flaky.healed
        assert flaky.injected == 2
        assert flaky.match(event) == ["a"]

    def test_rearm_relapses_a_healed_matcher(self):
        flaky = FlakyMatcher(DynamicMatcher(), failures=0)
        flaky.add(Subscription("a", [eq("x", 1)]))
        assert flaky.match(Event({"x": 1})) == ["a"]
        flaky.rearm(1)
        assert not flaky.healed
        with pytest.raises(InjectedFault):
            flaky.match(Event({"x": 1}))
        assert flaky.injected == 1  # lifetime count survives rearm

    def test_infinite_budget_never_heals(self):
        flaky = FlakyMatcher(DynamicMatcher(), failures=math.inf)
        for _ in range(50):
            with pytest.raises(InjectedFault):
                flaky.match(Event({"x": 1}))
        assert not flaky.healed

    def test_faults_fire_before_the_inner_engine_is_touched(self):
        flaky = FlakyMatcher(
            DynamicMatcher(), failures=1, operations=("add",)
        )
        sub = Subscription("a", [eq("x", 1)])
        with pytest.raises(InjectedFault):
            flaky.add(sub)
        assert len(flaky) == 0  # no partial state behind a failed add
        flaky.add(sub)  # budget spent: the same add now lands
        assert flaky.match(Event({"x": 1})) == ["a"]

    def test_untargeted_operations_never_fault(self):
        flaky = FlakyMatcher(DynamicMatcher(), operations=("remove",))
        flaky.add(Subscription("a", [eq("x", 1)]))
        assert flaky.match(Event({"x": 1})) == ["a"]
        with pytest.raises(InjectedFault):
            flaky.remove("a")

    def test_custom_exception_factory(self):
        flaky = FlakyMatcher(
            DynamicMatcher(),
            failures=1,
            exc_factory=lambda op: OSError(f"disk died during {op}"),
        )
        with pytest.raises(OSError, match="disk died during match"):
            flaky.match(Event({"x": 1}))

    def test_validation(self):
        with pytest.raises(ValueError):
            FlakyMatcher(DynamicMatcher(), failures=-1)
        with pytest.raises(ValueError):
            FlakyMatcher(DynamicMatcher(), operations=("nonsense",))
        flaky = FlakyMatcher(DynamicMatcher())
        with pytest.raises(ValueError):
            flaky.rearm(-1)
        assert set(MATCHER_OPS) == {"add", "remove", "match"}

    def test_transparent_delegation(self):
        inner = DynamicMatcher()
        flaky = FlakyMatcher(inner, failures=0)
        flaky.add(Subscription("a", [eq("x", 1)]))
        assert len(flaky) == len(inner) == 1
        assert flaky.name == inner.name
        assert [s.id for s in flaky.iter_subscriptions()] == ["a"]
        assert flaky.stats() == inner.stats()
        assert flaky.remove("a").id == "a"


class TestSlowMatcher:
    def test_sleeps_before_delegating_targeted_operations(self):
        naps = []
        slow = SlowMatcher(
            DynamicMatcher(), delay=0.25, operations=("match",), sleep=naps.append
        )
        slow.add(Subscription("a", [eq("x", 1)]))
        assert naps == []  # add is not targeted
        assert slow.match(Event({"x": 1})) == ["a"]
        assert naps == [0.25]
        assert slow.delayed == 1

    def test_zero_delay_is_free(self):
        naps = []
        slow = SlowMatcher(DynamicMatcher(), delay=0.0, sleep=naps.append)
        slow.add(Subscription("a", [eq("x", 1)]))
        slow.match(Event({"x": 1}))
        assert naps == []
        assert slow.delayed == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowMatcher(DynamicMatcher(), delay=-0.1)
        with pytest.raises(ValueError):
            SlowMatcher(DynamicMatcher(), operations=("flush",))
