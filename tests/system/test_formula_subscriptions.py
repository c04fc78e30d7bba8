"""Formula (DNF) subscriptions at the broker level."""

import pytest

from repro.core import Event, InvalidSubscriptionError, ParseError, UnknownSubscriptionError
from repro.system import PubSubBroker, QueueNotifier, VirtualClock, WriteAheadLog


@pytest.fixture
def broker():
    return PubSubBroker(
        clock=VirtualClock(), notifier=QueueNotifier(), event_retention_ttl=100.0
    )


class TestFormulaMatching:
    def test_or_matches_either_branch(self, broker):
        broker.subscribe_formula("genre = comedy or genre = drama", "fan")
        assert broker.publish(Event({"genre": "comedy"})) == ["fan"]
        assert broker.publish(Event({"genre": "drama"})) == ["fan"]
        assert broker.publish(Event({"genre": "horror"})) == []

    def test_one_notification_when_both_branches_match(self, broker):
        broker.subscribe_formula("price <= 10 or price <= 20", "dedup")
        matched = broker.publish(Event({"price": 5}))  # both disjuncts fire
        assert matched == ["dedup"]
        assert len(broker.notifier.drain()) == 1

    def test_logical_id_returned_not_disjunct_ids(self, broker):
        sid = broker.subscribe_formula("a = 1 or b = 2", "logical")
        assert sid == "logical"
        assert broker.publish(Event({"a": 1, "b": 2})) == ["logical"]

    def test_auto_id(self, broker):
        sid = broker.subscribe_formula("a = 1 or b = 2")
        assert sid.startswith("sub-")

    def test_mixed_with_plain_subscriptions(self, broker):
        from repro.core import Subscription, eq

        broker.subscribe(Subscription("plain", [eq("a", 1)]))
        broker.subscribe_formula("a = 1 or b = 2", "formula")
        assert sorted(broker.publish(Event({"a": 1}))) == ["formula", "plain"]


class TestFormulaIds:
    @pytest.mark.parametrize("journaled", [False, True], ids=["no-wal", "wal"])
    def test_an_id_with_no_str_form_is_refused_before_anything_happens(
        self, tmp_path, journaled
    ):
        """``str(10**5000)`` raises ``ValueError``: the disjuncts of such
        a formula cannot be named, so it is refused, naming the id."""
        huge = 10**5000
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "f.wal", clock=clock, fsync="never") if journaled else None
        broker = PubSubBroker(clock=clock, notifier=QueueNotifier(), wal=wal)
        appends = wal.counters["appends"] if wal else None
        with pytest.raises(InvalidSubscriptionError, match=f"<int of {huge.bit_length()} bits>"):
            broker.subscribe_formula("a = 1 or b = 2", sub_id=huge)
        assert broker.subscription_count == 0
        broker.check_invariants()
        if wal is not None:
            assert wal.counters["appends"] == appends
        assert broker.subscribe_formula("a = 1", sub_id=7) == 7
        assert broker.publish(Event({"a": 1})) == [7]
        if wal is not None:
            wal.close()


    @pytest.mark.parametrize("journaled", [False, True], ids=["no-wal", "wal"])
    def test_an_int_literal_past_the_digit_limit_is_a_parse_error(self, tmp_path, journaled):
        """``int()`` reads at most 4 300 digits: the formula is refused
        at the literal, before anything is installed or journaled."""
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "p.wal", clock=clock, fsync="never") if journaled else None
        broker = PubSubBroker(clock=clock, notifier=QueueNotifier(), wal=wal)
        appends = wal.counters["appends"] if wal else None
        with pytest.raises(ParseError) as error:
            broker.subscribe_formula("a = 1 or b = " + "9" * 5000, sub_id="f")
        assert error.value.position == 13
        assert broker.subscription_count == 0
        broker.check_invariants()
        if wal is not None:
            assert wal.counters["appends"] == appends
            wal.close()


class TestFormulaLifecycle:
    def test_unsubscribe_removes_all_disjuncts(self, broker):
        broker.subscribe_formula("a = 1 or b = 2", "f")
        broker.unsubscribe("f")
        assert broker.publish(Event({"a": 1})) == []
        assert broker.publish(Event({"b": 2})) == []

    def test_unsubscribe_unknown_formula(self, broker):
        with pytest.raises(UnknownSubscriptionError):
            broker.unsubscribe("ghost")

    def test_formula_ttl(self, broker):
        broker.subscribe_formula("a = 1 or b = 2", "f", ttl=10.0)
        assert broker.publish(Event({"a": 1})) == ["f"]
        broker.clock.advance(11)
        assert broker.publish(Event({"a": 1})) == []

    def test_expired_formulas_leave_nothing_behind(self, broker):
        """Regression: expiry dropped the disjuncts but kept the logical
        entry forever (a leak under formula churn)."""
        for i in range(5):
            broker.subscribe_formula(f"a = {i} or b = {i}", f"f{i}", ttl=1.0)
        broker.subscribe_formula("a = 9 or b = 9", "keeper", ttl=100.0)
        broker.clock.advance(5)
        assert broker.publish(Event({"a": 9})) == ["keeper"]
        assert broker.subscription_count == 2
        assert set(broker._table._formula_disjuncts) == {"keeper"}
        assert set(broker._table.logical_of.values()) == {"keeper"}
        broker.check_invariants()
        with pytest.raises(UnknownSubscriptionError):
            broker.unsubscribe("f0")

    def test_retro_match_deduplicated(self, broker):
        broker.publish(Event({"a": 1, "b": 2}))  # satisfies both branches
        broker.notifier.drain()
        broker.subscribe_formula("a = 1 or b = 2", "late")
        notes = broker.notifier.drain()
        assert [n.sub_id for n in notes] == ["late"]

    def test_not_formula(self, broker):
        broker.subscribe_formula("not (price <= 10)", "expensive")
        assert broker.publish(Event({"price": 50})) == ["expensive"]
        assert broker.publish(Event({"price": 5})) == []
