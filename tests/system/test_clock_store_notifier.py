"""Clocks, the event store and notification sinks."""

import pytest

from repro.core import Event, Subscription, eq, ge
from repro.system import (
    EventStore,
    FanoutNotifier,
    Notification,
    PubSubBroker,
    NullNotifier,
    QueueNotifier,
    SystemClock,
    VirtualClock,
)


class TestClocks:
    def test_system_clock_monotone(self):
        c = SystemClock()
        assert c.now() <= c.now()

    def test_virtual_clock_advance(self):
        c = VirtualClock(10.0)
        assert c.now() == 10.0
        assert c.advance(5) == 15.0

    def test_virtual_clock_set(self):
        c = VirtualClock()
        c.set(100.0)
        assert c.now() == 100.0

    def test_no_time_travel(self):
        c = VirtualClock(10.0)
        with pytest.raises(ValueError):
            c.advance(-1)
        with pytest.raises(ValueError):
            c.set(5.0)


class TestEventStore:
    def test_add_and_valid(self):
        store = EventStore()
        store.add(Event({"a": 1}), expires_at=10.0)
        store.add(Event({"b": 2}), expires_at=20.0)
        assert len(store) == 2
        either = [Subscription("a", [ge("a", 0)]), Subscription("b", [ge("b", 0)])]
        assert store.retro_match(either, 15.0) == [Event({"b": 2})]

    def test_purge(self):
        store = EventStore()
        store.add(Event({"a": 1}), 10.0)
        store.add(Event({"b": 2}), 20.0)
        assert store.purge(10.0) == 1
        assert len(store) == 1

    def test_purge_boundary_inclusive(self):
        store = EventStore()
        store.add(Event({"a": 1}), 10.0)
        assert store.purge(10.0) == 1

    def test_publication_order_preserved(self):
        store = EventStore()
        for i in range(5):
            store.add(Event({"n": i}), 100.0)
        events = store.retro_match([Subscription("s", [ge("n", 0)])], 0.0)
        assert [e["n"] for e in events] == [0, 1, 2, 3, 4]


class TestNotifiers:
    def _note(self):
        return Notification("s1", Event({"a": 1}), 0.0)

    def test_queue_drains_in_order(self):
        q = QueueNotifier()
        q.deliver(self._note())
        q.deliver(Notification("s2", Event({"a": 2}), 1.0))
        drained = q.drain()
        assert [n.sub_id for n in drained] == ["s1", "s2"]
        assert len(q) == 0 and q.drain() == []

    def test_queue_maxlen_drops_oldest(self):
        q = QueueNotifier(maxlen=2)
        for i in range(5):
            q.deliver(Notification(f"s{i}", Event({"a": 1}), 0.0))
        assert [n.sub_id for n in q.drain()] == ["s3", "s4"]

    def test_callback(self):
        # A plain callable is a sink: no adapter class between it and
        # the broker.
        seen = []
        broker = PubSubBroker(notifier=seen.append)
        broker.subscribe(Subscription("s1", [eq("a", 1)]))
        broker.publish(Event({"a": 1}))
        assert seen[0].sub_id == "s1"
        with pytest.raises(TypeError):
            PubSubBroker(notifier=object())

    def test_null_discards(self):
        NullNotifier().deliver(self._note())  # must not raise

    def test_fanout(self):
        q1, q2 = QueueNotifier(), QueueNotifier()
        f = FanoutNotifier([q1, q2])
        f.deliver(self._note())
        assert len(q1) == 1 and len(q2) == 1

