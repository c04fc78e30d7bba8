"""Dedicated notifier edge-case suite.

The basics (drain order, callback, null, fanout happy path) live in
``test_clock_store_notifier.py``; this file pins the failure-mode
contracts: bounded-queue eviction is *accounted* and fan-out isolates
per-sink errors.
"""

import pytest

from repro.core.types import Event
from repro.obs.registry import MetricsRegistry
from repro.system import (
    FanoutDeliveryError,
    FanoutNotifier,
    Notification,
    NullNotifier,
    QueueNotifier,
)


def note(sub_id="s1", ts=0.0, **pairs):
    return Notification(sub_id, Event(pairs or {"a": 1}), ts)


class TestQueueNotifierEviction:
    def test_unbounded_queue_never_drops(self):
        q = QueueNotifier()
        for i in range(100):
            q.deliver(note(f"s{i}"))
        assert len(q) == 100
        assert q.dropped == 0
        assert q.stats()["counters"]["dropped"] == 0

    def test_maxlen_eviction_is_counted(self):
        q = QueueNotifier(maxlen=3)
        for i in range(10):
            q.deliver(note(f"s{i}"))
        # Newest three survive, the seven evictions are all accounted.
        assert [n.sub_id for n in q.drain()] == ["s7", "s8", "s9"]
        assert q.dropped == 7

    def test_stats_shape(self):
        q = QueueNotifier(maxlen=2)
        q.deliver(note("s0"))
        q.deliver(note("s1"))
        q.deliver(note("s2"))
        stats = q.stats()
        assert stats["name"] == "queue-notifier"
        assert stats["queued"] == 2
        assert stats["maxlen"] == 2
        assert stats["counters"]["dropped"] == 1

    def test_dropped_metric(self):
        registry = MetricsRegistry()
        q = QueueNotifier(maxlen=1, metrics=registry)
        q.deliver(note("s0"))
        q.deliver(note("s1"))
        q.deliver(note("s2"))
        family = registry.family("repro_notifier_dropped_total")
        assert family.labels().value == 2

    def test_use_metrics_rebinds(self):
        q = QueueNotifier(maxlen=1)
        q.deliver(note("s0"))
        q.deliver(note("s1"))  # one drop before the registry is attached
        shared = q.use_metrics()
        q.deliver(note("s2"))
        # The registry reads the lifetime count, however late it came.
        assert shared.family("repro_notifier_dropped_total").labels().value == 2
        assert q.dropped == 2

    def test_drain_does_not_reset_drop_count(self):
        q = QueueNotifier(maxlen=1)
        q.deliver(note("s0"))
        q.deliver(note("s1"))
        q.drain()
        assert q.dropped == 1
        q.deliver(note("s2"))
        assert len(q) == 1 and q.dropped == 1  # room again: no new drop


class _BoomNotifier(NullNotifier):
    def __init__(self, exc):
        self.exc = exc

    def deliver(self, notification):
        raise self.exc


class TestFanoutIsolation:
    def test_one_raising_sink_does_not_starve_the_rest(self):
        q1, q2 = QueueNotifier(), QueueNotifier()
        f = FanoutNotifier([q1, _BoomNotifier(RuntimeError("boom")), q2])
        with pytest.raises(FanoutDeliveryError):
            f.deliver(note())
        # Both healthy sinks, including the one *after* the failure,
        # still received the notification.
        assert len(q1) == 1 and len(q2) == 1

    def test_aggregate_error_carries_every_failure(self):
        first, second = RuntimeError("first"), ValueError("second")
        f = FanoutNotifier([_BoomNotifier(first), _BoomNotifier(second)])
        n = note()
        with pytest.raises(FanoutDeliveryError) as excinfo:
            f.deliver(n)
        err = excinfo.value
        assert err.notification is n
        assert [exc for _sink, exc in err.errors] == [first, second]
        assert "2 sink(s) failed" in str(err)

    def test_an_unprintable_subscription_id_still_names_it(self):
        """``repr(10**5000)`` raises ``ValueError``; the aggregate error
        must be raised, not that."""
        huge = 10**5000
        f = FanoutNotifier([_BoomNotifier(RuntimeError("boom"))])
        with pytest.raises(FanoutDeliveryError) as error:
            f.deliver(note(sub_id=huge))
        assert f"delivering to <int of {huge.bit_length()} bits>" in str(error.value)

    def test_all_healthy_sinks_raise_nothing(self):
        q = QueueNotifier()
        FanoutNotifier([q, NullNotifier()]).deliver(note())
        assert len(q) == 1

    def test_empty_fanout_is_a_noop(self):
        FanoutNotifier([]).deliver(note())  # must not raise
