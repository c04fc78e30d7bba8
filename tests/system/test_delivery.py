"""Unit suite for the at-least-once delivery layer.

Everything runs under a :class:`VirtualClock` so ack timeouts, backoff
delays and dead-letter deadlines are driven deterministically by
``manager.pump()`` — no sleeps, no threads.
"""

import gc
import os
import random
import tracemalloc

import pytest

from repro.core.types import Event, Subscription, eq
from repro.obs.registry import MetricsRegistry
from repro.system import (
    ChannelOverflowError,
    DeliveryError,
    DeliveryManager,
    PubSubBroker,
    QueueNotifier,
    RetryPolicy,
    UnknownChannelError,
    VirtualClock,
    WriteAheadLog,
    recover_files,
)


def make_manager(clock=None, **kwargs):
    clock = clock if clock is not None else VirtualClock()
    kwargs.setdefault(
        "retry", RetryPolicy(max_attempts=3, base_delay=1.0, rng=random.Random(7))
    )
    kwargs.setdefault("ack_timeout", 5.0)
    return DeliveryManager(clock=clock, **kwargs), clock


def drive(manager, clock, total, step=1.0):
    """Advance virtual time in steps, pumping after each advance."""
    elapsed = 0.0
    while elapsed < total:
        clock.advance(step)
        elapsed += step
        manager.pump()


class TestChannelLifecycle:
    def test_register_dispatch_ack(self):
        manager, _clock = make_manager()
        got = []
        manager.register("s1", sink=got.append)
        seq = manager.dispatch("s1", Event({"a": 1}))
        assert [n.seq for n in got] == [seq]
        assert manager.inflight == 1
        assert manager.ack("s1", seq) is True
        assert manager.inflight == 0
        assert manager.channel("s1").counters["acks"] == 1

    def test_ack_is_idempotent(self):
        manager, _clock = make_manager()
        manager.register("s1", sink=lambda n: None)
        seq = manager.dispatch("s1", Event({"a": 1}))
        assert manager.ack("s1", seq) is True
        assert manager.ack("s1", seq) is False
        assert manager.channel("s1").counters["unknown_acks"] == 1

    def test_unknown_channel_raises(self):
        manager, _clock = make_manager()
        with pytest.raises(UnknownChannelError):
            manager.dispatch("ghost", Event({"a": 1}))
        with pytest.raises(UnknownChannelError):
            manager.ack("ghost", 0)
        with pytest.raises(UnknownChannelError):
            manager.channel("ghost")

    def test_invalid_knobs_rejected(self):
        # The constructor and register() share one rule.  register() used
        # to take all but the first: with ack_timeout=0 a push lease was
        # due the moment it went out and was re-sent on every pump until
        # its budget dead-lettered it.
        for knob in (
            {"overflow": "bogus"},
            {"ack_timeout": 0},
            {"ack_timeout": -1.0},
            {"capacity": 0},
            {"capacity": -3},
            {"block_timeout": -0.5},
        ):
            with pytest.raises(DeliveryError) as built:
                DeliveryManager(**knob)
            manager, _clock = make_manager()
            with pytest.raises(DeliveryError) as registered:
                manager.register("s1", **knob)
            assert str(registered.value) == str(built.value), knob
            assert not manager.handles("s1")
            # A re-register is checked too; a rejected one changes nothing.
            got = []
            manager.register("s1", sink=got.append, capacity=2)
            with pytest.raises(DeliveryError):
                manager.register("s1", **knob)
            assert manager.channel("s1").stats()["capacity"] == 2
            manager.dispatch("s1", Event({"a": 1}))
            assert len(got) == 1

    def test_channels_on_the_defaults_share_one_policy(self):
        manager, _clock = make_manager()
        plain = [manager.register(f"s{i}", sink=lambda n: None) for i in range(3)]
        manager.register("s0")  # a re-register with no override keeps it
        custom = manager.register("c", capacity=4)
        assert {id(c._policy) for c in plain} == {id(manager._policy)}
        assert custom._policy is not plain[0]._policy
        assert custom._policy.retry is plain[0]._policy.retry
        assert set(plain[0].counters.values()) == {0}

    def test_a_reregister_without_overflow_reverts_to_the_default(self):
        manager, _clock = make_manager(capacity=2, overflow="shed-oldest")
        assert manager.register("s1", overflow="block").stats()["overflow"] == "block"
        assert manager.register("s1").stats()["overflow"] == "shed-oldest"
        assert manager.register("s2", overflow="shed-oldest")._policy is manager._policy

    def test_unregister_dead_letters_outstanding(self):
        manager, _clock = make_manager()
        manager.register("s1", sink=lambda n: None)
        manager.dispatch("s1", Event({"a": 1}))
        assert manager.unregister("s1") == 1
        assert not manager.handles("s1")
        assert [e.reason for e in manager.dead_letters] == ["disconnected"]

    def test_reregister_preserves_sequence_numbering(self):
        manager, _clock = make_manager()
        manager.register("s1", sink=lambda n: None)
        seq = manager.dispatch("s1", Event({"a": 1}))
        manager.ack("s1", seq)
        manager.unregister("s1")
        manager.register("s1", sink=lambda n: None)
        # New deliveries never reuse a sequence number the subscriber
        # may have seen before the reconnect.
        assert manager.dispatch("s1", Event({"a": 2})) > seq

    def test_auto_ack_mode(self):
        manager, _clock = make_manager()
        manager.register("s1", sink=lambda n: None, auto_ack=True)
        manager.dispatch("s1", Event({"a": 1}))
        assert manager.inflight == 0
        assert manager.channel("s1").counters["acks"] == 1


class TestRedelivery:
    def test_ack_timeout_redelivers(self):
        manager, clock = make_manager()
        got = []
        manager.register("s1", sink=got.append)
        manager.dispatch("s1", Event({"a": 1}))
        assert len(got) == 1
        drive(manager, clock, 10.0)
        assert len(got) >= 2  # at least one redelivery happened
        assert all(n.seq == got[0].seq for n in got)
        assert manager.channel("s1").counters["redeliveries"] == len(got) - 1

    def test_sink_error_counts_as_failed_attempt(self):
        manager, clock = make_manager()
        calls = []

        def sink(n):
            calls.append(n)
            raise RuntimeError("subscriber down")

        manager.register("s1", sink=sink)
        manager.dispatch("s1", Event({"a": 1}))
        drive(manager, clock, 60.0)
        # max_attempts=3: the initial send plus two retries, then dead.
        assert len(calls) == 3
        assert [e.reason for e in manager.dead_letters] == ["budget"]
        assert manager.inflight == 0

    def test_budget_exhaustion_dead_letters_exactly_once(self):
        manager, clock = make_manager()
        manager.register("s1", sink=lambda n: None)  # never acked
        manager.dispatch("s1", Event({"a": 1}))
        drive(manager, clock, 120.0)
        assert len(manager.dead_letters) == 1
        entry = manager.dead_letters.entries()[0]
        assert entry.reason == "budget"
        assert entry.attempts == 3

    def test_nack_requests_immediate_retry(self):
        manager, clock = make_manager()
        got = []
        manager.register("s1", sink=got.append)
        seq = manager.dispatch("s1", Event({"a": 1}))
        assert manager.nack("s1", seq) is True
        drive(manager, clock, 5.0)
        assert len(got) >= 2
        assert manager.nack("s1", 999) is False

    def test_acked_delivery_never_redelivered(self):
        manager, clock = make_manager()
        got = []
        manager.register("s1", sink=got.append)
        seq = manager.dispatch("s1", Event({"a": 1}))
        manager.ack("s1", seq)
        drive(manager, clock, 120.0)
        assert len(got) == 1
        assert len(manager.dead_letters) == 0

    def test_a_lease_draws_its_backoff_at_its_first_retry(self):
        def seeded():
            return RetryPolicy(max_attempts=4, base_delay=1.0, rng=random.Random(11))

        retry = seeded()
        manager, clock = make_manager(retry=retry)
        manager.register("pull")
        untouched = retry.rng.getstate()
        manager.dispatch("pull", Event({"a": 0}))
        assert retry.rng.getstate() == untouched  # never retried, never drawn

        def down(notification):
            raise RuntimeError("down")

        manager.register("s1", sink=down)
        manager.dispatch("s1", Event({"a": 1}))
        waits = []
        while manager.channel("s1").outstanding:
            (lease,) = [lease for sub, lease in manager.outstanding_leases() if sub == "s1"]
            waits.append(lease.due_at - clock.now())
            clock.advance(waits[-1])
            manager.pump()
        # Draw for draw the schedule an eagerly opened generator gave.
        assert waits == pytest.approx(list(seeded().delays()))
        assert [e.attempts for e in manager.dead_letters] == [4]


class TestPullMode:
    def test_poll_leases_and_ack(self):
        manager, _clock = make_manager()
        manager.register("s1")  # no sink: pull mode
        manager.dispatch("s1", Event({"a": 1}))
        manager.dispatch("s1", Event({"a": 2}))
        leased = manager.poll("s1")
        assert [n.seq for n in leased] == [0, 1]
        assert manager.poll("s1") == []  # already leased, not yet due
        for n in leased:
            assert manager.ack("s1", n.seq)
        assert manager.inflight == 0

    def test_unacked_lease_reappears_after_timeout(self):
        manager, clock = make_manager()
        manager.register("s1")
        manager.dispatch("s1", Event({"a": 1}))
        first = manager.poll("s1")
        assert len(first) == 1
        clock.advance(6.0)  # past the ack timeout
        manager.pump()
        # The lease re-enters pending behind its jittered backoff; walk
        # time forward until it becomes pollable again.
        again = []
        for _ in range(20):
            clock.advance(1.0)
            manager.pump()
            again += manager.poll("s1")
            if again:
                break
        assert [n.seq for n in again] == [n.seq for n in first]
        assert manager.channel("s1").counters["redeliveries"] == 1

    def test_poll_respects_limit(self):
        manager, _clock = make_manager()
        manager.register("s1")
        for i in range(5):
            manager.dispatch("s1", Event({"a": i}))
        assert len(manager.poll("s1", limit=2)) == 2
        assert len(manager.poll("s1")) == 3


class TestWindowOrder:
    """A channel keeps one window; these pin the orders the two
    containers it replaced used to give."""

    def _mixed(self, **kwargs):
        # seq 0 leased out and timed out (re-queued behind its backoff),
        # seq 1 leased out and still in flight, seq 2 never handed out.
        manager, clock = make_manager(**kwargs)
        manager.register("s1")
        manager.dispatch("s1", Event({"a": 0}))
        assert [n.seq for n in manager.poll("s1")] == [0]
        clock.advance(3.0)
        manager.dispatch("s1", Event({"a": 1}))
        assert [n.seq for n in manager.poll("s1")] == [1]
        clock.advance(3.0)
        manager.pump()  # seq 0's ack deadline (5.0) passed; seq 1's has not
        manager.dispatch("s1", Event({"a": 2}))
        stats = manager.channel("s1").stats()
        assert (stats["pending"], stats["inflight"]) == (2, 1)
        return manager, clock

    def test_poll_reads_the_send_queue_in_queue_order(self):
        manager, clock = self._mixed()
        clock.advance(1.5)  # seq 0's backoff (1.0) has elapsed
        # The re-queued seq 0 was queued before seq 2 was dispatched;
        # seq 1 is with the subscriber.
        assert [n.seq for n in manager.poll("s1")] == [0, 2]

    def test_drain_settles_pendings_before_in_flights(self):
        manager, _clock = self._mixed()
        assert [lease.seq for _sub, lease in manager.outstanding_leases()] == [0, 2, 1]
        assert manager.disconnect("s1") == 3
        assert [e.seq for e in manager.dead_letters] == [0, 2, 1]

    def test_shed_prefers_a_lease_never_handed_out(self):
        manager, _clock = make_manager(capacity=2, overflow="shed-oldest")
        manager.register("s1")
        manager.dispatch("s1", Event({"a": 0}))
        manager.poll("s1")  # seq 0 is with the subscriber
        manager.dispatch("s1", Event({"a": 1}))
        assert manager.channel("s1").stats()["oldest_seq"] == 1
        manager.dispatch("s1", Event({"a": 2}))  # full: sheds pending seq 1
        assert [lease.seq for _sub, lease in manager.outstanding_leases()] == [2, 0]
        manager.ack("s1", 2)
        manager.dispatch("s1", Event({"a": 3}))
        manager.poll("s1")
        manager.dispatch("s1", Event({"a": 4}))  # nothing pending: oldest lease-out
        assert [lease.seq for _sub, lease in manager.outstanding_leases()] == [4, 3]

    def test_pull_backlog_is_pumped_after_a_push_reregister(self):
        # Pull-mode pendings never lower the pump watermark; turning the
        # channel into a push channel must (they used to wait for some
        # unrelated lease to wake the pump).
        manager, _clock = make_manager()
        manager.register("s1")
        manager.dispatch("s1", Event({"a": 1}))
        got = []
        manager.register("s1", sink=got.append)
        manager.pump()
        assert [n.seq for n in got] == [0]
        manager.check_invariants()


class TestOverflowPolicies:
    def test_shed_oldest_evicts_and_counts(self):
        manager, _clock = make_manager(capacity=2, overflow="shed-oldest")
        manager.register("s1")
        seqs = [manager.dispatch("s1", Event({"a": i})) for i in range(5)]
        channel = manager.channel("s1")
        assert channel.outstanding == 2
        assert channel.counters["shed"] == 3
        # The survivors are the newest two; shed is NOT dead-lettering.
        assert [n.seq for n in manager.poll("s1")] == seqs[-2:]
        assert len(manager.dead_letters) == 0

    def test_shed_metric(self):
        registry = MetricsRegistry()
        manager, _clock = make_manager(
            capacity=1, overflow="shed-oldest", metrics=registry
        )
        manager.register("s1")
        manager.dispatch("s1", Event({"a": 1}))
        manager.dispatch("s1", Event({"a": 2}))
        assert registry.family("repro_delivery_shed_total").labels().value == 1

    def test_block_times_out_when_no_consumer_progress(self):
        manager, _clock = make_manager(
            capacity=1, overflow="block", block_timeout=0.05
        )
        manager.register("s1")
        manager.dispatch("s1", Event({"a": 1}))
        with pytest.raises(ChannelOverflowError):
            manager.dispatch("s1", Event({"a": 2}))

    def test_a_blocked_channel_with_an_unprintable_id_still_names_it(self):
        """``repr(10**5000)`` raises ``ValueError``; the overflow error
        naming that channel must be raised and print."""
        huge = 10**5000
        manager, _clock = make_manager(capacity=1, overflow="block", block_timeout=0.01)
        manager.register(huge)
        manager.dispatch(huge, Event({"a": 1}))
        with pytest.raises(ChannelOverflowError) as error:
            manager.dispatch(huge, Event({"a": 2}))
        assert f"channel <int of {huge.bit_length()} bits> full" in str(error.value)

    def test_a_disconnected_channel_with_an_unprintable_id_still_names_it(self):
        huge = 10**5000
        manager, _clock = make_manager(capacity=1, overflow="disconnect")
        manager.register(huge, sink=lambda n: None)
        manager.dispatch(huge, Event({"a": 1}))
        with pytest.raises(ChannelOverflowError) as error:
            manager.dispatch(huge, Event({"a": 2}))
        assert f"channel <int of {huge.bit_length()} bits> exceeded" in str(error.value)
        assert not manager.channel(huge).connected

    def test_disconnect_quarantines_the_subscriber(self):
        manager, _clock = make_manager(capacity=1, overflow="disconnect")
        manager.register("s1", sink=lambda n: None)
        manager.dispatch("s1", Event({"a": 1}))
        with pytest.raises(ChannelOverflowError):
            manager.dispatch("s1", Event({"a": 2}))
        channel = manager.channel("s1")
        assert not channel.connected
        # The overflowing window went to the DLQ...
        assert all(e.reason == "disconnected" for e in manager.dead_letters)
        assert len(manager.dead_letters) == 1
        # ...and further dispatches keep dead-lettering, never blocking.
        manager.dispatch("s1", Event({"a": 3}))
        assert len(manager.dead_letters) == 2
        assert manager.health()["disconnected"] == ["s1"]

    def test_reconnect_and_redrive_after_disconnect(self):
        manager, _clock = make_manager(capacity=1, overflow="disconnect")
        manager.register("s1", sink=lambda n: None)
        manager.dispatch("s1", Event({"a": 1}))
        with pytest.raises(ChannelOverflowError):
            manager.dispatch("s1", Event({"a": 2}))
        got = []
        manager.register("s1", sink=got.append, capacity=10, overflow="block")
        assert manager.channel("s1").connected
        redriven = manager.redrive("s1")
        assert redriven == 1
        assert len(manager.dead_letters) == 0
        assert len(got) == 1


class TestDeadLetterQueue:
    def _dead_lettered_manager(self):
        manager, clock = make_manager()
        sink_calls = []

        def sink(n):
            sink_calls.append(n)
            raise RuntimeError("down")

        manager.register("s1", sink=sink)
        manager.dispatch("s1", Event({"a": 1}))
        drive(manager, clock, 60.0)
        assert len(manager.dead_letters) == 1
        return manager, sink_calls

    def test_entries_are_inspectable(self):
        manager, _calls = self._dead_lettered_manager()
        entry = manager.dead_letters.entries("s1")[0]
        d = entry.as_dict()
        assert d["sub"] == "s1" and d["reason"] == "budget"
        assert d["event"] == {"a": 1}
        stats = manager.dead_letters.stats()
        assert stats["counters"]["reason_budget"] == 1

    def test_redrive_resets_the_attempt_budget(self):
        manager, calls = self._dead_lettered_manager()
        before = len(calls)
        # Heal the subscriber, then redrive: fresh delivery, fresh seq.
        got = []
        manager.register("s1", sink=got.append)
        assert manager.redrive() == 1
        assert len(manager.dead_letters) == 0
        assert len(got) == 1
        assert got[0].seq > calls[before - 1].seq

    def test_redrive_skips_disconnected_subscribers(self):
        manager, _calls = self._dead_lettered_manager()
        manager.disconnect("s1")
        assert manager.redrive() == 0
        # disconnect() itself added nothing (window was empty), so the
        # original dead letter is still there.
        assert len(manager.dead_letters) == 1

    def test_take_with_limit(self):
        manager, _clock = make_manager()
        manager.register("s1", sink=lambda n: None)
        manager.dispatch("s1", Event({"a": 1}))
        manager.dispatch("s1", Event({"a": 2}))
        manager.unregister("s1")  # both dead-lettered as disconnected
        taken = manager.dead_letters.take(limit=1)
        assert len(taken) == 1 and len(manager.dead_letters) == 1


class TestMetricsAndStats:
    def test_delivery_metric_families(self):
        registry = MetricsRegistry()
        manager, clock = make_manager(metrics=registry)
        manager.register("s1", sink=lambda n: None)
        seq = manager.dispatch("s1", Event({"a": 1}))
        manager.ack("s1", seq)
        manager.dispatch("s1", Event({"a": 2}))
        drive(manager, clock, 120.0)
        f = registry.family
        assert f("repro_delivery_acks_total").labels().value == 1
        assert f("repro_delivery_redeliveries_total").labels().value >= 1
        assert (
            f("repro_delivery_dead_lettered_total").labels(reason="budget").value == 1
        )
        assert f("repro_delivery_inflight").labels().value == 0
        assert f("repro_delivery_channels").labels().value == 1

    def test_stats_shape(self):
        manager, _clock = make_manager()
        manager.register("s1", sink=lambda n: None)
        manager.dispatch("s1", Event({"a": 1}))
        stats = manager.stats()
        assert stats["name"] == "delivery"
        assert stats["channels"] == 1
        assert stats["inflight"] == 1
        assert stats["counters"]["dispatched"] == 1
        assert stats["per_channel"]["s1"]["mode"] == "push"
        assert stats["per_channel"]["s1"]["inflight"] == 1

    def test_totals_survive_unregister(self):
        # Lifetime totals: a departing channel's counters stay counted
        # (they used to vanish with the channel — all zeros here).
        registry = MetricsRegistry()
        manager, _clock = make_manager(metrics=registry)
        manager.register("a", sink=lambda n: None, auto_ack=True)
        manager.register("b")
        manager.dispatch("a", Event({"a": 1}))
        manager.dispatch("b", Event({"a": 1}))
        manager.unregister("a")
        manager.unregister("b")
        totals = manager.stats()["counters"]
        assert totals["dispatched"] == 2
        assert totals["delivered"] == 1
        assert totals["acks"] == 1
        assert totals["dead_lettered"] == 1 == len(manager.dead_letters)
        f = registry.family
        assert f("repro_delivery_acks_total").labels().value == totals["acks"]
        dead = f("repro_delivery_dead_lettered_total")
        assert dead.labels(reason="disconnected").value == totals["dead_lettered"]

    def test_health_shape(self):
        manager, _clock = make_manager()
        manager.register("s1", sink=lambda n: None)
        health = manager.health()
        assert health == {
            "channels": 1,
            "connected": 1,
            "disconnected": [],
            "inflight": 0,
            "dead_letters": 0,
        }


class TestBrokerIntegration:
    def _broker(self, **kwargs):
        clock = VirtualClock()
        manager = DeliveryManager(
            clock=clock,
            ack_timeout=5.0,
            retry=RetryPolicy(max_attempts=3, base_delay=1.0, rng=random.Random(3)),
        )
        broker = PubSubBroker(
            clock=clock, notifier=QueueNotifier(), delivery=manager, **kwargs
        )
        return broker, manager, clock

    def test_registered_subscriber_routes_through_delivery(self):
        broker, manager, _clock = self._broker()
        broker.subscribe(Subscription("s1", [eq("a", 1)]))
        got = []
        manager.register("s1", sink=got.append)
        broker.publish(Event({"a": 1}))
        assert [n.sub_id for n in got] == ["s1"]
        assert len(broker.notifier) == 0  # not double-delivered

    def test_unregistered_subscriber_keeps_fire_and_forget(self):
        broker, _manager, _clock = self._broker()
        broker.subscribe(Subscription("s1", [eq("a", 1)]))
        broker.publish(Event({"a": 1}))
        assert [n.sub_id for n in broker.notifier.drain()] == ["s1"]

    def test_publish_pumps_redeliveries(self):
        broker, manager, clock = self._broker()
        broker.subscribe(Subscription("s1", [eq("a", 1)]))
        got = []
        manager.register("s1", sink=got.append)
        broker.publish(Event({"a": 1}))
        # No explicit pump: publishes (of a non-matching event) advance
        # the redelivery state machine lazily — one to expire the ack
        # deadline, later ones to re-send once the backoff elapses.
        for _ in range(10):
            clock.advance(6.0)
            broker.publish(Event({"a": 99}))
            if len(got) > 1:
                break
        assert len(got) == 2

    def test_broker_stats_include_delivery(self):
        broker, manager, _clock = self._broker()
        manager.register("s1", sink=lambda n: None)
        assert broker.stats()["delivery"]["channels"] == 1


class TestWalIntegration:
    def test_deliver_and_settle_are_journaled(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync="never", clock=clock)
        manager = DeliveryManager(clock=clock, wal=wal, ack_timeout=5.0)
        manager.register("s1", sink=lambda n: None)
        seq = manager.dispatch("s1", Event({"a": 1}))
        manager.ack("s1", seq)
        wal.close()
        from repro.system import read_wal

        with open(tmp_path / "wal.jsonl") as fp:
            records, _ = read_wal(fp)
        kinds = [r["type"] for r in records]
        assert kinds == ["deliver", "settle"]
        assert records[0]["sub"] == "s1" and records[0]["seq"] == seq
        assert records[1]["outcome"] == "ack"

    @pytest.mark.parametrize("auto_ack", [True, False], ids=["push-auto-ack", "pull"])
    def test_an_unwritable_deliver_line_takes_no_seq(self, tmp_path, auto_ack):
        """``str(10**5000)`` raises ``ValueError`` while the ``deliver``
        line is built: that dispatch must leave the channel's numbering,
        counters and window as they were, so the next one is seq 0."""
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync="never", clock=clock)
        manager = DeliveryManager(clock=clock, wal=wal, ack_timeout=5.0)
        sink = (lambda n: None) if auto_ack else None
        manager.register("s", sink=sink, auto_ack=auto_ack)
        before = manager.stats()["counters"]
        with pytest.raises(ValueError):
            manager.dispatch("s", Event({"a": 10**5000}))
        assert manager.stats()["counters"] == before
        assert manager.channel("s").outstanding == 0
        assert manager.dispatch("s", Event({"a": 1})) == 0
        manager.check_invariants()
        wal.close()

    def test_recovery_requeues_unacked_deliveries(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync="never", clock=clock)
        manager = DeliveryManager(clock=clock, ack_timeout=5.0)
        broker = PubSubBroker(
            clock=clock, notifier=QueueNotifier(), wal=wal, delivery=manager
        )
        broker.subscribe(Subscription("s1", [eq("a", 1)]))
        manager.register("s1", sink=lambda n: None)
        broker.publish(Event({"a": 1}))  # delivered, never acked
        wal.close()  # crash with one delivery in flight

        clock2 = VirtualClock()
        manager2 = DeliveryManager(clock=clock2, ack_timeout=5.0)
        restored = PubSubBroker(
            clock=clock2, notifier=QueueNotifier(), delivery=manager2
        )
        report = recover_files(restored, wal_path=tmp_path / "wal.jsonl")
        assert report.replayed_deliveries == 1
        assert report.unacked_deliveries == 1
        # The subscriber has not re-registered yet: the delivery is
        # parked, not lost.
        assert manager2.inflight == 1
        got = []
        manager2.register("s1", sink=got.append)
        manager2.pump()
        assert [n.sub_id for n in got] == ["s1"]
        assert dict(got[0].event.items()) == {"a": 1}

    def test_recovery_restores_dead_letters(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync="never", clock=clock)
        manager = DeliveryManager(
            clock=clock,
            wal=wal,
            ack_timeout=5.0,
            retry=RetryPolicy(max_attempts=2, base_delay=1.0, rng=random.Random(5)),
        )
        manager.register("s1", sink=lambda n: None)
        manager.dispatch("s1", Event({"a": 1}))
        drive(manager, clock, 60.0)
        assert len(manager.dead_letters) == 1
        wal.close()

        clock2 = VirtualClock()
        manager2 = DeliveryManager(clock=clock2)
        restored = PubSubBroker(
            clock=clock2, notifier=QueueNotifier(), delivery=manager2
        )
        report = recover_files(restored, wal_path=tmp_path / "wal.jsonl")
        assert report.recovered_dead_letters == 1
        assert report.unacked_deliveries == 0
        assert [e.reason for e in manager2.dead_letters] == ["budget"]

    def test_compaction_rejournals_open_deliveries(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync="never", clock=clock)
        manager = DeliveryManager(clock=clock, ack_timeout=5.0)
        broker = PubSubBroker(
            clock=clock, notifier=QueueNotifier(), wal=wal, delivery=manager
        )
        broker.subscribe(Subscription("s1", [eq("a", 1)]))
        manager.register("s1", sink=lambda n: None)
        broker.publish(Event({"a": 1}))  # one unacked in-flight
        wal.compact()
        wal.close()

        clock2 = VirtualClock()
        manager2 = DeliveryManager(clock=clock2)
        restored = PubSubBroker(
            clock=clock2, notifier=QueueNotifier(), delivery=manager2
        )
        report = recover_files(restored, wal_path=tmp_path / "wal.jsonl")
        # The compacted log still carries the open delivery.
        assert report.unacked_deliveries == 1
        assert manager2.inflight == 1

    def test_silent_drop_is_settled_in_the_log(self, tmp_path):
        # unregister(dead_letter=False) used to journal nothing, so a
        # crash afterwards redelivered what the operator had dropped —
        # from the log as written, but not from a compacted one.
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync="never", clock=clock)
        manager = DeliveryManager(clock=clock, ack_timeout=5.0)
        broker = PubSubBroker(
            clock=clock, notifier=QueueNotifier(), wal=wal, delivery=manager
        )
        broker.subscribe(Subscription("s1", [eq("a", 1)]))
        manager.register("s1")  # pull channel
        broker.publish(Event({"a": 1}))
        assert manager.unregister("s1", dead_letter=False) == 1
        # Silent: no counter moves, nothing is dead-lettered.
        assert manager.stats()["counters"]["shed"] == 0
        assert len(manager.dead_letters) == 0
        wal.close()

        manager2 = DeliveryManager(clock=VirtualClock())
        restored = PubSubBroker(
            clock=VirtualClock(), notifier=QueueNotifier(), delivery=manager2
        )
        report = recover_files(restored, wal_path=tmp_path / "wal.jsonl")
        assert report.replayed_settles == 1
        assert report.unacked_deliveries == 0
        manager2.register("s1")
        assert manager2.poll("s1") == []

    def test_attach_wal_propagates_to_delivery(self, tmp_path):
        clock = VirtualClock()
        manager = DeliveryManager(clock=clock)
        broker = PubSubBroker(
            clock=clock, notifier=QueueNotifier(), delivery=manager
        )
        assert manager.wal is None
        wal = WriteAheadLog(tmp_path / "wal.jsonl", fsync="never", clock=clock)
        broker.attach_wal(wal)
        assert manager.wal is wal
        wal.close()


class TestServerHealth:
    def test_health_reports_delivery_block(self):
        from repro.system import BatchServer

        manager, clock = make_manager()
        manager.register("s1", sink=lambda n: None)
        with BatchServer(PubSubBroker(clock=clock, delivery=manager)) as server:
            health = server.health()
            assert health["status"] == "ok"
            assert health["delivery"]["channels"] == 1
            manager.disconnect("s1")
            health = server.health()
            assert health["status"] == "degraded"
            assert health["delivery"]["disconnected"] == ["s1"]


def _resident_bytes_per_step(setup, step, n):
    """What *n* calls of ``step(state, i)`` leave resident, per call
    (tracemalloc; ``setup()`` builds the state outside the trace)."""
    state = setup()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            step(state, i)
        gc.collect()
        resident = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return state, resident / n


class TestResidentBytes:
    """What an idle subscriber and an unacked delivery cost: slots, slot
    counters, one shared empty window and one shared policy; a lease
    draws its retry schedule only when it first needs a retry."""

    N = 10_000

    def test_an_idle_auto_ack_channel_stays_under_190_bytes(self):
        # 541 B while a channel carried a __dict__, a counters dict, an
        # empty window dict and its own five knobs.
        def setup():
            return make_manager()[0], [f"s{i}" for i in range(self.N)]

        def step(state, i):
            state[0].register(state[1][i], sink=len, auto_ack=True)

        (manager, _ids), per_channel = _resident_bytes_per_step(setup, step, self.N)
        assert len(manager.channels()) == self.N
        manager.check_invariants()
        assert per_channel <= 190, f"{per_channel:.0f} B/channel"

    def test_a_pending_explicit_ack_lease_stays_under_320_bytes(self):
        # 581 B while a lease carried a __dict__ and a retry generator
        # opened at dispatch.
        event = Event({"a": 1})

        def setup():
            manager = make_manager()[0]
            manager.register("s1")  # pull: every lease rests pending
            return manager

        def step(manager, _i):
            manager.dispatch("s1", event)

        manager, per_lease = _resident_bytes_per_step(setup, step, self.N)
        assert manager.inflight == self.N
        assert all(lease.delays is None for _sub, lease in manager.outstanding_leases())
        assert per_lease <= 320, f"{per_lease:.0f} B/lease"

    def test_an_emptied_window_is_the_shared_one_again(self):
        manager, _clock = make_manager()
        channel = manager.register("s1", sink=lambda n: None)
        idle = channel._window
        manager.ack("s1", manager.dispatch("s1", Event({"a": 1})))
        assert channel._window is idle and not idle
        assert manager.register("s2")._window is idle
        with pytest.raises(TypeError):
            idle[0] = None  # read-only: no channel can write into it
        channel._window = {}
        with pytest.raises(AssertionError, match="empty window"):
            manager.check_invariants()
