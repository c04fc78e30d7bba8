"""The loopback batch server."""

import threading

import pytest

from repro.core import (
    DuplicateSubscriptionError,
    Event,
    Subscription,
    eq,
    le,
)
from repro.core.threadsafe import ThreadSafeMatcher
from repro.matchers import DynamicMatcher
from repro.system import (
    DeliveryManager,
    PubSubBroker,
    QueueNotifier,
    VirtualClock,
    WriteAheadLog,
    recover_files,
)
from repro.system.server import BatchReply, BatchServer, ServerClosedError
from repro.system.sharding import ShardedMatcher


@pytest.fixture
def server():
    srv = BatchServer()
    yield srv
    srv.close()


class TestBatches:
    def test_subscribe_then_publish(self, server):
        reply = server.submit_subscriptions(
            [
                Subscription("a", [eq("x", 1)]),
                Subscription("b", [eq("x", 1), le("y", 5)]),
            ]
        )
        assert reply.results == 2
        out = server.submit_events([Event({"x": 1, "y": 3}), Event({"x": 2})])
        assert [sorted(r) for r in out.results] == [["a", "b"], []]

    def test_timings_populated(self, server):
        server.submit_subscriptions([Subscription("a", [eq("x", 1)])])
        reply = server.submit_events([Event({"x": 1})] * 50)
        assert isinstance(reply, BatchReply)
        assert reply.processing_seconds > 0
        assert reply.round_trip_seconds >= reply.processing_seconds

    def test_unsubscribe_batch(self, server):
        server.submit_subscriptions(
            [Subscription(f"s{i}", [eq("x", i)]) for i in range(5)]
        )
        reply = server.submit_unsubscriptions(["s0", "s3"])
        assert reply.results == ["s0", "s3"]
        out = server.submit_events([Event({"x": 0}), Event({"x": 1})])
        assert out.results == [[], ["s1"]]

    def test_errors_propagate_to_client(self, server):
        server.submit_subscriptions([Subscription("a", [eq("x", 1)])])
        with pytest.raises(DuplicateSubscriptionError):
            server.submit_subscriptions([Subscription("a", [eq("x", 2)])])
        # server keeps serving afterwards
        out = server.submit_events([Event({"x": 1})])
        assert out.results == [["a"]]

    def test_custom_matcher(self):
        from repro.core import OracleMatcher

        with BatchServer(matcher=OracleMatcher()) as srv:
            srv.submit_subscriptions([Subscription("a", [eq("x", 1)])])
            assert srv.submit_events([Event({"x": 1})]).results == [["a"]]


class TestLifecycle:
    def test_close_idempotent(self):
        srv = BatchServer()
        srv.close()
        srv.close()

    def test_submit_after_close_rejected(self):
        srv = BatchServer()
        srv.close()
        with pytest.raises(ServerClosedError):
            srv.submit_events([Event({"x": 1})])

    def test_context_manager(self):
        with BatchServer() as srv:
            srv.submit_subscriptions([Subscription("a", [eq("x", 1)])])
        with pytest.raises(ServerClosedError):
            srv.submit_events([Event({"x": 1})])

    def test_concurrent_clients_serialized_safely(self, server):
        server.submit_subscriptions(
            [Subscription(f"s{i}", [eq("x", i % 4)]) for i in range(40)]
        )
        errors = []

        def client(k):
            try:
                for i in range(30):
                    reply = server.submit_events([Event({"x": (k + i) % 4})])
                    (matched,) = reply.results
                    assert all(m.startswith("s") for m in matched)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestMultiWorker:
    def test_single_worker_is_default(self):
        with BatchServer() as srv:
            assert srv.workers == 1

    def test_bad_worker_count_rejected(self):
        for workers in (0, 2):
            with pytest.raises(ValueError):
                BatchServer(workers=workers)

    def test_no_lost_or_duplicate_replies_under_churn(self):
        """Concurrent publishers + subscription churn: every submitted
        batch gets exactly one complete reply, and matches only ever
        name subscriptions that existed at some point."""
        matcher = ShardedMatcher(shards=4, router="affinity", parallel=False)
        ever_added = {f"base{i}" for i in range(20)}
        with BatchServer(matcher) as srv:
            srv.submit_subscriptions(
                [Subscription(f"base{i}", [eq("x", i % 5)]) for i in range(20)]
            )
            errors = []
            reply_counts = [0] * 4
            n_batches, batch_size = 25, 8

            def publisher(k):
                try:
                    for i in range(n_batches):
                        batch = [Event({"x": (k + i) % 5, "y": i})] * batch_size
                        reply = srv.submit_events(batch)
                        assert len(reply.results) == batch_size
                        for matched in reply.results:
                            assert len(matched) == len(set(matched))
                            assert set(matched) <= ever_added
                        reply_counts[k] += 1
                except Exception as exc:
                    errors.append(exc)

            def churner():
                try:
                    for i in range(60):
                        sid = f"churn{i}"
                        ever_added.add(sid)
                        srv.submit_subscriptions(
                            [Subscription(sid, [eq("x", i % 5)])]
                        )
                        if i % 2:
                            srv.submit_unsubscriptions([sid])
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=publisher, args=(k,)) for k in range(4)
            ]
            threads.append(threading.Thread(target=churner))
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert reply_counts == [n_batches] * 4
        # Shutdown is clean and terminal for every caller.
        with pytest.raises(ServerClosedError):
            srv.submit_events([Event({"x": 1})])
        with pytest.raises(ServerClosedError):
            srv.submit_subscriptions([Subscription("late", [eq("x", 1)])])
        matcher.close()

    def test_health_answers_while_serving(self):
        """A client thread polls ``health()`` and ``len(matcher)`` while
        publishers and a churner run through the one serving thread over
        a breaker-guarded sharded engine: no read races the engine."""
        matcher = ShardedMatcher(shards=4, breaker=True)
        errors, reports, sizes = [], [], set()
        serving_done = threading.Event()

        def guarded(work):
            def run():
                try:
                    work()
                except Exception as exc:
                    errors.append(exc)

            return threading.Thread(target=run)

        with BatchServer(matcher) as srv:
            srv.submit_subscriptions(
                [Subscription(f"base{i}", [eq("x", i % 5)]) for i in range(20)]
            )

            def publish(k):
                for i in range(25):
                    srv.submit_events([Event({"x": (k + i) % 5, "y": i})] * 8)

            def churn():
                for i in range(60):
                    srv.submit_subscriptions([Subscription(f"churn{i}", [eq("x", i % 5)])])
                    srv.submit_unsubscriptions([f"churn{i}"])

            def poll():
                while not serving_done.is_set():
                    reports.append(srv.health())
                    sizes.add(len(srv.matcher))

            poller = guarded(poll)
            serving = [guarded(lambda k=k: publish(k)) for k in range(4)] + [guarded(churn)]
            poller.start()
            for t in serving:
                t.start()
            for t in serving:
                t.join(timeout=60.0)
            serving_done.set()
            poller.join(timeout=10.0)
            assert not any(t.is_alive() for t in [poller, *serving])
        matcher.close()
        assert not errors
        assert reports and {r["status"] for r in reports} == {"ok"}
        assert sizes <= {20, 21}


class _KernelSpy(ThreadSafeMatcher):
    """Counts batch-kernel invocations vs scalar match calls."""

    def __init__(self, inner):
        super().__init__(inner)
        self.batch_calls = 0
        self.scalar_calls = 0

    def match(self, event):
        self.scalar_calls += 1
        return super().match(event)

    def match_batch(self, events):
        self.batch_calls += 1
        return super().match_batch(events)


class TestBatchKernelRouting:
    def test_publish_is_one_kernel_invocation_per_batch(self):
        """Regression: the publish path must not fall back to a scalar
        per-event loop — one submit_events call is one match_batch call."""
        spy = _KernelSpy(DynamicMatcher())
        with BatchServer(matcher=spy) as srv:
            srv.submit_subscriptions([Subscription("a", [eq("x", 1)])])
            srv.submit_events([Event({"x": 1})] * 17)
            srv.submit_events([Event({"x": 2})] * 5)
        assert spy.batch_calls == 2
        assert spy.scalar_calls == 0

    def test_bare_matcher_server_does_no_per_match_work(self, monkeypatch):
        """Behind a server over a bare engine the broker builds no
        Notification and collapses no formula ids: the engine's own
        result lists go straight into the reply."""
        from repro.system import broker as broker_module

        def no_notifications(*args, **kwargs):
            raise AssertionError("a Notification was built for a discarding sink")

        monkeypatch.setattr(broker_module, "Notification", no_notifications)
        made = []

        class Recording(DynamicMatcher):
            def match_batch(self, events):
                made.extend(super().match_batch(events))
                return made[-len(events):]

        with BatchServer(matcher=Recording()) as srv:
            srv.submit_subscriptions([Subscription("a", [eq("x", 1)])])
            reply = srv.submit_events([Event({"x": 1})] * 4)
            assert srv.broker.counters["notifications"] == 4
        assert reply.results == [["a"]] * 4
        assert all(got is own for got, own in zip(reply.results, made))


class TestServerOverBroker:
    """The server queues in front of a full broker: TTLs, formulas, the
    WAL and at-least-once delivery are reached through submit_*."""

    def test_submit_events_delivers_and_acks_every_match(self):
        clock = VirtualClock()
        manager = DeliveryManager(clock=clock)
        inbox = QueueNotifier()
        broker = PubSubBroker(clock=clock, notifier=inbox, delivery=manager)
        received = []

        def consumer(note):
            received.append((note.sub_id, note.event))
            manager.ack(note.sub_id, note.seq)

        with BatchServer(broker) as srv:
            assert srv.broker is broker
            srv.submit_subscriptions(
                [Subscription(f"s{i}", [eq("x", i % 2)]) for i in range(4)]
            )
            broker.subscribe_formula("x = 0 or y = 7", sub_id="f")
            for sub_id in ("s0", "s1", "f"):
                manager.register(sub_id, sink=consumer)
            events = [Event({"x": 0}), Event({"x": 1}), Event({"y": 7})]
            reply = srv.submit_events(events)
            assert [sorted(r) for r in reply.results] == [["f", "s0", "s2"], ["s1", "s3"], ["f"]]
            assert srv.health()["delivery"]["channels"] == 3
        # Channel owners were pushed (and acked) every match, in event
        # order; everyone else got the fire-and-forget notifier.
        assert received == [
            ("s0", events[0]), ("f", events[0]), ("s1", events[1]), ("f", events[2])
        ]
        assert manager.inflight == 0
        assert manager.stats()["counters"]["acks"] == 4
        assert [n.sub_id for n in inbox.drain()] == ["s2", "s3"]

    def test_wal_written_through_the_server_recovers(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "srv.wal", clock=clock, fsync="always")
        broker = PubSubBroker(
            clock=clock, notifier=QueueNotifier(), default_subscription_ttl=30.0, wal=wal
        )
        with BatchServer(broker) as srv:
            base = wal.counters["fsyncs"]
            srv.submit_subscriptions(
                [Subscription(f"s{i}", [eq("x", i)]) for i in range(5)]
            )
            assert wal.counters["fsyncs"] == base + 1  # one per batch
            broker.subscribe_formula("x = 1 or y = 2", sub_id="f", ttl=10.0)
            clock.advance(5)
            srv.submit_unsubscriptions(["s0"])  # the log's last word: t=5
        wal.close()
        restored_clock = VirtualClock(100.0)
        restored = PubSubBroker(clock=restored_clock, notifier=QueueNotifier())
        report = recover_files(restored, wal_path=wal.path)
        assert report.restored == 6  # s1..s4 + the formula's two disjuncts
        assert sorted(restored.publish(Event({"x": 1}))) == ["f", "s1"]
        assert restored.publish(Event({"y": 2})) == ["f"]
        # Validity survives as remaining lifetime: f has 5 s left, s1 25 s.
        restored_clock.advance(6)
        assert restored.publish(Event({"x": 1})) == ["s1"]
        restored_clock.advance(20)
        assert restored.publish(Event({"x": 1})) == []
