"""The publish/subscribe broker: validity intervals, notifications."""

import threading

import pytest

from repro.core import (
    Event,
    OracleMatcher,
    Subscription,
    UnknownSubscriptionError,
    eq,
    le,
)
from repro.core.errors import ExpiredError, InvalidSubscriptionError
from repro.system import PubSubBroker, QueueNotifier, VirtualClock, WriteAheadLog, read_wal


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def inbox():
    return QueueNotifier()


@pytest.fixture
def broker(clock, inbox):
    return PubSubBroker(clock=clock, notifier=inbox, event_retention_ttl=100.0)


class TestSubscribe:
    def test_subscription_object(self, broker):
        sid = broker.subscribe(Subscription("alice", [eq("x", 1)]))
        assert sid == "alice" and broker.subscription_count == 1

    def test_bare_predicates_get_auto_id(self, broker):
        sid = broker.subscribe([eq("x", 1), le("y", 5)])
        assert sid.startswith("sub-")

    def test_empty_predicates_rejected(self, broker):
        with pytest.raises(InvalidSubscriptionError):
            broker.subscribe([])

    def test_bad_ttl_rejected(self, broker):
        with pytest.raises(ExpiredError):
            broker.subscribe([eq("x", 1)], ttl=0)

    def test_unsubscribe(self, broker):
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        sub = broker.unsubscribe("a")
        assert sub.id == "a" and broker.subscription_count == 0

    def test_unsubscribe_unknown(self, broker):
        with pytest.raises(UnknownSubscriptionError):
            broker.unsubscribe("nope")

    def test_subscribe_batch(self, broker):
        ids = broker.subscribe_batch(
            [Subscription(f"s{i}", [eq("x", i)]) for i in range(5)]
        )
        assert len(ids) == 5 and broker.subscription_count == 5


class TestPublish:
    def test_publish_matches_and_notifies(self, broker, inbox):
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        matched = broker.publish(Event({"x": 1}))
        assert matched == ["a"]
        notes = inbox.drain()
        assert len(notes) == 1 and notes[0].sub_id == "a"

    def test_publish_batch(self, broker):
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        results = broker.publish_batch([Event({"x": 1}), Event({"x": 2})])
        assert results == [["a"], []]

    def test_counters(self, broker):
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        broker.publish(Event({"x": 1}))
        c = broker.stats()["counters"]
        assert c["published"] == 1 and c["subscribed"] == 1 and c["notifications"] == 1


class TestValidityIntervals:
    def test_subscription_expires(self, broker, clock):
        broker.subscribe(Subscription("a", [eq("x", 1)]), ttl=10.0)
        assert broker.publish(Event({"x": 1})) == ["a"]
        clock.advance(11)
        assert broker.publish(Event({"x": 1})) == []
        assert broker.counters["expired_subscriptions"] == 1

    def test_a_refused_nan_ttl_leaves_the_next_deadline_working(self, broker, clock):
        """A NaN deadline atop the expiry heap would stop every later
        deadline from coming due."""
        with pytest.raises(ExpiredError):
            broker.subscribe(Subscription("a", [eq("x", 1)]), ttl=float("nan"))
        broker.subscribe(Subscription("b", [eq("x", 1)]), ttl=1.0)
        clock.advance(10)
        assert broker.publish(Event({"x": 1})) == []
        assert broker.counters["expired_subscriptions"] == 1

    @pytest.mark.parametrize("ttl", [float("nan"), 10**400], ids=["nan", "past-float-range"])
    def test_a_publish_ttl_with_no_deadline_is_refused_before_matching(self, broker, ttl):
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        broker.matcher.match_batch = None  # matching would raise TypeError
        with pytest.raises(ExpiredError):
            broker.publish(Event({"x": 1}), ttl=ttl)
        assert broker.counters["published"] == 0
        assert broker.retained_event_count == 0

    def test_default_subscription_ttl(self, clock):
        broker = PubSubBroker(clock=clock, default_subscription_ttl=5.0)
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        clock.advance(6)
        assert broker.publish(Event({"x": 1})) == []

    def test_explicit_unsubscribe_before_expiry_is_safe(self, broker, clock):
        broker.subscribe(Subscription("a", [eq("x", 1)]), ttl=10.0)
        broker.unsubscribe("a")
        clock.advance(11)
        broker.purge_expired()  # stale heap entry must not blow up
        assert broker.subscription_count == 0

    def test_expiry_heap_stays_bounded_under_churn(self, broker, clock):
        """Regression: every explicit unsubscribe of a TTL'd id left its
        heap entry behind until the (far) deadline."""
        broker.subscribe_batch(
            [Subscription(f"r{i}", [eq("x", i)]) for i in range(10)], ttl=3600.0
        )
        for i in range(1000):
            broker.subscribe(Subscription(f"c{i}", [eq("x", 1)]), ttl=3600.0)
            broker.unsubscribe(f"c{i}")
            broker.check_invariants()  # the heap within 2x the live deadlines
        assert len(broker._table._sub_expires) == 10
        clock.advance(3601)
        assert broker.purge_expired() == 10
        assert broker._table._sub_expiry_heap == []

    def test_equal_deadlines_never_compare_subscription_ids(self, clock, tmp_path):
        """Regression: the heap held ``(expires_at, id)``, so an ``int``
        and a ``str`` id with one deadline raised ``TypeError`` out of
        ``subscribe`` — after the engine had already taken the
        subscription the broker then never recorded."""
        removed = []

        class Recording(OracleMatcher):
            def remove(self, sub_id):
                removed.append(sub_id)
                return super().remove(sub_id)

        ids = [7, "x", 2, 3, "a", 1]
        with WriteAheadLog(tmp_path / "wal.jsonl", clock=clock, fsync="never") as wal:
            broker = PubSubBroker(matcher=Recording(), clock=clock, wal=wal)
            for sub_id in ids:
                broker.subscribe(Subscription(sub_id, [eq("x", 1)]), ttl=5.0)
            # Churn past the 2x bound so the rebuild orders ties too.
            for i in range(20):
                broker.subscribe(Subscription(100 + i, [eq("x", 2)]), ttl=5.0)
                broker.unsubscribe(100 + i)
            assert broker.publish(Event({"x": 1})) == ids
            assert list(broker._table._sub_expires) == ids
            assert [s.id for s in broker.matcher.iter_subscriptions()] == ids
            del removed[:]
            clock.advance(6)
            assert broker.purge_expired() == len(ids)
            assert removed == ids  # equal deadlines expire in insertion order
            assert broker.subscription_count == 0 and not broker._table._sub_expires
        with open(tmp_path / "wal.jsonl") as fp:
            records, discarded = read_wal(fp)
        journaled = [r["subscription"]["id"] for r in records if r["type"] == "subscribe"]
        assert discarded == 0
        assert journaled[: len(ids)] == ids

    def test_event_retention_and_expiry(self, broker, clock):
        broker.publish(Event({"x": 1}))
        assert broker.retained_event_count == 1
        clock.advance(101)
        broker.purge_expired()
        assert broker.retained_event_count == 0

    def test_no_retention_by_default(self, clock):
        broker = PubSubBroker(clock=clock)
        broker.publish(Event({"x": 1}))
        assert broker.retained_event_count == 0


class TestRetroMatching:
    def test_new_subscription_sees_valid_events(self, broker, inbox, clock):
        broker.publish(Event({"x": 1}))
        clock.advance(50)
        broker.subscribe(Subscription("late", [eq("x", 1)]))
        notes = inbox.drain()
        assert [n.sub_id for n in notes] == ["late"]

    def test_expired_events_not_retro_matched(self, broker, inbox, clock):
        broker.publish(Event({"x": 1}))
        clock.advance(200)
        broker.subscribe(Subscription("late", [eq("x", 1)]))
        assert inbox.drain() == []

    def test_retro_matching_can_be_disabled(self, broker, inbox):
        broker.publish(Event({"x": 1}))
        broker.subscribe(Subscription("late", [eq("x", 1)]), notify_retained=False)
        assert inbox.drain() == []

    def test_per_publish_ttl_override(self, clock, inbox):
        broker = PubSubBroker(clock=clock, notifier=inbox)
        broker.publish(Event({"x": 1}), ttl=30.0)
        broker.subscribe(Subscription("late", [eq("x", 1)]))
        assert [n.sub_id for n in inbox.drain()] == ["late"]


class _KernelSpy(OracleMatcher):
    """Counts batch-kernel invocations vs scalar match calls."""

    batch_calls = scalar_calls = 0

    def match(self, event):
        self.scalar_calls += 1
        return super().match(event)

    def match_batch(self, events):
        self.batch_calls += 1
        return [OracleMatcher.match(self, e) for e in events]


class TestOnePublishPath:
    def test_publish_batch_is_one_kernel_invocation(self, clock, inbox):
        """The broker twin of ``TestBatchKernelRouting``: n events are
        one ``match_batch`` call and no scalar ``match``."""
        spy = _KernelSpy()
        broker = PubSubBroker(matcher=spy, clock=clock, notifier=inbox)
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        results = broker.publish_batch([Event({"x": 1})] * 17)
        assert (spy.batch_calls, spy.scalar_calls) == (1, 0)
        assert results == [["a"]] * 17 and all(type(r) is list for r in results)
        broker.publish(Event({"x": 1}))  # a batch of one, same path
        assert (spy.batch_calls, spy.scalar_calls) == (2, 0)
        assert len(inbox.drain()) == 18

    def test_one_timestamp_per_batch(self, inbox):
        class TickingClock(VirtualClock):
            def now(self):
                return self.advance(1.0)

        broker = PubSubBroker(clock=TickingClock(), notifier=inbox)
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        inbox.drain()
        broker.publish_batch([Event({"x": 1})] * 5)
        assert len({n.timestamp for n in inbox.drain()}) == 1

    def test_sink_driven_unsubscribe_takes_effect_next_batch(self, clock):
        """A batch is matched against the subscription set at batch
        start; a sink that unsubscribes mid-dispatch changes the next."""
        seen = []

        def sink(note):
            seen.append(note.sub_id)
            if broker.subscription_count:
                broker.unsubscribe("a")

        broker = PubSubBroker(clock=clock, notifier=sink)
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        assert broker.publish_batch([Event({"x": 1})] * 3) == [["a"]] * 3
        assert broker.publish_batch([Event({"x": 1})]) == [[]]
        assert seen == ["a"] * 3

    def test_the_engine_matches_under_the_broker_lock(self, clock, inbox):
        """One lock in front of the engine: while ``match_batch`` runs,
        no other thread can take the broker's lock."""
        free_during_match = []

        class LockSpy(OracleMatcher):
            def match_batch(self, events):
                probe = threading.Thread(
                    target=lambda: free_during_match.append(_try_lock(broker._lock))
                )
                probe.start()
                probe.join(timeout=10.0)
                return super().match_batch(events)

        broker = PubSubBroker(matcher=LockSpy(), clock=clock, notifier=inbox)
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        assert broker.publish_batch([Event({"x": 1}), Event({"x": 2})]) == [["a"], []]
        assert free_during_match == [False]


def _try_lock(lock):
    """Whether *lock* could be taken at once (released again if so)."""
    if not lock.acquire(blocking=False):
        return False
    lock.release()
    return True


class TestPluggableMatcher:
    def test_custom_matcher(self, clock):
        broker = PubSubBroker(matcher=OracleMatcher(), clock=clock)
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        assert broker.publish(Event({"x": 1})) == ["a"]
        assert broker.stats()["matcher"]["name"] == "oracle"
