"""A mutation batch applies whole or not at all.

``subscribe_batch`` / ``unsubscribe_batch`` are the broker's one write
path (``subscribe`` / ``unsubscribe`` are batches of one): a batch that
fails at any item leaves the broker, its bookkeeping and its log as
they were before the batch, so the caller can correct the batch and
send it again.
"""

import pytest

from repro.core import Event, Subscription, eq, ge
from repro.core.errors import (
    DuplicateSubscriptionError,
    ExpiredError,
    InvalidSubscriptionError,
    UnknownSubscriptionError,
)
from repro.system import (
    BatchServer,
    PubSubBroker,
    QueueNotifier,
    VirtualClock,
    WriteAheadLog,
    recover_files,
)

PROBES = [Event({"x": 1}), Event({"x": 2, "y": 5}), Event({"y": 1})]


def sub(sub_id, x=1):
    return Subscription(sub_id, [eq("x", x)])


class Journaled:
    """A journaling broker holding a plain subscription with a ttl, an
    immortal one and a two-disjunct formula."""

    def __init__(self, tmp_path):
        self.path = tmp_path / "broker.wal"
        self.clock = VirtualClock()
        self.wal = WriteAheadLog(self.path, fsync="never", clock=self.clock)
        self.broker = PubSubBroker(
            clock=self.clock, notifier=QueueNotifier(), event_retention_ttl=100.0, wal=self.wal
        )
        self.broker.subscribe(sub("p0"), ttl=50)
        self.broker.subscribe(sub("p1", 2))
        self.broker.subscribe_formula("x = 2 or y = 1", sub_id="f", ttl=30)
        self.clock.advance(5)

    def state(self):
        """Everything a batch could disturb: per id, the subscription,
        its validity left and its formula; the log's length; the counters."""
        broker, now = self.broker, self.clock.now()
        table = {
            s.id: (s, *broker._table.state(s.id, now)) for s in broker.matcher.iter_subscriptions()
        }
        return table, self.wal.tell(), dict(broker.counters)

    def recovered_ids(self):
        fresh = PubSubBroker(clock=VirtualClock(self.clock.now()), notifier=QueueNotifier())
        recover_files(fresh, wal_path=self.path)
        return {s.id for s in fresh.matcher.iter_subscriptions()}

    def assert_unchanged(self, before):
        self.broker.check_invariants()
        assert self.state() == before
        assert self.recovered_ids() == set(before[0])
        assert [sorted(ids) for ids in self.broker.publish_batch(PROBES)] == [
            ["p0"], ["f", "p1"], ["f"]
        ]


@pytest.fixture
def journaled(tmp_path):
    j = Journaled(tmp_path)
    yield j
    j.wal.close()


FAILED_SUBSCRIBES = {
    "duplicate of a live id": ([sub("n0"), sub("n1"), sub("p1")], {}, DuplicateSubscriptionError),
    "duplicate within the batch": (
        [sub("n0"), sub("n1"), sub("n0")], {}, DuplicateSubscriptionError
    ),
    "id the log cannot give back": (
        [sub("n0"), sub("n1"), sub(("t", 1))], {}, InvalidSubscriptionError
    ),
    "non-positive ttl": ([sub("n0"), sub("n1")], {"ttl": 0}, ExpiredError),
}


class TestWholeOrNothing:
    @pytest.mark.parametrize("case", sorted(FAILED_SUBSCRIBES))
    def test_a_failed_subscribe_batch_changes_nothing(self, journaled, case):
        batch, kwargs, error = FAILED_SUBSCRIBES[case]
        before = journaled.state()
        with pytest.raises(error):
            journaled.broker.subscribe_batch(batch, **kwargs)
        journaled.assert_unchanged(before)

    def test_a_failed_unsubscribe_batch_changes_nothing(self, journaled):
        before = journaled.state()
        with pytest.raises(UnknownSubscriptionError):
            journaled.broker.unsubscribe_batch(["p0", "f", "zz", "p1"])
        journaled.assert_unchanged(before)

    def test_an_id_twice_in_one_unsubscribe_batch_is_unknown_the_second_time(self, journaled):
        before = journaled.state()
        with pytest.raises(UnknownSubscriptionError):
            journaled.broker.unsubscribe_batch(["f~dnf#0", "f", "f"])
        journaled.assert_unchanged(before)

    def test_the_corrected_batches_go_through_the_server(self, journaled):
        broker = journaled.broker
        with pytest.raises(DuplicateSubscriptionError):
            broker.subscribe_batch([sub("n0"), sub("n1"), sub("n0")])
        with pytest.raises(UnknownSubscriptionError):
            broker.unsubscribe_batch(["p0", "zz", "f"])
        with BatchServer(broker) as server:
            assert server.submit_subscriptions([sub("n0"), sub("n1"), sub("n2")]).results == 3
            assert server.submit_unsubscriptions(["p0", "f"]).results == ["p0", "f"]
        live = {"p1", "n0", "n1", "n2"}
        assert {s.id for s in broker.matcher.iter_subscriptions()} == live
        broker.check_invariants()
        assert journaled.recovered_ids() == live

    def test_a_batch_journals_under_one_pair_of_crash_points(self, journaled):
        points = []
        journaled.broker.crash_hook = points.append
        journaled.broker.subscribe_batch([sub("n0"), sub("n1"), sub("n2")])
        journaled.broker.unsubscribe_batch(["n0", "n1", "f"])
        assert points == [
            "subscribe:pre-apply", "subscribe:pre-log", "subscribe:post-log",
            "unsubscribe:pre-log", "unsubscribe:post-log",
        ]


class TestOneRetroMatch:
    def test_a_formula_is_notified_the_union_of_its_disjuncts(self):
        clock = VirtualClock()
        inbox = QueueNotifier()
        broker = PubSubBroker(clock=clock, notifier=inbox, event_retention_ttl=100.0)
        events = [Event({"a": i % 3, "b": i % 4}) for i in range(24)]
        broker.publish_batch(events)
        inbox.drain()
        broker.subscribe(Subscription("d0", [eq("a", 1)]))
        broker.subscribe(Subscription("d1", [eq("b", 2), ge("a", 1)]))
        plain = [n.event for n in inbox.drain()]
        broker.subscribe_formula("a = 1 or (b = 2 and a >= 1)", sub_id="f")
        notes = inbox.drain()
        assert {n.sub_id for n in notes} == {"f"}
        union = [e for e in events if e in plain]
        assert [n.event for n in notes] == union
        assert len(union) < len(plain)  # some events satisfy both disjuncts
