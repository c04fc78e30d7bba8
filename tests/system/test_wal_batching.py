"""One durability boundary per batch: WAL fsync-call accounting.

``PubSubBroker.subscribe_batch`` and the ``BatchServer`` journal whole
batches under ``WriteAheadLog.batched()``; under the ``always`` fsync
policy that must cost exactly one fsync per batch, not one per item.
These tests pin the call counts through the WAL's own fsync counter.
"""

from repro.core import Subscription, eq
from repro.system import PubSubBroker, QueueNotifier, VirtualClock, WriteAheadLog


def subs(n, start=0):
    return [Subscription(f"s{start + i}", [eq("x", i)]) for i in range(n)]


def fresh(tmp_path, fsync="always"):
    clock = VirtualClock()
    wal = WriteAheadLog(tmp_path / "b.wal", fsync=fsync, clock=clock)
    broker = PubSubBroker(clock=clock, notifier=QueueNotifier(), wal=wal)
    return broker, wal


class TestBatchedContext:
    def test_always_policy_defers_to_one_fsync(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "w.wal", fsync="always", clock=clock)
        base = wal.counters["fsyncs"]
        with wal.batched():
            for s in subs(10):
                wal.append_subscribe(s, at=wal.now())
        assert wal.counters["fsyncs"] == base + 1
        assert wal.counters["appends"] >= 10
        wal.close()

    def test_nested_batches_sync_once_at_outermost_exit(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "w.wal", fsync="always", clock=clock)
        base = wal.counters["fsyncs"]
        with wal.batched():
            wal.append_subscribe(subs(1)[0], at=wal.now())
            with wal.batched():
                wal.append_subscribe(subs(1, start=1)[0], at=wal.now())
            assert wal.counters["fsyncs"] == base  # still inside
        assert wal.counters["fsyncs"] == base + 1
        wal.close()

    def test_never_policy_stays_unsynced(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "w.wal", fsync="never", clock=clock)
        base = wal.counters["fsyncs"]
        with wal.batched():
            for s in subs(5):
                wal.append_subscribe(s, at=wal.now())
        assert wal.counters["fsyncs"] == base
        wal.close()

    def test_explicit_sync_inside_batch_not_doubled(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "w.wal", fsync="always", clock=clock)
        base = wal.counters["fsyncs"]
        with wal.batched():
            wal.append_subscribe(subs(1)[0], at=wal.now())
            wal.sync()
        # The exit finds nothing unsynced; one fsync total.
        assert wal.counters["fsyncs"] == base + 1
        wal.close()


class TestBrokerSubscribeBatch:
    def test_one_fsync_per_batch_under_always(self, tmp_path):
        broker, wal = fresh(tmp_path, fsync="always")
        base = wal.counters["fsyncs"]
        ids = broker.subscribe_batch(subs(20))
        assert len(ids) == 20
        assert wal.counters["fsyncs"] == base + 1
        wal.close()

    def test_per_item_subscribe_still_fsyncs_each(self, tmp_path):
        """The regression's control: the scalar path keeps its promise
        that every acknowledged subscription is individually durable."""
        broker, wal = fresh(tmp_path, fsync="always")
        base = wal.counters["fsyncs"]
        for s in subs(5):
            broker.subscribe(s)
        assert wal.counters["fsyncs"] == base + 5
        wal.close()

    def test_batch_is_journaled_completely(self, tmp_path):
        broker, wal = fresh(tmp_path, fsync="always")
        broker.subscribe_batch(subs(7))
        appends = wal.counters["appends"]
        assert appends >= 7
        wal.close()

    def test_one_line_is_journaled_without_a_block(self, tmp_path, monkeypatch):
        """A block only pays off for two lines or more: one subscription
        (or a one-disjunct formula) is a plain append, which applies the
        fsync policy itself, with the crash points around it in order."""
        broker, wal = fresh(tmp_path, fsync="always")
        blocks = []
        opened = wal.batched
        monkeypatch.setattr(wal, "batched", lambda: blocks.append(1) or opened())
        points = []
        broker.crash_hook = points.append
        base = wal.counters["fsyncs"]
        broker.subscribe(subs(1)[0])
        broker.subscribe_formula("x = 1", sub_id="f")
        assert blocks == [] and wal.counters["fsyncs"] == base + 2
        broker.subscribe_batch(subs(2, start=1))
        assert blocks == [1] and wal.counters["fsyncs"] == base + 3
        logged = [p for p in points if p.endswith("-log")]
        assert logged == ["subscribe:pre-log", "subscribe:post-log"] * 3
        wal.close()
