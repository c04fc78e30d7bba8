"""Write-ahead log: format, fsync policies, torn tails, compaction."""

import json
import os
import shutil
import threading
import time

import pytest

from repro.core import Event, Subscription, eq
from repro.system import (
    BatchServer,
    DeliveryManager,
    PubSubBroker,
    QueueNotifier,
    VirtualClock,
    WalError,
    WriteAheadLog,
    read_wal,
    recover_files,
)
from repro.system.wal import HEADER_TYPE, scan_valid_prefix
from repro.testing.faults import SimulatedCrash, crash_at, faulty_opener


def fresh_broker(clock=None, wal=None):
    return PubSubBroker(
        clock=clock or VirtualClock(), notifier=QueueNotifier(), wal=wal
    )


def delivering_broker(clock, wal):
    return PubSubBroker(
        clock=clock, notifier=QueueNotifier(), wal=wal, delivery=DeliveryManager(clock=clock)
    )


def recovered_state(path):
    """``(subscription ids, open (sub, seq) leases)`` a log recovers to."""
    clock = VirtualClock()
    broker = delivering_broker(clock, None)
    recover_files(broker, wal_path=path)
    return live_state(broker)


def live_state(broker):
    ids = sorted(s.id for s in broker.matcher.iter_subscriptions())
    return ids, sorted((sub, lease.seq) for sub, lease in broker.delivery.outstanding_leases())


def read_lines(path):
    with open(path, encoding="utf-8") as fp:
        return fp.read().splitlines()


class TestFormat:
    def test_header_first_then_records(self, tmp_path):
        path = tmp_path / "a.wal"
        clock = VirtualClock(100.0)
        with WriteAheadLog(path, clock=clock) as wal:
            wal.append_anchor()
            wal.append_subscribe(Subscription("s1", [eq("x", 1)]), ttl=30.0)
            wal.append_unsubscribe("s1")
        lines = [json.loads(line) for line in read_lines(path)]
        assert lines[0] == {"type": HEADER_TYPE, "version": 1, "clock": 100.0}
        assert [r["type"] for r in lines[1:]] == ["anchor", "subscribe", "unsubscribe"]
        assert lines[2]["ttl"] == 30.0
        assert lines[3]["id"] == "s1"

    def test_read_wal_round_trip(self, tmp_path):
        path = tmp_path / "a.wal"
        with WriteAheadLog(path, clock=VirtualClock()) as wal:
            wal.append_subscribe(Subscription("s1", [eq("x", 1)]), at=1.0)
            wal.append_subscribe(
                Subscription("s2", [eq("y", 2)]), ttl=5.0, logical="f", at=2.0
            )
        with open(path, encoding="utf-8") as fp:
            records, discarded = read_wal(fp)
        assert discarded == 0
        assert [r["type"] for r in records] == ["subscribe", "subscribe"]
        assert records[1]["logical"] == "f"

    def test_logical_id_recorded_for_formulas(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "a.wal", clock=clock)
        broker = fresh_broker(clock, wal=wal)
        broker.subscribe_formula("a = 1 or b = 2", "logical")
        wal.close()
        with open(wal.path, encoding="utf-8") as fp:
            records, _ = read_wal(fp)
        subs = [r for r in records if r["type"] == "subscribe"]
        assert len(subs) == 2 and all(r["logical"] == "logical" for r in subs)

    def test_byte_count_is_the_file_size_with_non_ascii_text(self, tmp_path):
        # Lines are ASCII (non-ASCII text is \u-escaped), so the count a
        # line adds is its length — for the header, for appends, and for
        # appends after a re-open.
        path = tmp_path / "a.wal"
        wal = WriteAheadLog(path, fsync="never", clock=VirtualClock())
        wal.append_subscribe(Subscription("café", [eq("ville", "Zürich")]), ttl=5.0)
        wal.append_deliver("δέλτα", 0, Event({"名前": "値", "n": 1}))
        wal.append_settle("δέλτα", 0, "dead-letter", reason="budget", attempts=2)
        wal.append_unsubscribe("café")
        wal.close()
        assert wal.counters["bytes"] == wal.stats()["bytes"] == os.path.getsize(path)
        assert path.read_bytes().isascii()
        reopened = WriteAheadLog(path, fsync="never", clock=VirtualClock())
        reopened.append_unsubscribe("ñandú")
        reopened.close()
        assert reopened.stats()["bytes"] == os.path.getsize(path)
        with open(path, encoding="utf-8") as fp:
            records, _ = read_wal(fp)
        assert records[0]["subscription"]["id"] == "café"
        assert records[1]["event"] == {"pairs": {"名前": "値", "n": 1}}

    def test_alien_file_rejected(self, tmp_path):
        path = tmp_path / "alien.json"
        path.write_text('{"type": "something-else"}\n{"more": 1}\n')
        with pytest.raises(WalError):
            WriteAheadLog(path)
        with pytest.raises(WalError):
            with open(path, encoding="utf-8") as fp:
                read_wal(fp)

    def test_append_after_close_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "a.wal", clock=VirtualClock())
        wal.close()
        assert wal.closed
        with pytest.raises(WalError):
            wal.append_anchor(1.0)

    def test_bad_configuration_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path / "a.wal", fsync="sometimes")
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path / "a.wal", fsync="interval", fsync_interval=-1)


class TestFsyncPolicies:
    def append_n(self, tmp_path, n, **kwargs):
        wal = WriteAheadLog(tmp_path / "a.wal", clock=VirtualClock(), **kwargs)
        for i in range(n):
            wal.append_anchor(float(i))
        return wal

    def test_always_syncs_every_append(self, tmp_path):
        wal = self.append_n(tmp_path, 5, fsync="always")
        assert wal.counters["fsyncs"] == 5
        wal.close()  # close adds one more
        assert wal.counters["fsyncs"] == 6

    def test_interval_zero_behaves_like_always(self, tmp_path):
        wal = self.append_n(tmp_path, 5, fsync="interval", fsync_interval=0.0)
        assert wal.counters["fsyncs"] == 5

    def test_long_interval_defers_to_explicit_sync(self, tmp_path):
        wal = self.append_n(tmp_path, 5, fsync="interval", fsync_interval=3600.0)
        assert wal.counters["fsyncs"] == 0
        wal.sync()
        assert wal.counters["fsyncs"] == 1

    def test_never_still_flushes_but_does_not_fsync(self, tmp_path):
        wal = self.append_n(tmp_path, 5, fsync="never")
        # Bytes reach the OS on every append (readable before close) ...
        with open(wal.path, encoding="utf-8") as fp:
            records, _ = read_wal(fp)
        assert len(records) == 5
        wal.close()
        # ... but no fsync is ever issued, not even on close.
        assert wal.counters["fsyncs"] == 0

    def test_stats_shape(self, tmp_path):
        wal = self.append_n(tmp_path, 3, fsync="always")
        stats = wal.stats()
        assert stats["name"] == "wal"
        assert stats["counters"]["appends"] == 3
        assert stats["bytes"] == wal.tell() == os.path.getsize(wal.path)


class TestTornTail:
    def make_log(self, tmp_path, n=3):
        path = tmp_path / "a.wal"
        with WriteAheadLog(path, clock=VirtualClock()) as wal:
            for i in range(n):
                wal.append_subscribe(Subscription(f"s{i}", [eq("x", i)]), at=float(i))
        return path

    def test_scan_valid_prefix_whole_file(self, tmp_path):
        path = self.make_log(tmp_path)
        prefix, records, discarded, last_at = scan_valid_prefix(path)
        assert prefix == os.path.getsize(path)
        assert (records, discarded, last_at) == (3, 0, 2.0)

    def test_truncated_tail_detected(self, tmp_path):
        path = self.make_log(tmp_path)
        with open(path, "r+b") as raw:
            raw.truncate(os.path.getsize(path) - 5)  # tear the last record
        with open(path, encoding="utf-8") as fp:
            records, discarded = read_wal(fp)
        assert len(records) == 2 and discarded == 1

    def test_garbled_tail_detected(self, tmp_path):
        path = self.make_log(tmp_path)
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('{"type": "subscribe", oops\n{"half')
        with open(path, encoding="utf-8") as fp:
            records, discarded = read_wal(fp)
        assert len(records) == 3 and discarded == 2

    def test_reopen_truncates_damage_before_appending(self, tmp_path):
        path = self.make_log(tmp_path)
        intact = os.path.getsize(path)
        with open(path, "a", encoding="utf-8") as fp:
            fp.write('{"torn')
        wal = WriteAheadLog(path, clock=VirtualClock(10.0))
        assert wal.counters["torn_tail_discarded"] == 1
        assert os.path.getsize(path) == intact  # damage gone, prefix kept
        wal.append_subscribe(Subscription("new", [eq("z", 1)]), at=10.0)
        wal.close()
        with open(path, encoding="utf-8") as fp:
            records, discarded = read_wal(fp)
        # The new record is visible *because* the damage was cut first.
        assert [r["subscription"]["id"] for r in records] == ["s0", "s1", "s2", "new"]
        assert discarded == 0

    def test_reopen_with_damaged_header_restarts_log(self, tmp_path):
        path = tmp_path / "a.wal"
        path.write_text('{"type": "repro-broker-w')  # torn mid-header
        wal = WriteAheadLog(path, clock=VirtualClock(5.0))
        wal.append_anchor(5.0)
        wal.close()
        with open(path, encoding="utf-8") as fp:
            records, discarded = read_wal(fp)
        assert len(records) == 1 and discarded == 0

    @pytest.mark.parametrize("mode", ["truncate", "garble", "drop"])
    def test_faulty_file_yields_valid_prefix(self, tmp_path, mode):
        path = tmp_path / "a.wal"
        wal = WriteAheadLog(
            path,
            clock=VirtualClock(),
            fsync="never",
            opener=faulty_opener(fail_after=260, mode=mode),
        )
        for i in range(10):
            wal.append_subscribe(Subscription(f"s{i}", [eq("x", i)]), at=float(i))
        wal.close()
        with open(path, encoding="utf-8") as fp:
            records, discarded = read_wal(fp)
        ids = [r["subscription"]["id"] for r in records]
        # Whatever landed is a strict prefix of what was written.
        assert ids == [f"s{i}" for i in range(len(ids))]
        assert len(ids) < 10
        if mode == "drop":
            assert discarded == 0  # damage fell on a line boundary
        # Recovery happily consumes the damaged file end to end.
        broker = fresh_broker()
        report = recover_files(broker, wal_path=path)
        assert report.restored == len(ids)


class TestCompaction:
    def loaded(self, tmp_path, n=4, **wal_kwargs):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "a.wal", clock=clock, **wal_kwargs)
        broker = fresh_broker(clock, wal=wal)
        for i in range(n):
            broker.subscribe(Subscription(f"s{i}", [eq("x", i)]))
        return clock, wal, broker

    def recovered_ids(self, path):
        restored = fresh_broker()
        recover_files(restored, wal_path=path)
        return sorted(s.id for s in restored.matcher.iter_subscriptions())

    def test_compact_snapshots_and_restarts(self, tmp_path):
        _clock, wal, broker = self.loaded(tmp_path, fsync="always")
        broker.unsubscribe("s3")
        broker.subscribe(Subscription("s3", [eq("x", 3)]))
        grown = wal.tell()
        assert wal.compact() == 4
        assert wal.counters["compactions"] == 1
        assert wal.tell() < grown  # the churn is gone, the live set remains
        assert wal.tell() == os.path.getsize(wal.path)
        assert not os.path.exists(wal.path + ".tmp")
        # The compacted file is an ordinary log: header, then subscribes.
        lines = [json.loads(line) for line in read_lines(wal.path)]
        assert lines[0]["type"] == HEADER_TYPE
        assert [r["type"] for r in lines[1:]] == ["subscribe"] * 4
        # Post-compaction mutations are appended to it.
        broker.unsubscribe("s0")
        broker.subscribe(Subscription("s9", [eq("x", 9)]))
        wal.close()
        restored = fresh_broker()
        report = recover_files(restored, wal_path=wal.path)
        assert report.restored == 4
        assert sorted(restored.publish(Event({"x": 1}))) == ["s1"]
        assert restored.publish(Event({"x": 9})) == ["s9"]
        assert restored.publish(Event({"x": 0})) == []

    def test_compact_on_closed_wal_rejected(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "a.wal", clock=clock)
        broker = fresh_broker(clock, wal=wal)
        wal.close()
        with pytest.raises(WalError):
            wal.compact()

    def test_failed_rename_leaves_the_old_log_in_charge(self, tmp_path, monkeypatch):
        _clock, wal, broker = self.loaded(tmp_path)
        broker.unsubscribe("s1")
        before = read_lines(wal.path)

        def refuse(src, dst):
            raise OSError("rename refused")

        with monkeypatch.context() as patched:
            patched.setattr("repro.system.wal.os.replace", refuse)
            with pytest.raises(OSError, match="rename refused"):
                wal.compact()
        # Nothing was committed: same bytes, and the stale temp file is
        # invisible to recovery.
        assert read_lines(wal.path) == before
        assert os.path.exists(wal.path + ".tmp")
        assert self.recovered_ids(wal.path) == ["s0", "s2", "s3"]
        assert wal.counters["compactions"] == 0
        # Still appendable — by this object, and after a reopen.
        broker.subscribe(Subscription("s4", [eq("x", 4)]))
        wal.close()
        clock2 = VirtualClock()
        wal2 = WriteAheadLog(wal.path, clock=clock2)
        broker2 = fresh_broker(clock2)
        recover_files(broker2, wal_path=wal.path)
        broker2.attach_wal(wal2)
        broker2.subscribe(Subscription("s5", [eq("x", 5)]))
        assert self.recovered_ids(wal.path) == ["s0", "s2", "s3", "s4", "s5"]
        # The next compact overwrites the stale temp file and commits.
        assert wal2.compact() == 5
        assert not os.path.exists(wal.path + ".tmp")
        wal2.close()
        assert len(read_lines(wal.path)) == 6
        assert self.recovered_ids(wal.path) == ["s0", "s2", "s3", "s4", "s5"]

    def test_failed_reopen_after_the_rename_closes_the_log(self, tmp_path):
        """Past the commit point the old handle points at an unlinked
        file: appends through it would vanish, so the object must refuse
        them by name.  What is on disk is the committed compacted log."""
        opens = []

        def opener(path, mode):
            opens.append(mode)
            if len(opens) == 2:  # 1: the constructor, 2: compact's reopen
                raise OSError("too many open files")
            return open(path, mode, encoding="utf-8")

        _clock, wal, broker = self.loaded(tmp_path, opener=opener)
        broker.unsubscribe("s1")
        with pytest.raises(OSError, match="too many open files"):
            wal.compact()
        assert wal.closed
        with pytest.raises(WalError, match="closed"):
            wal.append_anchor(1.0)
        with pytest.raises(WalError, match="closed"):
            wal.compact()
        wal.close()  # a no-op, not a ValueError on the dead handle
        assert not os.path.exists(wal.path + ".tmp")
        assert len(read_lines(wal.path)) == 4  # header + the three live
        assert self.recovered_ids(wal.path) == ["s0", "s2", "s3"]
        # A new log object on the path carries on from the compacted file.
        with WriteAheadLog(wal.path, clock=VirtualClock()) as wal2:
            wal2.append_subscribe(Subscription("s4", [eq("x", 4)]), at=1.0)
        assert self.recovered_ids(wal.path) == ["s0", "s2", "s3", "s4"]

    def test_compacted_file_is_fsynced_before_the_rename(self, tmp_path, monkeypatch):
        """Rename-then-fsync would let a power loss commit a file whose
        bytes never reached the disk."""
        _clock, wal, broker = self.loaded(tmp_path, fsync="never")
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            real_replace(src, dst)

        monkeypatch.setattr("repro.system.wal.os.fsync", fsync)
        monkeypatch.setattr("repro.system.wal.os.replace", replace)
        wal.compact()
        (renamed,) = [inode for kind, inode in calls if kind == "replace"]
        assert calls.index(("fsync", renamed)) < calls.index(("replace", renamed))

    @pytest.mark.parametrize("mode", ["truncate", "garble", "drop"])
    def test_torn_tail_after_compaction_spares_the_compacted_records(self, tmp_path, mode):
        # The byte budget is per open, so the reopen after the rename
        # starts a fresh one: only post-compaction appends can tear.
        _clock, wal, broker = self.loaded(
            tmp_path, n=3, fsync="never", opener=faulty_opener(fail_after=600, mode=mode)
        )
        wal.compact()
        compacted_bytes = wal.tell()
        for i in range(3, 13):
            broker.subscribe(Subscription(f"s{i}", [eq("x", i)]))
        wal.close()
        prefix_bytes, records, torn, _last_at = scan_valid_prefix(wal.path)
        assert prefix_bytes > compacted_bytes  # something after it survived
        assert 3 < records < 13
        assert torn == (0 if mode == "drop" else 1)
        assert self.recovered_ids(wal.path) == sorted(f"s{i}" for i in range(records))
        # Reopening cuts exactly the damage, nothing of the compacted log.
        WriteAheadLog(wal.path, clock=VirtualClock()).close()
        assert os.path.getsize(wal.path) == prefix_bytes


    @pytest.mark.parametrize(
        "point", ["subscribe:pre-log", "unsubscribe:pre-log", "settle:pre-log"]
    )
    def test_an_append_that_failed_stays_undone_through_compaction(self, tmp_path, point):
        """A journal append fails and the process lives on: the broker
        is ahead of its log.  Compaction keeps the log's word — a
        subscribe, an unsubscribe or an ack that was never journaled
        was never acknowledged, and must not become durable."""
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "a.wal", clock=clock)
        broker = delivering_broker(clock, wal)
        manager = broker.delivery
        broker.subscribe(Subscription("kept", [eq("x", 1)]))
        manager.register("kept")  # pull: the lease stays open until acked
        broker.publish(Event({"x": 1}))
        broker.crash_hook = manager.crash_hook = crash_at(point)
        with pytest.raises(SimulatedCrash):
            if point == "subscribe:pre-log":
                broker.subscribe(Subscription("lost", [eq("x", 2)]))
            elif point == "unsubscribe:pre-log":
                broker.unsubscribe("kept")
            else:
                (note,) = manager.poll("kept")
                manager.ack("kept", note.seq)
        as_written = tmp_path / "as-written.wal"
        shutil.copyfile(wal.path, as_written)
        wal.compact()
        wal.close()
        assert recovered_state(as_written) == (["kept"], [("kept", 0)])
        assert recovered_state(wal.path) == recovered_state(as_written)

    def test_an_at_less_subscribe_stays_at_less(self, tmp_path):
        """Its ttl runs from whatever crash-time estimate recovery makes,
        so records appended after the compaction must not age it."""
        header = {"type": HEADER_TYPE, "version": 1, "clock": 0.0}
        sub = {"id": "a", "predicates": [["x", "=", 1]]}
        records = [header, {"type": "subscribe", "subscription": sub, "ttl": 10.0}]
        path = tmp_path / "a.wal"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with WriteAheadLog(path, clock=VirtualClock()) as wal:
            wal.append_anchor(5.0)
        as_written = tmp_path / "as-written.wal"
        shutil.copyfile(path, as_written)
        with WriteAheadLog(path, clock=VirtualClock()) as wal:
            wal.compact()
        for log in (as_written, path):  # the same tail on both
            with WriteAheadLog(log, clock=VirtualClock()) as wal:
                wal.append_anchor(100.0)
        for log in (as_written, path):
            clock = VirtualClock()
            broker = fresh_broker(clock)
            assert recover_files(broker, wal_path=log).restored == 1
            clock.advance(9.0)
            assert broker.publish(Event({"x": 1})) == ["a"]

    def test_appends_racing_a_compaction_land_in_its_tail(self, tmp_path, monkeypatch):
        """The fold runs off the lock: a thread subscribing and
        publishing (acked and unacked deliveries) goes on journaling
        meanwhile, and the tail copy carries what it wrote."""
        import repro.system.recovery as recovery

        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "a.wal", clock=clock, fsync="never")
        broker = delivering_broker(clock, wal)
        manager = broker.delivery
        folding, raced, stop = threading.Event(), threading.Event(), threading.Event()
        fold = recovery.fold_log

        def held_fold(reader):
            folding.set()
            assert raced.wait(10), "no append landed during the fold"
            return fold(reader)

        monkeypatch.setattr(recovery, "fold_log", held_fold)
        errors = []

        def churn():
            try:
                i = during = 0
                while not stop.is_set():
                    sub_id = f"s{i}"
                    broker.subscribe(Subscription(sub_id, [eq("x", i % 3)]))
                    if i % 2:
                        manager.register(sub_id, sink=lambda n: None, auto_ack=True)
                    else:
                        manager.register(sub_id)  # pull: its leases stay open
                    broker.publish(Event({"x": i % 3}))
                    if i % 5 == 4:
                        broker.unsubscribe(f"s{i - 3}")
                    i += 1
                    during += folding.is_set()
                    if during >= 5:
                        raced.set()
            except BaseException as exc:  # surfaced below
                errors.append(exc)
                raced.set()

        worker = threading.Thread(target=churn)
        worker.start()
        try:
            wal.compact()
            wal.compact()
        finally:
            stop.set()
            worker.join(10)
        assert not errors and not worker.is_alive()
        wal.close()
        assert wal.counters["compactions"] == 2
        live = live_state(broker)
        assert len(live[0]) > 5 and live[1]
        assert recovered_state(wal.path) == live

    def test_concurrent_compactions_run_one_at_a_time(self, tmp_path, monkeypatch):
        import repro.system.recovery as recovery

        clock, wal, broker = self.loaded(tmp_path, n=6)
        broker.unsubscribe("s0")
        active, overlap, fold = [], [], recovery.fold_log

        def slow_fold(reader):
            active.append(1)
            overlap.append(len(active))
            time.sleep(0.05)  # time for the other caller to arrive
            try:
                return fold(reader)
            finally:
                active.pop()

        monkeypatch.setattr(recovery, "fold_log", slow_fold)
        kept = []
        callers = [threading.Thread(target=lambda: kept.append(wal.compact())) for _ in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(10)
        assert kept == [5, 5] and overlap == [1, 1]
        assert wal.counters["compactions"] == 2
        assert not os.path.exists(wal.path + ".tmp")
        broker.subscribe(Subscription("s9", [eq("x", 9)]))
        wal.close()
        assert self.recovered_ids(wal.path) == ["s1", "s2", "s3", "s4", "s5", "s9"]

    def test_an_append_racing_close_is_refused_by_name(self, tmp_path):
        """``close()`` may win the lock between an append's start and
        its write: the append must see the closed log, not write to a
        closed file."""
        wal = WriteAheadLog(tmp_path / "a.wal", clock=VirtualClock())
        lock = wal._lock

        class CloseWinsTheLock:
            def __enter__(self):
                wal._lock = lock
                wal.close()
                return lock.__enter__()

            def __exit__(self, *exc_info):
                return lock.__exit__(*exc_info)

        wal._lock = CloseWinsTheLock()
        with pytest.raises(WalError, match="closed"):
            wal.append_anchor(1.0)


class TestBrokerIntegration:
    def test_mutations_journaled(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "a.wal", clock=clock)
        broker = fresh_broker(clock, wal=wal)
        broker.subscribe(Subscription("a", [eq("x", 1)]), ttl=60.0)
        broker.unsubscribe("a")
        assert broker.stats()["wal"]["counters"]["appends"] == 3  # anchor+sub+unsub
        wal.close()
        with open(wal.path, encoding="utf-8") as fp:
            records, _ = read_wal(fp)
        assert [r["type"] for r in records] == ["anchor", "subscribe", "unsubscribe"]

    def test_expiry_appends_anchor(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "a.wal", clock=clock)
        broker = fresh_broker(clock, wal=wal)
        broker.subscribe(Subscription("brief", [eq("x", 1)]), ttl=5.0)
        clock.advance(10.0)
        assert broker.purge_expired() == 1
        wal.close()
        with open(wal.path, encoding="utf-8") as fp:
            records, _ = read_wal(fp)
        assert records[-1] == {"type": "anchor", "at": 10.0}

    def test_crash_before_log_loses_only_that_mutation(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "a.wal", clock=clock, fsync="always")
        broker = fresh_broker(clock, wal=wal)
        broker.subscribe(Subscription("kept", [eq("x", 1)]))
        broker.crash_hook = crash_at("subscribe:pre-log")
        with pytest.raises(SimulatedCrash):
            broker.subscribe(Subscription("lost", [eq("y", 2)]))
        # Applied in memory but never acknowledged/journaled ...
        assert broker.subscription_count == 2
        restored = fresh_broker()
        recover_files(restored, wal_path=wal.path)
        # ... so after the crash only the acknowledged prefix survives.
        assert restored.publish(Event({"x": 1})) == ["kept"]
        assert restored.publish(Event({"y": 2})) == []

    def test_crash_before_unsubscribe_log_keeps_subscription(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "a.wal", clock=clock, fsync="always")
        broker = fresh_broker(clock, wal=wal)
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        broker.crash_hook = crash_at("unsubscribe:pre-log")
        with pytest.raises(SimulatedCrash):
            broker.unsubscribe("a")
        restored = fresh_broker()
        recover_files(restored, wal_path=wal.path)
        # The removal was never acknowledged; durably, "a" still exists.
        assert restored.publish(Event({"x": 1})) == ["a"]


class TestBatchServer:
    def test_batches_journaled_and_synced_per_batch(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path / "a.wal", clock=VirtualClock(), fsync="interval",
            fsync_interval=3600.0,
        )
        with BatchServer(PubSubBroker(clock=wal.clock, wal=wal)) as server:
            subs = [Subscription(f"s{i}", [eq("x", i)]) for i in range(5)]
            assert server.submit_subscriptions(subs).results == 5
            assert server.submit_unsubscriptions(["s0", "s1"]).results == ["s0", "s1"]
            server.submit_events([Event({"x": 2})])
            # 5 subscribes + 2 unsubscribes + the broker's anchor record.
            assert server.stats()["wal"]["counters"]["appends"] == 8
            # One explicit sync per mutating batch, none for publishes.
            assert wal.counters["fsyncs"] == 2
        wal.close()
        restored = fresh_broker()
        report = recover_files(restored, wal_path=wal.path)
        assert report.restored == 3
        assert restored.publish(Event({"x": 4})) == ["s4"]
