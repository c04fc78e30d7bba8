"""Broker snapshots: a snapshot is a compacted write-ahead log.

A broker journals to a log and ``WriteAheadLog.compact`` rewrites it
(what ``repro snapshot`` does) to save; ``recover`` — the one reader —
restores.
"""

import io
import json

import pytest

from repro.bench.harness import matcher_for
from repro.cli import main as cli_main
from repro.core import Event, Subscription, eq, le
from repro.core.threadsafe import ThreadSafeMatcher
from repro.matchers import DynamicMatcher
from repro.system import (
    PubSubBroker,
    QueueNotifier,
    RecoveryError,
    VirtualClock,
    WalError,
    WriteAheadLog,
    recover,
)
from repro.workload.scenarios import paper_workloads

#: Every matcher backend a broker can sit on, wrappers included.
BACKENDS = (
    "oracle",
    "counting",
    "propagation",
    "propagation-wp",
    "static",
    "dynamic",
    "test-network",
    "sharded",
    "threadsafe",
    "trigger",
)


def backend_matcher(name):
    if name == "threadsafe":
        return ThreadSafeMatcher(DynamicMatcher())
    if name == "trigger":
        from repro.sqltrigger.matcher import TriggerMatcher

        return TriggerMatcher()
    return matcher_for(name, paper_workloads(0.001)["W0"])


def fresh(clock=None, matcher=None):
    return PubSubBroker(
        matcher=matcher,
        clock=clock or VirtualClock(), notifier=QueueNotifier(),
        event_retention_ttl=50.0,
    )


def journaling(tmp_path, clock=None, matcher=None):
    """A source broker journaling to a log in *tmp_path*."""
    broker = fresh(clock, matcher)
    broker.attach_wal(WriteAheadLog(tmp_path / "src.wal", clock=broker.clock))
    return broker


def save(broker, buf):
    """Compact *broker*'s log into *buf*; returns the subscriptions kept."""
    kept = broker.wal.compact()
    with open(broker.wal.path, encoding="utf-8") as fp:
        buf.write(fp.read())
    return kept


def load(broker, buf):
    return recover(broker, wal_fp=buf).restored


class TestRoundTrip:
    def test_plain_subscriptions(self, tmp_path):
        src = journaling(tmp_path)
        src.subscribe(Subscription("a", [eq("x", 1)]))
        src.subscribe(Subscription("b", [eq("y", 2), le("z", 5)]))
        buf = io.StringIO()
        assert save(src, buf) == 2
        buf.seek(0)
        dst = fresh()
        assert load(dst, buf) == 2
        assert sorted(dst.publish(Event({"x": 1, "y": 2, "z": 3}))) == ["a", "b"]

    def test_ttls_resume_relative(self, tmp_path):
        src_clock = VirtualClock(1000.0)
        src = journaling(tmp_path, src_clock)
        src.subscribe(Subscription("short", [eq("x", 1)]), ttl=30.0)
        src_clock.advance(10)  # 20 s remaining ...
        src.wal.append_anchor(src_clock.now())  # ... once the log knows the time
        buf = io.StringIO()
        save(src, buf)
        buf.seek(0)
        dst_clock = VirtualClock(0.0)
        dst = fresh(dst_clock)
        load(dst, buf)
        dst_clock.advance(15)
        assert dst.publish(Event({"x": 1})) == ["short"]
        dst_clock.advance(6)  # past the 20 s remainder
        assert dst.publish(Event({"x": 1})) == []

    def test_expired_not_persisted(self, tmp_path):
        clock = VirtualClock()
        src = journaling(tmp_path, clock)
        src.subscribe(Subscription("gone", [eq("x", 1)]), ttl=5.0)
        clock.advance(6)
        assert src.purge_expired() == 1  # journals the anchor that dates the expiry
        buf = io.StringIO()
        assert save(src, buf) == 0

    def test_formula_identity_survives(self, tmp_path):
        src = journaling(tmp_path)
        src.subscribe_formula("a = 1 or b = 2", "logical")
        buf = io.StringIO()
        save(src, buf)
        buf.seek(0)
        dst = fresh()
        load(dst, buf)
        assert dst.publish(Event({"a": 1, "b": 2})) == ["logical"]
        dst.unsubscribe("logical")
        assert dst.publish(Event({"a": 1})) == []

    def test_no_retro_notifications_on_restore(self, tmp_path):
        src = journaling(tmp_path)
        src.subscribe(Subscription("a", [eq("x", 1)]))
        buf = io.StringIO()
        save(src, buf)
        buf.seek(0)
        dst = fresh()
        dst.publish(Event({"x": 1}))  # retained event pre-restore
        dst.notifier.drain()
        load(dst, buf)
        assert dst.notifier.drain() == []


class TestValidation:
    def test_restore_requires_empty_broker(self, tmp_path):
        src = journaling(tmp_path)
        src.subscribe(Subscription("a", [eq("x", 1)]))
        buf = io.StringIO()
        save(src, buf)
        buf.seek(0)
        dst = fresh()
        dst.subscribe(Subscription("pre", [eq("q", 1)]))
        with pytest.raises(RecoveryError):
            load(dst, buf)

    @pytest.mark.parametrize(
        "payload",
        [
            "",
            "not json\n",
            '{"type": "something-else"}\n',
            '{"type": "repro-broker-snapshot", "version": 99}\n',
            '{"type": "repro-broker-wal", "version": 99}\n',
        ],
    )
    def test_malformed_rejected(self, payload):
        """Nothing but a v1 log restores anything.  A readable file of
        another kind — the retired snapshot format included — raises;
        an unreadable first line is, by the log's contract, a header
        torn by a crash: an empty log."""
        dst = fresh()
        if payload.startswith("{"):
            with pytest.raises(WalError):
                load(dst, io.StringIO(payload))
        else:
            assert load(dst, io.StringIO(payload)) == 0
        assert dst.subscription_count == 0

    @pytest.mark.parametrize("damage", ['{"type": "weird"}\n', "not json\n", '{"type": "subsc'])
    def test_damage_mid_file_restores_the_prefix_and_says_so(self, tmp_path, damage):
        """A snapshot is a log, so it is read like one: what precedes
        the first unreadable or unknown record is restored, everything
        after it is distrusted and counted — prefix-tolerant, where the
        retired format was all-or-nothing."""
        src = journaling(tmp_path)
        for sid in ("a", "b", "c"):
            src.subscribe(Subscription(sid, [eq("x", 1)]))
        buf = io.StringIO()
        save(src, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        assert len(lines) == 4
        dst = fresh()
        report = recover(dst, wal_fp=io.StringIO("".join(lines[:2]) + damage + lines[3]))
        assert report.restored == 1
        assert report.torn_tail_discarded >= 1
        assert dst.publish(Event({"x": 1})) == ["a"]

    def test_retired_snapshot_format_is_named(self):
        old = (
            '{"type": "repro-broker-snapshot", "version": 1, "clock": 0.0}\n'
            '{"type": "subscription", "subscription": '
            '{"id": "a", "predicates": [["x", "=", 1]]}, "ttl_remaining": 9.0}\n'
        )
        with pytest.raises(WalError, match="retired format.*repro snapshot"):
            load(fresh(), io.StringIO(old))


class TestCli:
    """``repro snapshot`` writes what ``repro recover --wal`` reads —
    and what a broker can go on appending to."""

    def test_snapshot_then_recover_then_append(self, tmp_path):
        subs = tmp_path / "subs.jsonl"
        subs.write_text(
            '{"id": "a", "predicates": [["x", "=", 1]]}\n'
            '{"id": "b", "predicates": [["y", "=", 2]]}\n'
        )
        log = tmp_path / "broker.wal"
        out = io.StringIO()
        assert cli_main(
            ["snapshot", "--subscriptions", str(subs), "--out", str(log), "--ttl", "60"], out=out
        ) == 0
        assert json.loads(out.getvalue())["subscriptions"] == 2
        with WriteAheadLog(log, clock=VirtualClock()) as wal:
            wal.append_unsubscribe("a", at=1.0)
        out = io.StringIO()
        dump = tmp_path / "recovered.jsonl"
        assert cli_main(["recover", "--wal", str(log), "--out", str(dump)], out=out) == 0
        assert json.loads(out.getvalue())["restored"] == 1
        assert [json.loads(line)["id"] for line in dump.read_text().splitlines()] == ["b"]

    def test_recover_names_the_retired_snapshot_format(self, tmp_path):
        old = tmp_path / "broker.snap"
        old.write_text('{"type": "repro-broker-snapshot", "version": 1, "clock": 0.0}\n')
        with pytest.raises(WalError, match="retired format.*repro snapshot"):
            cli_main(["recover", "--wal", str(old)], out=io.StringIO())


class TestExpiredRecordRegression:
    """An on-disk record with ``ttl: 0.0`` must stay dead, never be
    revived *immortal* (an early restore collapsed it with
    ``ttl or None``)."""

    SNAPSHOT = (
        '{"type": "repro-broker-wal", "version": 1, "clock": 0.0}\n'
        '{"type": "subscribe", "at": 0.0, "subscription": '
        '{"id": "dead", "predicates": [["x", "=", 1]]}, "ttl": 0.0}\n'
        '{"type": "subscribe", "at": 0.0, "subscription": '
        '{"id": "live", "predicates": [["x", "=", 2]]}, "ttl": 9.0}\n'
    )

    def test_zero_ttl_record_stays_dead(self):
        clock = VirtualClock()  # frozen: nothing can expire after restore
        dst = fresh(clock)
        assert load(dst, io.StringIO(self.SNAPSHOT)) == 1
        assert dst.publish(Event({"x": 1})) == []  # not revived
        assert dst.publish(Event({"x": 2})) == ["live"]

    def test_negative_ttl_record_stays_dead(self):
        payload = self.SNAPSHOT.replace('"ttl": 0.0', '"ttl": -3.0')
        dst = fresh(VirtualClock())
        assert load(dst, io.StringIO(payload)) == 1
        assert dst.publish(Event({"x": 1})) == []


class TestWrapperRegression:
    """A broker on the sharded and thread-safe wrappers saves like any
    other (an early writer read ``broker.matcher._subs``, which they do
    not have)."""

    @pytest.mark.parametrize("name", ["sharded", "threadsafe"])
    def test_save_through_wrapper(self, tmp_path, name):
        src = journaling(tmp_path, matcher=backend_matcher(name))
        src.subscribe(Subscription("a", [eq("x", 1)]))
        src.subscribe(Subscription("b", [eq("y", 2)]))
        buf = io.StringIO()
        assert save(src, buf) == 2
        buf.seek(0)
        dst = fresh(matcher=backend_matcher(name))
        assert load(dst, buf) == 2
        assert dst.publish(Event({"x": 1})) == ["a"]


class TestEveryBackend:
    """Snapshot and WAL round-trips across every registered backend."""

    EVENTS = [
        Event({"x": 1}),
        Event({"x": 1, "y": 2}),
        Event({"y": 2, "z": 3}),
        Event({"q": 9}),
    ]

    def populate(self, broker):
        broker.subscribe(Subscription("a", [eq("x", 1)]))
        broker.subscribe(Subscription("b", [eq("y", 2), le("z", 5)]), ttl=60.0)
        broker.subscribe(Subscription("c", [eq("q", 9)]))
        broker.unsubscribe("c")

    def matches(self, broker):
        return [sorted(broker.publish(e)) for e in self.EVENTS]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_snapshot_round_trip(self, tmp_path, name):
        src = journaling(tmp_path, matcher=backend_matcher(name))
        self.populate(src)
        buf = io.StringIO()
        assert save(src, buf) == 2
        buf.seek(0)
        dst = fresh(matcher=backend_matcher(name))
        assert load(dst, buf) == 2
        assert self.matches(dst) == self.matches(src)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_wal_recovery_round_trip(self, name, tmp_path):
        from repro.system import WriteAheadLog, recover_files

        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "b.wal", clock=clock)
        src = fresh(clock, matcher=backend_matcher(name))
        src.attach_wal(wal)
        self.populate(src)
        wal.close()
        dst = fresh(matcher=backend_matcher(name))
        report = recover_files(dst, wal_path=wal.path)
        assert report.restored == 2
        assert self.matches(dst) == self.matches(src)
