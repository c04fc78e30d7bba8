"""Crash recovery: replaying one log, compacted or not."""

import io
import json
import time
import tracemalloc

import pytest

from repro.core import Event, InvalidEventError, InvalidSubscriptionError, Subscription, eq
from repro.obs import MetricsRegistry
from repro.system import (
    DeliveryManager,
    PubSubBroker,
    QueueNotifier,
    RecoveryError,
    VirtualClock,
    WriteAheadLog,
    recover,
    recover_files,
)


def fresh(clock=None, wal=None):
    return PubSubBroker(
        clock=clock or VirtualClock(), notifier=QueueNotifier(), wal=wal
    )


def wal_text(*records, clock=0.0):
    """Hand-rolled WAL stream: header plus the given record dicts."""
    header = {"type": "repro-broker-wal", "version": 1, "clock": clock}
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in [header, *records])


def journaling(tmp_path, clock=None):
    """A broker journaling to a log in *tmp_path*."""
    clock = clock or VirtualClock()
    return fresh(clock, wal=WriteAheadLog(tmp_path / "src.wal", clock=clock))


def compacted(broker, *tail):
    """The log of a journaling broker compacted now, plus hand-written
    *tail* records appended after the compaction."""
    broker.wal.compact()
    broker.wal.close()
    with open(broker.wal.path, encoding="utf-8") as fp:
        text = fp.read()
    return io.StringIO(text + "".join(json.dumps(r, sort_keys=True) + "\n" for r in tail))


def subscribe_record(sub_id, at, ttl=None, **extra):
    sub = {"id": sub_id, "predicates": [["x", "=", at]]}
    return {"type": "subscribe", "at": at, "subscription": sub, "ttl": ttl, **extra}


class TestSources:
    def test_wal_only(self):
        stream = io.StringIO(
            wal_text(
                subscribe_record("a", at=1.0),
                subscribe_record("b", at=2.0),
                {"type": "unsubscribe", "at": 3.0, "id": "a"},
            )
        )
        dst = fresh()
        report = recover(dst, wal_fp=stream)
        assert report.restored == 1
        assert report.replayed_subscribes == 2
        assert report.replayed_unsubscribes == 1
        assert report.source_clock == 3.0
        assert dst.publish(Event({"x": 2.0})) == ["b"]

    def test_neither_source_is_a_noop(self):
        dst = fresh()
        report = recover(dst)
        assert report.restored == 0 and report.source_clock is None

    def test_wal_unsubscribe_removes_snapshot_resident_sub(self, tmp_path):
        src = journaling(tmp_path)
        src.subscribe(Subscription("a", [eq("x", 1)]))
        src.subscribe(Subscription("b", [eq("x", 2)]))
        wal = compacted(src, {"type": "unsubscribe", "at": 1.0, "id": "a"})
        dst = fresh()
        report = recover(dst, wal_fp=wal)
        assert report.restored == 1
        assert dst.publish(Event({"x": 1})) == []
        assert dst.publish(Event({"x": 2})) == ["b"]

    def test_wal_subscribe_overwrites_snapshot_entry(self, tmp_path):
        # Re-subscribing an id after the compaction wins over the old copy.
        src = journaling(tmp_path)
        src.subscribe(Subscription("a", [eq("x", 1)]))
        replacement = {"id": "a", "predicates": [["x", "=", 99]]}
        wal = compacted(
            src, {"type": "subscribe", "at": 1.0, "subscription": replacement, "ttl": None}
        )
        dst = fresh()
        recover(dst, wal_fp=wal)
        assert dst.publish(Event({"x": 99})) == ["a"]
        assert dst.publish(Event({"x": 1})) == []


class TestTtlAging:
    def snapshot_with(self, tmp_path, ttl, *tail, clock_at=0.0):
        src = journaling(tmp_path, VirtualClock(clock_at))
        src.subscribe(Subscription("a", [eq("x", 1)]), ttl=ttl)
        return compacted(src, *tail)

    def test_anchor_ages_snapshot_ttls(self, tmp_path):
        wal = self.snapshot_with(tmp_path, 30.0, {"type": "anchor", "at": 20.0})
        dst_clock = VirtualClock()
        dst = fresh(dst_clock)
        recover(dst, wal_fp=wal)
        dst_clock.advance(9.0)  # 10 s were left at the crash
        assert dst.publish(Event({"x": 1})) == ["a"]
        dst_clock.advance(2.0)
        assert dst.publish(Event({"x": 1})) == []

    def test_anchor_past_expiry_skips_entry(self, tmp_path):
        wal = self.snapshot_with(tmp_path, 30.0, {"type": "anchor", "at": 40.0})
        dst = fresh()
        report = recover(dst, wal_fp=wal)
        assert report.restored == 0 and report.skipped_expired == 1

    def test_negative_skew_cannot_rewind_the_clock(self, tmp_path):
        # A record stamped *before* the compaction (skew between two
        # monotonic readings) must not extend anyone's validity.
        wal = self.snapshot_with(tmp_path, 30.0, {"type": "anchor", "at": 50.0}, clock_at=100.0)
        dst_clock = VirtualClock()
        dst = fresh(dst_clock)
        report = recover(dst, wal_fp=wal)
        assert report.source_clock == 100.0  # max() held the line
        dst_clock.advance(31.0)
        assert dst.publish(Event({"x": 1})) == []

    def test_immortal_subscriptions_ignore_aging(self, tmp_path):
        wal = self.snapshot_with(tmp_path, None, {"type": "anchor", "at": 1e6})
        assert recover(fresh(), wal_fp=wal).restored == 1

    def test_wal_subscribe_ttl_ages_from_its_own_timestamp(self):
        wal = io.StringIO(
            wal_text(
                subscribe_record("a", at=10.0, ttl=30.0),  # expires at 40
                subscribe_record("b", at=36.0, ttl=2.0),  # expires at 38
                {"type": "anchor", "at": 39.0},  # the crash-time estimate
            )
        )
        dst_clock = VirtualClock()
        dst = fresh(dst_clock)
        report = recover(dst, wal_fp=wal)
        # "b" expired before the crash; "a" has one second left.
        assert report.restored == 1 and report.skipped_expired == 1
        dst_clock.advance(0.5)
        assert dst.publish(Event({"x": 10.0})) == ["a"]
        dst_clock.advance(1.0)
        assert dst.publish(Event({"x": 10.0})) == []


class TestDamageTolerance:
    def test_torn_tail_counted_and_prefix_restored(self):
        text = wal_text(
            subscribe_record("a", at=1.0), subscribe_record("b", at=2.0)
        ) + '{"type": "subscribe", "at": 3.0, "subscr'
        dst = fresh()
        report = recover(dst, wal_fp=io.StringIO(text))
        assert report.restored == 2 and report.torn_tail_discarded == 1

    def test_undecodable_subscription_distrusts_the_rest(self):
        wal = io.StringIO(
            wal_text(
                subscribe_record("a", at=1.0),
                {"type": "subscribe", "at": 2.0, "subscription": {"bogus": True}},
                subscribe_record("c", at=3.0),  # beyond the damage: dropped
            )
        )
        dst = fresh()
        report = recover(dst, wal_fp=wal)
        assert report.restored == 1
        assert report.torn_tail_discarded == 2

    def test_unknown_unsubscribe_tolerated(self):
        # The target expired at the source before the crash; recovery
        # must shrug, not fail.
        wal = io.StringIO(wal_text({"type": "unsubscribe", "at": 1.0, "id": "ghost"}))
        dst = fresh()
        report = recover(dst, wal_fp=wal)
        assert report.unknown_unsubscribes == 1 and report.restored == 0


class TestIdsTheLogCannotGiveBack:
    """JSON writes a tuple id as a list, which nothing can key by."""

    @pytest.mark.parametrize("sub_id", [("t", 1), float("nan"), frozenset({1})])
    def test_a_journaling_broker_refuses_them_before_applying_anything(self, tmp_path, sub_id):
        clock = VirtualClock()
        with WriteAheadLog(tmp_path / "a.wal", clock=clock, fsync="never") as wal:
            broker = fresh(clock, wal=wal)
            with pytest.raises(InvalidSubscriptionError):
                broker.subscribe(Subscription(sub_id, [eq("x", 1)]))
            with pytest.raises(InvalidSubscriptionError):
                broker.subscribe_formula("x = 1 or y = 2", sub_id=sub_id)
            assert broker.subscription_count == 0
            assert wal.counters["appends"] == 1  # the attach anchor
        # A broker without a log takes any hashable id, as before.
        unlogged = fresh()
        unlogged.subscribe(Subscription(sub_id, [eq("x", 1)]))
        assert unlogged.subscription_count == 1

    def test_an_int_past_the_digit_limit_is_refused_not_crashed_on(self, tmp_path):
        # Neither JSON nor ``repr`` turns it into a string: the refusal
        # must not die building its own message.
        clock = VirtualClock()
        with WriteAheadLog(tmp_path / "h.wal", clock=clock, fsync="never") as wal:
            broker = fresh(clock, wal=wal)
            with pytest.raises(InvalidSubscriptionError, match="would not read back"):
                broker.subscribe(Subscription(10**5000, [eq("x", 1)]))
            assert broker.subscription_count == 0
            assert wal.counters["appends"] == 1  # the attach anchor

    def test_every_string_reads_back(self, tmp_path):
        ids = ["", "a\x00b", "\ud800", "ünï ☃", "1", "null"]
        clock = VirtualClock()
        with WriteAheadLog(tmp_path / "s.wal", clock=clock, fsync="never") as wal:
            fresh(clock, wal=wal).subscribe_batch([Subscription(i, [eq("x", 1)]) for i in ids])
        dst = fresh(clock)
        recover_files(dst, wal_path=tmp_path / "s.wal")
        assert sorted(s.id for s in dst.matcher.iter_subscriptions()) == sorted(ids)

    @pytest.mark.parametrize(
        "record",
        [
            subscribe_record(["t", 1], at=2.0),
            subscribe_record("f~dnf#0", at=2.0, logical=["t", 1]),
            {"type": "unsubscribe", "at": 2.0, "id": ["t", 1]},
            {"type": "deliver", "at": 2.0, "sub": ["t", 1], "seq": 0, "event": {"pairs": {}}},
            {"type": "settle", "at": 2.0, "sub": "a", "seq": {"n": 0}, "outcome": "ack"},
        ],
        ids=["subscribe", "logical", "unsubscribe", "deliver", "settle"],
    )
    def test_a_log_holding_one_is_trusted_up_to_it(self, tmp_path, record):
        path = tmp_path / "a.wal"
        path.write_text(
            wal_text(subscribe_record("a", at=1.0), record, subscribe_record("b", at=3.0))
        )
        dst = PubSubBroker(clock=VirtualClock(), delivery=DeliveryManager(clock=VirtualClock()))
        report = recover_files(dst, wal_path=path)
        assert (report.wal_records, report.torn_tail_discarded) == (1, 2)
        assert [s.id for s in dst.matcher.iter_subscriptions()] == ["a"]
        assert report.source_clock == 3.0  # the distrusted tail still ages ttls


class TestValuesTheLogCannotWrite:
    """An int past Python's str digit limit has no JSON form: a
    journaling broker refuses it in a predicate or a delivered event
    before anything is installed, matched, numbered or written."""

    HUGE = 10**5000
    NAMED = f"<int of {HUGE.bit_length()} bits>"

    def broker(self, tmp_path, delivered):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "v.wal", clock=clock, fsync="never")
        manager = DeliveryManager(clock=clock, wal=wal) if delivered else None
        broker = PubSubBroker(clock=clock, notifier=QueueNotifier(), wal=wal, delivery=manager)
        broker.subscribe(Subscription("ok", [eq("a", 1)]))
        if delivered:
            manager.register("ok", lambda notification: None)
        return broker

    def recovered(self, broker):
        broker.wal.close()
        dst = fresh()
        recover_files(dst, wal_path=broker.wal.path)
        return sorted(s.id for s in dst.matcher.iter_subscriptions())

    @pytest.mark.parametrize("delivered", [False, True], ids=["no-delivery", "delivery"])
    def test_a_predicate_value_is_refused_before_it_is_installed(self, tmp_path, delivered):
        broker = self.broker(tmp_path, delivered)
        appends = broker.wal.counters["appends"]
        batch = [Subscription("s2", [eq("b", 2)]), Subscription("s1", [eq("a", self.HUGE)])]
        with pytest.raises(InvalidSubscriptionError, match=f"'s1': value {self.NAMED}"):
            broker.subscribe_batch(batch)
        assert broker.subscription_count == 1
        assert broker.wal.counters["appends"] == appends
        broker.check_invariants()
        assert broker.publish(Event({"a": 1, "b": 2})) == ["ok"]
        assert self.recovered(broker) == ["ok"]

    @pytest.mark.parametrize("delivered", [False, True], ids=["no-delivery", "delivery"])
    def test_an_event_value_is_refused_before_it_is_numbered(self, tmp_path, delivered):
        broker = self.broker(tmp_path, delivered)
        appends = broker.wal.counters["appends"]
        huge = Event({"a": 1, "b": self.HUGE})
        if delivered:
            with pytest.raises(InvalidEventError, match=self.NAMED):
                broker.publish_batch([Event({"a": 1}), huge])
            assert broker.counters["published"] == 0
            assert broker.wal.counters["appends"] == appends
            broker.delivery.check_invariants()
        else:  # nothing journals an event: it is matched as any other
            assert broker.publish(huge) == ["ok"]
        broker.check_invariants()
        assert broker.publish(Event({"a": 1})) == ["ok"]
        if delivered:
            with open(broker.wal.path, encoding="utf-8") as fp:
                delivers = [json.loads(line) for line in fp if '"deliver"' in line]
            assert [record["seq"] for record in delivers] == [0]
        assert self.recovered(broker) == ["ok"]

    def test_a_broker_without_a_log_takes_them(self):
        broker = fresh()
        broker.subscribe(Subscription("s1", [eq("a", self.HUGE)]))
        assert broker.publish(Event({"a": self.HUGE})) == ["s1"]
        broker.check_invariants()


class TestOnePass:
    """``recover`` is one streaming fold: what used to need the whole
    log (the final clock, the tail count) or the whole table (a logical
    unsubscribe) is kept as the pass goes."""

    def test_resubscribing_an_id_under_another_formula_moves_it(self):
        def disjunct(logical):
            return subscribe_record("d", at=1.0, logical=logical)

        # "d" ends under g: unsubscribing f must not take it, g must.
        for target, survivors in (("f", ["d"]), ("g", []), ("d", [])):
            dst = fresh()
            report = recover(
                dst,
                wal_fp=io.StringIO(
                    wal_text(
                        disjunct("f"),
                        disjunct("g"),
                        {"type": "unsubscribe", "at": 2.0, "id": target},
                    )
                ),
            )
            assert [s.id for s in dst.matcher.iter_subscriptions()] == survivors
            assert report.unknown_unsubscribes == (1 if target == "f" else 0)

    def test_resubscribing_a_disjunct_as_a_plain_id_unfiles_it(self):
        dst = fresh()
        recover(
            dst,
            wal_fp=io.StringIO(
                wal_text(
                    subscribe_record("d", at=1.0, logical="f"),
                    subscribe_record("e", at=1.0, logical="f"),
                    subscribe_record("d", at=2.0),  # now its own subscription
                    {"type": "unsubscribe", "at": 3.0, "id": "f"},
                )
            ),
        )
        assert [s.id for s in dst.matcher.iter_subscriptions()] == ["d"]

    def test_a_subscribe_without_at_ages_from_the_final_clock(self):
        # The record precedes every timestamp in the log; its ttl still
        # counts from the crash-time estimate, known only at the end.
        timeless = subscribe_record("a", at=1.0, ttl=5.0)
        del timeless["at"]
        clock = VirtualClock()
        dst = fresh(clock)
        report = recover(
            dst,
            wal_fp=io.StringIO(
                wal_text(timeless, subscribe_record("b", at=2.0, ttl=5.0),
                         {"type": "anchor", "at": 6.0})
            ),
        )  # fmt: skip
        assert report.source_clock == 6.0 and report.restored == 2
        clock.advance(1.5)  # "b" had 1 s left, "a" its full 5
        assert dst.purge_expired() == 1
        assert [s.id for s in dst.matcher.iter_subscriptions()] == ["a"]
        clock.advance(3.5)
        assert dst.purge_expired() == 1

    def test_an_unreplayable_subscribe_still_counts_and_clocks_the_rest(self):
        report = recover(
            fresh(),
            wal_fp=io.StringIO(
                wal_text(
                    subscribe_record("a", at=1.0, ttl=10.0),
                    subscribe_record("b", at=2.0, ttl="soon"),
                    {"type": "anchor", "at": 9.0},
                )
                + '{"type": "anchor", "at": 9'
            ),
        )
        # b, the anchor behind it and the torn line; the anchor's stamp
        # still moves the crash-time estimate (as it always did).
        assert (report.wal_records, report.torn_tail_discarded) == (1, 3)
        assert report.source_clock == 9.0

    def test_an_unsubscribe_that_names_nothing_removes_nothing(self):
        # One garbled byte in the "id" key.  The table scan this index
        # replaced compared every entry's formula id with the missing
        # id — None == None — and dropped every plain subscription.
        report = recover(
            dst := fresh(),
            wal_fp=io.StringIO(
                wal_text(
                    subscribe_record("a", at=1.0),
                    subscribe_record("d", at=1.0, logical="f"),
                    {"type": "unsubscribe", "at": 2.0, "ib": "f"},
                )
            ),
        )
        assert (report.restored, report.unknown_unsubscribes) == (2, 1)
        assert [s.id for s in dst.matcher.iter_subscriptions()] == ["a", "d"]

    def test_a_tail_garbled_into_invalid_utf8_is_damage_not_an_error(self, tmp_path):
        path = tmp_path / "a.wal"
        path.write_bytes(
            wal_text(subscribe_record("a", at=1.0)).encode() + b'{"type": "anch\xff\xfe'
        )
        report = recover_files(fresh(), wal_path=path)
        assert (report.restored, report.torn_tail_discarded) == (1, 1)
        # ... which is what re-opening the log for append truncates to.
        WriteAheadLog(path, clock=VirtualClock()).close()
        assert recover_files(fresh(), wal_path=path).torn_tail_discarded == 0


class TestCost:
    """One linear pass whose memory is the live state.  Measured at the
    commit before the streaming reader: the churn log below was
    quadratic (18× the time for a 4× log), the acked log peaked at 4×
    the memory for a 4× log."""

    @staticmethod
    def churn_log(path, n):
        """*n* subscribes, then an unsubscribe for every other one."""
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(
                wal_text(
                    *(subscribe_record(f"s{i}", at=float(i)) for i in range(n)),
                    *(
                        {"type": "unsubscribe", "at": float(n + i), "id": f"s{i}"}
                        for i in range(0, n, 2)
                    ),
                )
            )

    @staticmethod
    def acked_log(path, pairs):
        """*pairs* notifications, each delivered and acknowledged."""
        event = {"pairs": {f"attr{k:02d}": k for k in range(8)}}
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(wal_text())
            for seq in range(pairs):
                at = float(seq)
                for record in (
                    {"type": "deliver", "at": at, "sub": "s", "seq": seq, "event": event},
                    {"type": "settle", "at": at, "sub": "s", "seq": seq,
                     "outcome": "ack", "attempts": 1},
                ):  # fmt: skip
                    fp.write(json.dumps(record, sort_keys=True) + "\n")

    def test_recovery_time_is_linear_in_the_log(self, tmp_path):
        def seconds(n, runs):
            path = tmp_path / f"churn{n}.wal"
            self.churn_log(path, n)
            best = float("inf")
            for _ in range(runs):
                dst = fresh()
                start = time.process_time()
                report = recover_files(dst, wal_path=path)
                best = min(best, time.process_time() - start)
                assert (report.restored, report.wal_records) == (n // 2, n + n // 2)
            return best

        small, large = seconds(5_000, runs=3), seconds(40_000, runs=2)
        assert large < 20 * small, (small, large)  # linear is 8×, quadratic 64×

    def test_peak_memory_is_the_live_state_not_the_log(self, tmp_path):
        def peak(pairs):
            path = tmp_path / f"acked{pairs}.wal"
            self.acked_log(path, pairs)
            dst = fresh()
            tracemalloc.start()
            try:
                report = recover_files(dst, wal_path=path)
                _current, high = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (report.replayed_settles, report.unacked_deliveries) == (pairs, 0)
            return high

        small, large = peak(6_400), peak(25_600)
        assert large < 1.5 * small, (small, large)


class TestSemantics:
    def test_requires_empty_broker(self):
        dst = fresh()
        dst.subscribe(Subscription("pre", [eq("q", 1)]))
        with pytest.raises(RecoveryError):
            recover(dst, wal_fp=io.StringIO(wal_text()))

    def test_formula_identity_survives_recovery(self):
        clock = VirtualClock()
        wal = WriteAheadLog("/dev/null", clock=clock, opener=lambda p, m: io.StringIO())
        src = fresh(clock, wal=wal)
        src.subscribe_formula("a = 1 or b = 2", "logical")
        dst = fresh()
        recover(dst, wal_fp=io.StringIO(wal._fp.getvalue()))
        assert dst.publish(Event({"a": 1, "b": 2})) == ["logical"]
        dst.unsubscribe("logical")
        assert dst.publish(Event({"a": 1})) == []

    def test_logical_unsubscribe_in_wal_removes_all_disjuncts(self):
        clock = VirtualClock()
        wal = WriteAheadLog("/dev/null", clock=clock, opener=lambda p, m: io.StringIO())
        src = fresh(clock, wal=wal)
        src.subscribe_formula("a = 1 or b = 2", "logical")
        src.unsubscribe("logical")
        dst = fresh()
        report = recover(dst, wal_fp=io.StringIO(wal._fp.getvalue()))
        assert report.restored == 0
        assert dst.publish(Event({"a": 1})) == []

    def test_recovered_state_is_not_relogged(self, tmp_path):
        src = journaling(tmp_path)
        src.subscribe(Subscription("a", [eq("x", 1)]))
        clock = VirtualClock()
        new_wal = WriteAheadLog(
            "/dev/null", clock=clock, opener=lambda p, m: io.StringIO()
        )
        dst = fresh(clock, wal=new_wal)
        assert recover(dst, wal_fp=compacted(src)).restored == 1
        # Only the attach anchor; the restore itself was suppressed.
        assert new_wal.counters["appends"] == 1

    def test_metrics_filled(self):
        registry = MetricsRegistry()
        wal = io.StringIO(
            wal_text(
                subscribe_record("a", at=1.0),
                {"type": "anchor", "at": 2.0},
                {"type": "unsubscribe", "at": 3.0, "id": "ghost"},
            )
        )
        recover(fresh(), wal_fp=wal, metrics=registry)
        replayed = registry.counter(
            "repro_recovery_replayed_total",
            "WAL records replayed during recovery, by kind.",
            ("kind",),
        )
        assert replayed.labels(kind="subscribe").value == 1
        assert replayed.labels(kind="unsubscribe").value == 1
        assert replayed.labels(kind="anchor").value == 1

    def test_report_as_dict_round_trips_json(self):
        dst = fresh()
        report = recover(dst, wal_fp=io.StringIO(wal_text(subscribe_record("a", 1.0))))
        assert json.loads(json.dumps(report.as_dict()))["restored"] == 1


class TestParentFormat:
    """A log written before compaction produced logs — every record type
    exactly as ``wal.py``'s module docstring specifies, typed out by hand
    so no writer under test had a say — recovers to the state the commit
    before this format became the only one recovered it to."""

    LOG = "\n".join(
        [
            '{"type": "repro-broker-wal", "version": 1, "clock": 100.0}',
            '{"type": "anchor", "at": 100.0}',
            '{"type": "subscribe", "at": 101.0, "subscription": '
            '{"id": "plain", "predicates": [["x", "=", 1]]}, "ttl": null}',
            '{"type": "subscribe", "at": 102.0, "subscription": '
            '{"id": "timed", "predicates": [["x", "<=", 5]]}, "ttl": 30.0}',
            '{"type": "subscribe", "at": 103.0, "subscription": '
            '{"id": "f~dnf#0", "predicates": [["a", "=", 1]]}, "ttl": 60.0, "logical": "f"}',
            '{"type": "subscribe", "at": 103.0, "subscription": '
            '{"id": "f~dnf#1", "predicates": [["b", "=", 2]]}, "ttl": 60.0, "logical": "f"}',
            '{"type": "subscribe", "at": 104.0, "subscription": '
            '{"id": "gone", "predicates": [["x", "=", 1]]}, "ttl": null}',
            '{"type": "subscribe", "at": 104.0, "subscription": '
            '{"id": "short", "predicates": [["x", "=", 1]]}, "ttl": 2.0}',
            '{"type": "unsubscribe", "at": 105.0, "id": "gone"}',
            '{"type": "deliver", "at": 106.0, "sub": "plain", "seq": 0, '
            '"event": {"pairs": {"x": 1}}}',
            '{"type": "settle", "at": 106.5, "sub": "plain", "seq": 0, '
            '"outcome": "ack", "attempts": 1}',
            '{"type": "deliver", "at": 107.0, "sub": "plain", "seq": 1, '
            '"event": {"pairs": {"x": 1, "y": 2}}}',
            '{"type": "deliver", "at": 108.0, "sub": "timed", "seq": 0, '
            '"event": {"pairs": {"x": 3}}}',
            '{"type": "settle", "at": 109.0, "sub": "timed", "seq": 0, '
            '"outcome": "dead-letter", "attempts": 3, "reason": "budget"}',
            '{"type": "anchor", "at": 112.0}',
            "",
        ]
    )

    def test_recovers_as_it_did_before(self):
        clock = VirtualClock()
        manager = DeliveryManager(clock=clock)
        dst = PubSubBroker(clock=clock, notifier=QueueNotifier(), delivery=manager)
        report = recover(dst, wal_fp=io.StringIO(self.LOG))
        assert report.as_dict() == {
            "restored": 4, "wal_records": 14, "replayed_subscribes": 6,
            "replayed_unsubscribes": 1, "anchors": 2, "replayed_deliveries": 3,
            "replayed_settles": 2, "unacked_deliveries": 1, "recovered_dead_letters": 1,
            "skipped_expired": 1, "torn_tail_discarded": 0, "unknown_unsubscribes": 0,
            "source_clock": 112.0,
        }  # fmt: skip
        assert [
            (sub_id, lease.seq, dict(lease.notification.event.items()), lease.enqueued_at)
            for sub_id, lease in manager.outstanding_leases()
        ] == [("plain", 1, {"x": 1, "y": 2}, 107.0)]
        assert [d.as_dict() for d in manager.dead_letters.entries()] == [
            {"sub": "timed", "seq": 0, "reason": "budget", "attempts": 3, "at": 109.0,
             "event": {"x": 3}}
        ]  # fmt: skip
        assert dst.publish(Event({"x": 1, "a": 1, "b": 2})) == ["timed", "plain", "f"]
        clock.advance(19.5)  # "timed" had 20 s left at the crash
        assert sorted(dst.publish(Event({"x": 1}))) == ["plain", "timed"]
        clock.advance(1.0)
        assert dst.publish(Event({"x": 1})) == ["plain"]
        clock.advance(30.0)  # the formula had 51
        assert sorted(dst.publish(Event({"x": 1, "a": 1}))) == ["f", "plain"]
        clock.advance(1.0)
        assert dst.publish(Event({"x": 1, "a": 1})) == ["plain"]


class TestRecoverFiles:
    def test_missing_files_are_an_empty_state(self, tmp_path):
        dst = fresh()
        report = recover_files(dst, wal_path=tmp_path / "never.wal")
        assert report.restored == 0

    def test_round_trip_via_paths(self, tmp_path):
        clock = VirtualClock()
        wal = WriteAheadLog(tmp_path / "a.wal", clock=clock)
        src = fresh(clock, wal=wal)
        src.subscribe(Subscription("a", [eq("x", 1)]))
        wal.compact()
        src.subscribe(Subscription("b", [eq("x", 2)]))
        wal.close()
        dst = fresh()
        report = recover_files(dst, wal_path=wal.path)
        assert report.restored == 2
        assert sorted(dst.publish(Event({"x": 1})) + dst.publish(Event({"x": 2}))) == [
            "a",
            "b",
        ]
