"""Properties of crash recovery.

**Any crash offset is prefix-consistent.**  The broker journals a
random subscribe/formula/unsubscribe/advance workload, then the WAL is
truncated at an arbitrary byte offset (the crash).  Recovery must restore exactly the live set implied by the longest valid
record prefix of the damaged file — computed here by an independent
JSON-lines parser and replay table, not by the WAL module under test —
and the restored matcher must agree with direct predicate evaluation.

**Every reader agrees on a damaged log, and recovery is what it was.**
A log — written by a broker with formulas, leases, dead letters and
redrives, or made up record by record (all five kinds, records without
``at``, unreplayable subscribes, re-used ids) — is truncated at, or has
one byte garbled at, arbitrary offsets.  The prefix form
(``scan_valid_prefix``, what re-opening truncates to), the list form
(``read_wal``) and ``recover`` must trust the same records and discard
the same lines, ``recover`` must make exactly the calls the previous
implementation made — kept below, verbatim, as the reference: the whole
log in memory and a table scan per ``unsubscribe`` — and so must
``recover`` of the file after ``WriteAheadLog.compact``.

**Compaction is invisible to recovery.**  The same plan — subscribes
with ttls, formulas, unsubscribes, clock advances, publishes into
explicit-ack channels, acks, lost acks, disconnects, and ids that are a
formula's and a subscription's at once (a disjunct unsubscribed alone,
a formula or disjunct id reused for a plain subscription, a formula
whose disjunct id is taken) — is run twice, once with the log compacted
at arbitrary points and once never compacted, the broker's
``check_invariants`` after every step.  Recovering either log must give
the live broker's state: subscription set, remaining ttls, what
``publish_batch`` answers (one logical id per formula per event), open
leases and dead letters.
"""

import io
import json
import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggregation import AggregatingMatcher
from repro.core import DuplicateSubscriptionError, Event, Subscription, eq
from repro.io import (
    SerializationError,
    event_from_dict,
    subscription_from_dict,
    subscription_to_dict,
)
from repro.system import (
    DeliveryLedger,
    DeliveryManager,
    PubSubBroker,
    QueueNotifier,
    RetryPolicy,
    ShardedMatcher,
    VirtualClock,
    WalError,
    WriteAheadLog,
    read_wal,
    recover,
    recover_files,
)
from repro.lang import parse_subscriptions
from repro.system.wal import scan_valid_prefix
from tests.properties.strategies import VALUES, events, predicates, subscriptions

#: Every disjunct of every formula is satisfied by ``FORMULA_PROBE``.
FORMULAS = ["a = 1 or b = 2", "c = 3 or d = 4", "a = 1 or e = 5 or c = 3"]
FORMULA_PROBE = Event({"a": 1, "b": 2, "c": 3, "d": 4, "e": 5})

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("subscribe"),
            # String ids, like the formulas': the broker's expiry heap
            # orders equal deadlines by id.
            subscriptions().map(lambda s: Subscription(f"s{s.id}", s.predicates)),
            st.one_of(st.none(), st.floats(min_value=1.0, max_value=50.0)),
        ),
        st.tuples(
            st.just("formula"),
            st.sampled_from(FORMULAS),
            st.one_of(st.none(), st.floats(min_value=1.0, max_value=50.0)),
        ),
        st.tuples(st.just("unsubscribe"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=10.0)),
    ),
    min_size=1,
    max_size=25,
)


def run_workload(ops, wal_path):
    """Drive a journaling broker through *ops*; returns nothing — the
    WAL file is the only artifact the test trusts afterwards."""
    clock = VirtualClock()
    wal = WriteAheadLog(wal_path, clock=clock, fsync="never")
    broker = PubSubBroker(clock=clock, notifier=QueueNotifier(), wal=wal)
    live = {}  # id -> absolute expiry (None = immortal), mirrors the broker
    for index, op in enumerate(ops):
        now = clock.now()
        live = {i: e for i, e in live.items() if e is None or e > now}
        if op[0] == "subscribe":
            _, sub, ttl = op
            if sub.id in live:
                continue  # the broker rejects duplicate live ids
            broker.subscribe(sub, ttl=ttl, notify_retained=False)
            live[sub.id] = None if ttl is None else now + ttl
        elif op[0] == "formula":
            _, text, ttl = op
            fid = broker.subscribe_formula(text, f"F{index}", ttl=ttl)
            live[fid] = None if ttl is None else now + ttl
        elif op[0] == "unsubscribe":
            candidates = sorted(live)
            if not candidates:
                continue
            target = candidates[op[1] % len(candidates)]
            broker.unsubscribe(target)
            del live[target]
        else:
            clock.advance(op[1])
    wal.close()


def oracle_live_set(wal_path):
    """Independent replay: the live set at crash time implied by the
    longest valid record prefix of the (possibly damaged) WAL file."""
    with open(wal_path, "rb") as fp:
        raw = fp.read()
    # A chunk without a trailing newline is torn, never trusted.
    chunks = raw.split(b"\n")[:-1]
    table = {}  # id -> (subscription, expires-or-None, logical-id-or-None)
    times = []
    for index, chunk in enumerate(chunks):
        try:
            record = json.loads(chunk.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if not isinstance(record, dict):
            break
        if index == 0:
            if record.get("type") != "repro-broker-wal":
                break
            continue
        kind = record.get("type")
        if kind == "subscribe":
            sub = subscription_from_dict(record["subscription"])
            ttl = record["ttl"]
            at = record["at"]
            expires = None if ttl is None else at + ttl
            table[sub.id] = (sub, expires, record.get("logical"))
            times.append(at)
        elif kind == "unsubscribe":
            # A plain id, or a formula's: then every disjunct goes.
            table = {
                sid: entry
                for sid, entry in table.items()
                if record["id"] not in (sid, entry[2])
            }
            times.append(record["at"])
        elif kind == "anchor":
            times.append(record["at"])
        else:
            break
    now = max(times) if times else 0.0
    return {
        sid: sub for sid, (sub, expires, _logical) in table.items()
        if expires is None or expires > now
    }


@settings(max_examples=60, deadline=None)
@given(
    ops=OPS,
    offset_frac=st.floats(min_value=0.0, max_value=1.0),
    probes=st.lists(events(), min_size=1, max_size=4),
)
def test_any_crash_offset_recovers_a_consistent_prefix(ops, offset_frac, probes):
    with tempfile.TemporaryDirectory() as tmp:
        wal_path = os.path.join(tmp, "crash.wal")
        run_workload(ops, wal_path)
        # The crash: everything past an arbitrary byte offset is lost.
        offset = int(offset_frac * os.path.getsize(wal_path))
        with open(wal_path, "r+b") as raw:
            raw.truncate(offset)

        restored = PubSubBroker(clock=VirtualClock(), notifier=QueueNotifier())
        recover_files(restored, wal_path=wal_path)
        expected = oracle_live_set(wal_path)

        got = sorted(sub.id for sub in restored.matcher.iter_subscriptions())
        assert got == sorted(expected)
        for event in probes:
            want = sorted(
                sid for sid, sub in expected.items() if sub.is_satisfied_by(event)
            )
            assert sorted(restored.matcher.match(event)) == want


# ----------------------------------------------------------------------
# compaction is invisible to recovery
# ----------------------------------------------------------------------
ENGINES = {
    "dynamic": lambda: None,  # the broker's default
    "sharded": lambda: ShardedMatcher(shards=2),
    "aggregating": AggregatingMatcher,
}

def QUARTERS(lo, hi):
    """Times are multiples of 1/4, so ``at + (expiry - at)`` is exact
    and a compacted log can be held to *equal* remaining ttls."""
    return st.integers(lo * 4, hi * 4).map(lambda q: q / 4)


TTLS = st.one_of(st.none(), QUARTERS(1, 50))
PICK = st.integers(min_value=0, max_value=30)

#: One- and two-predicate subscriptions against full-width events, so
#: publishes actually open leases.
BROAD_SUBS = st.builds(
    Subscription,
    # Strings like the formula ids: the broker's expiry heap orders
    # equal deadlines by id, so ids must be mutually comparable.
    st.integers(min_value=0, max_value=10**9).map("s{}".format),
    st.lists(predicates(), min_size=1, max_size=2),
)
WIDE_EVENTS = st.one_of(
    st.just(FORMULA_PROBE),
    st.fixed_dictionaries({a: VALUES for a in "abcde"}).map(Event),
)

PLAN_OPS = (
    st.tuples(st.just("subscribe"), BROAD_SUBS, TTLS),
    st.tuples(st.just("formula"), st.sampled_from(FORMULAS), TTLS),
    st.tuples(st.just("unsubscribe"), PICK),
    st.tuples(st.just("advance"), QUARTERS(0, 10)),
    st.tuples(st.just("publish"), WIDE_EVENTS),
    st.tuples(st.just("publish"), WIDE_EVENTS),
    # The next three act on the subscriber of the PICK-th open lease.
    st.tuples(st.just("ack"), PICK),  # lease one delivery and ack it
    st.tuples(st.just("lease"), PICK),  # lease one and lose the ack
    st.tuples(st.just("disconnect"), PICK),  # its leases dead-letter
    # Ids that are a formula's and a subscription's at once: unsubscribe
    # the PICK-th live disjunct; subscribe under the PICK-th formula or
    # disjunct id ever issued; subscribe a formula whose PICK-th
    # disjunct id a plain subscription took first.
    st.tuples(st.just("undisjunct"), PICK),
    st.tuples(st.just("reuse"), BROAD_SUBS, TTLS, PICK),
    st.tuples(st.just("clash"), st.sampled_from(FORMULAS), BROAD_SUBS, TTLS, PICK),
)
PLAN = st.lists(st.one_of(*PLAN_OPS), min_size=6, max_size=30)
#: ... plus: the subscriber of the PICK-th dead letter reconnects and
#: its dead letters are re-driven.
REDRIVE_PLAN = st.lists(
    st.one_of(*PLAN_OPS, st.tuples(st.just("redrive"), PICK)), min_size=6, max_size=30
)


def durable_broker(engine, clock, wal=None):
    manager = DeliveryManager(
        clock=clock,
        ack_timeout=5.0,
        retry=RetryPolicy(max_attempts=2, base_delay=1.0, rng=random.Random(7)),
    )
    return PubSubBroker(
        matcher=ENGINES[engine](), clock=clock, notifier=QueueNotifier(),
        wal=wal, delivery=manager,
    )


def run_plan(engine, plan, wal_path, compact_after):
    """Run *plan* on a journaling broker whose every subscriber has a
    pull-mode explicit-ack channel, compacting after the op indexes in
    *compact_after* and checking the broker's invariants after every
    op; returns the live broker (its log closed) and its clock."""
    clock = VirtualClock()
    wal = WriteAheadLog(wal_path, clock=clock, fsync="never")
    broker = durable_broker(engine, clock, wal)
    manager = broker.delivery
    expires = {}  # subscription id (plain or disjunct) -> absolute expiry (None = immortal)
    formula_of = {}  # disjunct id -> formula id
    issued = set()  # every formula and disjunct id so far

    def subscribe(sub, ttl):
        broker.subscribe(sub, ttl=ttl)
        manager.register(sub.id)
        expires[sub.id] = None if ttl is None else clock.now() + ttl

    for index, op in enumerate(plan):
        now = clock.now()
        expires = {i: e for i, e in expires.items() if e is None or e > now}
        formula_of = {d: f for d, f in formula_of.items() if d in expires}
        kind = op[0]
        if kind == "subscribe" and op[1].id not in expires:
            subscribe(op[1], op[2])
        elif kind == "reuse" and issued:
            sub_id = sorted(issued)[op[3] % len(issued)]
            if sub_id not in expires:
                subscribe(Subscription(sub_id, op[1].predicates), op[2])
        elif kind in ("formula", "clash"):
            fid = f"F{index}"
            disjuncts = [d.id for d in parse_subscriptions(op[1], f"{fid}~dnf")]
            issued.update([fid, *disjuncts])
            if kind == "clash":
                subscribe(Subscription(disjuncts[op[4] % len(disjuncts)], op[2].predicates), op[3])
                with pytest.raises(DuplicateSubscriptionError):
                    broker.subscribe_formula(op[1], fid, ttl=op[3])
            else:
                broker.subscribe_formula(op[1], fid, ttl=op[2])
                manager.register(fid)
                for did in disjuncts:
                    expires[did] = None if op[2] is None else now + op[2]
                    formula_of[did] = fid
        elif kind == "unsubscribe":
            targets = sorted({i for i in expires if i not in formula_of} | {*formula_of.values()})
            if targets:
                target = targets[op[1] % len(targets)]
                broker.unsubscribe(target)
                for i in [i for i in expires if target in (i, formula_of.get(i))]:
                    del expires[i]
        elif kind == "undisjunct" and formula_of:
            target = sorted(formula_of)[op[1] % len(formula_of)]
            broker.unsubscribe(target)
            del expires[target]
        elif kind == "advance":
            clock.advance(op[1])
        elif kind == "publish":
            broker.publish(op[1])
        elif kind == "redrive" and len(manager.dead_letters):
            # Its subscriber reconnects; the dead letters go out again.
            dead = manager.dead_letters.entries()
            sub_id = dead[op[1] % len(dead)].sub_id
            manager.register(sub_id)
            manager.redrive(sub_id)
        elif kind in ("ack", "lease", "disconnect") and manager.inflight:
            open_leases = manager.outstanding_leases()
            sub_id = open_leases[op[1] % len(open_leases)][0]
            if kind == "disconnect":
                manager.unregister(sub_id)
            else:
                for note in manager.poll(sub_id, limit=1):
                    if kind == "ack":
                        manager.ack(sub_id, note.seq)
        if index in compact_after:
            wal.compact()
        broker.check_invariants()
    # Pin the crash time, so ttl aging lands on the live broker's now.
    broker.purge_expired()
    wal.append_anchor(clock.now())
    wal.close()
    broker.wal = manager.wal = None  # their log is closed
    return broker, clock


def delivery_state(manager):
    leases = sorted(
        (sub_id, lease.seq, sorted(lease.notification.event.items()), lease.enqueued_at)
        for sub_id, lease in manager.outstanding_leases()
    )
    dead = sorted(
        (d.sub_id, d.seq, sorted(d.notification.event.items()), d.reason, d.attempts, d.at)
        for d in manager.dead_letters.entries()
    )
    return leases, dead


def live_ids(broker):
    return {sub.id for sub in broker.matcher.iter_subscriptions()}


def observed_ttls(broker, clock, horizon=61.0):
    """``id -> remaining validity`` seen from outside: step the clock in
    quarters and note when each subscription expires (None = never)."""
    start, alive, remaining = clock.now(), live_ids(broker), {}
    for step in range(1, int(horizon * 4) + 1):
        clock.set(start + step / 4)
        broker.purge_expired()
        still = live_ids(broker)
        remaining.update({sid: step / 4 for sid in alive - still})
        alive = still
    remaining.update({sid: None for sid in alive})
    return remaining


def check_compaction_is_invisible(engine, plan, cuts, probes):
    compact_after = {cut % len(plan) for cut in cuts}
    with tempfile.TemporaryDirectory() as tmp:
        compacted_path = os.path.join(tmp, "compacted.wal")
        plain_path = os.path.join(tmp, "plain.wal")
        live, live_clock = run_plan(engine, plan, compacted_path, compact_after)
        twin, _ = run_plan(engine, plan, plain_path, ())
        recovered = []
        for path in (compacted_path, plain_path):
            clock = VirtualClock()
            broker = durable_broker(engine, clock)
            recover_files(broker, wal_path=path)
            broker.check_invariants()
            recovered.append((broker, clock))
        try:
            assert delivery_state(live.delivery) == delivery_state(twin.delivery)
            for broker, clock in recovered:
                assert live_ids(broker) == live_ids(live)
                assert delivery_state(broker.delivery) == delivery_state(live.delivery)
                for event in probes:
                    assert sorted(broker.matcher.match(event)) == sorted(
                        live.matcher.match(event)
                    )
            # What subscribers see: the same logical ids, a formula once
            # per event (recovered channels are not registered yet, so
            # every match reaches the notifier).
            batch = [FORMULA_PROBE, *probes]
            want = [sorted(row) for row in live.publish_batch(batch)]
            for broker, clock in recovered:
                got = [sorted(row) for row in broker.publish_batch(batch)]
                assert got == want
                assert all(len(set(row)) == len(row) for row in got)
                notified = sorted(n.sub_id for n in broker.notifier.drain())
                assert notified == sorted(i for row in got for i in row)
            expected = observed_ttls(live, live_clock)
            for broker, clock in recovered:
                assert observed_ttls(broker, clock) == expected
        finally:
            for broker in (live, twin, *(b for b, _ in recovered)):
                broker.close()


#: Live and recovered brokers once disagreed on each: (a) a plain
#: subscription under a live formula's id, then ``unsubscribe`` of that
#: id (the live broker kept the plain one); (b) a disjunct unsubscribed
#: alone, its id reused (the live broker still reported it under the
#: formula's id); (c) a formula one of whose disjunct ids was taken (the
#: live broker kept the disjuncts installed before the clash).
SEQUENCE_A = [
    ("formula", FORMULAS[0], None),
    ("reuse", Subscription("s0", [eq("c", 3)]), None, 0),
    ("unsubscribe", 0),
]
SEQUENCE_B = [
    ("formula", FORMULAS[0], None),
    ("undisjunct", 0),
    ("reuse", Subscription("s0", [eq("c", 3)]), None, 1),
    ("publish", FORMULA_PROBE),
]
SEQUENCE_C = [
    ("clash", FORMULAS[0], Subscription("s0", [eq("c", 3)]), None, 1),
    ("publish", FORMULA_PROBE),
]


CUTS = st.lists(st.integers(min_value=0, max_value=29), min_size=1, max_size=3)
PROBES = st.lists(events(), min_size=1, max_size=3)


@pytest.mark.parametrize("examples", [100, pytest.param(1000, marks=pytest.mark.slow)])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_recovering_a_compacted_log_equals_recovering_the_full_history(engine, examples):
    @settings(max_examples=examples, deadline=None)
    @given(plan=PLAN, cuts=CUTS, probes=PROBES)
    @example(plan=SEQUENCE_A, cuts=[1], probes=[FORMULA_PROBE])
    @example(plan=SEQUENCE_B, cuts=[3], probes=[FORMULA_PROBE])
    @example(plan=SEQUENCE_C, cuts=[0], probes=[FORMULA_PROBE])
    def check(plan, cuts, probes):
        check_compaction_is_invisible(engine, plan, cuts, probes)

    check()


# ----------------------------------------------------------------------
# every reader agrees on a damaged log, and recovery is what it was
# ----------------------------------------------------------------------
RECORD_TYPES = ("anchor", "subscribe", "unsubscribe", "deliver", "settle")


def reference_read_wal(raw):
    """The previous ``read_wal``, verbatim but for reading bytes (a line
    that is not UTF-8 is damage, as it always was to the re-open path)."""
    if not raw:
        return [], 0
    torn_tail = not raw.endswith(b"\n")
    chunks = raw.split(b"\n")
    if chunks and chunks[-1] == b"":
        chunks.pop()  # the final newline's empty remainder, not a line
    records = []
    first = True
    for index, chunk in enumerate(chunks):
        complete = not (torn_tail and index == len(chunks) - 1)
        record, parsed_ok = None, False
        if complete and chunk.strip():
            try:
                parsed = json.loads(chunk.decode("utf-8"))
            except ValueError:
                pass
            else:
                record, parsed_ok = (parsed if isinstance(parsed, dict) else None), True
        if first:
            if complete and (
                (record is None and parsed_ok)
                or (
                    record is not None
                    and (record.get("type"), record.get("version")) != ("repro-broker-wal", 1)
                )
            ):
                raise WalError("not a v1 broker WAL")
            if record is None:
                return [], len(chunks) - index  # damaged header
            first = False
            continue
        if record is None or record.get("type") not in RECORD_TYPES:
            return records, len(chunks) - index
        records.append(record)
    return records, 0


class RecordingBroker:
    """An empty broker that notes what recovery installs, in order."""

    subscription_count = 0

    def __init__(self):
        self.calls = []
        self.delivery = self

    def restore_subscriptions(self, survivors):
        for sub, remaining, logical in survivors:
            self.calls.append(("subscription", sub, remaining, logical))

    def restore(self, sub_id, seq, event, at):
        self.calls.append(("lease", sub_id, seq, event, at))

    def restore_dead_letter(self, sub_id, seq, event, reason, attempts, at):
        self.calls.append(("dead-letter", sub_id, seq, event, reason, attempts, at))


def reference_recover(raw):
    """The previous ``recover``, verbatim (one defect apart, marked
    below): the log four times in memory, the live table scanned on
    every ``unsubscribe``, ``dead`` rebuilt on every redrive.  Returns ``(report, calls, ledger, trusted, discarded)``."""
    wal_records, discarded = reference_read_wal(raw)
    report = dict(
        restored=0, wal_records=0, replayed_subscribes=0, replayed_unsubscribes=0,
        anchors=0, replayed_deliveries=0, replayed_settles=0, unacked_deliveries=0,
        recovered_dead_letters=0, skipped_expired=0, torn_tail_discarded=discarded,
        unknown_unsubscribes=0, source_clock=None,
    )  # fmt: skip
    times = [float(r["at"]) for r in wal_records if isinstance(r.get("at"), (int, float))]
    entries = {}  # id -> (subscription, expires_src, logical)
    outstanding, dead = {}, []
    for index, record in enumerate(wal_records):
        kind = record.get("type")
        at = record.get("at")
        if not isinstance(at, (int, float)):
            at = None
        if kind == "anchor":
            report["anchors"] += 1
        elif kind == "deliver":
            key = (record.get("sub"), record.get("seq"))
            outstanding[key] = {"event": record.get("event", {}), "at": record.get("at", 0.0)}
            report["replayed_deliveries"] += 1
        elif kind == "settle":
            key = (record.get("sub"), record.get("seq"))
            entry = outstanding.pop(key, None)
            if record.get("outcome") == "dead-letter":
                dead.append(
                    {
                        "sub": key[0],
                        "seq": key[1],
                        "event": (entry or {}).get("event", {}),
                        "reason": record.get("reason") or "budget",
                        "attempts": record.get("attempts", 0),
                        "at": record.get("at", 0.0),
                    }
                )
            elif record.get("outcome") == "redriven":
                dead = [d for d in dead if (d["sub"], d["seq"]) != key]
            report["replayed_settles"] += 1
        elif kind == "subscribe":
            try:
                sub = subscription_from_dict(record["subscription"])
            except (KeyError, TypeError, SerializationError):
                report["torn_tail_discarded"] += len(wal_records) - index
                break
            ttl = record.get("ttl")
            if ttl is not None and not isinstance(ttl, (int, float)):
                report["torn_tail_discarded"] += len(wal_records) - index
                break
            base = at if at is not None else (times and max(times)) or 0.0
            entries[sub.id] = (sub, None if ttl is None else base + ttl, record.get("logical"))
            report["replayed_subscribes"] += 1
        elif kind == "unsubscribe":
            sid = record.get("id")
            removed = entries.pop(sid, None) is not None
            # The one deliberate difference: the scan below used to run
            # for an id-less record too (a garbled ``"id"`` key), where
            # ``logical == None`` matched — and dropped — every plain
            # subscription.  Pinned in tests/system/test_recovery.py.
            for key in [k for k, e in entries.items() if sid is not None and e[2] == sid]:
                del entries[key]
                removed = True
            if not removed:
                report["unknown_unsubscribes"] += 1
            report["replayed_unsubscribes"] += 1
        report["wal_records"] += 1
    now_src = max(times) if times else 0.0
    report["source_clock"] = now_src if wal_records else None
    calls = []
    for sub, expires_src, logical in entries.values():
        remaining = None if expires_src is None else expires_src - now_src
        if remaining is not None and remaining <= 0:
            report["skipped_expired"] += 1
            continue
        calls.append(("subscription", sub, remaining, logical))
        report["restored"] += 1
    report["unacked_deliveries"] = len(outstanding)
    report["recovered_dead_letters"] = len(dead)
    for (sub_id, seq), info in outstanding.items():
        try:
            event = event_from_dict(info["event"])
        except (KeyError, TypeError, SerializationError):
            continue
        calls.append(("lease", sub_id, seq, event, info["at"]))
    for d in dead:
        try:
            event = event_from_dict(d["event"])
        except (KeyError, TypeError, SerializationError):
            continue
        calls.append(
            ("dead-letter", d["sub"], d["seq"], event, d["reason"], d["attempts"], d["at"])
        )
    ledger = (list(outstanding.items()), dead)
    return report, calls, ledger, len(wal_records), discarded


def check_every_reader_agrees(path, raw):
    """Prefix form, list form, ``recover`` and compaction on the bytes *raw*."""
    with open(path, "wb") as fp:
        fp.write(raw)

    def list_form():
        with open(path, "rb") as fp:
            return read_wal(fp)

    try:
        report, calls, ledger_state, trusted, discarded = reference_recover(raw)
    except WalError:
        # Readable, but no log of ours: nobody may truncate or replay it.
        for reader in (
            lambda: scan_valid_prefix(path),
            list_form,
            lambda: recover_files(RecordingBroker(), wal_path=path),
        ):
            with pytest.raises(WalError):
                reader()
        return
    prefix_bytes, prefix_records, prefix_discarded, _last_at = scan_valid_prefix(path)
    records, list_discarded = list_form()
    assert (prefix_records, prefix_discarded) == (len(records), list_discarded)
    assert (prefix_records, prefix_discarded) == (trusted, discarded)
    # The trusted prefix is whole lines: the header and those records —
    # or nothing at all, when not even the header could be trusted.
    lines = raw.split(b"\n")
    total = len(lines) - (lines[-1] == b"")  # a torn last line counts
    kept = 0 if discarded == total else 1 + trusted
    assert prefix_bytes == sum(len(line) + 1 for line in lines[:kept])
    broker = RecordingBroker()
    got = recover_files(broker, wal_path=path)
    assert got.as_dict() == report
    assert broker.calls == calls
    # Compaction is one more reader: the file compacted recovers to the
    # same subscriptions, remaining ttls, formulas, leases and dead
    # letters as the file itself.
    compacted = path + ".compacted"
    with open(compacted, "wb") as fp:
        fp.write(raw)
    with WriteAheadLog(compacted, clock=VirtualClock(), fsync="never") as wal:
        wal.compact()
    broker = RecordingBroker()
    recover_files(broker, wal_path=compacted)
    assert broker.calls == calls
    if got.wal_records == trusted:  # no unreplayable subscribe cut it short
        # The CLI's fold (``repro deliveries`` / ``repro dlq``): same
        # open leases, same dead letters, in log order.
        ledger = DeliveryLedger()
        for record in records:
            ledger.apply(record)
        assert (list(ledger.outstanding.items()), ledger.dead) == ledger_state
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return
    # A text stream (what ``recover`` always accepted) reads the same.
    broker = RecordingBroker()
    assert recover(broker, io.StringIO(text)).as_dict() == report
    assert broker.calls == calls


SUB_IDS = st.sampled_from(["s0", "s1", "s2", "s3"])
LOGICAL_IDS = st.sampled_from(["f0", "f1"])
STAMP = QUARTERS(0, 40)
#: ``at`` now and then missing; never monotone.
STAMPED = st.one_of(st.fixed_dictionaries({"at": STAMP}), st.just({}))
EVENT_DICTS = st.one_of(
    events().map(lambda e: {"pairs": dict(e.items())}),
    st.just({"bogus": True}),  # a lease recovery cannot reconstruct
)


SUB_DICTS = st.builds(
    Subscription, SUB_IDS, st.lists(predicates(), min_size=1, max_size=2)
).map(subscription_to_dict)


def _record(kind, fields):
    return st.tuples(STAMPED, st.fixed_dictionaries(fields)).map(
        lambda parts: {"type": kind, **parts[0], **parts[1]}
    )


SYNTHETIC_RECORDS = st.one_of(
    _record("anchor", {}),
    _record(
        "subscribe",
        {
            # Now and then unreplayable, which ends the trusted log.
            "subscription": st.one_of(*[SUB_DICTS] * 9, st.just({"bogus": True})),
            "ttl": st.one_of(*[st.none(), QUARTERS(1, 50)] * 5, st.just("soon")),
        },
    ),
    _record(
        "subscribe",  # a formula disjunct; its id may move between formulas
        {
            "subscription": SUB_DICTS,
            "ttl": st.one_of(st.none(), QUARTERS(1, 50)),
            "logical": LOGICAL_IDS,
        },
    ),
    _record("unsubscribe", {"id": st.one_of(SUB_IDS, LOGICAL_IDS, st.just("ghost"))}),
    _record(
        "deliver",
        {"sub": SUB_IDS, "seq": st.integers(min_value=0, max_value=5), "event": EVENT_DICTS},
    ),
    _record(
        "settle",
        {
            "sub": SUB_IDS,
            "seq": st.integers(min_value=0, max_value=5),
            "outcome": st.sampled_from(["ack", "shed", "dead-letter", "dead-letter", "redriven"]),
            "attempts": st.integers(min_value=0, max_value=3),
        },
    ),
)


def _lines(records):
    header = {"type": "repro-broker-wal", "version": 1, "clock": 0.0}
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in [header, *records]).encode()


SYNTHETIC_LOGS = st.lists(SYNTHETIC_RECORDS, max_size=20).map(_lines)

@st.composite
def journaled_logs(draw):
    """What a broker with formulas, leases, dead letters and redrives
    really wrote."""
    plan = draw(REDRIVE_PLAN)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.wal")
        broker, _clock = run_plan("dynamic", plan, path, ())
        broker.close()
        with open(path, "rb") as fp:
            return fp.read()


#: Where the damage lands (a fraction of the log) and, for a garble, the
#: byte written there; newline, quote and brace bytes are worth extra draws.
DAMAGE = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.one_of(st.none(), st.integers(0, 255), st.sampled_from(list(b'\n\r"{}:, 0'))),
    ),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("examples", [200, pytest.param(2000, marks=pytest.mark.slow)])
def test_every_reader_agrees_on_a_damaged_log_and_recovery_is_what_it_was(examples):
    @settings(max_examples=examples, deadline=None)
    @given(raw=st.one_of(SYNTHETIC_LOGS, journaled_logs()), damage=DAMAGE)
    def check(raw, damage):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "damaged.wal")
            check_every_reader_agrees(path, raw)  # intact
            for where, byte in damage:
                offset = int(where * len(raw))
                if byte is None:
                    check_every_reader_agrees(path, raw[:offset])
                elif offset < len(raw):
                    garbled = raw[:offset] + bytes([byte]) + raw[offset + 1 :]
                    check_every_reader_agrees(path, garbled)

    check()
