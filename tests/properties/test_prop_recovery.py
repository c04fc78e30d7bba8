"""Properties of crash recovery.

**Any crash offset is prefix-consistent.**  The broker journals a
random subscribe/unsubscribe/advance workload, then the WAL is
truncated at an arbitrary byte offset (the crash).  Recovery must restore exactly the live set implied by the longest valid
record prefix of the damaged file — computed here by an independent
JSON-lines parser and replay table, not by the WAL module under test —
and the restored matcher must agree with direct predicate evaluation.

**Compaction is invisible to recovery.**  The same plan — subscribes
with ttls, formulas, unsubscribes, clock advances, publishes into
explicit-ack channels, acks, lost acks, disconnects — is run twice, once
with the log compacted at arbitrary points and once never compacted.
Recovering either log must give the live broker's state: subscription
set, remaining ttls, one notification per formula, open leases and
dead letters.
"""

import json
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import AggregatingMatcher
from repro.core import Event, Subscription
from repro.io import subscription_from_dict
from repro.system import (
    DeliveryManager,
    PubSubBroker,
    QueueNotifier,
    RetryPolicy,
    ShardedMatcher,
    VirtualClock,
    WriteAheadLog,
    recover_files,
)
from tests.properties.strategies import VALUES, events, predicates, subscriptions

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("subscribe"),
            subscriptions(),
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
    for op in ops:
        now = clock.now()
        live = {i: e for i, e in live.items() if e is None or e > now}
        if op[0] == "subscribe":
            _, sub, ttl = op
            if sub.id in live:
                continue  # the broker rejects duplicate live ids
            broker.subscribe(sub, ttl=ttl, notify_retained=False)
            live[sub.id] = None if ttl is None else now + ttl
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
    table = {}  # id -> (subscription, expires-or-None)
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
            table[sub.id] = (sub, None if ttl is None else at + ttl)
            times.append(at)
        elif kind == "unsubscribe":
            table.pop(record["id"], None)
            times.append(record["at"])
        elif kind == "anchor":
            times.append(record["at"])
        else:
            break
    now = max(times) if times else 0.0
    return {
        sid: sub for sid, (sub, expires) in table.items()
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

#: Every disjunct of every formula is satisfied by ``FORMULA_PROBE``.
FORMULAS = ["a = 1 or b = 2", "c = 3 or d = 4", "a = 1 or e = 5 or c = 3"]
FORMULA_PROBE = Event({"a": 1, "b": 2, "c": 3, "d": 4, "e": 5})

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

PLAN = st.lists(
    st.one_of(
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
    ),
    min_size=6,
    max_size=30,
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
    *compact_after*; returns the live broker (its log closed), its
    clock and the formula ids still live."""
    clock = VirtualClock()
    wal = WriteAheadLog(wal_path, clock=clock, fsync="never")
    broker = durable_broker(engine, clock, wal)
    manager = broker.delivery
    live = {}  # logical id -> absolute expiry (None = immortal)
    for index, op in enumerate(plan):
        now = clock.now()
        live = {i: e for i, e in live.items() if e is None or e > now}
        kind = op[0]
        if kind == "subscribe" and op[1].id not in live:
            broker.subscribe(op[1], ttl=op[2])
            manager.register(op[1].id)
            live[op[1].id] = None if op[2] is None else now + op[2]
        elif kind == "formula":
            fid = broker.subscribe_formula(op[1], f"F{index}", ttl=op[2])
            manager.register(fid)
            live[fid] = None if op[2] is None else now + op[2]
        elif kind == "unsubscribe" and live:
            target = sorted(live)[op[1] % len(live)]
            broker.unsubscribe(target)
            del live[target]
        elif kind == "advance":
            clock.advance(op[1])
        elif kind == "publish":
            broker.publish(op[1])
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
            wal.compact(broker)
    # Pin the crash time, so ttl aging lands on the live broker's now.
    broker.purge_expired()
    wal.append_anchor(clock.now())
    wal.close()
    formulas = {i for i, e in live.items() if i.startswith("F") and (e is None or e > clock.now())}
    return broker, clock, formulas


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
        live, live_clock, formulas = run_plan(engine, plan, compacted_path, compact_after)
        twin, _, _ = run_plan(engine, plan, plain_path, ())
        recovered = []
        for path in (compacted_path, plain_path):
            clock = VirtualClock()
            broker = durable_broker(engine, clock)
            recover_files(broker, wal_path=path)
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
                # A formula answers once, under its logical id.
                matched = broker.publish(FORMULA_PROBE)
                assert {i for i in matched if i.startswith("F")} == formulas
                assert all(matched.count(fid) == 1 for fid in formulas)
                notified = [n.sub_id for n in broker.notifier.drain()]
                assert all(notified.count(fid) == 1 for fid in formulas)
            with live.wal_suppressed():  # its log is closed
                expected = observed_ttls(live, live_clock)
            for broker, clock in recovered:
                assert observed_ttls(broker, clock) == expected
        finally:
            for broker in (live, twin, *(b for b, _ in recovered)):
                broker.close()


CUTS = st.lists(st.integers(min_value=0, max_value=29), min_size=1, max_size=3)
PROBES = st.lists(events(), min_size=1, max_size=3)


@pytest.mark.parametrize("examples", [100, pytest.param(1000, marks=pytest.mark.slow)])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_recovering_a_compacted_log_equals_recovering_the_full_history(engine, examples):
    @settings(max_examples=examples, deadline=None)
    @given(plan=PLAN, cuts=CUTS, probes=PROBES)
    def check(plan, cuts, probes):
        check_compaction_is_invisible(engine, plan, cuts, probes)

    check()
