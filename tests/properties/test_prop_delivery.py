"""Properties of the at-least-once delivery layer.

Five guarantees, each hypothesis-driven under a ``VirtualClock``:

1. **At-least-once** — whatever schedule of subscriber crashes, stalls
   and lost acks, once time runs long enough every dispatched
   notification is either acked (and was received at least once) or
   dead-lettered; nothing stays in flight and nothing vanishes.
2. **Dead-letter exactness** — the dead-lettered notifications are
   exactly the ones that exhausted the per-channel retry budget, each
   after exactly ``max_attempts`` send attempts.
3. **Crash-offset recovery** — truncating the WAL at *any* byte offset
   and recovering re-queues exactly the unacked in-flight set implied
   by the longest valid record prefix — computed here by an independent
   JSON-lines replay, not by the modules under test.
4. **Lifetime totals** — ``stats()["counters"]`` never decreases across
   any register / dispatch / ack / pump / unregister interleaving, and
   agrees with the registry for the four families that exist in both.
5. **Compaction is invisible to delivery** — the log as written and
   the same log after ``wal.compact()`` recover to the same
   outstanding leases and the same dead letters.

Both op-sequence machines call ``manager.check_invariants()`` after
every step.
"""

import json
import os
import random
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Event
from repro.obs.registry import MetricsRegistry
from repro.system import (
    DeliveryManager,
    PubSubBroker,
    QueueNotifier,
    RetryPolicy,
    VirtualClock,
    WriteAheadLog,
    recover_files,
)

MAX_ATTEMPTS = 3
ACK_TIMEOUT = 5.0


class ScriptedSubscriber:
    """A sink driven by a per-attempt behavior script.

    Each delivery attempt consumes the next scripted behavior:
    ``crash`` raises (the attempt fails), ``drop`` receives but never
    acks (the ack is lost; the attempt times out), ``ack`` receives and
    acks.  A subscriber whose script ran out *survives*: every further
    attempt acks.
    """

    def __init__(self, manager, script):
        self.manager = manager
        self.script = list(script)
        self.received = []
        self.acked = set()

    def deliver(self, notification):
        behavior = self.script.pop(0) if self.script else "ack"
        if behavior == "crash":
            raise RuntimeError("scripted crash")
        self.received.append(notification)
        if behavior == "ack":
            self.acked.add(notification.seq)
            self.manager.ack(notification.sub_id, notification.seq)


def make_manager(clock):
    return DeliveryManager(
        clock=clock,
        ack_timeout=ACK_TIMEOUT,
        retry=RetryPolicy(
            max_attempts=MAX_ATTEMPTS, base_delay=1.0, max_delay=4.0,
            rng=random.Random(99),
        ),
    )


def settle(manager, clock, rounds=200):
    """Pump until nothing is in flight (bounded; the budget guarantees
    convergence long before the bound)."""
    for _ in range(rounds):
        if manager.inflight == 0:
            return
        clock.advance(1.0)
        manager.pump()
    raise AssertionError(f"delivery never settled: {manager.inflight} in flight")


@settings(max_examples=50, deadline=None)
@given(
    script=st.lists(
        st.sampled_from(["crash", "drop", "ack"]), min_size=0, max_size=30
    ),
    n_events=st.integers(min_value=1, max_value=8),
    gaps=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=8, max_size=8),
)
def test_every_notification_is_acked_or_dead_lettered(script, n_events, gaps):
    clock = VirtualClock()
    manager = make_manager(clock)
    subscriber = ScriptedSubscriber(manager, script)
    manager.register("s1", sink=subscriber)

    dispatched = []
    for i in range(n_events):
        dispatched.append(manager.dispatch("s1", Event({"n": i})))
        clock.advance(gaps[i])
        manager.pump()
    settle(manager, clock)

    acked = subscriber.acked
    dead = {e.seq for e in manager.dead_letters.entries("s1")}
    # Exhaustive and disjoint: every delivery ends in exactly one bin.
    assert acked | dead == set(dispatched)
    assert acked & dead == set()
    # At-least-once: whatever was acked was genuinely received.
    received = {n.seq for n in subscriber.received}
    assert acked <= received
    # Dead-letter exactness: only a spent budget dead-letters, and a
    # spent budget means exactly MAX_ATTEMPTS send attempts.
    for entry in manager.dead_letters.entries("s1"):
        assert entry.reason == "budget"
        assert entry.attempts == MAX_ATTEMPTS


class PerSeqScriptedSubscriber:
    """Like :class:`ScriptedSubscriber`, but each delivery has its own
    failure script — capping every script below the retry budget makes
    the subscriber a *survivor* by construction: no single notification
    can ever exhaust its attempts."""

    def __init__(self, manager, scripts):
        self.manager = manager
        self.scripts = {seq: list(s) for seq, s in enumerate(scripts)}
        self.received = []
        self.acked = set()

    def deliver(self, notification):
        script = self.scripts.get(notification.seq, [])
        behavior = script.pop(0) if script else "ack"
        if behavior == "crash":
            raise RuntimeError("scripted crash")
        self.received.append(notification)
        if behavior == "ack":
            self.acked.add(notification.seq)
            self.manager.ack(notification.sub_id, notification.seq)


@settings(max_examples=50, deadline=None)
@given(
    scripts=st.lists(
        st.lists(
            st.sampled_from(["crash", "drop"]),
            min_size=0,
            max_size=MAX_ATTEMPTS - 1,
        ),
        min_size=5,
        max_size=5,
    )
)
def test_surviving_subscriber_receives_everything(scripts):
    n_events = 5
    clock = VirtualClock()
    manager = make_manager(clock)
    subscriber = PerSeqScriptedSubscriber(manager, scripts)
    manager.register("s1", sink=subscriber)
    dispatched = [manager.dispatch("s1", Event({"n": i})) for i in range(n_events)]
    settle(manager, clock)
    # The subscriber survived (its failures were transient), so
    # at-least-once delivery of *everything* is mandatory.
    assert {n.seq for n in subscriber.received} == set(dispatched)
    assert subscriber.acked == set(dispatched)
    assert len(manager.dead_letters) == 0


TOTALS_SUBS = ("s0", "s1", "s2")


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["register", "register-auto", "register-shed", "dispatch",
                 "ack", "advance", "unregister", "unregister-drop"]
            ),
            st.sampled_from(TOTALS_SUBS),
        ),
        max_size=60,
    )
)
def test_totals_are_monotone_and_equal_the_registry(ops):
    clock = VirtualClock()
    manager = make_manager(clock)
    registry = manager.use_metrics(MetricsRegistry())
    unacked = {sub_id: [] for sub_id in TOTALS_SUBS}
    before = manager.stats()["counters"]
    for op, sub_id in ops:
        registered = sub_id in manager.stats()["per_channel"]
        if op == "register":
            manager.register(sub_id)  # pull mode: leases wait for poll / timeout
        elif op == "register-auto":
            manager.register(sub_id, sink=lambda n: None, auto_ack=True)
        elif op == "register-shed":
            manager.register(
                sub_id, sink=lambda n: None, capacity=2, overflow="shed-oldest"
            )
        elif op == "dispatch" and registered:
            unacked[sub_id].append(manager.dispatch(sub_id, Event({"n": 1})))
        elif op == "ack" and registered and unacked[sub_id]:
            manager.ack(sub_id, unacked[sub_id].pop(0))
        elif op == "advance":
            clock.advance(ACK_TIMEOUT)
            manager.pump()
        elif op.startswith("unregister") and registered:
            manager.unregister(sub_id, dead_letter=op == "unregister")
        manager.check_invariants()
        totals = manager.stats()["counters"]
        assert all(totals[key] >= before[key] for key in before), (op, before, totals)
        before = totals

    def family(name):
        return sum(child.value for _labels, child in registry.family(name).children())

    assert before["acks"] == family("repro_delivery_acks_total")
    assert before["redeliveries"] == family("repro_delivery_redeliveries_total")
    assert before["shed"] == family("repro_delivery_shed_total")
    assert before["dead_lettered"] == family("repro_delivery_dead_lettered_total")


#: The workload's channels: two plain push channels and one that sheds.
WORKLOAD_CHANNELS = {
    "s1": {},
    "s2": {},
    "s3": {"capacity": 2, "overflow": "shed-oldest"},
}


def run_delivery_workload(wal_path, ops):
    """Journal a delivery workload; returns the live broker and its log
    (still open — the caller closes or compacts it)."""
    clock = VirtualClock()
    wal = WriteAheadLog(wal_path, clock=clock, fsync="never")
    manager = make_manager(clock)
    broker = PubSubBroker(
        clock=clock, notifier=QueueNotifier(), wal=wal, delivery=manager
    )
    subs = sorted(WORKLOAD_CHANNELS)

    def register(sub):
        manager.register(sub, sink=lambda n: None, **WORKLOAD_CHANNELS[sub])

    for sub in subs:
        register(sub)
    for kind, arg in ops:
        if kind == "advance":  # ack timeouts, retries and dead-letters fire
            clock.advance(arg)
            manager.pump()
        elif kind == "ack":
            held = manager.outstanding_leases()  # every lease not settled yet
            if held:
                owner, lease = held[arg % len(held)]
                manager.ack(owner, lease.seq)
        else:
            sub = subs[arg % len(subs)]
            if kind == "register":  # reconnects, or comes back after leaving
                register(sub)
            elif kind == "redrive":
                manager.redrive(sub)
            elif not manager.handles(sub):
                pass  # it left; nothing to dispatch to or detach
            elif kind == "dispatch":
                manager.dispatch(sub, Event({"n": arg}))
            elif kind == "disconnect":
                manager.disconnect(sub)
            else:
                manager.unregister(sub, dead_letter=kind == "unregister")
        manager.check_invariants()
    return broker, wal


def oracle_delivery_state(wal_path):
    """Independent replay: (outstanding, dead) implied by the longest
    valid record prefix of the (possibly damaged) WAL file."""
    with open(wal_path, "rb") as fp:
        raw = fp.read()
    chunks = raw.split(b"\n")[:-1]  # no trailing newline = torn = untrusted
    outstanding = {}
    dead = set()
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
        if kind == "deliver":
            outstanding[(record["sub"], record["seq"])] = record["event"]
        elif kind == "settle":
            outstanding.pop((record["sub"], record["seq"]), None)
            if record["outcome"] == "dead-letter":
                dead.add((record["sub"], record["seq"]))
            elif record["outcome"] == "redriven":
                dead.discard((record["sub"], record["seq"]))
        elif kind not in ("anchor", "subscribe", "unsubscribe"):
            break
    return outstanding, dead


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("dispatch"), st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("dispatch"), st.integers(min_value=0, max_value=99)),  # twice as likely
        st.tuples(st.just("ack"), st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("advance"), st.floats(min_value=0.5, max_value=8.0)),
        st.tuples(
            st.sampled_from(
                ["unregister", "unregister-drop", "disconnect", "register", "redrive"]
            ),
            st.integers(min_value=0, max_value=2),
        ),
    ),
    min_size=1,
    max_size=30,
)


def recover_delivery(wal_path):
    """The delivery manager of a fresh broker recovered from *wal_path*."""
    manager = DeliveryManager(clock=VirtualClock())
    broker = PubSubBroker(
        clock=VirtualClock(), notifier=QueueNotifier(), delivery=manager
    )
    recover_files(broker, wal_path=wal_path)
    return manager


@settings(max_examples=50, deadline=None)
@given(ops=OPS, offset_frac=st.floats(min_value=0.0, max_value=1.0))
def test_any_crash_offset_recovers_every_unacked_delivery(ops, offset_frac):
    with tempfile.TemporaryDirectory() as tmp:
        wal_path = os.path.join(tmp, "crash.wal")
        run_delivery_workload(wal_path, ops)[1].close()
        offset = int(offset_frac * os.path.getsize(wal_path))
        with open(wal_path, "r+b") as raw:
            raw.truncate(offset)

        expected_outstanding, expected_dead = oracle_delivery_state(wal_path)
        manager = recover_delivery(wal_path)

        got_outstanding = {
            (sub, lease.seq): True for sub, lease in manager.outstanding_leases()
        }
        # Never loses an unacked in-flight notification — and never
        # invents one either.
        assert set(got_outstanding) == set(expected_outstanding)
        got_dead = {(e.sub_id, e.seq) for e in manager.dead_letters}
        assert got_dead == expected_dead
        # The re-queued payloads round-trip.
        for sub, lease in manager.outstanding_leases():
            want = expected_outstanding[(sub, lease.seq)]["pairs"]
            assert dict(lease.notification.event.items()) == want


@settings(max_examples=50, deadline=None)
@given(ops=OPS)
def test_compacted_and_plain_logs_recover_the_same_delivery_state(ops):
    def state(manager):
        return (
            {(sub, lease.seq) for sub, lease in manager.outstanding_leases()},
            {(e.sub_id, e.seq) for e in manager.dead_letters},
        )

    with tempfile.TemporaryDirectory() as tmp:
        wal_path = os.path.join(tmp, "live.wal")
        plain_path = os.path.join(tmp, "as-written.wal")
        broker, wal = run_delivery_workload(wal_path, ops)
        shutil.copyfile(wal_path, plain_path)  # every append is flushed
        wal.compact()
        wal.close()
        # Both logs owe exactly what the live manager still holds: a
        # lease the operator dropped is owed by neither.
        assert state(recover_delivery(plain_path)) == state(broker.delivery)
        assert state(recover_delivery(wal_path)) == state(broker.delivery)
