"""End-to-end at-least-once delivery smoke test (``make delivery-smoke``).

Drives the full acked-channel story once, at small scale:

1. a journaling broker fans a burst out to a crashy subscriber (fails
   its first deliveries, then heals) and a healthy one; redelivery must
   get *everything* to both, with zero dead letters;
2. a permanently dead subscriber burns its retry budget; the DLQ must
   hold exactly its notifications — inspected via the library *and*
   the ``repro dlq`` CLI — and ``redrive`` must drain it once a
   healthy sink reconnects;
3. the crash: the process dies with deliveries unacked in flight, the
   log compacted mid-burst; a fresh broker recovers from the WAL and
   the redelivered set is differentially checked against the
   pre-crash unacked oracle;
4. the ``repro deliveries`` ledger summary must agree with the
   recovered manager's own accounting.

Exits non-zero (with a diagnostic) on any divergence.
"""

import io
import json
import os
import random
import shutil
import sys

from repro.cli import main as cli_main
from repro.core.types import Event, Subscription, eq
from repro.system import (
    DeliveryManager,
    PubSubBroker,
    QueueNotifier,
    RetryPolicy,
    VirtualClock,
    WriteAheadLog,
    recover_files,
)
from repro.testing import CrashySubscriber

N_EVENTS = 40


def fail(message):
    print(f"delivery smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def drive(manager, clock, total, step=1.0):
    elapsed = 0.0
    while elapsed < total:
        clock.advance(step)
        elapsed += step
        manager.pump()


def run_cli(argv):
    out = io.StringIO()
    rc = cli_main(argv, out=out)
    if rc != 0:
        fail(f"CLI {argv} exited {rc}")
    return json.loads(out.getvalue())


def main(workdir=".delivery-smoke"):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wal_path = os.path.join(workdir, "broker.wal")

    clock = VirtualClock()
    wal = WriteAheadLog(wal_path, clock=clock, fsync="always")
    manager = DeliveryManager(
        clock=clock,
        ack_timeout=5.0,
        retry=RetryPolicy(max_attempts=4, base_delay=1.0, rng=random.Random(17)),
    )
    broker = PubSubBroker(
        clock=clock, notifier=QueueNotifier(), wal=wal, delivery=manager
    )

    # ------------------------------------------------------------------
    # Phase 1: burst through a crash-then-heal subscriber.
    # ------------------------------------------------------------------
    broker.subscribe(Subscription("crashy", [eq("topic", "alerts")]))
    broker.subscribe(Subscription("healthy", [eq("topic", "alerts")]))
    crashy = CrashySubscriber(failures=3, manager=manager)
    healthy = CrashySubscriber(failures=0, manager=manager)
    manager.register("crashy", sink=crashy)
    manager.register("healthy", sink=healthy)

    for i in range(N_EVENTS):
        broker.publish(Event({"topic": "alerts", "n": i}))
    drive(manager, clock, 90.0)

    want = list(range(N_EVENTS))
    for name, subscriber in (("crashy", crashy), ("healthy", healthy)):
        got = sorted(set(n.event["n"] for n in subscriber.received))
        if got != want:
            fail(f"{name} missed notifications: got {len(got)} of {N_EVENTS}")
    if len(manager.dead_letters) != 0:
        fail(f"healed subscriber dead-lettered {len(manager.dead_letters)}")
    if manager.inflight != 0:
        fail(f"{manager.inflight} deliveries stuck in flight after the burst")
    if manager.channel("crashy").counters["redeliveries"] < 3:
        fail("crashy subscriber healed without any redeliveries")

    # ------------------------------------------------------------------
    # Phase 2: a permanently dead subscriber dead-letters its burst,
    # the CLI sees it, and redrive drains it after reconnection.
    # ------------------------------------------------------------------
    broker.subscribe(Subscription("dead", [eq("topic", "alerts")]))
    doomed = CrashySubscriber(manager=manager)  # infinite failure budget
    manager.register(
        "dead",
        sink=doomed,
        retry=RetryPolicy(max_attempts=2, base_delay=1.0, rng=random.Random(5)),
    )
    for i in range(5):
        broker.publish(Event({"topic": "alerts", "n": 100 + i}))
    drive(manager, clock, 60.0)

    dead_entries = manager.dead_letters.entries("dead")
    if len(dead_entries) != 5:
        fail(f"expected 5 dead letters, found {len(dead_entries)}")
    if any(e.reason != "budget" or e.attempts != 2 for e in dead_entries):
        fail("dead letters disagree on reason/attempt accounting")

    cli_dlq = run_cli(["dlq", "--wal", wal_path, "--sub", "dead"])
    if cli_dlq["total"] != 5:
        fail(f"repro dlq sees {cli_dlq['total']} dead letters, expected 5")

    doomed.rearm(failures=0)  # the subscriber comes back healthy
    redriven = manager.redrive("dead")
    drive(manager, clock, 30.0)
    if redriven != 5 or len(manager.dead_letters.entries("dead")) != 0:
        fail("redrive did not drain the dead-letter queue")
    got = sorted(n.event["n"] for n in doomed.received)
    if got != [100 + i for i in range(5)]:
        fail(f"redriven notifications diverged: {got}")

    # ------------------------------------------------------------------
    # Phase 3: crash with deliveries unacked in flight, then recover.
    # ------------------------------------------------------------------
    stalled = []  # the sink receives but never acks
    broker.subscribe(Subscription("stalled", [eq("topic", "alerts")]))
    manager.register("stalled", sink=stalled.append)
    for i in range(7):
        if i == 4:
            wal.compact()  # the rest of the burst is the compacted log's tail
        broker.publish(Event({"topic": "alerts", "n": 200 + i}))
    unacked_oracle = sorted(
        (str(sub), lease.seq) for sub, lease in manager.outstanding_leases()
    )
    if len(unacked_oracle) != 7:
        fail(f"expected 7 unacked in-flight deliveries, found {unacked_oracle}")
    wal.close()  # the crash: nothing acked, process gone

    clock2 = VirtualClock()
    manager2 = DeliveryManager(clock=clock2, ack_timeout=5.0)
    restored = PubSubBroker(
        clock=clock2, notifier=QueueNotifier(), delivery=manager2
    )
    report = recover_files(restored, wal_path=wal_path)
    if report.unacked_deliveries != 7:
        fail(
            f"recovery found {report.unacked_deliveries} unacked deliveries, "
            f"the crash left 7"
        )
    recovered = sorted(
        (str(sub), lease.seq) for sub, lease in manager2.outstanding_leases()
    )
    if recovered != unacked_oracle:
        fail(f"recovered unacked set diverged:\n {recovered}\n!= {unacked_oracle}")

    survivor = CrashySubscriber(failures=0, manager=manager2)
    manager2.register("stalled", sink=survivor)
    manager2.pump()
    got = sorted(n.event["n"] for n in survivor.received)
    if got != [200 + i for i in range(7)]:
        fail(f"post-recovery redelivery diverged: {got}")
    if manager2.inflight != 0:
        fail("recovered deliveries were not acked clean")

    # ------------------------------------------------------------------
    # Phase 4: the CLI ledger agrees with the recovered manager.
    # ------------------------------------------------------------------
    summary = run_cli(["deliveries", "--wal", wal_path])
    if summary["totals"]["unacked"] != 7:
        fail(f"repro deliveries sees {summary['totals']['unacked']} unacked, not 7")
    if summary["channels"].get("stalled", {}).get("unacked") != 7:
        fail("repro deliveries misattributes the unacked backlog")
    if summary["totals"]["dead_lettered"] != 0:
        fail("redriven dead letters still counted dead in the ledger")

    print(
        "delivery smoke OK: "
        f"{2 * N_EVENTS} burst deliveries (crash-heal + healthy), "
        "5 dead-lettered + redriven, "
        "7 unacked recovered from the WAL and redelivered"
    )
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
