"""End-to-end durability smoke test (the tier-1 ``make durability-smoke``).

Drives the full durable-broker story once, at small scale:

1. a broker journals a churning workload (subscribes with mixed ttls,
   unsubscribes, clock advances) to a write-ahead log with
   ``fsync="always"``;
2. mid-stream, the log compacts itself: recovery's fold of the log is
   written to a temp file, fsynced and renamed over it (a snapshot is
   a compacted log);
3. the crash: a half-written record is torn onto the WAL tail;
4. a fresh broker recovers from that one file — via the library *and*
   via the ``repro recover`` CLI;
5. the recovered subscription set and its match results over a probe
   event stream are differentially checked against the pre-crash
   oracle.

Exits non-zero (with a diagnostic) on any divergence.
"""

import io
import json
import os
import shutil
import sys

from repro.cli import main as cli_main
from repro.system import (
    PubSubBroker,
    QueueNotifier,
    VirtualClock,
    WriteAheadLog,
    recover_files,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import paper_workloads


def fail(message):
    print(f"durability smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def main(workdir=".durability-smoke"):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wal_path = os.path.join(workdir, "broker.wal")

    spec = paper_workloads(0.001)["W0"].with_seed(42)
    gen = WorkloadGenerator(spec)
    subs = list(gen.subscriptions(300))
    probes = list(gen.events(50))

    clock = VirtualClock()
    wal = WriteAheadLog(wal_path, clock=clock, fsync="always")
    broker = PubSubBroker(clock=clock, notifier=QueueNotifier(), wal=wal)

    # Phase 1: initial load with some churn, then compact it away.
    for i, sub in enumerate(subs[:150]):
        broker.subscribe(sub, ttl=40.0 if i % 5 == 0 else None, notify_retained=False)
    for sub in subs[140:150]:
        broker.unsubscribe(sub.id)
    grown = wal.tell()
    compacted = wal.compact()
    if compacted != 140 or wal.tell() >= grown:
        fail(f"compaction kept {compacted} subscriptions in {wal.tell()} bytes (was {grown})")

    # Phase 2: post-compaction churn, appended to the compacted log.
    immortal = []
    for i, sub in enumerate(subs[150:]):
        broker.subscribe(sub, ttl=25.0 if i % 6 == 0 else None, notify_retained=False)
        if i % 6 != 0:
            immortal.append(sub.id)
        if i % 10 == 9:
            clock.advance(5.0)  # lets some of the ttl'd cohort expire
    for sub_id in immortal[::7]:
        broker.unsubscribe(sub_id)

    # The pre-crash oracle, pinned at an exact crash time by one final
    # anchor so recovery's ttl aging lands on the same instant.
    broker.purge_expired()
    wal.append_anchor(clock.now())
    expected_ids = sorted(str(s.id) for s in broker.matcher.iter_subscriptions())
    expected_matches = [
        sorted(str(i) for i in broker.matcher.match(e)) for e in probes
    ]
    wal.close()

    # The crash: a record was half-written when the process died.
    with open(wal_path, "a", encoding="utf-8") as fp:
        fp.write('{"type": "subscribe", "at": 1e9, "subscription"')

    restored = PubSubBroker(clock=VirtualClock(), notifier=QueueNotifier())
    report = recover_files(restored, wal_path=wal_path)
    print(json.dumps(report.as_dict(), sort_keys=True))
    if report.torn_tail_discarded < 1:
        fail("the torn tail went undetected")

    got_ids = sorted(str(s.id) for s in restored.matcher.iter_subscriptions())
    if got_ids != expected_ids:
        lost = set(expected_ids) - set(got_ids)
        extra = set(got_ids) - set(expected_ids)
        fail(f"recovered set diverged: lost={sorted(lost)} extra={sorted(extra)}")
    for event, want in zip(probes, expected_matches):
        got = sorted(str(i) for i in restored.matcher.match(event))
        if got != want:
            fail(f"match divergence on {event}: got {got}, want {want}")

    # Same recovery through the CLI surface.
    cli_out = io.StringIO()
    status = cli_main(
        ["recover", "--wal", wal_path, "--out", os.path.join(workdir, "recovered.jsonl")],
        out=cli_out,
    )
    if status != 0:
        fail(f"repro recover exited {status}")
    cli_report = json.loads(cli_out.getvalue().splitlines()[0])
    if cli_report["restored"] != len(expected_ids):
        fail(
            f"CLI restored {cli_report['restored']} subscriptions, "
            f"expected {len(expected_ids)}"
        )

    print(
        f"durability smoke OK: {len(expected_ids)} subscriptions recovered "
        f"({compacted} through the compaction, "
        f"{report.wal_records} WAL records replayed), "
        f"{len(probes)} probe events matched identically"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
