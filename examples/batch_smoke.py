"""End-to-end batch-kernel smoke test (the tier-1 ``make batch-smoke``).

Drives the vectorized batch matching path once, at real volume:

1. **Differential volume check** — 10,000 W0 events are matched in
   mixed-size batches (1, 17, 256, 1024) through every Figure-3
   algorithm's ``match_batch`` and compared event-for-event against a
   brute-force oracle: batching may reorder ids within one event's
   result, never change the set.
2. **Server lane** — the same stream goes through a
   :class:`BatchServer` (one kernel invocation per submitted batch) and
   must agree with the oracle too.
3. **Metrics** — the instrumented engine must report exactly the
   batches/events it processed through the batch counters.

Exits non-zero (with a diagnostic) on any divergence.
"""

import dataclasses
import sys

from repro.bench.harness import load_subscriptions, matcher_for
from repro.bench.experiments.common import materialize
from repro.core import OracleMatcher
from repro.system import BatchServer
from repro.workload import w0

N_SUBS = 2_000
N_EVENTS = 10_000
BATCH_SIZES = (1, 17, 256, 1024)
ALGORITHMS = ("counting", "propagation", "propagation-wp", "dynamic")


def dense_spec():
    """W0, densified so the differential sees non-empty match sets.

    Stock W0 conjoins five equality predicates over a 35-value domain:
    at smoke scale essentially no event matches anything, which would
    make the oracle comparison vacuous.  Three predicates over a
    12-value domain yields on the order of one match per event.
    """
    return dataclasses.replace(
        w0(seed=0),
        name="W0-dense",
        predicates_per_subscription=3,
        value_high=12,
        event_value_high=12,
    )


def fail(message):
    print(f"batch smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def norm(ids):
    return sorted(ids, key=repr)


def batched(matcher, events, sizes):
    """Match *events* through match_batch, cycling over batch sizes."""
    out = []
    i = 0
    start = 0
    while start < len(events):
        size = sizes[i % len(sizes)]
        out.extend(matcher.match_batch(events[start : start + size]))
        start += size
        i += 1
    return out


def main():
    spec = dense_spec()
    subs, events = materialize(spec, N_SUBS, N_EVENTS)
    oracle = OracleMatcher()
    for sub in subs:
        oracle.add(sub)
    expected = [norm(oracle.match(e)) for e in events]
    total_matches = sum(len(ids) for ids in expected)
    print(
        f"batch smoke: {N_EVENTS} events x {N_SUBS} subscriptions, "
        f"{total_matches} oracle matches"
    )
    if total_matches == 0:
        fail("workload produced zero oracle matches; differential is vacuous")

    for algorithm in ALGORITHMS:
        matcher = matcher_for(algorithm, spec)
        registry = matcher.use_metrics()
        load_subscriptions(matcher, subs)
        results = batched(matcher, events, BATCH_SIZES)
        if len(results) != N_EVENTS:
            fail(f"{algorithm}: {len(results)} results for {N_EVENTS} events")
        for row, (got, want) in enumerate(zip(results, expected)):
            if norm(got) != want:
                fail(
                    f"{algorithm}: event {row} matched {norm(got)!r}, "
                    f"oracle says {want!r}"
                )
        # A one-event batch is the scalar algorithm by design, counted
        # as a fallback with reason="single" (one batch == one event);
        # everything else must have gone through the kernel.
        kernel = singles = 0
        for metric in registry.snapshot()["metrics"]:
            for sample in metric["samples"]:
                if metric["name"] == "repro_batch_events_total":
                    kernel += sample["value"]
                elif metric["name"] == "repro_batch_fallback_total":
                    if sample["labels"]["reason"] == "single":
                        singles += sample["value"]
                    elif sample["value"]:
                        fail(f"{algorithm}: unexpected fallback {sample!r}")
        if not singles or kernel + singles != N_EVENTS:
            fail(
                f"{algorithm}: repro_batch_events_total={kernel} + "
                f'repro_batch_fallback_total{{reason="single"}}={singles}, '
                f"expected {N_EVENTS} together"
            )
        print(
            f"  {algorithm}: OK ({kernel} events through the kernel, "
            f"{singles} one-event batches through the scalar path)"
        )

    with BatchServer(matcher=matcher_for("propagation", spec)) as server:
        server.submit_subscriptions(subs)
        got = []
        for start in range(0, N_EVENTS, 1024):
            got.extend(server.submit_events(events[start : start + 1024]).results)
        for row, (ids, want) in enumerate(zip(got, expected)):
            if norm(ids) != want:
                fail(f"server: event {row} matched {norm(ids)!r}, oracle {want!r}")
    print("  server lane: OK")
    print("batch smoke passed")


if __name__ == "__main__":
    main()
