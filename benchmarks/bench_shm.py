"""Shared-memory data plane vs. its pipe fallback lane.

Beyond-paper extension: the process-per-shard executor's pipe lane
re-encodes and re-pickles a batch once *per shard* — with a
non-pruning router every worker receives the whole batch, so a
4-shard fan-out ships the same columnar matrices four times.  Every
process pool instead packs each batch **once** into a shared-memory
slot ring (:mod:`repro.system.shm`); workers map the segment
read-only, and the pipe carries only slot descriptors out and sparse
hit indices back.  The pipe lane is what a batch the arena cannot take
falls back to; here it is driven for every batch by making the pool's
publish decline (``publish_events`` returns None), no constructor
option involved.

The workload here is deliberately **transport-bound**: a small resident
population (phase 2 is near-free) under wide, all-numeric events, so
the measured gap is the data plane's — pack-once vs. pickle-per-shard —
rather than the matching kernel's.  The compute-bound regime, where the
worker kernels dominate and the transports converge, is covered by the
process sweep in ``benchmarks/bench_sharding.py``; the data-plane
section of ``docs/scaling.md`` summarizes both.

Run ``pytest benchmarks/bench_shm.py`` for the headline assertion
(shm ≥ 2× pipe-lane batched throughput at 4 shards); the run writes
``BENCH_SHM.json`` with per-lane throughput and bytes-per-event,
validated against both the generic metrics-snapshot schema and the
bench-specific ``schemas/bench_shm.schema.json``.
"""

import gc
import random
import time

import pytest

from benchmarks.conftest import scaled
from repro.bench.harness import bench_snapshot_path
from repro.core import Event, Subscription, ge, le
from repro.obs.check import validate_file
from repro.obs.export import write_json_snapshot
from repro.system.sharding import ShardedMatcher

SHARDS = 4
BATCH_SIZE = 2048
N_ATTRS = 24
PAIRS_PER_EVENT = 8
#: Resident population: fixed (not REPRO_SCALE-scaled) because this
#: bench isolates the data plane; growing it would shift the cost into
#: the phase-2 kernels that bench_sharding's process sweep measures.
N_SUBS = 50
REPS = 3


def _workload(n_events: int):
    """Wide numeric events over a tiny range-only population."""
    rng = random.Random(0)
    subs = [
        Subscription(
            f"s{i}",
            [
                ge("a%d" % (i % N_ATTRS), rng.randint(0, 50)),
                le("a%d" % ((i + 1) % N_ATTRS), rng.uniform(40, 90)),
            ],
        )
        for i in range(N_SUBS)
    ]
    events = [
        Event(
            {
                ("a%d" % ((i + j) % N_ATTRS)): rng.uniform(0, 60)
                for j in range(PAIRS_PER_EVENT)
            }
        )
        for i in range(n_events)
    ]
    return subs, events


def _transport_bytes(pool_stats) -> int:
    """Total transport bytes (pipe both directions + arena publishes)."""
    pipe = pool_stats["counters"]["pipe_bytes"]
    total = int(pipe["send"]) + int(pipe["recv"])
    return total + int(pool_stats["shm"]["bytes"]["publish"])


def _lane(lane: str, subs, batches, registry_sink):
    """Best-of-REPS batched throughput plus measured bytes-per-event.

    *lane* is ``"shm"`` (the arena) or ``"pipe"`` (every publish
    declined, so every batch takes the fallback lane)."""
    matcher = ShardedMatcher(
        shards=SHARDS,
        router="hash",
        inner="counting",
        executor="process",
        worker_timeout=60.0,
    )
    try:
        registry = matcher.use_metrics()
        if lane == "shm":
            registry_sink.append(registry)
        else:
            matcher._procpool.publish_events = lambda events, readers: None
        for sub in subs:
            matcher.add(sub)
        matcher.rebuild()
        for _ in range(2):  # warm workers, encoder caches, the slot ring
            matcher.match_batch(batches[0])
        pool = matcher._procpool
        bytes_before = _transport_bytes(pool.stats())
        n_events = sum(len(b) for b in batches)
        best = None
        results = None
        gc.collect()
        gc.disable()
        try:
            for _ in range(REPS):
                start = time.perf_counter()
                results = [matcher.match_batch(b) for b in batches]
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
        finally:
            gc.enable()
        measured = _transport_bytes(pool.stats()) - bytes_before
        fallbacks = {}
        if lane == "shm":
            fallbacks = pool.stats()["shm"]["fallbacks"]
        return {
            "events_per_second": n_events / best,
            "bytes_total": measured,
            "bytes_per_event": measured / (REPS * n_events),
            "fallbacks": fallbacks,
        }, [sorted(map(str, ids)) for batch in results for ids in batch]
    finally:
        matcher.close()


def test_shm_speedup_over_the_pipe_lane_at_4_shards():
    """The data-plane headline: shm ≥ 2× pipe-lane batched throughput.

    Timed directly (no benchmark fixture) so the claim is checked under
    plain pytest.  Both lanes run the identical broadcast fan-out —
    4 process shards, hash router, counting inner, batch-2048
    submission — and their per-event results are asserted equal before
    any throughput is compared.  Bytes-per-event comes from the pool's
    own transport counters (pipe send/recv plus the arena's publish
    total, zero on the pipe lane), deltas over the measured window only.
    """
    if scaled(400_000) < 8_000:
        pytest.skip(
            "the transport ratio needs multi-second measured windows; at "
            "smoke scale (REPRO_SCALE < 0.02) process spawn and warmup "
            "would dwarf the lanes"
        )
    n_events = max(8_192, scaled(16_384))
    subs, events = _workload(n_events)
    batches = [
        events[i : i + BATCH_SIZE] for i in range(0, len(events), BATCH_SIZE)
    ]
    registry_sink = []
    pipe_lane, pipe_results = _lane("pipe", subs, batches, registry_sink)
    shm_lane, shm_results = _lane("shm", subs, batches, registry_sink)
    assert pipe_results == shm_results, "shm lane diverged from pipe lane"
    assert all(n == 0 for n in shm_lane["fallbacks"].values()), (
        f"shm lane fell off the arena path: {shm_lane['fallbacks']}"
    )
    speedup = shm_lane["events_per_second"] / pipe_lane["events_per_second"]
    snapshot = bench_snapshot_path("shm")
    write_json_snapshot(
        registry_sink[0],
        snapshot,
        context={
            "workload": "transport-bound wide-numeric",
            "shards": SHARDS,
            "router": "hash",
            "inner": "counting",
            "n_subscriptions": N_SUBS,
            "n_events": len(events),
            "batch_size": BATCH_SIZE,
            "reps": REPS,
            "results": {"pipe": pipe_lane, "shm": shm_lane, "speedup": speedup},
        },
    )
    for schema in (
        "schemas/metrics_snapshot.schema.json",
        "schemas/bench_shm.schema.json",
    ):
        errors = validate_file(snapshot, schema)
        assert not errors, f"BENCH_SHM.json violates {schema}: {errors}"
    assert speedup >= 2.0, (
        f"shm batched throughput {shm_lane['events_per_second']:.0f} ev/s "
        f"is under 2x the pipe lane "
        f"{pipe_lane['events_per_second']:.0f} ev/s (ratio {speedup:.2f})"
    )
