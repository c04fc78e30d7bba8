"""End-to-end process-executor smoke test (the tier-1 ``make procpool-smoke``).

Drives the process-per-shard backend and its shared-memory data plane
once, at real volume:

1. **Differential volume check** — 10,000 W0 events ride the
   shared-memory slot ring of a 4-shard process :class:`ShardedMatcher`
   through both entry points (batched ``match_batch``, scalar ``match``)
   and must agree event-for-event with a brute-force oracle: the
   transport may reorder ids within one event's result, never change
   the set.  The pool's own counters must show the arena carried the
   traffic — nonzero publish bytes, zero fallbacks to the pipe — and
   that the sparse replies cost the pipe less per event than a dense
   bit matrix would.
2. **Metrics** — the pool must report 4 live workers, the
   2,000-subscription load must have crossed the pipes as chunked
   ``apply`` messages (at most ⌈2,000/64⌉ + 4 of them over 4 shards),
   not one round trip per subscription, and ``repro_shm_bytes_total``
   (publish) must export the value the pool reported.
3. **Worker-death lifecycle** — a breaker-guarded 2-shard process
   matcher takes one induced SIGKILL mid-request: the in-flight answer
   degrades (healthy shard still correct), the breaker quarantines the
   shard, and after cool-down the half-open probe respawns the worker
   (which inherits the arena at fork), replays its subscriptions, and
   the results re-converge exactly — with exactly one respawn counted.
4. **Nothing named, nothing tracked** — the arena is an anonymous
   mapping: ``/dev/shm`` gains no entry while the 4-worker pool is
   live nor after both stages close their matchers, and no
   multiprocessing resource-tracker process is ever started.

Exits non-zero (with a diagnostic) on any divergence.
"""

import dataclasses
import os
import sys
import tempfile
import time

from repro.bench.experiments.common import materialize
from repro.bench.harness import load_subscriptions
from repro.core import OracleMatcher
from repro.matchers import make_matcher
from repro.system import ShardedMatcher
from repro.testing.faults import killable_worker
from repro.workload import w0

N_SUBS = 2_000
N_EVENTS = 10_000
SHARDS = 4


def dense_spec():
    """W0, densified so the differential sees non-empty match sets."""
    return dataclasses.replace(
        w0(seed=0),
        name="W0-dense",
        predicates_per_subscription=3,
        value_high=12,
        event_value_high=12,
    )


def fail(message):
    print(f"procpool smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def norm(ids):
    return sorted(ids, key=repr)


def shm_entries():
    """Every name under ``/dev/shm``."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # non-tmpfs platform: hygiene check is moot
        return set()


def check_nothing_named_or_tracked(before, when):
    """No new ``/dev/shm`` entry and no resource-tracker process."""
    added = shm_entries() - before
    if added:
        fail(f"new /dev/shm entries {when}: {sorted(added)}")
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None and tracker._resource_tracker._pid is not None:
        fail(f"a multiprocessing resource tracker was started {when}")


def metric_value(registry, name, **labels):
    """Sum of a metric's samples matching the given label subset."""
    total = None
    for metric in registry.snapshot()["metrics"]:
        if metric["name"] != name:
            continue
        for sample in metric["samples"]:
            if all(sample["labels"].get(k) == v for k, v in labels.items()):
                total = (total or 0) + sample["value"]
    return total


def volume_stage(before):
    """10k events through the slot ring, both entry points, vs oracle."""
    spec = dense_spec()
    subs, events = materialize(spec, N_SUBS, N_EVENTS)
    oracle = OracleMatcher()
    for sub in subs:
        oracle.add(sub)
    expected = [norm(oracle.match(e)) for e in events]
    total_matches = sum(len(ids) for ids in expected)
    print(
        f"procpool smoke: {N_EVENTS} events x {N_SUBS} subscriptions "
        f"over {SHARDS} worker processes, {total_matches} oracle matches"
    )
    if total_matches == 0:
        fail("workload produced zero oracle matches; differential is vacuous")

    with ShardedMatcher(
        shards=SHARDS,
        router="hash",
        inner=lambda: make_matcher("counting"),
        executor="process",
        worker_timeout=60.0,
    ) as matcher:
        registry = matcher.use_metrics()
        load_subscriptions(matcher, subs)  # ends in rebuild(): a barrier
        workers_up = matcher.executor_health()
        if workers_up["alive"] != SHARDS:
            fail(f"expected {SHARDS} live workers, health says {workers_up}")
        mutate = registry.family("repro_procpool_ipc_seconds").labels(op="mutate")
        sent = matcher.stats()["procpool"]["counters"]["mutations"]
        budget = -(-N_SUBS // 64) + SHARDS
        if sent != N_SUBS or not 0 < mutate.count <= budget:
            fail(
                f"{sent} mutations crossed the pipes in {mutate.count} apply "
                f"messages; expected {N_SUBS} in at most {budget}"
            )
        print(f"  write-behind load: {sent} adds in {mutate.count} apply messages")

        pool = matcher._procpool
        recv_before = pool.stats()["counters"]["pipe_bytes"]["recv"]
        got = []
        for start in range(0, N_EVENTS, 1024):
            got.extend(matcher.match_batch(events[start : start + 1024]))
        for row, (ids, want) in enumerate(zip(got, expected)):
            if norm(ids) != want:
                fail(f"batch: event {row} matched {norm(ids)!r}, oracle {want!r}")
        replies = (pool.stats()["counters"]["pipe_bytes"]["recv"] - recv_before) / N_EVENTS
        print("  batched slot-ring lane: OK")

        for row in range(0, 200, 4):
            ids = matcher.match(events[row])
            if norm(ids) != expected[row]:
                fail(
                    f"scalar: event {row} matched {norm(ids)!r}, "
                    f"oracle {expected[row]!r}"
                )
        print("  scalar match lane: OK")

        shm = pool.stats()["shm"]
        if shm["bytes"]["publish"] <= 0:
            fail(f"arena moved no bytes: {shm['bytes']}")
        hot = {k: v for k, v in shm["fallbacks"].items() if v}
        if hot:
            fail(f"batches fell back from the arena to the pipe: {hot}")
        dense = sum(
            -(-n // 64) * 8 for n in matcher.stats()["per_shard_subscriptions"]
        )
        if not 0 < replies < dense:
            fail(
                f"replies cost {replies:.1f} B/event on the pipe; a dense bit "
                f"matrix over these shards is {dense} B/event"
            )
        print(
            f"  arena carried the traffic: {shm['bytes']['publish']} B "
            f"published, 0 fallbacks; sparse replies {replies:.1f} B/event "
            f"on the pipe (dense: {dense})"
        )
        check_nothing_named_or_tracked(before, "while the pool is live")

        workers_metric = metric_value(registry, "repro_procpool_workers")
        if workers_metric != SHARDS:
            fail(f"repro_procpool_workers={workers_metric}, expected {SHARDS}")
        published = metric_value(
            registry, "repro_shm_bytes_total", direction="publish"
        )
        if published != shm["bytes"]["publish"]:
            fail(
                f"repro_shm_bytes_total{{direction=publish}}={published} "
                f"disagrees with pool counter {shm['bytes']['publish']}"
            )
        print("  metrics: worker gauge and shm byte counter exported and consistent")


def chaos_stage():
    """One induced worker SIGKILL: degrade, quarantine, respawn, converge."""
    from repro.core import Event, Subscription, eq

    subs = [Subscription(f"s{i}", [eq("x", i % 5)]) for i in range(40)]
    events = [Event({"x": i % 5}) for i in range(10)]
    oracle = OracleMatcher()
    for sub in subs:
        oracle.add(sub)
    expected = [norm(oracle.match(e)) for e in events]

    with tempfile.TemporaryDirectory() as scratch:
        factory = killable_worker(
            lambda: make_matcher("counting"),
            die_at=1,
            latch_path=f"{scratch}/kill-latch",
        )
        with ShardedMatcher(
            shards=2,
            router="hash",
            inner=factory,
            executor="process",
            breaker={"failure_threshold": 1, "reset_timeout": 0.05},
            worker_timeout=30.0,
        ) as matcher:
            for sub in subs:
                matcher.add(sub)
            hurt = matcher.match(events[0])
            if not hurt.degraded:
                fail("induced worker death did not degrade the in-flight match")
            if not set(norm(hurt)) <= set(expected[0]):
                fail("degraded result contains ids the oracle never matched")
            dead = hurt.failed_shards[0]
            if matcher.breaker_states()[dead] != "open":
                fail(f"shard {dead} breaker did not open after the death")
            print(f"  worker death: shard {dead} degraded and quarantined")

            time.sleep(0.1)  # cool-down, then the half-open probe heals
            healed = [matcher.match(e) for e in events]
            if any(r.degraded for r in healed):
                fail("results still degraded after the half-open respawn")
            if [norm(r) for r in healed] != expected:
                fail("post-heal results diverge from the oracle")
            batched = matcher.match_batch(events)
            if [norm(ids) for ids in batched] != expected:
                fail("post-heal batched (slot ring) results diverge from oracle")
            respawns = matcher._procpool.stats()["counters"]["respawns"]
            if respawns != 1:
                fail(f"expected exactly 1 respawn, pool counted {respawns}")
            print("  respawn + replay + arena inherited: OK (1 respawn, oracle equality restored)")


def main():
    before = shm_entries()
    volume_stage(before)
    chaos_stage()
    check_nothing_named_or_tracked(before, "after close")
    print("  /dev/shm hygiene: nothing named, no resource tracker, live or closed")
    print("procpool smoke passed")


if __name__ == "__main__":
    main()
