"""Figure 3(a): matching throughput per algorithm vs subscription count.

Paper (W0, 6 M subscriptions): counting 1.1 ev/s ≪ propagation 124 ≪
propagation-wp 196 (×1.5 prefetch) ≪ dynamic 602, dynamic flat in |S|.

Each benchmark matches one 20-event batch; compare groups ``fig3a-small``
vs ``fig3a-large`` to see the scaling shape (the dynamic rows should
barely move while counting/propagation degrade ~linearly).
"""

import pytest

from benchmarks.conftest import loaded_matcher, match_events, scaled
from repro.bench.harness import (
    FIGURE3_ALGORITHMS,
    bench_snapshot_path,
    measure_batch_matching,
    measure_matching,
)
from repro.obs import write_json_snapshot
from repro.workload.scenarios import w0

N_EVENTS = 20

SIZES = {
    "small": scaled(1_500_000),
    "large": scaled(6_000_000),
}

#: Batch sizes swept by the batch-kernel lane (1 = per-event baseline).
BATCH_SIZES = (1, 16, 64, 256)


@pytest.mark.parametrize("algorithm", FIGURE3_ALGORITHMS)
@pytest.mark.parametrize("size", list(SIZES))
def test_fig3a_matching(benchmark, algorithm, size):
    n = SIZES[size]
    matcher, events = loaded_matcher(algorithm, w0(seed=0), n, N_EVENTS)
    total = benchmark(match_events, matcher, events)
    benchmark.group = f"fig3a-{size}-n{n}"
    benchmark.extra_info["n_subscriptions"] = n
    benchmark.extra_info["matches_per_batch"] = total
    benchmark.extra_info["checks_per_event"] = (
        matcher.counters["subscription_checks"] / matcher.counters["events"]
    )


@pytest.mark.parametrize("algorithm", FIGURE3_ALGORITHMS)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_fig3a_batch_sweep(benchmark, algorithm, batch_size):
    """Batch-kernel lane: the same W0 workload fed in batches."""
    n = SIZES["small"]
    matcher, events = loaded_matcher(algorithm, w0(seed=0), n, N_EVENTS)
    total = benchmark(
        lambda: sum(
            len(ids)
            for s in range(0, len(events), batch_size)
            for ids in matcher.match_batch(events[s : s + batch_size])
        )
    )
    benchmark.group = f"fig3a-batch-{algorithm}-n{n}"
    benchmark.extra_info["n_subscriptions"] = n
    benchmark.extra_info["batch_size"] = batch_size
    benchmark.extra_info["matches_per_batch"] = total


def test_batch_kernel_speedup():
    """The batch-kernel headline: ≥5× throughput at batch 256 on W0.

    Timed directly (no benchmark fixture) so it runs — and the claim is
    checked — under plain pytest, like the sharding speedup test.  Uses
    ``propagation``, the engine whose per-event phase-1/phase-2 overhead
    the vectorized kernel amortizes hardest; the other Figure-3
    algorithms are measured into the same snapshot for the record.
    Writes ``BENCH_BATCH_KERNEL.json`` (standard metrics-snapshot
    schema) next to the working directory.
    """
    spec = w0(seed=0)
    n = max(5_000, scaled(1_500_000))
    n_events = 1024
    lanes = {}
    registry = None
    for algorithm in FIGURE3_ALGORITHMS:
        matcher, events = loaded_matcher(algorithm, spec, n, n_events)
        if algorithm == "propagation":
            registry = matcher.use_metrics()
        # Warm both paths (dynamic adapts; the kernel compiles lazily).
        matcher.match_batch(events[:256])
        match_events(matcher, events[:64])
        scalar = max(
            measure_matching(matcher, events).events_per_second for _ in range(3)
        )
        batched = max(
            measure_batch_matching(matcher, events, 256).events_per_second
            for _ in range(3)
        )
        lanes[algorithm] = {
            "scalar_events_per_second": scalar,
            "batch256_events_per_second": batched,
            "speedup": batched / scalar,
        }
    write_json_snapshot(
        registry,
        bench_snapshot_path("batch-kernel"),
        context={
            "workload": "W0",
            "n_subscriptions": n,
            "n_events": n_events,
            "batch_size": 256,
            "results": lanes,
        },
    )
    headline = lanes["propagation"]["speedup"]
    assert headline >= 5.0, (
        f"propagation batch-256 kernel is only {headline:.1f}x the "
        f"single-event loop on W0 (needs >= 5x): {lanes['propagation']}"
    )
