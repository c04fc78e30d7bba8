"""Subscription aggregation on a Zipf duplicate-heavy workload.

Beyond-paper extension (ROADMAP item 3): the paper's engines scale
with the matcher-visible |S|, so at production subscriber counts the
cheapest large win is to never show the matcher a redundant
subscription.  This lane measures exactly that claim on a workload
built to look like a real subscriber population rather than the
paper's uniform draws: values sampled rank-frequency (``zipf:1.3``)
over a narrowed attribute pool, so many subscribers request the same
popular predicate sets (exact duplicates) and many more request
strictly narrower variants of popular broad ones (covering).

Measured and asserted (plain pytest, no benchmark fixture needed):

* matcher-visible frontier |S| is **≥5× smaller** than the real
  subscriber count (the aggregation headline);
* the aggregated engine's expanded results are **differentially equal**
  to the brute-force oracle over the raw subscriptions — before and
  after churn that unsubscribes frontier members;
* end-to-end match throughput of ``aggregating(counting)`` vs. raw
  ``counting`` — the engine class whose per-event cost is linear in
  |S|, i.e. what the frontier reduction is worth in wall-clock.

All three are asserted by ``test_aggregation_ratio_differential_and_throughput``
(the throughput one as ``aggregating(counting)`` ≥ 2× raw ``counting``).

Run: ``pytest benchmarks/bench_aggregation.py`` (add
``REPRO_SCALE=...`` to shrink; the subscriber floor stays at 50k so
the headline ratio is tested at its stated population).
"""

import dataclasses
import time

from benchmarks.conftest import scaled
from repro.aggregation import AggregatingMatcher
from repro.bench.experiments.common import materialize
from repro.bench.harness import matcher_for
from repro.core.oracle import OracleMatcher
from repro.workload.scenarios import w0
from repro.workload.spec import attribute_name

N_EVENTS = 40
MIN_RATIO = 5.0


def zipf_dup_spec(seed: int = 0):
    """W0 reshaped into a duplicate-heavy subscriber population.

    Three predicates per subscription (two fixed equalities plus one
    free ``=``/``<=``), an 8-attribute pool and a 1..20 domain sampled
    ``zipf:1.3`` — popular predicate sets recur massively (exact
    duplicates) and ``<=`` bounds at popular values form covering
    chains.
    """
    return dataclasses.replace(
        w0(seed=seed),
        name="W0-zipf-dup",
        value_distribution="zipf:1.3",
        predicates_per_subscription=3,
        subscription_attribute_pool=tuple(attribute_name(i) for i in range(8)),
        value_low=1,
        value_high=20,
        free_operator_weights={"=": 0.5, "<=": 0.5},
        event_value_high=20,
    )


def norm(ids):
    return sorted(ids, key=str)


def _throughput(matcher, events, reps=3):
    best = None
    for _ in range(reps):
        start = time.perf_counter()
        for e in events:
            matcher.match(e)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return len(events) / best


def test_aggregation_ratio_differential_and_throughput():
    spec = zipf_dup_spec()
    # The headline is a *population* claim; keep the stated floor even
    # at smoke scale.
    n = max(50_000, scaled(2_500_000))
    subs, events = materialize(spec, n, N_EVENTS)

    agg = AggregatingMatcher(inner="counting")
    # The throughput lane below times the engine with metrics attached.
    agg.use_metrics()
    for s in subs:
        agg.add(s)

    # --- the aggregation headline -----------------------------------
    raw_count = len(agg)
    frontier = agg.frontier_size
    ratio = raw_count / frontier
    assert ratio >= MIN_RATIO, (
        f"frontier |S|={frontier} is only {ratio:.1f}x smaller than the "
        f"{raw_count} raw subscriber ids (need >= {MIN_RATIO}x)"
    )

    # --- differential equality with the oracle over raw subs --------
    oracle = OracleMatcher()
    for s in subs:
        oracle.add(s)
    for e in events:
        assert norm(agg.match(e)) == norm(oracle.match(e))

    # --- churn: unsubscribe every 7th id (frontier members among
    # them, forcing covered-group promotion), then re-check ----------
    for s in subs[::7]:
        agg.remove(s.id)
        oracle.remove(s.id)
    for e in events[: N_EVENTS // 2]:
        assert norm(agg.match(e)) == norm(oracle.match(e))

    # --- end-to-end throughput vs. the raw linear-cost engine -------
    # Both sides hold the identical post-churn population.
    raw = matcher_for("counting", spec)
    for s in agg.iter_subscriptions():
        raw.add(s)
    agg_eps = _throughput(agg, events)
    raw_eps = _throughput(raw, events)
    speedup = agg_eps / raw_eps

    # The frontier is an order of magnitude smaller; even after paying
    # for fan-out expansion the linear-cost engine must come out well
    # ahead.  (Conservative floor: the measured ratio is ~14x.)
    assert speedup >= 2.0, (
        f"aggregated counting throughput {agg_eps:.0f} ev/s is under 2x "
        f"the raw baseline {raw_eps:.0f} ev/s despite a {ratio:.1f}x "
        f"frontier reduction"
    )
