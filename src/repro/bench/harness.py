"""Measurement harness shared by the figure drivers and pytest benches.

Everything here measures *pure matching work* (no IPC — the paper's
timings include local inter-process hops; EXPERIMENTS.md notes the
difference).  The ``REPRO_SCALE`` environment variable globally scales
workload sizes: 1.0 means paper scale (millions of subscriptions —
hours in pure Python), the default 0.004 gives laptop-scale runs with
the same shapes.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Iterable, Sequence

from repro.algorithms.base import TwoPhaseMatcher
from repro.clustering.statistics import UniformStatistics
from repro.core.matcher import Matcher
from repro.core.types import Event, Subscription
from repro.matchers import make_matcher
from repro.obs import MetricsRegistry
from repro.workload.spec import WorkloadSpec

#: Default fraction of paper scale when REPRO_SCALE is unset.
DEFAULT_SCALE = 0.02


def configured_scale(default: float = DEFAULT_SCALE) -> float:
    """Workload scale from the REPRO_SCALE environment variable."""
    raw = os.environ.get("REPRO_SCALE")
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_SCALE must be a float, got {raw!r}") from None
    if value <= 0:
        raise ValueError("REPRO_SCALE must be positive")
    return value


def uniform_statistics_for(spec: WorkloadSpec) -> UniformStatistics:
    """Closed-form statistics matching a uniform workload spec."""
    return UniformStatistics(
        domains=spec.event_domain_sizes(),
        default_domain=spec.event_value_high - spec.event_value_low + 1,
    )


def matcher_for(algorithm: str, spec: WorkloadSpec, **kwargs: Any) -> Matcher:
    """Build one of the paper's algorithms configured for *spec*.

    :func:`~repro.matchers.make_matcher`, plus what a workload spec
    adds: ``static`` gets the spec's closed-form statistics, and an
    ``inner=`` given by name is built for the same spec.
    """
    if algorithm == "static":
        kwargs.setdefault("statistics", uniform_statistics_for(spec))
    inner = kwargs.get("inner")
    if isinstance(inner, str):
        kwargs["inner"] = lambda: matcher_for(inner, spec)
    return make_matcher(algorithm, **kwargs)


#: The four algorithms compared throughout Section 6.
FIGURE3_ALGORITHMS = ("counting", "propagation", "propagation-wp", "dynamic")


@dataclasses.dataclass
class LoadResult:
    """Outcome of loading subscriptions into a matcher."""

    subscriptions: int
    seconds: float

    @property
    def per_second(self) -> float:
        """Subscription insertions per second."""
        return self.subscriptions / self.seconds if self.seconds else float("inf")


@dataclasses.dataclass
class MatchResult:
    """Outcome of matching a batch of events."""

    events: int
    seconds: float
    total_matches: int

    @property
    def events_per_second(self) -> float:
        """Matching throughput."""
        return self.events / self.seconds if self.seconds else float("inf")

    @property
    def ms_per_event(self) -> float:
        """Mean per-event matching latency in milliseconds."""
        return 1000.0 * self.seconds / self.events if self.events else 0.0


def load_subscriptions(matcher: Matcher, subs: Iterable[Subscription]) -> LoadResult:
    """Timed bulk insert: one write batch, then the build step."""
    items = list(subs)
    start = time.perf_counter()
    matcher.add_batch(items)
    matcher.rebuild()
    return LoadResult(len(items), time.perf_counter() - start)


def measure_matching(matcher: Matcher, events: Sequence[Event]) -> MatchResult:
    """Timed matching over a fixed event list."""
    total = 0
    start = time.perf_counter()
    for event in events:
        total += len(matcher.match(event))
    return MatchResult(len(events), time.perf_counter() - start, total)


def measure_batch_matching(
    matcher: Matcher, events: Sequence[Event], batch_size: int
) -> MatchResult:
    """Timed matching through ``match_batch`` in *batch_size* chunks.

    ``batch_size=1`` still goes through the batch entry point (a
    one-event kernel invocation per event), so comparing it against a
    larger batch isolates the amortization win rather than the calling
    convention.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    total = 0
    start = time.perf_counter()
    for s in range(0, len(events), batch_size):
        for ids in matcher.match_batch(events[s : s + batch_size]):
            total += len(ids)
    return MatchResult(len(events), time.perf_counter() - start, total)


@dataclasses.dataclass
class PhaseSplit:
    """Per-phase timing of the two-phase algorithm (§6.2.1's 1.3 ms vs
    0.1/3.53 ms discussion)."""

    events: int
    predicate_seconds: float
    subscription_seconds: float

    @property
    def predicate_ms(self) -> float:
        """Mean phase-1 (predicate evaluation) time per event, ms."""
        return 1000.0 * self.predicate_seconds / self.events if self.events else 0.0

    @property
    def subscription_ms(self) -> float:
        """Mean phase-2 (cluster checking) time per event, ms."""
        return 1000.0 * self.subscription_seconds / self.events if self.events else 0.0


def measure_phases(matcher: TwoPhaseMatcher, events: Sequence[Event]) -> PhaseSplit:
    """Split matching time into predicate phase and subscription phase.

    Runs ``match`` under a private registry and reads back the phase
    timings the engine records (``repro_match_phase_seconds``); the
    matcher's own registry is put back afterwards.
    """
    attached = matcher.metrics
    registry = matcher.use_metrics(MetricsRegistry())
    try:
        for event in events:
            matcher.match(event)
    finally:
        matcher.use_metrics(attached)
    phases = registry.family("repro_match_phase_seconds")
    seconds = {
        phase: phases.labels(
            engine=matcher.name, shard=matcher.metrics_shard, phase=phase
        ).sum
        for phase in ("predicate", "subscription")
    }
    return PhaseSplit(len(events), seconds["predicate"], seconds["subscription"])


def bench_snapshot_path(name: str, directory: str = ".") -> str:
    """The conventional ``BENCH_<NAME>.json`` path for a bench's metrics.

    Bench snapshots share the exact snapshot schema of
    ``repro stats --metrics-out`` (``schemas/metrics_snapshot.schema.json``),
    so one consumer reads both.
    """
    safe = "".join(c if c.isalnum() else "_" for c in name.upper()).strip("_")
    if not safe:
        raise ValueError(f"cannot derive a bench file name from {name!r}")
    return os.path.join(directory, f"BENCH_{safe}.json")
