"""Benchmark harness: timing, memory sizing, reporting, figure drivers."""

from repro.bench.harness import (
    DEFAULT_SCALE,
    FIGURE3_ALGORITHMS,
    LoadResult,
    MatchResult,
    PhaseSplit,
    configured_scale,
    load_subscriptions,
    matcher_for,
    measure_batch_matching,
    measure_matching,
    measure_phases,
    uniform_statistics_for,
)
from repro.bench.memory import bytes_per_subscription, deep_sizeof, matcher_memory_bytes
from repro.bench.reporting import format_table, format_value, print_table

__all__ = [
    "DEFAULT_SCALE",
    "FIGURE3_ALGORITHMS",
    "LoadResult",
    "MatchResult",
    "PhaseSplit",
    "bytes_per_subscription",
    "configured_scale",
    "deep_sizeof",
    "format_table",
    "format_value",
    "load_subscriptions",
    "matcher_for",
    "matcher_memory_bytes",
    "measure_batch_matching",
    "measure_matching",
    "measure_phases",
    "print_table",
    "uniform_statistics_for",
]
