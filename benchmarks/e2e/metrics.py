"""The metric lists, read from ``BENCHMARK.json`` — their one definition.

``BENCHMARK.json`` at the repo root declares every metric's name, unit
and direction, and each end-to-end metric's bound; ``README.md`` says
what each one means.  Later performance claims name one metric and one
workload from there, so the names are final.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json`` of this checkout."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def exact_counts(spec: Dict[str, Any]) -> List[str]:
    """Per-layer metrics that repeat exactly across runs of one seed.

    Every count, plus two ratios of counts.  Left out:
    ``wal.bytes_per_event`` — WAL records carry clock readings whose
    printed length varies.
    """
    names = [
        m["name"]
        for m in spec["per_layer"]
        if m["unit"] in ("count", "B") and m["name"] != "wal.bytes_per_event"
    ]
    return names + ["algorithms.check_hit_ratio", "sharding.shard_skew"]
