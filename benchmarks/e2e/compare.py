"""Compare two sets of benchmark runs against the declared bounds.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A.json            # spreads only

A and B are files written by ``suite.py``.  For every workload and
every metric in the files this prints both medians with their quartiles
(``statistics.quantiles(values, n=4)``), each side's quartile spread as
a share of its median, how much worse B's median is than A's, and in
how many of the pairs (run *i* of A and of B: same seed, adjacent in
time) B was the better one.

An end-to-end metric is judged against the bound ``BENCHMARK.json``
declares for it:

* ``unresolved`` - a side's quartile spread exceeds the bound, so the
  runs cannot tell a change of that size from noise (this is *not*
  ``unchanged``);
* ``worse`` / ``better`` - B's median differs from A's by more than the
  bound, in that direction;
* ``unchanged`` - anything else.

A per-layer metric has no bound and reads ``reported``.  A gain on one
may be claimed only by the pair rule (README.md): B better in at least
nine tenths of the pairs, and the medians apart by more than A's own
quartile spread.

Exit status is 1 when any row is ``worse`` or ``unresolved``: the A/A
acceptance check and a no-regression check are the same call.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Tuple

import metrics


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values over the file's runs, in run order."""
    with open(path, encoding="utf-8") as fp:
        runs = json.load(fp)["runs"]
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(a: List[float], b: List[float], better: str) -> float:
    """B's median worse than A's by this share of A's."""
    a_median, b_median = statistics.median(a), statistics.median(b)
    worse = (b_median - a_median) / a_median if a_median else 0.0
    return -worse if better == "higher" else worse


def verdict(a: List[float], b: Optional[List[float]], better: str, bound: float) -> str:
    """One of ``steady``/``unchanged``/``worse``/``better``/``unresolved``."""
    spread = max(summary(side)[3] for side in (a, b) if side is not None)
    if spread > bound:
        return "unresolved"
    if b is None:
        return "steady"
    worse = worse_by(a, b, better)
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "unchanged"


def wins(a: List[float], b: List[float], better: str) -> int:
    """Pairs in which B is the better side (ties count for neither)."""
    return sum((y > x) if better == "higher" else (y < x) for x, y in zip(a, b))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b", nargs="?")
    args = parser.parse_args()
    spec = metrics.load()
    a, b = load(args.a), load(args.b) if args.b else None
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        print(workload)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            key = (workload, metric["name"])
            if key not in a or (b is not None and key not in b):
                continue
            word = "reported"
            if "bound" in metric:
                word = verdict(a[key], b[key] if b else None, metric["better"], metric["bound"])
                word = f"bound {metric['bound']:.0%} {word}"
            cells = []
            for side in (a, b):
                if side is not None:
                    median, q1, q3, spread = summary(side[key])
                    cells.append(f"{median:12.4f} [{q1:12.4f} {q3:12.4f}] {spread:6.1%}")
            diff = ""
            if b is not None:
                pairs = min(len(a[key]), len(b[key]))
                diff = (
                    f"{worse_by(a[key], b[key], metric['better']):+7.1%} "
                    f"B better in {wins(a[key], b[key], metric['better'])}/{pairs}"
                )
            print(
                f"  {metric['name']:<40} {metric['unit']:<9} n={len(a[key]):<3} "
                f"{'  '.join(cells)} {diff} {word}"
            )
            bad += word.endswith(("worse", "unresolved"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
