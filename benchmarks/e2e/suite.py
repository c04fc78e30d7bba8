"""Run the benchmark command many times, dealt round-robin over workloads.

    python3 benchmarks/e2e/suite.py --runs 10 out/A.json out/B.json
    python3 benchmarks/e2e/suite.py --runs 10 --checkout ../parent --checkout . out/A.json out/B.json

Each positional file is one *side*: a set of runs of one checkout
(default: this one).  Round *r* uses seed ``seed0 + r`` and visits every
workload once per side, and the side that goes first alternates from
round to round, so every workload's samples — and both sides' — span
the whole invocation.  On this host identical work measured in
contiguous 30 s windows differed by 25%; dealt out in short turns it
agreed within 4% (README.md).  Two sides of one checkout are the A/A
check; two checkouts are the parent/change comparison.  Feed the files
to ``compare.py``.

The command, its workloads and ``run_seconds`` are read from each
checkout's ``BENCHMARK.json``; nothing else is assumed about it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(checkout: str, spec: Dict[str, Any], workload: str, seed: int, trace: int) -> Dict[str, Any]:
    """One invocation of the checkout's benchmark command."""
    command = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.time()
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"suite: {' '.join(command)} exited {done.returncode} in {checkout}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "started": started,
        "wall_s": time.time() - started,
        "result": json.loads(lines[-1]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="+", help="one JSON file per side")
    parser.add_argument(
        "--checkout",
        action="append",
        default=[],
        help="checkout of the side in the same position (default: this checkout)",
    )
    parser.add_argument("--runs", type=int, default=10, help="rounds (seeds) per side")
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", help="restrict to these workloads")
    args = parser.parse_args()
    if len(args.checkout) > len(args.out):
        parser.error("more --checkout than output files")
    checkouts = [os.path.abspath(c) for c in args.checkout]
    checkouts += [ROOT] * (len(args.out) - len(checkouts))
    sides: List[Dict[str, Any]] = []
    for checkout, out in zip(checkouts, args.out):
        with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fp:
            spec = json.load(fp)
        sides.append({"checkout": checkout, "out": out, "spec": spec, "runs": []})
    begun = time.time()
    for round_index in range(args.runs):
        order = sides if round_index % 2 == 0 else sides[::-1]
        names = [w["name"] for w in sides[0]["spec"]["workloads"]]
        for workload in args.workload or names:
            for side in order:
                run = run_once(
                    side["checkout"], side["spec"], workload, args.seed0 + round_index, args.trace
                )
                side["runs"].append(run)
                print(
                    f"[{time.time() - begun:7.1f}s] round {round_index} {workload:<12} "
                    f"{os.path.basename(side['out'])}: {run['wall_s']:.1f}s "
                    f"correct={run['result']['correct']}",
                    file=sys.stderr,
                )
        for side in sides:  # rewritten every round: an interrupted suite keeps its rounds
            with open(side["out"], "w", encoding="utf-8") as fp:
                json.dump({"checkout": side["checkout"], "runs": side["runs"]}, fp, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
