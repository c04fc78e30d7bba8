"""End-to-end benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload w0_match --seed 1 --seconds 10 --trace 0

builds the workload's inputs from the seed, sets the system up, runs
passes over the workload's cycle of batches back to back for
``--seconds``, checks the outputs against ``OracleMatcher`` and prints
every metric by name with its unit; the last line of stdout is one JSON
object.  ``--trace 0`` sets up several times and prints the gated
end-to-end metrics (set-up time, peak memory); ``--trace 1`` runs an
untraced and a traced copy in alternate passes and prints throughput,
latency and the per-layer metrics (README.md defines them all).
``suite.py`` deals invocations round-robin over the workloads;
``compare.py`` compares two such sets.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Traces and the WAL's temporary directory; ignored by git.
OUT_DIR = os.path.join(HERE, "out")
SMOKE_SCALE = 10


def _bootstrap() -> None:
    """Pin the hash seed and put the checkout's own sources on the path."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set/dict order of string ids decides maintenance order inside
        # the engines; counts only repeat under a fixed hash seed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"run.py: no program to measure: {src}/repro is missing")
    sys.path[:0] = [src, HERE]


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's tracker process and wait for it.

    The first shared-memory segment starts it; left alone it ends on
    its own shortly *after* this process, and the run would not have
    waited for everything it started.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"populations / {SMOKE_SCALE} and one set-up: a quick functional pass",
    )
    args = parser.parse_args()
    _bootstrap()
    import driver
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    # SIGTERM unwinds like Ctrl-C, so workers, segments and the WAL
    # directory are released on every way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, SMOKE_SCALE if args.smoke else 1, OUT_DIR)
    try:
        if args.trace:
            result = driver.run_traced(workload, args.seconds)
        else:
            repeats = 1 if args.smoke else workload.setup_repeats
            result = driver.run_end_to_end(workload, args.seconds, repeats)
    finally:
        _stop_resource_tracker()
    print(
        f"{args.workload} seed={args.seed} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
