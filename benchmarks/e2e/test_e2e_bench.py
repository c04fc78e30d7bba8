"""Functional checks of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (about a
minute; not part of tier-1, whose ``testpaths`` is ``tests``).  Every
run here is a ``--smoke`` run: populations / 10, sub-second measurement.
"""

import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

import compare
import driver
import metrics
import workloads

SPEC = metrics.load()
END_TO_END, PER_LAYER = SPEC["end_to_end"], SPEC["per_layer"]
EXACT_COUNTS = metrics.exact_counts(SPEC)
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
WORKLOADS = tuple(workloads.WORKLOADS)


def command(workload, trace, seconds="0.6", seed=3):
    return [
        sys.executable, RUN, "--workload", workload, "--seed", str(seed),
        "--seconds", seconds, "--trace", str(trace), "--smoke",
    ]  # fmt: skip


def smoke(workload, trace):
    """(stdout lines, parsed last line) of one smoke run."""
    done = subprocess.run(
        command(workload, trace), stdout=subprocess.PIPE, text=True, timeout=120, check=True
    )
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def leftovers():
    """Things a run must not leave behind: segments and WAL directories."""
    segments = [n for n in os.listdir("/dev/shm") if n.startswith("repro_shm_")]
    out = os.path.join(HERE, "out")
    wals = [n for n in os.listdir(out) if n.startswith("wal-")] if os.path.isdir(out) else []
    return segments + wals


def check_result(lines, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for name, unit in ((m["name"], m["unit"]) for m in declared):
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"])
        printed = [line for line in lines[:-1] if line.split()[:1] == [name]]
        assert len(printed) == 1 and printed[0].split()[-1] == unit


def test_benchmark_json():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in END_TO_END + PER_LAYER + SPEC["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in END_TO_END)
    assert set(EXACT_COUNTS) <= {m["name"] for m in PER_LAYER}


def test_clean_keeps_what_every_pass_pays_and_drops_interference():
    passes = []
    for r in range(8):
        one = [1.0] * 16
        # The program's own periodic cost: once per chunk, on a batch
        # that moves from pass to pass.
        one[r % 8] += 2.0
        one[8 + (r + 3) % 8] += 2.0
        if r % 2:  # the host slows the first chunk in every other pass
            one[:8] = [t * 1.5 for t in one[:8]]
        passes.append(one)
    seconds, samples = driver.clean(passes)
    assert seconds == pytest.approx(20.0)
    assert sorted(samples) == [1.0] * 28 + [3.0] * 4


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = smoke(workload, trace=0)
    check_result(lines, result, END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    assert leftovers() == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_counts_repeat(workload):
    lines, first = smoke(workload, trace=1)
    check_result(lines, first, PER_LAYER)
    _lines, second = smoke(workload, trace=1)
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    values = {name: metric["value"] for name, metric in first["metrics"].items()}
    assert values["driver.span_coverage"] >= 0.9
    assert values["server.shed"] == values["shm.fallbacks"] == values["procpool.respawns"] == 0
    assert values["delivery.redeliveries"] == values["delivery.dead_lettered"] == 0
    with open(os.path.join(HERE, "out", f"trace-{workload}.json"), encoding="utf-8") as fp:
        trace = json.load(fp)
    assert trace["context"]["workload"] == workload and trace["spans"]
    assert leftovers() == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_gate_trips_on_a_corrupted_result(workload, tmp_path):
    system = workloads.WORKLOADS[workload](3, 10, str(tmp_path)).build()
    try:
        checked, wrong = system.gate()
        assert checked >= 64 and wrong == 0
        honest = system.match_gate

        def corrupt(events):
            results = honest(events)
            # The last gate event was built to match a live subscription.
            assert results[-1]
            results[-1] = results[-1][1:]
            return results

        system.match_gate = corrupt
        assert system.gate()[1] >= 1
    finally:
        system.close()


@pytest.mark.parametrize("workload", ["w0_churn", "broker_full"])
def test_a_pass_leaves_the_population_as_it_found_it(workload, tmp_path):
    system = workloads.WORKLOADS[workload](3, 10, str(tmp_path)).build()
    try:
        before = sorted(str(sub_id) for sub_id, _sub in system.live())
        system.check(system.step(0))
        assert sorted(str(sub_id) for sub_id, _sub in system.live()) != before
        for index in range(1, system.workload.cycle):
            system.check(system.step(index))
        assert sorted(str(sub_id) for sub_id, _sub in system.live()) == before
        assert system.gate()[1] == 0 and system.failed == 0
    finally:
        system.close()


def test_a_mismatch_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(
        workloads._MatcherSystem, "match_gate", lambda self, events: [[] for _ in events]
    )
    workload = workloads.WORKLOADS["w0_match"](3, 10, str(tmp_path))
    result = driver.run_end_to_end(workload, seconds=0.2, repeats=1)
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("workload", ["shard_shm", "broker_full"])
def test_interrupt_releases_everything(workload):
    child = subprocess.Popen(command(workload, trace=0, seconds="60"), stdout=subprocess.PIPE)
    time.sleep(3.0)  # inside the measured passes by now
    child.send_signal(signal.SIGINT)
    child.communicate(timeout=60)
    assert child.returncode != 0
    assert leftovers() == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "w0_match", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        check=False,
    )  # fmt: skip
    assert done.returncode != 0 and done.stdout.strip() == ""


def test_compare_words():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "higher", 0.10) == "unchanged"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.10) == "worse"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "lower", 0.10) == "better"
    noisy = [100.0, 130.0, 80.0, 120.0, 70.0]
    assert compare.verdict(steady, noisy, "higher", 0.10) == "unresolved"
    assert compare.verdict(noisy, None, "lower", 0.10) == "unresolved"
    assert compare.verdict(steady, None, "lower", 0.10) == "steady"
    assert compare.wins(steady, [v + 1 for v in steady], "higher") == 5
    assert compare.wins(steady, [v + 1 for v in steady], "lower") == 0
