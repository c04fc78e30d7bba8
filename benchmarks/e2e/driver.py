"""Passes, set-up timing and the metric arithmetic behind ``run.py``.

Closed loop, one client: the next batch is sent when the previous one
has returned with its match lists and every delivery acked.  A *pass*
is one trip round the workload's fixed cycle of batches; a pass leaves
the population as it found it, so batch ``k`` of every pass is the same
work.  Passes run back to back until the requested seconds have passed.

``events_per_s`` and the ``publish_ack_*`` percentiles pool every batch
of every pass: nothing is filtered out.  Beside them :func:`clean`
reads the same passes off their least-interfered repetitions (the
``driver.*_clean*`` figures), which is the steadier number on a host
whose interference comes in bursts (README.md).
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.core.errors import ReproError

import metrics
from spans import Recorder, layer_times

#: Batches per chunk, the grain at which :func:`clean` filters out
#: interference - and so the longest period a cost may have and still
#: be counted if its position shifts from pass to pass
#: (``DynamicMatcher`` sweeps every 2048 operations: every 8th
#: ``w0_match`` batch).
CHUNK = 8
#: Passes every run makes at least, and the traced passes that counts
#: are taken over - a fixed amount of work, so counts repeat for a seed.
COUNT_PASSES = 2


# ----------------------------------------------------------------------
# timed passes
# ----------------------------------------------------------------------
class Pass:
    """One system's passes: per-batch times, pass by pass."""

    def __init__(self, system: Any, recorder: Any = None) -> None:
        self.system = system
        self.recorder = recorder
        self.step: Callable[[int], Any] = system.step
        if recorder is not None:
            self.step = recorder.wrap("driver.batch", system.step)
        #: Set-up ran batch 0 as its warm batch.
        self.next_batch = 1
        #: Per timed pass, the seconds of each of its batches.
        self.passes: List[List[float]] = []
        #: Per timed pass: wall seconds, CPU seconds of this process, and
        #: of its workers per worker.
        self.usage: List[Tuple[float, float, float]] = []

    def _run(self, batches: int, timed: bool) -> List[float]:
        system, step, recorder = self.system, self.step, self.recorder
        took: List[float] = []
        for index in range(self.next_batch, self.next_batch + batches):
            if recorder is not None:
                recorder.batch_id = index if timed else -1
            start = time.perf_counter()
            try:
                results = (step if timed else system.step)(index)
            except ReproError:
                # Shed, refused, deadline: the batch failed, the run goes on.
                results = None
            took.append(time.perf_counter() - start)
            if recorder is not None:
                recorder.flush_leaves()
            if results is None:
                system.failed += 1
            else:
                system.check(results)
        self.next_batch += batches
        return took

    def warm(self) -> None:
        """Finish the cycle set-up began, untimed."""
        cycle = self.system.workload.cycle
        self._run(-self.next_batch % cycle, timed=False)

    def run_pass(self) -> None:
        pids = self.system.worker_pids()
        cpu0 = (time.process_time(), _cpu_seconds(pids))
        started = time.perf_counter()
        self.passes.append(self._run(self.system.workload.cycle, timed=True))
        self.usage.append(
            (
                time.perf_counter() - started,
                time.process_time() - cpu0[0],
                (_cpu_seconds(pids) - cpu0[1]) / max(1, len(pids)),
            )
        )

    @property
    def samples(self) -> List[float]:
        return [took for one in self.passes for took in one]

    @property
    def timed_events(self) -> int:
        return len(self.passes) * self.system.workload.cycle * self.system.workload.batch_size


def clean(passes: List[List[float]]) -> Tuple[float, List[float]]:
    """(seconds per pass, batch times) over each chunk's fastest quarter.

    The cycle is cut into chunks of ``CHUNK`` batches.  For every
    chunk, the ``len(passes) // 4`` passes in which it ran fastest are
    kept; the first result is the sum over chunks of their mean total,
    the second pools their batch times.  Interference slows a random
    share of the batches, so a whole pass is rarely spared but every
    chunk is spared in some passes; a cost the program pays inside a
    chunk in every pass (a sweep, a recompile, a collection) is in
    every repetition and stays in the figure.
    """
    keep = max(1, len(passes) // 4)
    seconds = 0.0
    samples: List[float] = []
    for at in range(0, len(passes[0]), CHUNK):
        fastest = sorted((one[at : at + CHUNK] for one in passes), key=sum)[:keep]
        seconds += sum(map(sum, fastest)) / keep
        for chunk in fastest:
            samples.extend(chunk)
    return seconds, samples


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _cpu_seconds(pids: List[int]) -> float:
    """utime + stime of *pids* from /proc/<pid>/stat."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fp:
            fields = fp.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def _peak_rss_mib(pids: List[int]) -> float:
    """This process's ``ru_maxrss`` plus each worker's ``VmHWM``."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
    return kib / 1024.0


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def _timed_setup(workload: Any, recorder: Any = None) -> Tuple[Any, float]:
    """Build from already-generated inputs, load, first warm batch."""
    start = time.perf_counter()
    system = workload.build(recorder)
    try:
        system.check(system.step(0))
    except BaseException:
        system.close()
        raise
    return system, time.perf_counter() - start


def run_end_to_end(workload: Any, seconds: float, repeats: int) -> Dict[str, Any]:
    setups: List[float] = []
    system = None
    try:
        for _ in range(repeats):
            if system is not None:
                system.close()
                system = None
                gc.collect()
            system, took = _timed_setup(workload)
            setups.append(took)
        gc.collect()
        gc.freeze()  # GC stays on: its pauses belong to the program
        timed = Pass(system)
        timed.warm()
        until = time.perf_counter() + seconds
        while len(timed.passes) < COUNT_PASSES or time.perf_counter() < until:
            timed.run_pass()
        rss = _peak_rss_mib(system.worker_pids())
        checked, wrong = system.gate()
    finally:
        if system is not None:
            system.close()
    # The fastest of the run's set-ups: they are repetitions of
    # identical work, and interference only ever slows one.
    values = {"setup_s": min(setups), "peak_rss_mb": rss}
    return _result(values, [timed], checked, wrong)


def run_traced(workload: Any, seconds: float) -> Dict[str, Any]:
    recorder = Recorder()
    systems: List[Any] = []
    try:
        for rec in (None, recorder):
            systems.append(_timed_setup(workload, rec)[0])
        plain, traced = Pass(systems[0]), Pass(systems[1], recorder)
        gc.collect()
        gc.freeze()
        plain.warm()
        traced.warm()
        counts = [systems[1].counts()]
        until = time.perf_counter() + seconds
        # Plain and traced passes alternate, so both halves of the
        # overhead ratio see the same stretch of host noise.
        while len(traced.passes) < COUNT_PASSES or time.perf_counter() < until:
            plain.run_pass()
            traced.run_pass()
            if len(traced.passes) == COUNT_PASSES:
                counts.append(systems[1].counts())
        counts.append(systems[1].counts())
        gates = [system.gate() for system in systems]
    finally:
        for system in systems:
            system.close()
    recorder.write(
        os.path.join(workload.out_dir, f"trace-{workload.name}.json"),
        {"workload": workload.name, "seed": workload.seed, "scale": workload.scale},
    )
    values = layer_metrics(plain, traced, recorder, counts)
    return _result(values, [plain, traced], sum(g[0] for g in gates), sum(g[1] for g in gates))


def layer_metrics(
    plain: Pass, traced: Pass, recorder: Recorder, counts: List[Dict[str, float]]
) -> Dict[str, float]:
    """Every per-layer metric; layers a workload lacks read 0.

    *counts* are the traced system's counters before its first timed
    pass, after its ``COUNT_PASSES``-th and after its last.
    """
    workload = traced.system.workload
    timed = [s for s in recorder.spans if s[5] >= 0]
    times = layer_times(timed)
    kev = traced.timed_events / 1e3
    window_events = COUNT_PASSES * workload.cycle * workload.batch_size
    start, window, end = counts

    def busy(*names: str) -> float:
        return sum(times[n]["busy"] for n in names if n in times) / kev

    def per_call(*names: str) -> float:
        rows = [times[n] for n in names if n in times]
        calls = sum(r["calls"] for r in rows)
        return sum(r["busy"] for r in rows) / calls if calls else 0.0

    def total(key: str) -> float:
        return (end.get(key, 0) - start.get(key, 0)) / kev

    def counted(key: str) -> float:
        return window.get(key, 0) - start.get(key, 0)

    roots = {s[0]: s[7] for s in timed if s[1] == "driver.batch"}
    covered = sum(s[7] for s in timed if s[4] in roots)
    checks = counted("subscription_checks")
    wall = sum(u[0] for u in traced.usage)
    pass_rates = [1.0 / sum(one) for one in plain.passes]
    pooled = plain.samples
    plain_clean, clean_samples = clean(plain.passes)
    return {
        # the untraced copy, every batch of every pass
        "events_per_s": plain.timed_events / sum(pooled),
        "publish_ack_p50_ms": statistics.median(pooled) * 1e3,
        "publish_ack_p95_ms": percentile(pooled, 0.95) * 1e3,
        "matchers.match_batch_s": busy("matchers.match_batch"),
        "matchers.match_s": busy("matchers.match"),
        "matchers.add_s": per_call("matchers.add") * 1e3,
        "matchers.remove_s": per_call("matchers.remove") * 1e3,
        "matchers.maintenance_moves": counted("moves"),
        "matchers.tables_created": counted("tables_created"),
        "matchers.tables_dropped": counted("tables_dropped"),
        "batch.phase1_s": total("predicate_seconds"),
        "algorithms.phase2_s": total("subscription_seconds"),
        "batch.predicates_satisfied_per_event": counted("predicates_satisfied") / window_events,
        "algorithms.subscription_checks_per_event": checks / window_events,
        "algorithms.check_hit_ratio": counted("matches") / checks if checks else 0.0,
        "batch.evaluator_recompiles": counted("recompiles"),
        "server.queue_wait_s": total("queue_wait_seconds"),
        "server.processing_s": total("processing_seconds"),
        "server.shed": counted("shed"),
        "sharding.fanout_s": total("fanout_seconds"),
        "sharding.merge_s": total("merge_seconds"),
        "sharding.shard_visits_per_event": counted("shard_visits") / window_events,
        "sharding.shard_skew": end.get("shard_skew", 0.0),
        "procpool.ipc_s": total("ipc_seconds"),
        "procpool.pipe_bytes_per_event": counted("pipe_bytes") / window_events,
        "procpool.respawns": counted("respawns"),
        "procpool.worker_busy_share": sum(u[2] for u in traced.usage) / wall,
        "procpool.parent_busy_share": sum(u[1] for u in traced.usage) / wall,
        "shm.bytes_per_event": counted("shm_bytes") / window_events,
        "shm.slot_wait_s": total("slot_wait_seconds"),
        "shm.fallbacks": counted("shm_fallbacks"),
        "broker.publish_s": busy("broker.publish_batch"),
        "broker.self_s": times.get("broker.publish_batch", {"self": 0.0})["self"] / kev,
        "broker.subscribe_s": per_call("broker.subscribe", "broker.subscribe_formula"),
        "broker.unsubscribe_s": per_call("broker.unsubscribe"),
        "wal.append_s": busy("wal.append"),
        "wal.appends_per_event": counted("wal_appends") / window_events,
        "wal.bytes_per_event": counted("wal_bytes") / window_events,
        "delivery.dispatch_s": busy("delivery.dispatch_matches", "delivery.dispatch"),
        "delivery.pump_s": busy("delivery.pump"),
        "delivery.acks_per_event": counted("acks") / window_events,
        "delivery.redeliveries": counted("redeliveries"),
        "delivery.dead_lettered": counted("dead_lettered"),
        "delivery.shed": counted("delivery_shed"),
        "notifier.deliver_s": busy("notifier.deliver"),
        "driver.publish_ack_p99_ms": percentile(pooled, 0.99) * 1e3,
        "driver.events_per_s_clean": workload.cycle * workload.batch_size / plain_clean,
        "driver.publish_ack_p95_clean_ms": percentile(clean_samples, 0.95) * 1e3,
        "driver.slice_spread": (max(pass_rates) - min(pass_rates))
        / statistics.median(pass_rates),
        "driver.trace_overhead": clean(traced.passes)[0] / plain_clean,
        "driver.span_coverage": covered / sum(roots.values()),
    }


def _result(
    values: Dict[str, float], runners: List[Pass], checked: int, wrong: int
) -> Dict[str, Any]:
    """The run's JSON object: every batch of every copy, plus the gate
    events, is an operation attempted."""
    units = metrics.units(metrics.load())
    failed = sum(runner.system.failed for runner in runners) + wrong
    return {
        "correct": failed == 0,
        "attempted": sum(runner.next_batch for runner in runners) + checked,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
