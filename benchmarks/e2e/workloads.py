"""The four benchmark workloads: inputs, system under test, one batch step.

A :class:`Workload` generates its inputs from the seed (untimed) and
can :meth:`~Workload.build` the system under test any number of times
from them; each build is an independent :class:`System`, so a plain
and a traced copy can run side by side.  The
program sees only the generated subscriptions and events.

Why these four (README.md has the long form):

* ``w0_match``   — matching kernel only; no ``system/`` code runs.
* ``w0_churn``   — the same kernel with writes beside the reads.
* ``shard_shm``  — transport-bound serving stack; phase 2 is cheap.
* ``broker_full``— WAL + leases + formulas + scalar publish loop; the
  matcher is a small share.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import tempfile
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import Event, Subscription, ge, le
from repro.core.oracle import OracleMatcher
from repro.matchers.dynamic import DynamicMatcher
from repro.system import (
    BatchServer,
    DeliveryManager,
    PartialResults,
    PubSubBroker,
    QueueNotifier,
    ShardedMatcher,
    WriteAheadLog,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import w0

from spans import Recorder, Traced

#: Events sampled from the timed stream for the oracle gate, plus events
#: built to satisfy one live subscription each (paper W0 at 50k matches
#: ~1 event in 1400, so sampled events alone would compare empty lists).
GATE_SAMPLED = 64
GATE_PLANTED = 32

#: Every WAL append is folded under the one span name ``wal.append``.
_WAL_APPENDS = dict.fromkeys(
    ("append_subscribe", "append_unsubscribe", "append_anchor", "append_deliver", "append_settle"),
    "append",
)


def oracle_mismatches(
    live: Sequence[Tuple[Any, Subscription]],
    events: Sequence[Event],
    results: Sequence[Sequence[Any]],
) -> int:
    """Events whose match list differs from the oracle's (sorted ids).

    *live* pairs each subscription with the id the system reports for it
    (a formula's disjuncts share their logical id).
    """
    oracle = OracleMatcher()
    owner = {}
    for index, (reported_id, sub) in enumerate(live):
        oracle.add(Subscription(index, sub.predicates))
        owner[index] = reported_id
    if len(results) != len(events):
        return len(events)
    wrong = 0
    for event, got in zip(events, results):
        expected = sorted({str(owner[i]) for i in oracle.match(event)})
        if sorted(map(str, got)) != expected:
            wrong += 1
    return wrong


def planted_event(base: Event, sub: Subscription) -> Event:
    """*base* with *sub*'s attributes overwritten so that *sub* matches
    (every predicate here is ``=``, ``<=`` or ``>=``: its own constant
    satisfies it)."""
    pairs = dict(base.pairs)
    for pred in sub.predicates:
        pairs[pred.attribute] = pred.value
    return Event(pairs)


class System:
    """One built instance of a workload's system under test."""

    def __init__(self, workload: "Workload", recorder: Optional[Recorder]) -> None:
        self.workload = workload
        self.recorder = recorder
        #: Operations that violated the workload's own success rule.
        self.failed = 0
        #: Matches returned by timed batches (for ``check_hit_ratio``).
        self.matches = 0

    def traced(
        self,
        target: Any,
        layer: str,
        methods: Sequence[str],
        leaves: Optional[Mapping[str, str]] = None,
    ) -> Any:
        """*target* behind a timing proxy when this copy is the traced one."""
        if self.recorder is None:
            return target
        return Traced(target, self.recorder, layer, methods, leaves)

    def step(self, index: int) -> List[List[Any]]:
        """Run batch *index* (position ``index % cycle`` of the cycle);
        returns its per-event match lists.  Called with 0, 1, 2, ..."""
        raise NotImplementedError

    def check(self, results: List[List[Any]]) -> None:
        """Untimed bookkeeping and failure rules for one batch's results."""
        if len(results) != self.workload.batch_size:
            self.failed += 1
        self.matches += sum(map(len, results))

    def live(self) -> List[Tuple[Any, Subscription]]:
        """The harness's own record of the live population, each
        subscription with the id the system reports for it."""
        return [(sub.id, sub) for sub in self.workload.resident]

    def match_gate(self, events: List[Event]) -> List[List[Any]]:
        """Send the gate events through the system's normal entry point."""
        raise NotImplementedError

    def gate(self) -> Tuple[int, int]:
        """(events checked, events wrong) against the oracle, now."""
        workload = self.workload
        live = self.live()
        rng = random.Random(f"{workload.seed}-gate")
        pool = [e for batch in workload.batches for e in batch]
        events = rng.sample(pool, min(GATE_SAMPLED, len(pool)))
        for _ in range(GATE_PLANTED):
            _id, sub = live[rng.randrange(len(live))]
            events.append(planted_event(pool[rng.randrange(len(pool))], sub))
        results = self.match_gate(events)
        return len(events), oracle_mismatches(live, events, results) + self.gate_extra()

    def gate_extra(self) -> int:
        """Workload-specific end-of-run invariants; returns violations."""
        return 0

    def counts(self) -> Dict[str, float]:
        """Cumulative counters, read from the layers' public stats."""
        return {"matches": self.matches}

    def worker_pids(self) -> List[int]:
        return []

    def close(self) -> None:
        """Release processes, segments and files (idempotent)."""


class Workload:
    """Seeded inputs plus the recipe for the system under test."""

    name = ""
    batch_size = 0
    #: Batches in the cycle.  Batch ``k`` of every pass gets the same
    #: events and, under churn, the same writes, and a pass leaves the
    #: population as it found it: every pass is the same work.
    cycle = 64
    #: Builds timed per run for ``setup_s`` (the fastest is reported).
    setup_repeats = 4

    def __init__(self, seed: int, scale: int, out_dir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.out_dir = out_dir
        self.batches: List[List[Event]] = []

    def _cut(self, events: List[Event]) -> None:
        size = self.batch_size
        self.batches = [events[i : i + size] for i in range(0, len(events), size)]

    def build(self, recorder: Optional[Recorder] = None) -> System:
        raise NotImplementedError


# ----------------------------------------------------------------------
# w0_match / w0_churn: the in-process matching kernel
# ----------------------------------------------------------------------
class _MatcherSystem(System):
    def __init__(self, workload: "W0Match", recorder: Optional[Recorder]) -> None:
        super().__init__(workload, recorder)
        raw = DynamicMatcher()
        # Traced copy only: the kernel's own per-phase histograms.
        self.registry = raw.use_metrics() if recorder is not None else None
        for sub in workload.resident:
            raw.add(sub)
        self.raw = raw
        self.matcher = self.traced(raw, "matchers", ("match_batch", "add", "remove"))
        self.recompiles = 0
        self._epoch = raw.registry.epoch

    def step(self, index: int) -> List[List[Any]]:
        batches = self.workload.batches
        return self.matcher.match_batch(batches[index % len(batches)])

    def check(self, results: List[List[Any]]) -> None:
        super().check(results)
        epoch = self.raw.registry.epoch
        if epoch != self._epoch:
            self._epoch = epoch
            self.recompiles += 1

    def match_gate(self, events: List[Event]) -> List[List[Any]]:
        return self.raw.match_batch(events)

    def counts(self) -> Dict[str, float]:
        stats = self.raw.stats()
        out = super().counts()
        out.update(stats["counters"])
        out.update(stats["maintenance"])
        out["recompiles"] = self.recompiles
        if self.registry is not None:
            phases = self.registry.family("repro_batch_kernel_seconds")
            for labels, child in phases.children():
                phase = labels[phases.labelnames.index("phase")]
                out[f"{phase}_seconds"] = out.get(f"{phase}_seconds", 0.0) + child.sum
        return out


class W0Match(Workload):
    """Paper W0, read-only, straight into ``DynamicMatcher.match_batch``."""

    name = "w0_match"
    batch_size = 256
    n_resident = 50_000

    def __init__(self, seed: int, scale: int, out_dir: str) -> None:
        super().__init__(seed, scale, out_dir)
        n = self.n_resident // scale
        gen = WorkloadGenerator(w0(n_subscriptions=n, seed=seed))
        self.resident = list(gen.subscriptions(n))
        self._cut(list(gen.events(self.cycle * self.batch_size)))

    def build(self, recorder: Optional[Recorder] = None) -> System:
        return _MatcherSystem(self, recorder)


class _ChurnSystem(_MatcherSystem):
    def __init__(self, workload: "W0Churn", recorder: Optional[Recorder]) -> None:
        super().__init__(workload, recorder)
        ring = workload.ring
        for chunk in ring[len(ring) // 2 :]:
            for sub in chunk:
                self.raw.add(sub)
        self._epoch = self.raw.registry.epoch
        self.done = 0

    def step(self, index: int) -> List[List[Any]]:
        workload, matcher = self.workload, self.matcher
        ring = workload.ring
        k = index % len(ring)
        for sub in ring[k]:
            matcher.add(sub)
        for sub in ring[k - len(ring) // 2]:
            matcher.remove(sub.id)
        self.done = index + 1
        return matcher.match_batch(workload.batches[k])

    def live(self) -> List[Tuple[Any, Subscription]]:
        ring = self.workload.ring
        window = [ring[k % len(ring)] for k in range(self.done - len(ring) // 2, self.done)]
        return super().live() + [(sub.id, sub) for chunk in window for sub in chunk]


class W0Churn(W0Match):
    """W0 with 32 adds + 32 removes in front of every batch.

    The writes walk a ring of 64 chunks of 32 subscriptions: batch ``k``
    adds chunk ``k`` and removes chunk ``k + 32``, a sliding window of
    1 024 live subscriptions that is back where it started after one
    cycle, so every pass repeats the same writes on the same population.

    The ring draws predicate constants from 1..70 while events stay on
    1..35: half of the arriving predicates are new to the registry, so
    the compiled phase-1 evaluator is invalidated by churn the way new
    values invalidate it in production (on the plain 1..35 domain all
    1120 possible predicates are resident and churn would never
    recompile).
    """

    name = "w0_churn"
    writes = 32

    def __init__(self, seed: int, scale: int, out_dir: str) -> None:
        super().__init__(seed, scale, out_dir)
        n = self.cycle * self.writes
        spec = dataclasses.replace(
            w0(n_subscriptions=n, seed=seed + 1_000_003), value_high=70
        )
        pool = list(WorkloadGenerator(spec, id_prefix="c").subscriptions(n))
        self.ring = [pool[i : i + self.writes] for i in range(0, n, self.writes)]

    def build(self, recorder: Optional[Recorder] = None) -> System:
        return _ChurnSystem(self, recorder)


# ----------------------------------------------------------------------
# shard_shm: admission queue + process shards over shared memory
# ----------------------------------------------------------------------
class _ShardSystem(System):
    def __init__(self, workload: "ShardShm", recorder: Optional[Recorder]) -> None:
        super().__init__(workload, recorder)
        self.queue_wait = 0.0
        self.processing = 0.0
        self.raw_server = None
        self.matcher = ShardedMatcher(
            shards=2,
            router="hash",
            inner="counting",
            executor="process",
            codec="shm",
            worker_timeout=60.0,
        )
        try:
            for sub in workload.resident:
                self.matcher.add(sub)
            self.raw_server = BatchServer(
                self.traced(self.matcher, "sharding", ("match_batch",)), workers=1
            )
            self.server = self.traced(self.raw_server, "server", ("submit_events",))
        except BaseException:
            self.close()
            raise

    def step(self, index: int) -> List[List[Any]]:
        batches = self.workload.batches
        self.reply = self.server.submit_events(batches[index % len(batches)])
        return self.reply.results

    def check(self, results: List[List[Any]]) -> None:
        super().check(results)
        reply = self.reply
        self.processing += reply.processing_seconds
        self.queue_wait += reply.round_trip_seconds - reply.processing_seconds
        if any(type(ids) is PartialResults and ids.degraded for ids in results):
            self.failed += 1

    def match_gate(self, events: List[Event]) -> List[List[Any]]:
        return self.raw_server.submit_events(events).results

    def gate_extra(self) -> int:
        shm = self.matcher.stats()["procpool"]["shm"]
        return sum(shm["fallbacks"].values())

    def worker_pids(self) -> List[int]:
        pids = []
        for index in range(self.matcher.shards):
            pid = self.matcher.shard(index).pool.worker_pid(index)
            if pid is not None:
                pids.append(pid)
        return pids

    def counts(self) -> Dict[str, float]:
        stats = self.matcher.stats()
        pool, shm = stats["procpool"]["counters"], stats["procpool"]["shm"]
        population = stats["per_shard_subscriptions"]
        engine = {"predicates_satisfied": 0, "subscription_checks": 0}
        for index in range(self.matcher.shards):
            worker = self.matcher.shard(index).stats()["counters"]
            for key in engine:
                engine[key] += worker.get(key, 0)
        wait = self.matcher.shard(0).pool.metrics.family("repro_shm_slot_wait_seconds")
        server = self.raw_server.stats()["counters"]
        return dict(
            super().counts(),
            **engine,
            events=stats["counters"]["events"],
            shard_visits=stats["counters"]["shard_visits"],
            fanout_seconds=stats["counters"]["fanout_seconds"],
            merge_seconds=stats["counters"]["merge_seconds"],
            shard_skew=max(population) * len(population) / sum(population),
            ipc_seconds=pool["ipc_seconds"],
            pipe_bytes=sum(pool["pipe_bytes"].values()),
            respawns=pool["respawns"],
            shm_bytes=sum(shm["bytes"].values()),
            shm_fallbacks=sum(shm["fallbacks"].values()),
            slot_wait_seconds=sum(child.sum for _labels, child in wait.children()),
            queue_wait_seconds=self.queue_wait,
            processing_seconds=self.processing,
            shed=sum(v for k, v in server.items() if k.startswith("shed_")),
        )

    def close(self) -> None:
        if self.raw_server is not None:
            self.raw_server.close()
        self.matcher.close()


class ShardShm(Workload):
    """``BatchServer`` → 2 process shards, counting engines, shm codec.

    2 000 three-predicate range subscriptions over 24 float attributes
    and 8-pair events (the ``bench_shm.py`` regime): phase 2 is cheap,
    so queueing, fan-out, the slot ring, result decode and merge are
    most of a batch.
    """

    name = "shard_shm"
    batch_size = 128
    cycle = 48
    #: Its set-up is short (0.2-0.9 s) and the least steady: 2 000
    #: synchronous pipe round trips to the workers.
    setup_repeats = 12
    n_resident = 2_000
    n_attrs = 24
    pairs_per_event = 8

    def __init__(self, seed: int, scale: int, out_dir: str) -> None:
        super().__init__(seed, scale, out_dir)
        rng = random.Random(f"{seed}-shard_shm")
        names = ["a%02d" % i for i in range(self.n_attrs)]
        self.resident = []
        for i in range(self.n_resident // scale):
            a, b, c = rng.sample(names, 3)
            self.resident.append(
                Subscription(
                    f"s{i}",
                    [
                        ge(a, rng.uniform(0.0, 80.0)),
                        le(b, rng.uniform(20.0, 100.0)),
                        ge(c, rng.uniform(0.0, 80.0)),
                    ],
                )
            )
        self._cut(
            [
                Event({a: rng.uniform(0.0, 100.0) for a in rng.sample(names, self.pairs_per_event)})
                for _ in range(self.cycle * self.batch_size)
            ]
        )

    def build(self, recorder: Optional[Recorder] = None) -> System:
        return _ShardSystem(self, recorder)


# ----------------------------------------------------------------------
# broker_full: TTLs + formulas + WAL + acked delivery
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Subscriber:
    """One logical subscriber: a plain subscription or a two-disjunct formula."""

    id: str
    disjuncts: Tuple[Subscription, ...]
    #: The text handed to ``subscribe_formula`` (built with the inputs,
    #: not inside a timed batch).
    formula: str = dataclasses.field(init=False)

    def __post_init__(self) -> None:
        self.formula = " or ".join(
            "(" + " and ".join(f"{p.attribute} = {p.value}" for p in d.predicates) + ")"
            for d in self.disjuncts
        )


class _BrokerSystem(System):
    def __init__(self, workload: "BrokerFull", recorder: Optional[Recorder]) -> None:
        super().__init__(workload, recorder)
        self.delivered: Dict[Any, int] = {}
        self.matched: Dict[Any, int] = {}
        self.wal_dir = tempfile.mkdtemp(prefix="wal-", dir=workload.out_dir)
        self.raw_wal = WriteAheadLog(os.path.join(self.wal_dir, "broker.wal"), fsync="never")
        try:
            wal = self.traced(self.raw_wal, "wal", (), _WAL_APPENDS)
            self.raw_manager = DeliveryManager(wal=wal)
            self.manager = self.traced(
                self.raw_manager,
                "delivery",
                ("dispatch_matches", "dispatch", "register", "unregister"),
                {"pump": "pump"},
            )
            self.raw_matcher = DynamicMatcher()
            self.raw_broker = PubSubBroker(
                matcher=self.traced(
                    self.raw_matcher, "matchers", ("add", "remove"), {"match": "match"}
                ),
                notifier=self.traced(QueueNotifier(), "notifier", ("deliver",)),
                default_subscription_ttl=3600.0,
                wal=wal,
                delivery=self.manager,
            )
            self.broker = self.traced(
                self.raw_broker,
                "broker",
                ("publish_batch", "subscribe", "subscribe_formula", "unsubscribe"),
            )
            self.done = 0
            for subscriber in workload.resident + workload.ring[len(workload.ring) // 2 :]:
                self._subscribe(subscriber)
        except BaseException:
            self.close()
            raise

    def _sink(self, notification: Any) -> None:
        delivered = self.delivered
        delivered[notification.sub_id] = delivered.get(notification.sub_id, 0) + 1

    def _subscribe(self, subscriber: Subscriber) -> None:
        if len(subscriber.disjuncts) > 1:
            self.broker.subscribe_formula(subscriber.formula, sub_id=subscriber.id)
        else:
            self.broker.subscribe(subscriber.disjuncts[0], notify_retained=False)
        self.manager.register(subscriber.id, sink=self._sink, auto_ack=True)

    def step(self, index: int) -> List[List[Any]]:
        workload = self.workload
        ring = workload.ring
        k = index % len(ring)
        self._subscribe(ring[k])
        leaving = ring[k - len(ring) // 2].id
        self.broker.unsubscribe(leaving)
        self.manager.unregister(leaving)
        self.done = index + 1
        return self.broker.publish_batch(workload.batches[k])

    def check(self, results: List[List[Any]]) -> None:
        super().check(results)
        matched = self.matched
        for ids in results:
            if type(ids) is not list:  # PartialResults: a degraded publish
                self.failed += 1
            for sub_id in ids:
                matched[sub_id] = matched.get(sub_id, 0) + 1
        if self.raw_manager.inflight:
            self.failed += 1

    def live(self) -> List[Tuple[Any, Subscription]]:
        ring = self.workload.ring
        window = [ring[k % len(ring)] for k in range(self.done - len(ring) // 2, self.done)]
        return [
            (subscriber.id, disjunct)
            for subscriber in self.workload.resident + window
            for disjunct in subscriber.disjuncts
        ]

    def match_gate(self, events: List[Event]) -> List[List[Any]]:
        results = self.raw_broker.publish_batch(events)
        for ids in results:
            for sub_id in ids:
                self.matched[sub_id] = self.matched.get(sub_id, 0) + 1
        return results

    def gate_extra(self) -> int:
        return (
            int(self.delivered != self.matched)
            + int(self.raw_manager.inflight != 0)
            + len(self.raw_manager.dead_letters)
        )

    def counts(self) -> Dict[str, float]:
        engine = self.raw_matcher.stats()
        delivery = self.raw_manager.stats()["counters"]
        wal = self.raw_wal.counters
        out = super().counts()
        out.update(engine["counters"])
        out.update(engine["maintenance"])
        out.update(
            wal_appends=wal["appends"],
            wal_bytes=wal["bytes"],
            acks=delivery["acks"],
            redeliveries=delivery["redeliveries"],
            dead_lettered=delivery["dead_lettered"],
            delivery_shed=delivery["shed"],
        )
        return out

    def close(self) -> None:
        self.raw_wal.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


class BrokerFull(Workload):
    """``PubSubBroker`` with TTLs, formulas, a WAL (written and flushed
    on every append, never fsynced) and one auto-acked push channel per
    subscriber; one subscriber joins and one leaves in front of every
    32-event ``publish_batch``.

    W0 narrowed to 3 predicates over values 1..17 gives ~4 matches per
    event, so every publish journals and delivers.  Every tenth
    subscriber is a two-disjunct formula.  The joiners and leavers walk
    a ring of 64 subscribers, 32 of them live at a time, beside the
    resident 20 000: batch ``k`` subscribes ring member ``k`` and
    unsubscribes member ``k + 32``.
    """

    name = "broker_full"
    batch_size = 32
    n_resident = 20_000

    def __init__(self, seed: int, scale: int, out_dir: str) -> None:
        super().__init__(seed, scale, out_dir)
        n_live = self.n_resident // scale
        n = n_live + self.cycle
        spec = dataclasses.replace(
            w0(n_subscriptions=n, seed=seed),
            predicates_per_subscription=3,
            value_high=17,
            event_value_high=17,
        )
        gen = WorkloadGenerator(spec)
        subscribers = []
        for k in range(n):
            width = 2 if k % 10 == 0 else 1
            disjuncts = tuple(gen.next_subscription() for _ in range(width))
            subscribers.append(Subscriber(str(disjuncts[0].id), disjuncts))
        self.resident, self.ring = subscribers[:n_live], subscribers[n_live:]
        self._cut(list(gen.events(self.cycle * self.batch_size)))

    def build(self, recorder: Optional[Recorder] = None) -> System:
        return _BrokerSystem(self, recorder)


WORKLOADS = {w.name: w for w in (W0Match, W0Churn, ShardShm, BrokerFull)}
