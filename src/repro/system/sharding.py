"""Sharded parallel matching: hash-partition subscriptions over N engines.

The paper's algorithms are single-threaded by design; this module is the
horizontal-scale layer above them.  A :class:`ShardedMatcher` owns N
independent inner matchers (any registered backend), places each
subscription on exactly one of them through a pluggable
:class:`~repro.system.router.ShardRouter`, and answers ``match_batch``
by fanning each event out to the router's candidate shards — one
sub-batch per shard, on a thread pool when more than one shard must be
probed — and concatenating the per-shard results per event in ascending
shard order (deterministic regardless of completion order).  There is
one fan-out: ``match(e)`` is ``match_batch([e])[0]``, and breakers, the
shm arena and tracing all live on that one path.

Because the shards partition the subscription set, per-shard results are
disjoint and the union is exactly what a single matcher over the full
set would return; ``tests/properties/test_prop_sharding.py`` pins that
equivalence against the brute-force oracle for every router.

Thread safety: a :class:`ShardedMatcher` has one caller at a time, like
every other engine (a :class:`~repro.system.broker.PubSubBroker` calls
it under its lock; :class:`~repro.core.threadsafe.ThreadSafeMatcher`
shares a bare one).  Inside a batch the fan-out pool's threads each
probe their own shard while the caller waits for all of them, so no
inner engine ever sees two operations at once.  The one lock guards the
breaker-transition counter, which a health check's breaker read may
bump from another thread.

Observability: routing counters live in a
:class:`~repro.obs.registry.MetricsRegistry` (per-shard populations,
per-shard events-routed, whole-shard skips, fan-out/merge latency
histograms), so the benefit of affinity routing is measurable
(``benchmarks/bench_sharding.py``) rather than asserted.  The sharded
layer is coarse-grained, so it carries a live registry by default;
``use_metrics`` swaps in a shared registry and propagates it to every
inner engine with a distinct ``shard`` label (keeping each series
single-writer while the fan-out pool probes shards at once).
``use_tracer`` records one ``fanout`` span per batch with one child per
probed shard.

Shard quarantine (``breaker=``; see ``docs/resilience.md``): with
per-shard :class:`~repro.system.resilience.CircuitBreaker` protection
enabled, a shard whose inner engine raises (or answers slower than
``slow_match_seconds`` per routed event) repeatedly is quarantined
instead of poisoning every publish.  The unit of failure is the *probe*
— one call into one shard, carrying that shard's share of the batch: a
failed probe is one breaker failure, and every event routed to a failed
or quarantined shard comes back as a
:class:`~repro.system.resilience.PartialResults` flagged
``degraded=True`` holding the healthy shards' results.  *New*
subscriptions are overflow-placed on a healthy neighbour (tracked so
routing stays sound for any router: the overflow shards are always
probed).  After the breaker's cool-down the next batch runs a half-open
probe through the shard; success heals it.  Without ``breaker`` (the
default) behaviour is exactly the pre-quarantine contract: inner-engine
exceptions propagate to the caller.

Execution backends (``executor=``; see ``docs/scaling.md``): the default
``"thread"`` executor keeps every inner engine in-process and is
GIL-capped at roughly one core of matching work.  ``"process"`` places
each shard's engine in its own worker process
(:class:`~repro.system.procpool.ProcessShard` over a
:class:`~repro.system.procpool.ProcessPool`), making the fan-out
parallelism literal: the thread pool blocks in pipe ``recv`` (releasing
the GIL) while N workers match on N cores.  A batch reaches the workers
once through the pool's shared-memory arena, the pipe only when the
arena cannot take it (counted by reason).  Everything above the shard
boundary — routing, breakers, the deterministic
ascending-shard merge — is shared between both executors, and a dead
worker surfaces as :class:`~repro.system.resilience.WorkerDiedError`,
which the breaker machinery treats like any other shard failure:
quarantine, degraded :class:`PartialResults`, respawn-and-replay on the
half-open probe.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import DuplicateSubscriptionError, UnknownSubscriptionError
from repro.core.matcher import Matcher
from repro.core.types import Event, Subscription
from repro.obs.registry import MetricsRegistry
from repro.system.resilience import (
    BREAKER_CLOSED,
    BREAKER_STATE_VALUES,
    CircuitBreaker,
    PartialResults,
)
from repro.system.router import ShardRouter, make_router

if TYPE_CHECKING:  # imported on the first fan-out (_ensure_pool): it loads logging
    from concurrent.futures import ThreadPoolExecutor

#: How per-shard breakers may be requested: ``True`` for defaults, a
#: kwargs dict for :class:`CircuitBreaker`, or a zero-arg factory.
BreakerSpec = Union[None, bool, Dict[str, Any], Callable[[], CircuitBreaker]]

#: How an inner engine may be specified: a ready factory, or a registered
#: algorithm name resolved through :func:`repro.matchers.make_matcher`.
InnerSpec = Union[str, Callable[[], Matcher]]

#: The execution backends ``executor=`` accepts.
EXECUTORS = ("thread", "process")


def _resolve_inner(inner: InnerSpec) -> Callable[[], Matcher]:
    if callable(inner):
        return inner
    # Imported lazily: repro.matchers registers "sharded" from this module.
    from repro.matchers import make_matcher

    return lambda: make_matcher(inner)


class ShardedMatcher(Matcher):
    """Hash-partitioned fan-out over N inner matchers."""

    name = "sharded"

    def __init__(
        self,
        shards: int = 4,
        router: Union[str, ShardRouter] = "affinity",
        inner: InnerSpec = "dynamic",
        parallel: bool = True,
        breaker: BreakerSpec = None,
        slow_match_seconds: Optional[float] = None,
        executor: str = "thread",
        worker_timeout: Optional[float] = None,
        codec: str = "shm",
    ) -> None:
        """*codec* must be ``"shm"``: the process executor has one data
        plane, the shared-memory arena."""
        if codec != "shm":
            raise ValueError(
                f"process shards publish through the shm arena only, got codec={codec!r}"
            )
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        if slow_match_seconds is not None and slow_match_seconds <= 0:
            raise ValueError(
                f"slow-match threshold must be positive, got {slow_match_seconds}"
            )
        if executor not in EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; known: {EXECUTORS}")
        self.router = router if isinstance(router, ShardRouter) else make_router(router, shards)
        if self.router.shards != shards:
            raise ValueError(
                f"router built for {self.router.shards} shards, matcher has {shards}"
            )
        factory = _resolve_inner(inner)
        self.executor = executor
        self._procpool = None
        if executor == "process":
            # Imported lazily: the process backend pulls in numpy (for
            # the bit-matrix transport), which the thread path never needs.
            from repro.system.procpool import ProcessPool, ProcessShard

            self._procpool = ProcessPool([factory] * shards, request_timeout=worker_timeout)
            self._shards: List[Matcher] = [
                ProcessShard(self._procpool, index) for index in range(shards)
            ]
        else:
            self._shards = [factory() for _ in range(shards)]
        #: Guards the transition counter: breaker reads fire transitions
        #: from whichever thread reads (``BatchServer.health``).
        self._transitions_lock = threading.Lock()
        self._shard_of: Dict[Any, int] = {}
        self._population = [0] * shards
        self._parallel = parallel and shards > 1
        self._pool: Optional[ThreadPoolExecutor] = None
        # Quarantine state: one breaker per shard (None = disabled), the
        # per-shard count of overflow-placed subscriptions (placed off
        # their router-preferred shard while it was quarantined — those
        # shards must always be probed for routing to stay sound), and
        # the preferred shard of each overflow placement (for router
        # bookkeeping on removal).
        self.slow_match_seconds = slow_match_seconds
        self._breakers: Optional[List[CircuitBreaker]] = None
        if breaker:
            self._breakers = [
                self._build_breaker(breaker, index) for index in range(shards)
            ]
        self._overflow = [0] * shards
        self._routed_of: Dict[Any, int] = {}
        # The fan-out layer records a handful of samples per event, so a
        # live registry is the default here (inner engines stay no-op
        # until use_metrics propagates a shared registry to them).
        self.metrics = MetricsRegistry()
        self._bind_metrics()

    def _build_breaker(self, spec: BreakerSpec, index: int) -> CircuitBreaker:
        if spec is True:
            built = CircuitBreaker()
        elif isinstance(spec, dict):
            built = CircuitBreaker(**spec)
        elif callable(spec):
            built = spec()
        else:  # pragma: no cover - guarded by the truthiness check above
            raise ValueError(f"unsupported breaker spec {spec!r}")
        user_hook = built.on_transition

        def on_transition(old: str, new: str, _shard: int = index) -> None:
            self._on_breaker_transition(_shard, new)
            if user_hook is not None:
                user_hook(old, new)

        built.on_transition = on_transition
        return built

    def _on_breaker_transition(self, shard: int, new_state: str) -> None:
        with self._transitions_lock:
            self._m_breaker_transitions.labels(shard=str(shard), state=new_state).inc()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _bind_metrics(self) -> None:
        m = self.metrics
        self._m_events = m.counter(
            "repro_sharded_events_total", "Events fanned out by the sharded engine."
        ).labels()
        self._m_skipped = m.counter(
            "repro_sharded_shards_skipped_total",
            "Whole-shard skips the router achieved.",
        ).labels()
        visits = m.counter(
            "repro_sharded_shard_visits_total",
            "Events routed to each shard.",
            ("shard",),
        )
        self._m_visits = [visits.labels(shard=str(i)) for i in range(len(self._shards))]
        self._m_fanout_seconds = m.histogram(
            "repro_sharded_fanout_seconds",
            "Per-batch latency of the candidate-shard fan-out.",
        ).labels()
        self._m_merge_seconds = m.histogram(
            "repro_sharded_merge_seconds",
            "Per-batch latency of concatenating per-shard results.",
        ).labels()
        breaker_state = m.gauge(
            "repro_breaker_state",
            "Per-shard breaker state (0 closed, 1 half-open, 2 open).",
            ("shard",),
        )
        for i, b in enumerate(self._breakers or [None] * len(self._shards)):
            # ``b._state``, not ``b.state``: reading ``state`` advances a
            # cooled-down breaker to half-open, and a metrics read must not.
            breaker_state.read(
                self, lambda b=b: 0 if b is None else BREAKER_STATE_VALUES[b._state], shard=str(i)
            )
        self._m_breaker_transitions = m.counter(
            "repro_breaker_transitions_total",
            "Breaker state transitions, by shard and entered state.",
            ("shard", "state"),
        )
        self._m_degraded = m.counter(
            "repro_sharded_degraded_total",
            "Events answered with partial (degraded) results.",
        ).labels()
        self._m_quarantine_skips = m.counter(
            "repro_sharded_quarantine_skips_total",
            "Routed events a shard never saw because its breaker was open.",
        ).labels()
        self._m_rerouted = m.counter(
            "repro_sharded_rerouted_total",
            "Subscriptions overflow-placed away from a quarantined shard.",
        ).labels()

    def use_metrics(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Attach a (shared) registry here *and* on every inner engine.

        Each inner engine is stamped with its shard index as the
        ``shard`` label, so the per-engine families stay one-writer-per-
        series even when the fan-out pool probes shards concurrently.
        """
        for index, inner in enumerate(self._shards):
            inner.metrics_shard = str(index)
        registry = super().use_metrics(registry)
        if self._procpool is not None:
            self._procpool.use_metrics(registry)
        return registry

    @property
    def counters(self) -> Dict[str, Any]:
        """Cumulative routing counters (read from the registry families)."""
        return {
            "events": self._m_events.value,
            "shard_visits": sum(c.value for c in self._m_visits),
            "shards_skipped": self._m_skipped.value,
            "fanout_seconds": self._m_fanout_seconds.sum,
            "merge_seconds": self._m_merge_seconds.sum,
            "degraded_events": self._m_degraded.value,
            "quarantine_skips": self._m_quarantine_skips.value,
            "rerouted_subscriptions": self._m_rerouted.value,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        """Number of partitions."""
        return len(self._shards)

    def inner_matchers(self) -> Sequence[Matcher]:
        return self._shards

    def shard(self, index: int) -> Matcher:
        """The inner engine of one shard (for inspection/tests)."""
        return self._shards[index]

    def breaker(self, index: int) -> Optional[CircuitBreaker]:
        """The circuit breaker of one shard (None if quarantine is off)."""
        if self._breakers is None:
            return None
        return self._breakers[index]

    def breaker_states(self) -> Optional[Dict[int, str]]:
        """Shard → breaker state (None if quarantine is off).

        Reading the state advances lazy open → half-open transitions, so
        polling this (``repro health`` does) is enough to see recovery
        probes become available.
        """
        if self._breakers is None:
            return None
        return {i: b.state for i, b in enumerate(self._breakers)}

    def shard_ids(self) -> List[List[Any]]:
        """Per-shard lists of resident subscription ids."""
        out: List[List[Any]] = [[] for _ in self._shards]
        for sub_id, shard in self._shard_of.items():
            out[shard].append(sub_id)
        return out

    def close(self) -> None:
        """Shut down the fan-out thread pool, any worker processes and
        the inner engines (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self._procpool is not None:
            self._procpool.close()
        super().close()

    def executor_health(self) -> Dict[str, Any]:
        """Executor liveness for health endpoints.

        The thread executor is always fully "alive"; the process
        executor reports configured vs. live workers (a gap means a
        worker died and has not yet been probed back to life) and its
        arena: geometry plus the traffic counters, so an arena that
        carries no bytes (or only fallbacks) is visible.
        """
        if self._procpool is None:
            return {
                "executor": "thread",
                "workers": len(self._shards),
                "alive": len(self._shards),
            }
        return {
            "executor": "process",
            "workers": self._procpool.workers,
            "alive": self._procpool.alive_count(),
            "shm": self._procpool.stats()["shm"],
        }

    def __enter__(self) -> "ShardedMatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=len(self._shards), thread_name_prefix="repro-shard"
            )
        return self._pool

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _healthy_shard_near(self, preferred: int) -> int:
        """The nearest shard with a closed breaker (or *preferred* if none)."""
        breakers = self._breakers
        n = len(self._shards)
        for step in range(1, n):
            candidate = (preferred + step) % n
            if breakers[candidate].state == BREAKER_CLOSED:
                return candidate
        return preferred

    def add(self, subscription: Subscription) -> None:
        if subscription.id in self._shard_of:
            raise DuplicateSubscriptionError(subscription.id)
        preferred = self.router.shard_for(subscription)
        shard = preferred
        if (
            self._breakers is not None
            and self._breakers[preferred].state != BREAKER_CLOSED
        ):
            # Quarantined destination: overflow-place on a healthy
            # neighbour.  The preferred shard is remembered so the
            # router's bookkeeping stays exact on removal, and the
            # overflow count keeps the actual shard probe-eligible for
            # every event (routing soundness for any router).
            shard = self._healthy_shard_near(preferred)
        try:
            self._shards[shard].add(subscription)
        except BaseException:
            # Undoing only the router assumes a shard that raised did
            # not keep the subscription.  A process shard holds to that:
            # it raises only before its mirror takes the op, never for
            # transport reasons after (procpool.ProcessShard._record).
            self.router.on_remove(subscription, preferred)
            if self._breakers is not None:
                self._breakers[shard].record_failure()
            raise
        self._shard_of[subscription.id] = shard
        self._population[shard] += 1
        if shard != preferred:
            self._overflow[shard] += 1
            self._routed_of[subscription.id] = preferred
            self._m_rerouted.inc()

    def remove(self, sub_id: Any) -> Subscription:
        shard = self._shard_of.get(sub_id)
        if shard is None:
            raise UnknownSubscriptionError(sub_id)
        subscription = self._shards[shard].remove(sub_id)
        del self._shard_of[sub_id]
        self._population[shard] -= 1
        preferred = self._routed_of.pop(sub_id, shard)
        if preferred != shard:
            self._overflow[shard] -= 1
        self.router.on_remove(subscription, preferred)
        return subscription

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def match(self, event: Event) -> List[Any]:
        return self.match_batch([event])[0]

    def _probe(
        self,
        shard: int,
        events: List[Event],
        rows: Optional[List[int]],
        ticket: Any,
    ) -> Tuple[Optional[List[List[Any]]], Optional[Exception], float]:
        """One call into one shard, reported instead of raised.

        Consumes the shard's reader claim on *ticket* when the batch
        was published to the shm arena (``consume_slot`` acks in a
        ``finally``, so worker death cannot strand the slot).
        """
        start = time.perf_counter()
        try:
            if ticket is not None:
                result = self._shards[shard].consume_slot(ticket, rows)
            else:
                result = self._shards[shard].match_batch(
                    events if rows is None else [events[r] for r in rows]
                )
        except Exception as exc:
            return None, exc, time.perf_counter() - start
        return result, None, time.perf_counter() - start

    def match_batch(self, events: Sequence[Event]) -> List[List[Any]]:
        """The one fan-out: each shard sees one sub-batch, merged per event.

        Route, gate each candidate shard through its breaker once,
        publish a process executor's batch to its shm arena, run one
        *probe* (a single call into a single shard) per
        admitted shard, record one breaker verdict per probe, and
        concatenate per-event results in ascending shard order —
        deterministic regardless of completion order.  ``match(e)`` is
        a batch of one.

        The probe is the unit of failure.  With breakers, every row
        routed to a quarantined or failing shard comes back
        ``degraded`` with that shard in ``failed_shards`` (the ids
        present are still correct) and the breaker records exactly one
        failure per failed probe; a probe slower than
        ``slow_match_seconds`` *per routed event* is used but counted
        against the shard.  Without breakers an inner exception
        propagates — after every probe has run, so every shm reader
        claim is released.
        """
        events = list(events)
        n = len(events)
        if not n:
            return []
        breakers = self._breakers
        n_shards = len(self._shards)
        # A shard's row list; None is the identity routing — the whole
        # batch in order — so broadcast fan-outs never build, pickle or
        # re-gather per-event row lists at all.
        rows_of: Dict[int, Optional[List[int]]] = {}
        population = self._population
        if self.router.prunes():
            # Overflow shards hold subscriptions whose router-preferred
            # home was quarantined at add time; the router does not know
            # about them, so they are always probed.
            always = [s for s, k in enumerate(self._overflow) if k]
            for row, event in enumerate(events):
                candidates = set(self.router.candidate_shards(event))
                candidates.update(always)
                for s in candidates:
                    if population[s]:
                        rows_of.setdefault(s, []).append(row)
            routed = {s: len(rows) for s, rows in rows_of.items()}
        else:
            rows_of = {s: None for s in range(n_shards) if population[s]}
            routed = dict.fromkeys(rows_of, n)
        self._m_events.inc(n)
        self._m_skipped.inc(n_shards * n - sum(routed.values()))
        # Breaker gating, once per batch: a quarantined shard is skipped
        # and its rows flagged degraded — their subscriptions exist but
        # cannot be checked right now.
        probe = sorted(rows_of)
        failed: List[int] = []
        if breakers is not None:
            failed = [s for s in probe if not breakers[s].allow()]
            probe = [s for s in probe if s not in failed]
        quarantined = len(failed)
        for s in probe:
            self._m_visits[s].inc(routed[s])
        if failed:
            self._m_quarantine_skips.inc(sum(routed[s] for s in failed))
        row = list if breakers is None else PartialResults
        out: List[List[Any]] = [row() for _ in events]
        start = time.perf_counter()
        pool = self._procpool
        ticket = None
        if probe and pool is not None:
            # Write-once: the batch is packed into one event slot with
            # one reader claim per probed shard; None means it rides
            # the pipe instead (counted by the pool, never silent).
            ticket = pool.publish_events(events, readers=len(probe))
        outcomes = []
        if self._parallel and len(probe) > 1:
            # Every submitted probe runs, so every reader claim is acked.
            tpool = self._ensure_pool()
            futures = [
                tpool.submit(self._probe, s, events, rows_of[s], ticket)
                for s in probe
            ]
            outcomes = [f.result() for f in futures]
        else:
            try:
                for s in probe:
                    outcomes.append(self._probe(s, events, rows_of[s], ticket))
            except BaseException:
                # Only an interrupt gets here (a probe reports errors,
                # never raises); the probe it hit acked its own claim,
                # the unreached shards' claims go back to the ring here.
                if ticket is not None:
                    pool.arena.ring.release(ticket)
                raise
        merged_at = time.perf_counter()
        for s, (per_event, error, elapsed) in zip(probe, outcomes):
            if breakers is None:
                if error is not None:
                    raise error
            elif error is not None or (
                self.slow_match_seconds is not None
                and elapsed > self.slow_match_seconds * routed[s]
            ):
                # A slow answer is still *used* (it is correct) but
                # counts against the shard's health.
                breakers[s].record_failure()
            else:
                breakers[s].record_success()
            if error is not None:
                failed.append(s)
                continue
            rows = rows_of[s]
            for r, ids in zip(range(n) if rows is None else rows, per_event):
                out[r].extend(ids)
        # A row is degraded exactly when a shard it was routed to was
        # quarantined or failed (only ever non-empty in breaker mode).
        failed_of: Dict[int, List[int]] = {}
        for s in sorted(failed):
            rows = rows_of[s]
            for r in range(n) if rows is None else rows:
                failed_of.setdefault(r, []).append(s)
        for r, shards in failed_of.items():
            out[r].degraded = True
            out[r].failed_shards = tuple(shards)
        degraded = len(failed_of)
        done = time.perf_counter()
        if probe:
            self._m_fanout_seconds.observe(merged_at - start)
            self._m_merge_seconds.observe(done - merged_at)
        if degraded:
            self._m_degraded.inc(degraded)
        if self.tracer.enabled:
            span = self.tracer.start(
                "fanout",
                engine=self.name,
                shards=n_shards,
                events=n,
                candidates=len(rows_of),
                skipped=n_shards - len(rows_of),
                quarantined=quarantined,
                matched=sum(map(len, out)),
                degraded=degraded,
                fanout_ns=int((merged_at - start) * 1e9),
                merge_ns=int((done - merged_at) * 1e9),
            )
            for s, (per_event, error, elapsed) in zip(probe, outcomes):
                span.child(
                    "shard",
                    index=s,
                    events=routed[s],
                    matched=-1 if error is not None else sum(map(len, per_event)),
                    probe_ns=int(elapsed * 1e9),
                )
            self.tracer.finish(span)
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def get(self, sub_id: Any) -> Subscription:
        """Look up a stored subscription by id."""
        shard = self._shard_of.get(sub_id)
        if shard is None:
            raise UnknownSubscriptionError(sub_id)
        return self._shards[shard].get(sub_id)

    def iter_subscriptions(self) -> List[Subscription]:
        return [sub for inner in self._shards for sub in inner.iter_subscriptions()]

    def __len__(self) -> int:
        return sum(self._population)

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base["shards"] = len(self._shards)
        base["inner"] = self._shards[0].name
        base["parallel"] = self._parallel
        base["executor"] = self.executor
        if self._procpool is not None:
            base["procpool"] = self._procpool.stats()
        base["per_shard_subscriptions"] = list(self._population)
        base["per_shard_events_routed"] = [c.value for c in self._m_visits]
        base["counters"] = self.counters
        base["router"] = self.router.stats()
        if self._breakers is not None:
            base["breakers"] = {str(i): b.stats() for i, b in enumerate(self._breakers)}
            base["overflow_per_shard"] = list(self._overflow)
        return base
