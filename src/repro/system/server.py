"""A loopback batch server: the paper's measurement boundary.

Section 6.1: "The workload generation task ran as a separate process …
timings therefore include the interprocess communication times and
individual timings account for the processing of an entire batch."
This module provides the in-process equivalent: a
:class:`~repro.system.broker.PubSubBroker` runs on a dedicated serving
thread, clients submit fixed-size batches through queues, and the reply
carries both the results and the server-side processing time — so
harnesses can measure *with* the submission hop (like the paper) or
subtract it.  The server only queues: admission, deadlines, metrics and
:meth:`BatchServer.health` live here; journaling, matching and delivery
are the broker's one publish path, reached through three calls
(``subscribe_batch`` / ``unsubscribe_batch`` / ``publish_batch``).

One serving thread drives the broker, and through it the engine: the
paper's matcher is single-threaded, and the only parallelism below it
is the process shards'.  Two serving threads measured 0.83–1.06× of
one on a 2-vCPU host (``docs/scaling.md``), so the server runs one.

Overload safety (see ``docs/resilience.md``): by default the request
queue is unbounded (a harness measuring the paper's figures must never
shed).  Deployments serving untrusted producers pass ``queue_limit`` to
bound it and an admission policy for the full-queue case — ``block``
the producer, ``reject`` with :class:`ServerOverloadedError`, or
``shed-oldest`` (evict the stalest queued batch, answering *its* caller
with the overload error, in favour of the new one).  Requests may carry
a ``deadline`` (seconds from submission); a batch whose deadline passed
while queued is shed with :class:`DeadlineExceededError` instead of
being matched.  Every shed increments ``repro_server_shed_total`` with
a ``reason`` label, and :meth:`BatchServer.health` reports queue depth,
shed counts, breaker states and WAL lag in one place (the ``repro
health`` CLI prints it).
"""

from __future__ import annotations

import contextlib
import dataclasses
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.errors import ReproError
from repro.core.matcher import Matcher
from repro.core.types import Event, Subscription
from repro.obs.registry import MetricsRegistry
from repro.system.broker import PubSubBroker
from repro.system.notifier import NullNotifier
from repro.system.resilience import (
    ADMISSION_POLICIES,
    BREAKER_CLOSED,
    DeadlineExceededError,
    ServerOverloadedError,
)
from repro.system.sharding import ShardedMatcher

#: Request kinds a batch can carry (the label set of the server families).
_KINDS = ("subscribe", "unsubscribe", "publish")

#: Reasons a request can be shed (the ``repro_server_shed_total`` labels).
_SHED_REASONS = ("overload", "deadline", "closed")


def _sharded_layer(matcher: Matcher) -> Optional[ShardedMatcher]:
    """The shard fan-out inside *matcher*, however deeply it is wrapped."""
    if isinstance(matcher, ShardedMatcher):
        return matcher
    for inner in matcher.inner_matchers():
        found = _sharded_layer(inner)
        if found is not None:
            return found
    return None


class ServerClosedError(ReproError, RuntimeError):
    """A batch was submitted to a server that has shut down."""


@dataclasses.dataclass
class BatchReply:
    """Outcome of one submitted batch."""

    #: Per-event match lists (events) or accepted count (subscriptions).
    results: Any
    #: Seconds the server spent processing the batch (excl. queueing).
    processing_seconds: float
    #: Seconds from submit to reply as seen by the client (incl. hop).
    round_trip_seconds: float


@dataclasses.dataclass
class _Request:
    kind: str
    payload: Any
    reply_queue: "queue.Queue[Any]"
    submitted_at: float
    #: Absolute monotonic instant after which the work is worthless.
    deadline_at: Optional[float] = None


class BatchServer:
    """A broker on one serving thread, fed through a request queue."""

    def __init__(
        self,
        matcher: Union[Matcher, PubSubBroker, None] = None,
        workers: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        queue_limit: Optional[int] = None,
        admission: str = "block",
    ) -> None:
        """*matcher* is the engine to serve, or a ready
        :class:`PubSubBroker` (TTLs, formulas, its own WAL and delivery
        manager) to queue in front of.  *workers* must be 1: one thread
        serves the queue."""
        if workers != 1:
            raise ValueError(f"the server runs one serving thread, got workers={workers}")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {queue_limit}")
        if admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {admission!r}; "
                f"known: {', '.join(ADMISSION_POLICIES)}"
            )
        if isinstance(matcher, PubSubBroker):
            broker = matcher
        else:
            # A bare engine is served through a broker that discards
            # notifications: match lists go back in the reply and, with
            # no channel registered, nothing else happens per match.
            broker = PubSubBroker(matcher=matcher, notifier=NullNotifier())
        #: The one publish path: every batch is a
        #: ``subscribe_batch`` / ``unsubscribe_batch`` / ``publish_batch``
        #: call on this broker, which owns journaling (its ``wal``) and
        #: the last hop (its ``delivery`` manager and notifier).
        self.broker = broker
        self.workers = 1
        self.queue_limit = queue_limit
        self.admission = admission
        self._requests: "queue.Queue[Optional[_Request]]" = queue.Queue(
            maxsize=queue_limit or 0
        )
        self._closed = False
        self._close_lock = threading.Lock()
        #: Unexpected serve-loop failures (not per-request errors, which
        #: are delivered to their caller); ``__exit__`` re-raises these.
        self._worker_errors: List[BaseException] = []
        # Server-side observability: one sample per *batch*, so a live
        # registry is the default.  The serving thread is the one writer
        # of the per-batch families; the shed counter is also written by
        # client threads (admission, close), so it takes this lock.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._metrics_lock = threading.Lock()
        self._bind_metrics()
        self._thread = threading.Thread(target=self._serve, daemon=True, name="repro-server")
        self._thread.start()

    @property
    def matcher(self) -> Matcher:
        """The engine behind the broker."""
        return self.broker.matcher

    def _bind_metrics(self) -> None:
        m = self.metrics
        m.gauge(
            "repro_server_queue_depth", "Batches waiting in the request queue."
        ).read(self, self._requests.qsize)
        m.gauge(
            "repro_server_queue_limit",
            "Configured request-queue bound (0 = unbounded).",
        ).read(self, lambda: self.queue_limit or 0)
        shed = m.counter(
            "repro_server_shed_total",
            "Requests shed without being processed, by reason.",
            ("reason",),
        )
        self._m_shed = {r: shed.labels(reason=r) for r in _SHED_REASONS}
        batches = m.counter(
            "repro_server_batches_total", "Batches processed, by request kind.", ("kind",)
        )
        items = m.counter(
            "repro_server_items_total",
            "Items (subscriptions/ids/events) processed, by request kind.",
            ("kind",),
        )
        seconds = m.histogram(
            "repro_server_batch_seconds",
            "Server-side processing latency per batch, by request kind.",
            ("kind",),
        )
        self._m_batches = {k: batches.labels(kind=k) for k in _KINDS}
        self._m_items = {k: items.labels(kind=k) for k in _KINDS}
        self._m_batch_seconds = {k: seconds.labels(kind=k) for k in _KINDS}

    def _count_shed(self, reason: str) -> None:
        with self._metrics_lock:
            self._m_shed[reason].inc()

    # ------------------------------------------------------------------
    # the serving thread
    # ------------------------------------------------------------------
    def _serve(self) -> None:
        while True:
            request = self._requests.get()
            if request is None:
                return
            try:
                self._handle(request)
            except BaseException as exc:  # a bug in the serve loop itself
                # Per-request failures are delivered by _handle; anything
                # landing here killed the serving thread.  Answer the
                # in-flight caller (nobody else will) before dying.
                self._worker_errors.append(exc)
                request.reply_queue.put((None, 0.0, exc))
                raise

    def _handle(self, request: _Request) -> None:
        if (
            request.deadline_at is not None
            and time.monotonic() >= request.deadline_at
        ):
            # Expired while queued: shed, don't match.  Matching work
            # nobody is waiting for anymore only deepens an overload.
            self._count_shed("deadline")
            request.reply_queue.put(
                (
                    None,
                    0.0,
                    DeadlineExceededError(
                        f"{request.kind} batch expired before processing"
                    ),
                )
            )
            return
        start = time.perf_counter()
        try:
            broker = self.broker
            if request.kind == "publish":
                results: Any = broker.publish_batch(request.payload)
            else:
                # Durability: the broker journals the batch whole under
                # its own ``wal.batched()``, and the reply waits for one
                # fsync per *batch* — the batch boundary is the natural
                # amortization point (the paper submits in n_S_b /
                # n_E_b units).  The outer scope is what keeps that one
                # under fsync="always": alone, the broker's scope would
                # fsync at its exit and ``sync()`` again after it;
                # nested, the inner exit defers to this scope, and
                # ``sync()`` leaves it nothing to sync.
                # Transport: the same amortization under
                # executor="process" — each item changes its shard's
                # parent-side mirror at once and rides to the worker in
                # one `apply` pipe message per chunk of ops, the rest at
                # the next publish (every read is the barrier; procpool.py).
                wal = broker.wal
                with wal.batched() if wal is not None else contextlib.nullcontext():
                    if request.kind == "subscribe":
                        results = len(broker.subscribe_batch(request.payload))
                    else:
                        broker.unsubscribe_batch(request.payload)
                        results = request.payload
                    if wal is not None:
                        wal.sync()  # flush-on-batch boundary
            elapsed = time.perf_counter() - start
            self._m_batches[request.kind].inc()
            self._m_items[request.kind].inc(len(request.payload))
            self._m_batch_seconds[request.kind].observe(elapsed)
            request.reply_queue.put((results, elapsed, None))
        except Exception as exc:  # deliver failures to the caller
            request.reply_queue.put((None, 0.0, exc))

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self, request: _Request) -> None:
        """Enqueue *request* under the configured admission policy."""
        requests = self._requests
        if self.queue_limit is None:
            requests.put(request)
            return
        if self.admission == "block":
            if request.deadline_at is None:
                requests.put(request)
                return
            remaining = request.deadline_at - time.monotonic()
            if remaining > 0:
                try:
                    requests.put(request, timeout=remaining)
                    return
                except queue.Full:
                    pass
            self._count_shed("deadline")
            raise DeadlineExceededError(
                f"{request.kind} batch deadline passed while waiting for queue space"
            )
        if self.admission == "reject":
            try:
                requests.put_nowait(request)
            except queue.Full:
                self._count_shed("overload")
                raise ServerOverloadedError(
                    f"request queue full ({self.queue_limit} batches)"
                ) from None
            return
        # shed-oldest: evict stale work in favour of fresh work.  The
        # loop races benignly with the serving thread draining the
        # queue — every iteration either enqueues, sheds one victim, or
        # observes the queue momentarily empty and retries.
        while True:
            try:
                requests.put_nowait(request)
                return
            except queue.Full:
                pass
            try:
                victim = requests.get_nowait()
            except queue.Empty:
                continue
            if victim is None:  # close() sentinel: put it back, stop shedding
                requests.put(victim)
                self._count_shed("closed")
                raise ServerClosedError("server is closed")
            self._count_shed("overload")
            victim.reply_queue.put(
                (
                    None,
                    0.0,
                    ServerOverloadedError(
                        f"shed from a full queue ({self.queue_limit} batches) "
                        f"in favour of newer work"
                    ),
                )
            )

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def _submit(
        self, kind: str, payload: Any, deadline: Optional[float] = None
    ) -> BatchReply:
        if self._closed:
            raise ServerClosedError("server is closed")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive seconds, got {deadline}")
        reply: "queue.Queue[Any]" = queue.Queue()
        submitted = time.perf_counter()
        deadline_at = None if deadline is None else time.monotonic() + deadline
        self._admit(_Request(kind, payload, reply, submitted, deadline_at))
        results, processing, error = reply.get()
        if error is not None:
            raise error
        return BatchReply(
            results=results,
            processing_seconds=processing,
            round_trip_seconds=time.perf_counter() - submitted,
        )

    def submit_subscriptions(
        self, batch: Sequence[Subscription], deadline: Optional[float] = None
    ) -> BatchReply:
        """Insert a subscription batch (the paper's ``n_S_b`` unit)."""
        return self._submit("subscribe", list(batch), deadline)

    def submit_unsubscriptions(
        self, sub_ids: Sequence[Any], deadline: Optional[float] = None
    ) -> BatchReply:
        """Remove a batch of subscriptions by id."""
        return self._submit("unsubscribe", list(sub_ids), deadline)

    def submit_events(
        self, batch: Sequence[Event], deadline: Optional[float] = None
    ) -> BatchReply:
        """Match an event batch (the paper's ``n_E_b`` unit); the reply's
        results hold one id-list per event."""
        return self._submit("publish", list(batch), deadline)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Unified stats shape: server counters plus the engine's own."""
        counters: Dict[str, Any] = {}
        for kind in _KINDS:
            counters[f"batches_{kind}"] = self._m_batches[kind].value
            counters[f"items_{kind}"] = self._m_items[kind].value
            counters[f"seconds_{kind}"] = self._m_batch_seconds[kind].sum
        for reason in _SHED_REASONS:
            counters[f"shed_{reason}"] = self._m_shed[reason].value
        broker = self.broker.stats()  # the engine's, under the broker's lock
        out = {
            "name": "batch-server",
            "subscriptions": broker["subscriptions"],
            "workers": self.workers,
            "queue_depth": self._requests.qsize(),
            "queue_limit": self.queue_limit or 0,
            "admission": self.admission,
            "counters": counters,
            "matcher": broker["matcher"],
        }
        if "wal" in broker:
            out["wal"] = broker["wal"]
        return out

    def health(self) -> Dict[str, Any]:
        """One overload-focused snapshot of the serving stack.

        ``status`` is ``"ok"``, ``"degraded"`` (any shard breaker not
        closed, or any delivery channel disconnected), or ``"closed"``.
        Also reports queue depth vs. limit, per-reason shed counts,
        serving-thread liveness, per-shard breaker states (when the engine
        quarantines), WAL lag (appends not yet fsynced), and — when a
        delivery manager is attached — the at-least-once channel and
        dead-letter state.  This is what ``repro health`` prints.
        """
        shed = {r: int(self._m_shed[r].value) for r in _SHED_REASONS}
        breakers: Optional[Dict[str, str]] = None
        executor: Optional[Dict[str, Any]] = None
        sharded = _sharded_layer(self.matcher)
        if sharded is not None:
            states = sharded.breaker_states()
            if states is not None:
                breakers = {str(shard): state for shard, state in states.items()}
            executor = sharded.executor_health()
        delivery: Optional[Dict[str, Any]] = None
        if self.broker.delivery is not None:
            delivery = self.broker.delivery.health()
        status = "ok"
        if breakers and any(s != BREAKER_CLOSED for s in breakers.values()):
            status = "degraded"
        if delivery is not None and delivery["disconnected"]:
            # A quarantined subscriber is shedding its deliveries to the
            # DLQ; the stack is serving, but not everyone.
            status = "degraded"
        if executor is not None and executor["alive"] < executor["workers"]:
            # A dead shard worker not yet probed back to life degrades
            # the stack even before its breaker notices.
            status = "degraded"
        if self._closed:
            status = "closed"
        out: Dict[str, Any] = {
            "status": status,
            "workers": self.workers,
            "workers_alive": int(self._thread.is_alive()),
            "queue_depth": self._requests.qsize(),
            "queue_limit": self.queue_limit or 0,
            "admission": self.admission,
            "shed": shed,
            "subscriptions": len(self.matcher),
            "breakers": breakers,
            "executor": executor,
        }
        if self.broker.wal is not None:
            wal_stats = self.broker.wal.stats()
            out["wal"] = {
                "bytes": wal_stats["bytes"],
                "unsynced_appends": wal_stats["unsynced_appends"],
            }
        if delivery is not None:
            out["delivery"] = delivery
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the serving thread (idempotent); pending batches finish first.

        The thread drains everything queued ahead of the stop sentinel,
        so in-flight batches get real replies; anything that slips in
        behind the sentinel (a submit racing with close) is answered
        with :class:`ServerClosedError` instead of hanging its caller.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._requests.put(None)
        self._thread.join(timeout=10.0)
        # Drain-on-close: fail leftovers (racing submits, or requests a
        # dead serving thread never reached) rather than leaving callers
        # blocked.
        while True:
            try:
                request = self._requests.get_nowait()
            except queue.Empty:
                break
            if request is None:
                continue
            self._count_shed("closed")
            request.reply_queue.put(
                (None, 0.0, ServerClosedError("server closed before processing"))
            )

    def __enter__(self) -> "BatchServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        # Worker-loop failures are bugs, not per-request errors; surface
        # them at the context boundary unless an exception is already
        # propagating (never mask the caller's own failure).
        if self._worker_errors and exc_info[0] is None:
            raise self._worker_errors[0]
