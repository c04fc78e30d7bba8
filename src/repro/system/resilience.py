"""Overload-safe serving primitives: deadlines, retries, circuit breakers.

The paper's engine matches hundreds of events per second against
millions of subscriptions; the serving layer around it must keep doing
so *under stress* — a full queue, a slow client, a crashing shard.
This module holds the mechanisms the serving stack composes:

* **Admission policies** (:data:`ADMISSION_POLICIES`) — what a
  :class:`~repro.system.server.BatchServer` with a bounded queue does
  when the queue is full: ``block`` the producer, ``reject`` the new
  request (:class:`ServerOverloadedError`), or ``shed-oldest`` — evict
  the stalest queued request in favour of the new one (the evicted
  caller gets the overload error instead).
* **Deadlines** — requests may carry a deadline, checked when a worker
  *dequeues* them: work that expired while queued is shed with
  :class:`DeadlineExceededError` rather than matched (matching an event
  nobody is still waiting for only deepens the overload).
* **Retries** (:class:`RetryingClient`, :class:`RetryPolicy`) — capped
  exponential backoff with decorrelated jitter and a bounded retry
  budget, wrapping any server-like object's ``submit_*`` surface.
* **Circuit breakers** (:class:`CircuitBreaker`) — the classic
  closed/open/half-open state machine.  The
  :class:`~repro.system.sharding.ShardedMatcher` keeps one per shard so
  a crashing or slow shard is quarantined (skipped, its absence flagged
  by ``degraded=True`` on the :class:`PartialResults`) instead of
  poisoning every publish, and probed for recovery once its cool-down
  elapses.

Everything here is dependency-free and clock-injectable, so the chaos
suite drives every state transition deterministically under a
:class:`~repro.system.clock.VirtualClock`.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.errors import ReproError
from repro.system.clock import Clock, SystemClock

#: What a bounded server queue does when full (see module docstring).
ADMISSION_POLICIES = ("block", "reject", "shed-oldest")

#: Circuit breaker states, in increasing order of distrust.
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half-open"
BREAKER_OPEN = "open"

#: Breaker state → the numeric value of the ``repro_breaker_state``
#: gauge (0 = healthy, 2 = quarantined; half-open probes in between).
BREAKER_STATE_VALUES = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


class ServerOverloadedError(ReproError, RuntimeError):
    """A request was refused or shed because the server queue is full."""


class DeadlineExceededError(ReproError, TimeoutError):
    """A request's deadline passed before a worker started on it."""


class RetryBudgetExceededError(ReproError, RuntimeError):
    """A retrying client ran out of attempts (or wall-clock budget).

    Chains the last underlying failure as ``__cause__``.
    """


class WorkerDiedError(ReproError, RuntimeError):
    """A shard's worker process died (or stopped answering) mid-request.

    Raised by the process execution backend
    (:mod:`repro.system.procpool`) when a worker's pipe goes dead — the
    process was killed, crashed, or exceeded the pool's per-request
    timeout.  The :class:`~repro.system.sharding.ShardedMatcher` maps it
    onto the same per-shard breaker/quarantine machinery as any other
    shard failure: the breaker trips, events skip the shard (degraded
    :class:`PartialResults`), and the half-open probe respawns the
    worker and replays its subscriptions.
    """

    def __init__(self, message: str, shard: Optional[int] = None) -> None:
        super().__init__(message)
        #: Index of the shard whose worker died, when known.
        self.shard = shard


class WorkerStateError(WorkerDiedError):
    """A worker answered with a stale registry epoch.

    The parent mirrors every worker's subscription table by forwarding
    mutations through the same ordered command pipe as event batches;
    each reply carries the worker's mutation epoch so a desynchronized
    worker (a lost command, a corrupted pipe) is *detected* instead of
    silently decoding hit handles against the wrong mirror.  Treated
    exactly like a dead worker: the next use respawns and replays.
    """


class PartialResults(list):
    """A match-result list that knows whether it is complete.

    Plain ``list`` everywhere a list is expected; ``degraded`` is True
    when one or more quarantined/failed shards could not contribute
    (their indexes are in ``failed_shards``), so the ids present are
    correct but possibly not exhaustive.
    """

    degraded: bool = False
    failed_shards: Tuple[int, ...] = ()

    def __init__(
        self,
        iterable=(),
        degraded: bool = False,
        failed_shards: Tuple[int, ...] = (),
    ) -> None:
        super().__init__(iterable)
        self.degraded = degraded
        self.failed_shards = tuple(failed_shards)


class CircuitBreaker:
    """Closed → open → half-open failure isolation for one dependency.

    * **closed** — traffic flows; ``failure_threshold`` *consecutive*
      failures trip the breaker open.
    * **open** — :meth:`allow` answers False (callers skip the
      dependency) until ``reset_timeout`` seconds pass, then the next
      :meth:`allow` moves to half-open.
    * **half-open** — up to ``half_open_probes`` trial calls are let
      through; any failure re-opens (restarting the cool-down), while
      ``half_open_probes`` successes close the breaker again.

    Thread-safe; the clock is injectable (:class:`VirtualClock` in
    tests).  ``on_transition(old, new)`` fires outside hot paths on
    every state change — the sharded engine counts transitions with it.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        half_open_probes: int = 1,
        clock: Optional[Clock] = None,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure threshold must be >= 1, got {failure_threshold}")
        if reset_timeout < 0:
            raise ValueError(f"reset timeout must be >= 0, got {reset_timeout}")
        if half_open_probes < 1:
            raise ValueError(f"half-open probes must be >= 1, got {half_open_probes}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.half_open_probes = half_open_probes
        self.clock = clock if clock is not None else SystemClock()
        self.on_transition = on_transition
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        #: Lifetime counters (state transitions and decisions).
        self.counters: Dict[str, int] = {
            "failures": 0,
            "successes": 0,
            "rejections": 0,
            "opened": 0,
            "half_opened": 0,
            "closed": 0,
        }

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------
    def _transition_locked(self, new_state: str) -> Optional[Tuple[str, str]]:
        old, self._state = self._state, new_state
        if new_state == BREAKER_OPEN:
            self._opened_at = self.clock.now()
            self.counters["opened"] += 1
        elif new_state == BREAKER_HALF_OPEN:
            self._probes_in_flight = 0
            self._probe_successes = 0
            self.counters["half_opened"] += 1
        else:
            self._consecutive_failures = 0
            self.counters["closed"] += 1
        return (old, new_state) if old != new_state else None

    def _notify(self, change: Optional[Tuple[str, str]]) -> None:
        if change is not None and self.on_transition is not None:
            self.on_transition(*change)

    def _maybe_half_open_locked(self) -> Optional[Tuple[str, str]]:
        """Open → half-open once the cool-down elapsed (lazy, on read)."""
        if (
            self._state == BREAKER_OPEN
            and self.clock.now() - self._opened_at >= self.reset_timeout
        ):
            return self._transition_locked(BREAKER_HALF_OPEN)
        return None

    @property
    def state(self) -> str:
        """Current state (advances open → half-open lazily)."""
        with self._lock:
            change = self._maybe_half_open_locked()
            state = self._state
        self._notify(change)
        return state

    def allow(self) -> bool:
        """May a call proceed right now?

        Half-open admits at most ``half_open_probes`` concurrent trial
        calls; every allowed call must be answered with exactly one
        :meth:`record_success` or :meth:`record_failure`.
        """
        with self._lock:
            change = self._maybe_half_open_locked()
            if self._state == BREAKER_CLOSED:
                allowed = True
            elif self._state == BREAKER_HALF_OPEN:
                allowed = self._probes_in_flight < self.half_open_probes
                if allowed:
                    self._probes_in_flight += 1
            else:
                allowed = False
            if not allowed:
                self.counters["rejections"] += 1
        self._notify(change)
        return allowed

    def record_success(self) -> None:
        """An allowed call completed correctly."""
        with self._lock:
            self.counters["successes"] += 1
            self._consecutive_failures = 0
            change = None
            if self._state == BREAKER_HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_probes:
                    change = self._transition_locked(BREAKER_CLOSED)
        self._notify(change)

    def record_failure(self) -> None:
        """An allowed call failed (exception, or deemed too slow)."""
        with self._lock:
            self.counters["failures"] += 1
            self._consecutive_failures += 1
            change = None
            if self._state == BREAKER_HALF_OPEN:
                # A failed probe: distrust immediately, restart cool-down.
                change = self._transition_locked(BREAKER_OPEN)
            elif (
                self._state == BREAKER_CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                change = self._transition_locked(BREAKER_OPEN)
        self._notify(change)

    def force_open(self) -> None:
        """Trip the breaker administratively (manual quarantine)."""
        with self._lock:
            change = self._transition_locked(BREAKER_OPEN)
        self._notify(change)

    def reset(self) -> None:
        """Close the breaker administratively (manual heal)."""
        with self._lock:
            change = self._transition_locked(BREAKER_CLOSED)
        self._notify(change)

    def stats(self) -> Dict[str, Any]:
        """JSON-serializable breaker snapshot (same contract as matchers)."""
        state = self.state  # advances open → half-open lazily
        with self._lock:
            return {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "reset_timeout": self.reset_timeout,
                "counters": dict(self.counters),
            }


class RetryPolicy:
    """Capped exponential backoff with decorrelated jitter.

    The delay sequence follows the "decorrelated jitter" recipe: each
    sleep is drawn uniformly from ``[base_delay, prev * 3]`` and capped
    at ``max_delay``, which spreads retry storms instead of
    synchronizing them.  The budget is two-dimensional: at most
    ``max_attempts`` tries, and (optionally) at most ``budget_seconds``
    of wall-clock spent sleeping between them.
    """

    def __init__(
        self,
        max_attempts: int = 5,
        base_delay: float = 0.01,
        max_delay: float = 1.0,
        budget_seconds: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max attempts must be >= 1, got {max_attempts}")
        if base_delay < 0:
            raise ValueError(f"base delay must be >= 0, got {base_delay}")
        if max_delay < base_delay:
            raise ValueError(
                f"max delay {max_delay} must be >= base delay {base_delay}"
            )
        if budget_seconds is not None and budget_seconds < 0:
            raise ValueError(f"budget must be >= 0, got {budget_seconds}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.budget_seconds = budget_seconds
        self.rng = rng if rng is not None else random.Random()

    def delays(self) -> Iterator[float]:
        """The backoff sequence: one delay per *retry* (attempts - 1)."""
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            delay = min(
                self.max_delay, self.rng.uniform(self.base_delay, max(delay, self.base_delay) * 3)
            )
            yield delay


class RetryingClient:
    """Wrap a server's ``submit_*`` surface with bounded retries.

    Retries only the failures that retrying can fix (overload sheds by
    default; pass ``retry_on`` to widen), re-raising everything else —
    a :class:`DuplicateSubscriptionError` will never succeed on attempt
    two, so it must not consume budget.  When the budget runs out a
    :class:`RetryBudgetExceededError` chains the last failure.

    ``sleep`` is injectable so tests observe the backoff sequence in
    virtual time.
    """

    def __init__(
        self,
        server: Any,
        policy: Optional[RetryPolicy] = None,
        retry_on: Tuple[type, ...] = (ServerOverloadedError,),
        sleep: Callable[[float], None] = time.sleep,
        time_source: Callable[[], float] = time.monotonic,
    ) -> None:
        self.server = server
        self.policy = policy if policy is not None else RetryPolicy()
        self.retry_on = retry_on
        self.sleep = sleep
        self.time_source = time_source
        #: Lifetime counters across all submissions.
        self.counters: Dict[str, int] = {"attempts": 0, "retries": 0, "exhausted": 0}

    # ------------------------------------------------------------------
    # the retry loop
    # ------------------------------------------------------------------
    def _call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        policy = self.policy
        started = self.time_source()
        delays = policy.delays()
        attempt = 0
        while True:
            attempt += 1
            self.counters["attempts"] += 1
            try:
                return getattr(self.server, method)(*args, **kwargs)
            except self.retry_on as exc:
                delay = next(delays, None)
                if delay is None:
                    self.counters["exhausted"] += 1
                    raise RetryBudgetExceededError(
                        f"{method} failed after {attempt} attempts"
                    ) from exc
                if (
                    policy.budget_seconds is not None
                    and self.time_source() - started + delay > policy.budget_seconds
                ):
                    self.counters["exhausted"] += 1
                    raise RetryBudgetExceededError(
                        f"{method} exceeded its {policy.budget_seconds}s retry "
                        f"budget after {attempt} attempts"
                    ) from exc
                self.counters["retries"] += 1
                self.sleep(delay)

    # ------------------------------------------------------------------
    # the submit surface (mirrors BatchServer)
    # ------------------------------------------------------------------
    def submit_subscriptions(self, batch, **kwargs: Any) -> Any:
        """Insert a subscription batch, retrying on overload."""
        return self._call("submit_subscriptions", batch, **kwargs)

    def submit_unsubscriptions(self, sub_ids, **kwargs: Any) -> Any:
        """Remove a batch of subscriptions by id, retrying on overload."""
        return self._call("submit_unsubscriptions", sub_ids, **kwargs)

    def submit_events(self, batch, **kwargs: Any) -> Any:
        """Match an event batch, retrying on overload."""
        return self._call("submit_events", batch, **kwargs)

    def stats(self) -> Dict[str, Any]:
        """Client-side retry counters."""
        return {
            "name": "retrying-client",
            "max_attempts": self.policy.max_attempts,
            "counters": dict(self.counters),
        }
