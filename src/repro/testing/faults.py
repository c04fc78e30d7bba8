"""Public fault-injection toolkit: broken files, crashes, sick matchers.

Chaos tests and users share one harness.  Complementary failure
models:

* :class:`FaultyFile` — a wrapper file object that silently *drops*,
  *truncates* (partial write) or *garbles* everything written after the
  first N bytes, while reporting success to the writer — the way a
  kernel page cache lies to an application when the machine dies before
  writeback.  Inject it through the :class:`~repro.system.wal.WriteAheadLog`
  ``opener`` parameter.
* :class:`SimulatedCrash` + :func:`crash_at` — a broker ``crash_hook``
  that raises at one named crash point (e.g. ``"subscribe:pre-log"``),
  modeling a process death between applying a mutation and journaling
  it.
* :class:`FlakyMatcher` — a matcher wrapper whose listed operations
  raise :class:`InjectedFault` while a failure budget lasts, modeling a
  crashing shard; the budget makes recovery testable (the shard "heals"
  once the budget is spent, or never, with an infinite budget).
* :class:`SlowMatcher` — a matcher wrapper that sleeps before
  delegating, modeling a degraded/overloaded shard or a matcher that
  keeps a server worker busy long enough for its queue to fill.
* :class:`CrashySubscriber` / :class:`StallingSubscriber` — delivery
  sinks for the at-least-once layer
  (:mod:`repro.system.delivery`): one raises from ``deliver`` while a
  failure budget lasts (a subscriber crashing mid-burst, healing after
  N crashes), the other receives but stops acking past a threshold (a
  subscriber stalled past its deadline) — the two failure modes
  redelivery and slow-consumer isolation exist for.
* :class:`KillableWorker` + :func:`killable_worker` — a matcher wrapper
  that SIGKILLs **its own process** at the Nth listed operation,
  modeling a shard worker dying mid-request under the process executor
  (``executor="process"``).  A filesystem latch makes the kill one-shot:
  the first worker constructed against the latch path arms and dies;
  the respawned worker finds the latch already present and stays
  disarmed, so chaos tests re-converge deterministically.

The matcher wrappers override only ``MatcherWrapper._around`` (fail or
stall *before* the call, die *after* it; a batch is one ``"match"``).

Fault-file damage leaves real bytes on disk for recovery to chew on,
which is the point: the property suite asserts that *whatever* the
damage, recovery yields a prefix-consistent subscription set.  The
matcher wrappers leave a real engine underneath, which is equally the
point: the chaos suite asserts that *whatever* the fault pattern, the
healthy part of the system keeps returning correct results.
"""

from __future__ import annotations

import math
import os
import signal
import time
from typing import IO, Any, Callable, List, Optional, Sequence

from repro.core.matcher import Matcher, MatcherWrapper

#: Supported damage models for writes past the byte budget.
FAULT_MODES = ("drop", "truncate", "garble")

#: Matcher operations the sick-matcher wrappers can target.
MATCHER_OPS = ("add", "remove", "match")


class SimulatedCrash(RuntimeError):
    """Raised by an injected crash hook; carries the crash point name."""


class InjectedFault(RuntimeError):
    """Raised by :class:`FlakyMatcher` while its failure budget lasts."""


def crash_at(point: str):
    """A broker ``crash_hook`` that dies at the named crash point."""

    def hook(reached: str) -> None:
        if reached == point:
            raise SimulatedCrash(point)

    return hook


class FaultyFile:
    """A text-file wrapper whose writes start failing after N bytes.

    Modes (all report full success to the writer):

    * ``drop`` — the write that would cross the budget, and every write
      after it, vanishes entirely (damage lands on a line boundary);
    * ``truncate`` — the crossing write lands partially, then nothing
      (a torn line mid-record);
    * ``garble`` — the crossing write lands with its tail replaced by
      junk bytes, then nothing (a corrupted record, newline included).
    """

    def __init__(self, inner: IO[str], fail_after: int, mode: str = "truncate") -> None:
        if mode not in FAULT_MODES:
            raise ValueError(f"unknown fault mode {mode!r}; known: {FAULT_MODES}")
        if fail_after < 0:
            raise ValueError(f"fail_after must be >= 0, got {fail_after}")
        self.inner = inner
        self.fail_after = fail_after
        self.mode = mode
        self.written = 0
        self.faulted = False

    def write(self, text: str) -> int:
        budget = self.fail_after - self.written
        if not self.faulted and len(text) <= budget:
            self.inner.write(text)
            self.written += len(text)
            return len(text)
        # This write crosses the budget (or we already faulted).
        if not self.faulted:
            self.faulted = True
            head = text[:budget]
            if self.mode == "truncate":
                self.inner.write(head)
            elif self.mode == "garble":
                self.inner.write(head + "#" * (len(text) - budget))
            # drop: nothing of the crossing write lands
            self.written = self.fail_after
        return len(text)  # the lie every buffered write tells

    # -- transparent proxies ------------------------------------------------
    def flush(self) -> None:
        self.inner.flush()

    def fileno(self) -> int:
        return self.inner.fileno()

    def close(self) -> None:
        self.inner.close()

    @property
    def closed(self) -> bool:
        return self.inner.closed

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def faulty_opener(fail_after: int, mode: str = "truncate"):
    """An ``opener`` for :class:`~repro.system.wal.WriteAheadLog` whose
    files fail after *fail_after* bytes (budget counted per open)."""

    def opener(path: str, file_mode: str) -> FaultyFile:
        return FaultyFile(
            open(path, file_mode, encoding="utf-8"), fail_after, mode=mode
        )

    return opener


def _check_ops(operations: Sequence[str]) -> tuple:
    ops = tuple(operations)
    unknown = [op for op in ops if op not in MATCHER_OPS]
    if unknown:
        raise ValueError(f"unknown matcher operations {unknown}; known: {MATCHER_OPS}")
    return ops


class FlakyMatcher(MatcherWrapper):
    """A matcher whose listed operations fail while a budget lasts.

    ``failures`` is the number of injected faults before the matcher
    heals (``math.inf`` for a permanently broken matcher); ``rearm``
    restocks the budget mid-test so quarantine → heal → relapse cycles
    can be driven deterministically.  Faults are raised *before* the
    inner engine is touched, so a failed ``add``/``remove`` leaves no
    partial state behind.
    """

    def __init__(
        self,
        inner: Matcher,
        failures: float = math.inf,
        operations: Sequence[str] = ("match",),
        exc_factory: Callable[[str], Exception] = None,
    ) -> None:
        super().__init__(inner)
        self.rearm(failures)
        self.operations = _check_ops(operations)
        self.exc_factory = exc_factory or (
            lambda op: InjectedFault(f"injected {op} fault")
        )
        #: Faults injected so far (never reset by :meth:`rearm`).
        self.injected = 0

    def rearm(self, failures: float = math.inf) -> None:
        """Restock the failure budget (relapse after healing)."""
        if failures < 0:
            raise ValueError(f"failure budget must be >= 0, got {failures}")
        self.failures = failures

    @property
    def healed(self) -> bool:
        """True once the failure budget is spent."""
        return self.failures <= 0

    def _around(self, op: str, call: Callable[..., Any], *args: Any) -> Any:
        if op in self.operations and self.failures > 0:
            self.failures -= 1
            self.injected += 1
            raise self.exc_factory(op)
        return call(*args)


class SlowMatcher(MatcherWrapper):
    """A matcher that sleeps before delegating the listed operations.

    ``sleep`` is injectable so virtual-time tests can observe the delay
    without paying it; the default is real :func:`time.sleep`, which is
    what overload tests want (a busy worker, a filling queue).
    """

    def __init__(
        self,
        inner: Matcher,
        delay: float = 0.01,
        operations: Sequence[str] = ("match",),
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(inner)
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.delay = delay
        self.operations = _check_ops(operations)
        self.sleep = sleep
        #: Operations delayed so far.
        self.delayed = 0

    def _around(self, op: str, call: Callable[..., Any], *args: Any) -> Any:
        if op in self.operations and self.delay > 0:
            self.delayed += 1
            self.sleep(self.delay)
        return call(*args)


class KillableWorker(MatcherWrapper):
    """A matcher that SIGKILLs its own process at the Nth listed op.

    The real-death counterpart of :class:`FlakyMatcher`: instead of
    raising a catchable exception it takes the whole worker process
    down, the way an OOM kill or a segfault would — the failure mode the
    process executor's chaos suite must survive (degraded
    ``PartialResults``, breaker quarantine, respawn-and-replay).

    ``die_at`` counts listed operations (1-based: ``die_at=3`` dies on
    the third); a ``match_batch`` counts as one "match", and the kill
    fires *after* the inner engine has matched — mid-request from the
    parent's point of view, so the reply is genuinely lost in flight.

    Two guards make the chaos deterministic:

    * ``guard_pid`` — if the wrapper finds itself running in that
      process (normally the test process, captured by
      :func:`killable_worker`), it raises :class:`InjectedFault` instead
      of killing, so a mis-wired test dies loudly rather than killing
      the pytest run.
    * ``latch_path`` — armed only by the construction that *creates*
      the latch file (``O_CREAT | O_EXCL``).  The first worker spawned
      from the factory arms and eventually dies; the respawned worker
      finds the latch present, stays disarmed, and serves forever.
    """

    def __init__(
        self,
        inner: Matcher,
        die_at: int = 1,
        operations: Sequence[str] = ("match",),
        guard_pid: Optional[int] = None,
        latch_path: Optional[str] = None,
    ) -> None:
        super().__init__(inner)
        if die_at < 1:
            raise ValueError(f"die_at counts operations from 1, got {die_at}")
        self.die_at = die_at
        self.operations = _check_ops(operations)
        self.guard_pid = guard_pid
        self.armed = True
        if latch_path is not None:
            try:
                os.close(os.open(latch_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                self.armed = False
        #: Listed operations seen so far (survives disarming).
        self.seen = 0

    def _around(self, op: str, call: Callable[..., Any], *args: Any) -> Any:
        out = call(*args)
        if op in self.operations:
            self.seen += 1
            if self.armed and self.seen >= self.die_at:
                if self.guard_pid is not None and os.getpid() == self.guard_pid:
                    raise InjectedFault(
                        f"KillableWorker reached its {op} kill point inside "
                        f"the guarded process {self.guard_pid} (not a worker) "
                        "— refusing to SIGKILL it"
                    )
                os.kill(os.getpid(), signal.SIGKILL)
        return out


class CrashySubscriber:
    """A delivery sink that raises while a failure budget lasts.

    The subscriber-side counterpart of :class:`FlakyMatcher`: hand it to
    :meth:`~repro.system.delivery.DeliveryManager.register` as the
    ``sink``.  While ``failures`` last, every ``deliver`` raises (one
    failed send attempt, charged against the channel's retry budget);
    once the budget is spent the subscriber "heals" and starts
    recording — and, when constructed with a *manager*, acking — its
    notifications.  ``rearm`` restocks the budget for crash → heal →
    relapse schedules.
    """

    def __init__(
        self,
        failures: float = math.inf,
        manager: Any = None,
        exc_factory: Callable[[Any], Exception] = None,
    ) -> None:
        self.rearm(failures)
        self.manager = manager
        self.exc_factory = exc_factory or (
            lambda n: InjectedFault(f"subscriber crashed delivering seq {n.seq}")
        )
        #: Notifications accepted (post-heal deliveries), in order.
        self.received: List[Any] = []
        #: Deliveries refused so far (never reset by :meth:`rearm`).
        self.crashes = 0

    def rearm(self, failures: float = math.inf) -> None:
        """Restock the failure budget (relapse after healing)."""
        if failures < 0:
            raise ValueError(f"failure budget must be >= 0, got {failures}")
        self.failures = failures

    @property
    def healed(self) -> bool:
        """True once the failure budget is spent."""
        return self.failures <= 0

    def deliver(self, notification: Any) -> None:
        if self.failures > 0:
            self.failures -= 1
            self.crashes += 1
            raise self.exc_factory(notification)
        self.received.append(notification)
        if self.manager is not None and notification.seq is not None:
            self.manager.ack(notification.sub_id, notification.seq)

    __call__ = deliver

    def seqs(self) -> List[Any]:
        """Sequence numbers of everything accepted (ack-set checks)."""
        return [n.seq for n in self.received]


class StallingSubscriber:
    """A delivery sink that receives but stops acking past a threshold.

    Models the slow consumer: deliveries always *succeed* (the sink
    never raises), but after ``stall_after`` notifications the
    subscriber stops acknowledging — its channel's in-flight window
    fills, ack timeouts fire, and the overflow policy decides its fate.
    ``resume()`` un-stalls it **and acks everything received while
    stalled**, so tests can drive stall → isolate → recover end to end.
    """

    def __init__(
        self, manager: Any, sub_id: Any, stall_after: float = 0
    ) -> None:
        if stall_after < 0:
            raise ValueError(f"stall_after must be >= 0, got {stall_after}")
        self.manager = manager
        self.sub_id = sub_id
        self.stall_after = stall_after
        #: Every notification received, stalled or not, in order.
        self.received: List[Any] = []
        #: Received-but-unacked notifications (drained by resume()).
        self.unacked: List[Any] = []

    @property
    def stalled(self) -> bool:
        """True once the ack threshold has been crossed."""
        return len(self.received) >= self.stall_after

    def deliver(self, notification: Any) -> None:
        stalled = self.stalled  # threshold check *before* this delivery
        self.received.append(notification)
        if notification.seq is None:
            return
        if stalled:
            self.unacked.append(notification)
        else:
            self.manager.ack(notification.sub_id, notification.seq)

    __call__ = deliver

    def resume(self) -> int:
        """Stop stalling and ack the backlog; returns acks issued."""
        self.stall_after = math.inf
        acked = 0
        backlog, self.unacked = self.unacked, []
        for notification in backlog:
            if self.manager.ack(notification.sub_id, notification.seq):
                acked += 1
        return acked

    def seqs(self) -> List[Any]:
        """Sequence numbers of everything received (dedup checks)."""
        return [n.seq for n in self.received]


def killable_worker(
    build: Callable[[], Matcher],
    die_at: int = 1,
    operations: Sequence[str] = ("match",),
    latch_path: Optional[str] = None,
):
    """A shard factory whose first-spawned worker dies at the Nth op.

    Wraps *build*'s matcher in a :class:`KillableWorker`, capturing the
    **calling** process's pid as the guard — so the factory is safe to
    hand to ``ShardedMatcher(executor="process", inner=...)``: only a
    forked worker ever actually dies.  Pass a ``latch_path`` (a file
    name in a test tmpdir) to make the kill one-shot across respawns.
    """
    parent_pid = os.getpid()

    def factory() -> Matcher:
        return KillableWorker(
            build(),
            die_at=die_at,
            operations=operations,
            guard_pid=parent_pid,
            latch_path=latch_path,
        )

    return factory
