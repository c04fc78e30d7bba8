"""At-least-once delivery: acked subscriber channels over match results.

The paper's system "sends the event to the owners of subscriptions
satisfied by those events".  The plain :mod:`repro.system.notifier`
sinks do that fire-and-forget: a crashed or slow subscriber silently
loses notifications.  This module is the hardened last hop — a
:class:`DeliveryManager` that turns each matched ``(sub_id, event)``
pair into a leased, acknowledged delivery on a per-subscriber
:class:`SubscriberChannel`:

* **At-least-once** — every dispatched notification stays in the
  channel's in-flight window until the subscriber acknowledges it
  (:meth:`DeliveryManager.ack`).  An unacked delivery is re-sent after
  its ``ack_timeout``, with jittered backoff between attempts
  (re-using :class:`~repro.system.resilience.RetryPolicy`).
* **Dead-lettering** — a notification that exhausts its per-channel
  retry budget moves to the :class:`DeadLetterQueue`, inspectable
  (``repro dlq``) and re-drivable (:meth:`DeliveryManager.redrive`)
  instead of silently lost.
* **Slow-consumer isolation** — each channel bounds its outstanding
  window (``capacity``) under a pluggable overflow policy
  (:data:`OVERFLOW_POLICIES`): ``block`` the publisher (bounded by
  ``block_timeout``, then :class:`ChannelOverflowError`),
  ``shed-oldest`` (evict the stalest outstanding delivery, counted),
  or ``disconnect`` (dead-letter everything and detach the channel) —
  so one stuck subscriber cannot stall the broker or grow its memory
  without bound.
* **Crash safety** — when a :class:`~repro.system.wal.WriteAheadLog`
  is attached, every dispatch appends a ``deliver`` record *before*
  the send attempt and every settlement (ack / shed / dead-letter / redriven)
  appends a ``settle`` record, so
  :func:`repro.system.recovery.recover` re-queues exactly the unacked
  in-flight notifications after a crash (see :class:`DeliveryLedger`).

Delivery is *pull-driven and clock-injectable*: nothing here spawns a
thread.  Redeliveries fire when :meth:`DeliveryManager.pump` runs —
the broker pumps lazily on every ``publish`` (the same pattern as its
lazy ttl expiry), and tests drive the whole lifecycle deterministically
under a :class:`~repro.system.clock.VirtualClock`.

Channels come in two flavours:

* **push** — ``register(sub_id, sink=...)`` with a sink (a
  :class:`~repro.system.notifier.Notifier` or a plain callable): the
  channel calls the sink on dispatch and on every redelivery; a sink
  that raises counts as a failed attempt.  ``auto_ack=True`` acks on
  sink success (at-most-once-style convenience with full accounting).
* **pull** — ``register(sub_id)`` without a sink: the subscriber
  leases due deliveries with :meth:`DeliveryManager.poll` and acks
  them explicitly (the SQS/visibility-timeout shape).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from collections.abc import Hashable
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

import time

from repro.core.errors import ReproError, id_repr
from repro.obs.registry import Instrumented, MetricsRegistry
from repro.system.clock import Clock, SystemClock
from repro.system.notifier import Notification, Sink, _as_callable
from repro.system.resilience import RetryPolicy

if TYPE_CHECKING:  # runtime import would be circular (wal ← delivery)
    from repro.system.wal import WriteAheadLog

#: What a full channel does with new work (see module docstring).
OVERFLOW_POLICIES = ("block", "shed-oldest", "disconnect")

#: Why a notification can be settled without an ack.
SETTLE_OUTCOMES = ("ack", "shed", "dead-letter", "redriven")

#: Reasons carried by dead letters.
DEAD_LETTER_REASONS = ("budget", "disconnected")

class DeliveryError(ReproError, RuntimeError):
    """Base class for delivery-layer failures."""


class UnknownChannelError(DeliveryError, KeyError):
    """An operation named a subscriber with no registered channel."""


class ChannelOverflowError(DeliveryError):
    """A ``block`` channel stayed full past its ``block_timeout``."""


@dataclasses.dataclass(slots=True, eq=False)
class Lease:
    """One outstanding (dispatched, not yet settled) notification."""

    seq: int
    notification: Notification
    #: Send attempts so far (0 = never handed to the subscriber yet).
    attempts: int = 0
    enqueued_at: float = 0.0
    #: When the lease next needs attention: a pending lease becomes
    #: sendable, an in-flight lease's ack deadline passes.
    due_at: float = 0.0
    #: The policy its backoff is drawn from (None for a lease parked
    #: without a channel: its first failed attempt dead-letters it).
    retry: Optional[RetryPolicy] = dataclasses.field(default=None, repr=False)
    #: Remaining backoff delays (one per allowed re-send), drawn from
    #: ``retry`` at the first retry — most leases never need one.
    delays: Optional[Iterator[float]] = dataclasses.field(default=None, repr=False)
    #: Handed to the subscriber and awaiting its ack; otherwise pending
    #: (waiting for its first send, a poll, or a backoff to elapse).
    inflight: bool = False


@dataclasses.dataclass(frozen=True)
class DeadLetter:
    """One notification that could not be delivered."""

    sub_id: Any
    seq: int
    notification: Notification
    #: Why it ended here (one of :data:`DEAD_LETTER_REASONS`).
    reason: str
    #: Send attempts made before giving up.
    attempts: int
    #: Manager-clock time of the dead-lettering.
    at: float

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the ``repro dlq`` output)."""
        return {
            "sub": self.sub_id,
            "seq": self.seq,
            "reason": self.reason,
            "attempts": self.attempts,
            "at": self.at,
            "event": dict(self.notification.event.items()),
        }


class DeadLetterQueue:
    """Where notifications land after their retry budget is spent.

    Append-only from the channels' side; :meth:`take` removes entries
    for re-driving.  Iteration order is arrival order.
    """

    def __init__(self) -> None:
        self._entries: List[DeadLetter] = []
        self._lock = threading.Lock()

    def append(self, entry: DeadLetter) -> None:
        with self._lock:
            self._entries.append(entry)

    def entries(self, sub_id: Any = None) -> List[DeadLetter]:
        """A snapshot of the queue (optionally one subscriber's slice)."""
        with self._lock:
            if sub_id is None:
                return list(self._entries)
            return [e for e in self._entries if e.sub_id == sub_id]

    def take(self, sub_id: Any = None, limit: Optional[int] = None) -> List[DeadLetter]:
        """Remove and return up to *limit* entries (for re-driving)."""
        with self._lock:
            taken: List[DeadLetter] = []
            kept: List[DeadLetter] = []
            for entry in self._entries:
                if (sub_id is None or entry.sub_id == sub_id) and (
                    limit is None or len(taken) < limit
                ):
                    taken.append(entry)
                else:
                    kept.append(entry)
            self._entries = kept
            return taken

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[DeadLetter]:
        return iter(self.entries())

    def stats(self) -> Dict[str, Any]:
        """Unified stats shape (same contract as the matchers)."""
        with self._lock:
            by_reason: Dict[str, int] = {}
            for entry in self._entries:
                by_reason[entry.reason] = by_reason.get(entry.reason, 0) + 1
            return {
                "name": "dead-letter-queue",
                "entries": len(self._entries),
                "counters": {f"reason_{k}": v for k, v in sorted(by_reason.items())},
            }


@dataclasses.dataclass(frozen=True, slots=True)
class _ChannelPolicy:
    """A channel's knobs (see :class:`DeliveryManager`).  Immutable, so
    every channel registered with the manager's defaults shares one; an
    override builds a new one through the same checks."""

    ack_timeout: float
    retry: RetryPolicy
    capacity: Optional[int]
    overflow: str
    block_timeout: float

    def __post_init__(self) -> None:
        if self.overflow not in OVERFLOW_POLICIES:
            raise DeliveryError(
                f"unknown overflow policy {self.overflow!r}; "
                f"known: {', '.join(OVERFLOW_POLICIES)}"
            )
        if self.ack_timeout <= 0:
            raise DeliveryError(f"ack timeout must be positive, got {self.ack_timeout}")
        if self.capacity is not None and self.capacity < 1:
            raise DeliveryError(f"channel capacity must be >= 1, got {self.capacity}")
        if self.block_timeout < 0:
            raise DeliveryError(f"block timeout must be >= 0, got {self.block_timeout}")

    def updated(
        self,
        ack_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        capacity: Optional[int] = None,
        overflow: Optional[str] = None,
        block_timeout: Optional[float] = None,
    ) -> "_ChannelPolicy":
        """This policy with every non-None knob applied (itself when
        that changes nothing)."""
        if ack_timeout is retry is capacity is overflow is block_timeout is None:
            return self
        knobs = {
            "ack_timeout": ack_timeout,
            "retry": retry,
            "capacity": capacity,
            "overflow": overflow,
            "block_timeout": block_timeout,
        }
        changed = {k: v for k, v in knobs.items() if v is not None and v != getattr(self, k)}
        return dataclasses.replace(self, **changed) if changed else self


#: Per-channel lifetime counters (int slots); the manager's totals sum them.
_COUNTER_KEYS = (
    "dispatched",
    "delivered",
    "redeliveries",
    "acks",
    "unknown_acks",
    "shed",
    "dead_lettered",
    "send_errors",
)

#: Every empty window: one shared read-only mapping, so an idle channel
#: owns no dict.  ``_rest`` swaps a real one in; ``_close`` puts this
#: back when the last lease leaves.
_EMPTY_WINDOW: Mapping[int, Lease] = MappingProxyType({})


class SubscriberChannel:
    """One subscriber's acked delivery window.

    Not constructed directly — :meth:`DeliveryManager.register` creates
    and owns channels; all mutation happens under the manager's lock.
    """

    __slots__ = (
        "sub_id", "_sink", "_policy", "auto_ack", "connected", "_window", "_next_seq",
        *_COUNTER_KEYS,
    )  # fmt: skip

    def __init__(
        self, sub_id: Any, sink: Optional[Sink], policy: _ChannelPolicy, auto_ack: bool
    ) -> None:
        self.sub_id = sub_id
        self._sink = _as_callable(sink)
        self._policy = policy
        self.auto_ack = auto_ack
        self.connected = True
        #: Every unsettled lease, by seq; pending or in flight is on the
        #: lease.  A state change re-inserts it at the back, so the
        #: leases of one state read in the order they entered it:
        #: pendings in send-queue order, in-flights in lease-out order.
        self._window: Mapping[int, Lease] = _EMPTY_WINDOW
        self._next_seq = 0
        self.dispatched = self.delivered = self.redeliveries = self.acks = 0
        self.unknown_acks = self.shed = self.dead_lettered = self.send_errors = 0

    @property
    def counters(self) -> Dict[str, int]:
        """A snapshot of the lifetime counters (the hot path writes the
        slots: ``channel.acks += 1``)."""
        return {key: getattr(self, key) for key in _COUNTER_KEYS}

    # -- sizing ---------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Unsettled leases (pending + in-flight)."""
        return len(self._window)

    def __len__(self) -> int:
        return self.outstanding

    # -- internals (called by the manager, under its lock) --------------
    def _rest(self, lease: Lease, inflight: bool) -> None:
        """Put *lease* at the back of the window in the given state (the
        window's only writer; the manager's close step is its only remover)."""
        if self._window is _EMPTY_WINDOW:
            self._window = {}
        else:
            self._window.pop(lease.seq, None)
        self._window[lease.seq] = lease
        lease.inflight = inflight
        if lease.seq >= self._next_seq:  # a recovered lease: never reissue its seq
            self._next_seq = lease.seq + 1

    def _leases(self, inflight: bool) -> List[Lease]:
        """A snapshot of the leases in one state, in the order they
        entered it (safe to settle or re-rest while walking it)."""
        return [lease for lease in self._window.values() if lease.inflight is inflight]

    def _in_order(self) -> List[Lease]:
        """Every lease, pendings first: the order a drain settles them."""
        return self._leases(False) + self._leases(True)

    def _oldest(self) -> Optional[Lease]:
        """The stalest outstanding lease (pending preferred — never
        handed out is cheaper to lose than a lease a subscriber may be
        mid-processing)."""
        leases = self._window.values()
        return next(
            (lease for lease in leases if not lease.inflight), next(iter(leases), None)
        )

    def stats(self) -> Dict[str, Any]:
        """JSON-serializable channel snapshot."""
        oldest = self._oldest()
        inflight = len(self._leases(True))
        return {
            "sub": self.sub_id,
            "mode": "push" if self._sink is not None else "pull",
            "connected": self.connected,
            "pending": len(self._window) - inflight,
            "inflight": inflight,
            "capacity": self._policy.capacity,
            "overflow": self._policy.overflow,
            "oldest_seq": None if oldest is None else oldest.seq,
            "counters": self.counters,
        }


class DeliveryManager(Instrumented):
    """At-least-once fan-out from match results to subscriber channels.

    Thread-safe (one re-entrant lock; ``block`` overflow waits on a
    condition that acks/polls/settlements notify).  Clock-injectable
    and WAL-optional; with neither, it is a purely in-memory acked
    delivery layer.

    Constructor arguments are the per-channel *defaults*;
    :meth:`register` can override each per subscriber.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        wal: Optional["WriteAheadLog"] = None,
        ack_timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        capacity: Optional[int] = None,
        overflow: str = "shed-oldest",
        block_timeout: float = 5.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        retry = retry if retry is not None else RetryPolicy()
        #: The defaults, shared by every channel that overrides none.
        self._policy = _ChannelPolicy(ack_timeout, retry, capacity, overflow, block_timeout)
        self.clock = clock if clock is not None else SystemClock()
        self.wal = wal
        self.dead_letters = DeadLetterQueue()
        self._channels: Dict[Any, SubscriberChannel] = {}
        #: Running count of unsettled leases (channels + orphans) — the
        #: publish hot path must not rescan every channel per dispatch.
        self._outstanding_total = 0
        #: Earliest moment any lease needs pump attention (a pending
        #: push-mode backoff elapsing or an in-flight ack deadline).
        #: Invariant: never later than the true next due time, so a
        #: stale watermark costs one wasted scan, never a missed one.
        self._next_due = float("inf")
        #: Unacked leases recovered for subscribers with no channel yet;
        #: drained into the channel the moment one registers.
        self._orphans: Dict[Any, List[Lease]] = {}
        self._seq_floor: Dict[Any, int] = {}
        #: Counters of channels that have unregistered: ``stats()`` totals
        #: are lifetime totals, so a departure must not shrink them.
        self._departed: Dict[str, int] = dict.fromkeys(_COUNTER_KEYS, 0)
        #: The totals :meth:`check_invariants` last saw (they never shrink).
        self._totals_checked: Dict[str, int] = {}
        self._lock = threading.RLock()
        self._space = threading.Condition(self._lock)
        #: Fault-injection hook (tests): called with a named crash point
        #: around journaling steps; raising simulates a crash there.
        self.crash_hook: Optional[Callable[[str], None]] = None
        # Delivery is I/O-shaped (one update per notification, not per
        # predicate), so a live registry is the default — same reasoning
        # as the WAL and the sharded fan-out layer.
        self.use_metrics(metrics)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _bind_metrics(self) -> None:
        m = self.metrics
        m.gauge(
            "repro_delivery_inflight",
            "Unacked notifications outstanding across all channels.",
        ).read(self, lambda: self.inflight)
        m.gauge(
            "repro_delivery_channels", "Registered subscriber channels."
        ).read(self, lambda: len(self._channels))
        m.counter(
            "repro_delivery_redeliveries_total",
            "Notification re-sends after an ack timeout or a sink error.",
        ).read(self, lambda: self._total("redeliveries"))
        dead = m.counter(
            "repro_delivery_dead_lettered_total",
            "Notifications moved to the dead-letter queue, by reason.",
            ("reason",),
        )
        self._m_dead = {r: dead.labels(reason=r) for r in DEAD_LETTER_REASONS}
        m.counter(
            "repro_delivery_acks_total", "Notifications acknowledged by subscribers."
        ).read(self, lambda: self._total("acks"))
        m.counter(
            "repro_delivery_shed_total",
            "Notifications shed by full channels (overflow=shed-oldest).",
        ).read(self, lambda: self._total("shed"))

    def _wake_at(self, when: float) -> None:
        """Lower the pump watermark to *when* (a new due time)."""
        if when < self._next_due:
            self._next_due = when

    # ------------------------------------------------------------------
    # journaling
    # ------------------------------------------------------------------
    def _crash_point(self, name: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(name)

    def _journal_deliver(self, sub_id: Any, seq: int, event: Any, at: float) -> None:
        if self.wal is not None:
            self._crash_point("deliver:pre-log")
            self.wal.append_deliver(sub_id, seq, event, at=at)
            self._crash_point("deliver:post-log")

    def _journal_settle(
        self, sub_id: Any, seq: int, outcome: str, reason: Optional[str], attempts: int
    ) -> None:
        if self.wal is not None:
            self._crash_point("settle:pre-log")
            self.wal.append_settle(
                sub_id,
                seq,
                outcome,
                reason=reason,
                attempts=attempts,
                at=self.clock.now(),
            )
            self._crash_point("settle:post-log")

    # ------------------------------------------------------------------
    # channel lifecycle
    # ------------------------------------------------------------------
    def register(
        self,
        sub_id: Any,
        sink: Optional[Sink] = None,
        auto_ack: bool = False,
        ack_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        capacity: Optional[int] = None,
        overflow: Optional[str] = None,
        block_timeout: Optional[float] = None,
    ) -> SubscriberChannel:
        """Create (or reconnect) the channel for *sub_id*.

        Re-registering an existing subscriber replaces its sink and
        knobs and reconnects a ``disconnect``-ed channel; its
        outstanding leases and sequence numbering are preserved.  Any
        unacked deliveries recovered for *sub_id* before it registered
        (crash recovery) are queued for redelivery immediately.  The
        knobs go through the constructor's checks; ``overflow``, left
        out of a re-register, reverts to the manager's default.
        """
        with self._lock:
            channel = self._channels.get(sub_id)
            if channel is None:
                # With no knob given, the manager's own policy object.
                policy = self._policy.updated(ack_timeout, retry, capacity, overflow, block_timeout)
                channel = SubscriberChannel(sub_id, sink, policy, auto_ack)
                channel._next_seq = self._seq_floor.get(sub_id, 0)
                self._channels[sub_id] = channel
            else:
                policy = channel._policy.updated(
                    ack_timeout,
                    retry,
                    capacity,
                    self._policy.overflow if overflow is None else overflow,
                    block_timeout,
                )
                channel._sink = _as_callable(sink)
                channel._policy = policy
                channel.auto_ack = auto_ack
                channel.connected = True
                if channel._sink is not None:
                    # Pendings queued while this was a pull channel never
                    # lowered the pump watermark.
                    for lease in channel._leases(inflight=False):
                        self._wake_at(lease.due_at)
            orphans = self._orphans.pop(sub_id, None)
            if orphans:
                now = self.clock.now()
                for lease in orphans:
                    # Opened (built and counted) when restore() parked it.
                    self._queue(channel, lease, now)  # re-send as soon as something pumps
            return channel

    def unregister(self, sub_id: Any, dead_letter: bool = True) -> int:
        """Detach *sub_id*'s channel; returns its outstanding count.

        With ``dead_letter=True`` (default) every outstanding lease is
        dead-lettered with reason ``disconnected`` (re-drivable after a
        re-register); otherwise they are dropped silently — uncounted,
        but settled ``shed`` in the log so recovery does not bring them
        back.
        """
        with self._lock:
            channel = self.channel(sub_id)
            if dead_letter:
                dropped = self._drain(channel, "dead-letter", "disconnected")
            else:
                dropped = self._drain(channel, "drop")
            del self._channels[sub_id]
            self._seq_floor[sub_id] = channel._next_seq
            for key, value in channel.counters.items():
                self._departed[key] += value
            return dropped

    def channel(self, sub_id: Any) -> SubscriberChannel:
        """The channel registered for *sub_id* (:class:`UnknownChannelError`
        when there is none)."""
        with self._lock:
            try:
                return self._channels[sub_id]
            except KeyError:
                raise UnknownChannelError(sub_id) from None

    def channels(self) -> List[SubscriberChannel]:
        """A snapshot of every registered channel."""
        with self._lock:
            return list(self._channels.values())

    def handles(self, sub_id: Any) -> bool:
        """Does a channel exist for *sub_id*?  (The broker falls back to
        its fire-and-forget notifier when not.)

        Deliberately lock-free: dict membership is atomic under the
        GIL, and this runs once per match on the publish hot path.
        """
        return sub_id in self._channels

    # ------------------------------------------------------------------
    # dispatch (the broker-facing hot path)
    # ------------------------------------------------------------------
    def dispatch(self, sub_id: Any, event: Any, now: Optional[float] = None) -> int:
        """Route one matched ``(sub_id, event)`` into its channel.

        Journals a ``deliver`` record *before* the first send attempt
        (write-ahead: a crash after the journal but before the send is
        recovered as an unacked delivery and re-sent).  Returns the
        delivery's channel sequence number.
        """
        with self._lock:
            now = self.clock.now() if now is None else now
            return self._dispatch_one(self.channel(sub_id), sub_id, event, now)

    def dispatch_matches(
        self, sub_ids: List[Any], event: Any, now: float
    ) -> List[Any]:
        """Batched :meth:`dispatch` for one event's match list.

        Takes the manager lock once for the whole list instead of once
        per match (the broker calls this from ``publish``, where a
        single event commonly fans out to many subscribers).  Ids with
        no registered channel are *returned* rather than raising, so
        the broker can route them to its fire-and-forget notifier.
        """
        unhandled: List[Any] = []
        with self._lock:
            channels = self._channels
            for sub_id in sub_ids:
                channel = channels.get(sub_id)
                if channel is None:
                    unhandled.append(sub_id)
                else:
                    self._dispatch_one(channel, sub_id, event, now)
        return unhandled

    def _dispatch_one(
        self, channel: SubscriberChannel, sub_id: Any, event: Any, now: float
    ) -> int:
        """One delivery into *channel* (manager lock held); returns its seq."""
        if not (channel.auto_ack and channel.connected and channel._sink is not None):
            return self._dispatch_slow(channel, sub_id, event, now)
        # Fast path: a successful auto-acked send settles synchronously
        # — the lease never rests in the window — so the full
        # bookkeeping (window insertion, watermark) is skipped.  This is
        # the publish hot path.  The seq is taken only once its
        # ``deliver`` line is written (a line that cannot be written
        # leaves the channel as it was) and before the sink runs (a
        # sink may dispatch into this channel again).
        seq = channel._next_seq
        notification = Notification(sub_id, event, now, seq=seq)
        wal = self.wal
        if wal is not None:
            self._journal_deliver(sub_id, seq, event, now)
        channel._next_seq = seq + 1
        channel.dispatched += 1
        try:
            channel._sink(notification)
        except Exception:
            # Off the fast path onto the retry machinery, one attempt
            # already spent (the ``deliver`` above covers the lease).
            channel.send_errors += 1
            self._make_room(channel, now)
            self._schedule_retry(channel, self._open(channel, notification, attempts=1), now)
            return seq
        channel.delivered += 1
        channel.acks += 1
        if wal is not None:
            self._journal_settle(sub_id, seq, "ack", None, 1)
        return seq

    def _dispatch_slow(
        self, channel: SubscriberChannel, sub_id: Any, event: Any, now: float
    ) -> int:
        """The non-auto-ack dispatch tail (manager lock held).

        The ``deliver`` line is written before the window changes: a
        line that cannot be written leaves the channel, its counters
        and the log as they were.  A full window's ``block`` (which
        waits with the lock released, so the seq is read after it) and
        ``disconnect`` change nothing this dispatch would have to undo,
        and run first; shedding does, so it runs after the line.
        """
        shed = channel.connected and channel._policy.overflow == "shed-oldest"
        if channel.connected and not shed:
            self._make_room(channel, now)
        seq = channel._next_seq
        self._journal_deliver(sub_id, seq, event, now)
        if shed:
            self._make_room(channel, now)
        channel.dispatched += 1
        # Resting the lease takes the seq.
        lease = self._open(channel, Notification(sub_id, event, now, seq=seq))
        if not channel.connected:
            # A disconnected subscriber keeps losing its deliveries
            # to the DLQ (re-drivable on reconnect) — never blocks
            # the publisher.
            self._close(channel, lease, "dead-letter", "disconnected")
        elif channel._sink is not None:
            self._send(channel, lease, now)
        # else pull mode: the lease rests pending until poll() leases it
        # out; pump() ignores it, so the pump watermark stays put.
        return seq

    def _make_room(self, channel: SubscriberChannel, now: float) -> None:
        """Apply the channel's overflow policy until one slot is free."""
        policy = channel._policy
        if policy.capacity is None or channel.outstanding < policy.capacity:
            return
        if policy.overflow == "block":
            # Wall-clock bound: block waits on real consumer progress
            # (acks arrive from other threads), so the timeout must be
            # real time even under VirtualClock.
            deadline = time.monotonic() + policy.block_timeout
            while channel.outstanding >= policy.capacity and channel.connected:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._space.wait(timeout=remaining):
                    raise ChannelOverflowError(
                        f"channel {id_repr(channel.sub_id)} full "
                        f"({policy.capacity} outstanding) for more than "
                        f"{policy.block_timeout}s"
                    )
            return
        if policy.overflow == "shed-oldest":
            # Capacity is at least 1, so a full window has a lease to shed.
            while channel.outstanding >= policy.capacity:
                self._close(channel, channel._oldest(), "shed")
            return
        # disconnect: quarantine the whole subscriber.
        self.disconnect(channel.sub_id)
        raise ChannelOverflowError(
            f"channel {id_repr(channel.sub_id)} exceeded its window "
            f"({policy.capacity}); subscriber disconnected and its "
            f"outstanding deliveries dead-lettered"
        )

    def disconnect(self, sub_id: Any) -> int:
        """Detach a subscriber in place: dead-letter everything
        outstanding (reason ``disconnected``), keep the channel so a
        :meth:`register` reconnect plus :meth:`redrive` restores
        service.  Returns the number of dead-lettered deliveries."""
        with self._lock:
            channel = self.channel(sub_id)
            channel.connected = False
            return self._drain(channel, "dead-letter", "disconnected")

    # ------------------------------------------------------------------
    # the lease lifecycle (internal, lock held): one way in, one way out
    # ------------------------------------------------------------------
    def _open(
        self,
        channel: Optional[SubscriberChannel],
        notification: Notification,
        attempts: int = 0,
    ) -> Lease:
        """The one way in: build the lease, count it, and rest it
        pending in *channel*'s window — or, with no channel yet
        (recovery), park it until its subscriber registers.  Its
        ``deliver`` line is already written: by the dispatch, or in the
        record a restored lease was recovered from."""
        sub_id, seq, at = notification.sub_id, notification.seq, notification.timestamp
        # A parked lease has no channel to take a retry policy from.
        retry = None if channel is None else channel._policy.retry
        lease = Lease(seq, notification, attempts, at, at, retry)
        self._outstanding_total += 1
        if channel is None:
            self._orphans.setdefault(sub_id, []).append(lease)
            self._seq_floor[sub_id] = max(self._seq_floor.get(sub_id, 0), seq + 1)
        else:
            channel._rest(lease, inflight=False)
        return lease

    def _close(
        self,
        channel: SubscriberChannel,
        lease: Lease,
        outcome: str,
        reason: Optional[str] = None,
    ) -> None:
        """The one way out: take *lease* from the window, count the
        outcome, journal its ``settle`` and wake publishers blocked on a
        full channel.  *outcome* is ``ack``, ``shed``, ``dead-letter``
        (with its *reason*) or ``drop`` — the silent drop of
        ``unregister(dead_letter=False)``, counted nowhere and journaled
        as ``shed``: the log must not owe a delivery the operator
        discarded."""
        del channel._window[lease.seq]
        if not channel._window:
            channel._window = _EMPTY_WINDOW
        lease.inflight = False
        self._outstanding_total -= 1
        if outcome == "ack":
            channel.acks += 1
        elif outcome == "shed":
            channel.shed += 1
        elif outcome == "dead-letter":
            channel.dead_lettered += 1
            self._m_dead[reason].inc()
            self.dead_letters.append(
                DeadLetter(
                    channel.sub_id,
                    lease.seq,
                    lease.notification,
                    reason,
                    lease.attempts,
                    self.clock.now(),
                )
            )
        else:  # "drop"
            outcome = "shed"
        self._journal_settle(channel.sub_id, lease.seq, outcome, reason, lease.attempts)
        self._space.notify_all()

    def _drain(
        self, channel: SubscriberChannel, outcome: str, reason: Optional[str] = None
    ) -> int:
        """Close every lease in *channel*'s window; returns how many."""
        leases = channel._in_order()
        for lease in leases:
            self._close(channel, lease, outcome, reason)
        return len(leases)

    def _lease_out(self, channel: SubscriberChannel, lease: Lease, now: float) -> None:
        """Hand *lease* to the subscriber (a push send or a poll): one
        more attempt, in flight until its ack deadline."""
        lease.attempts += 1
        if lease.attempts > 1:
            channel.redeliveries += 1
        lease.due_at = now + channel._policy.ack_timeout
        self._wake_at(lease.due_at)
        channel._rest(lease, inflight=True)

    def _queue(self, channel: SubscriberChannel, lease: Lease, due_at: float) -> None:
        """Rest *lease* pending at the back of the send queue, sendable
        from *due_at*."""
        lease.due_at = due_at
        if channel._sink is not None:
            # Pull-mode pendings are drained by poll(), not pump():
            # they don't lower the pump watermark.
            self._wake_at(due_at)
        channel._rest(lease, inflight=False)

    def _send(self, channel: SubscriberChannel, lease: Lease, now: float) -> None:
        """One send attempt through the channel's sink."""
        # In-flight *before* the sink runs: the lock is re-entrant, so a
        # subscriber that acks from inside its deliver callback must
        # find the lease already leased to it.
        self._lease_out(channel, lease, now)
        try:
            channel._sink(lease.notification)
        except Exception:
            channel.send_errors += 1
            # The sink may have settled the lease before raising; only
            # an attempt that left it in flight is retried.
            if lease.inflight:
                self._schedule_retry(channel, lease, now)
            return
        channel.delivered += 1
        if channel.auto_ack and lease.inflight:
            self._close(channel, lease, "ack")

    def _schedule_retry(self, channel: SubscriberChannel, lease: Lease, now: float) -> bool:
        """Queue the next attempt (True), or dead-letter on a spent
        budget (False)."""
        if lease.delays is None and lease.retry is not None:
            lease.delays = lease.retry.delays()
        delay = None if lease.delays is None else next(lease.delays, None)
        if delay is None:
            self._close(channel, lease, "dead-letter", "budget")
            return False
        self._queue(channel, lease, now + delay)
        return True

    # ------------------------------------------------------------------
    # the subscriber surface
    # ------------------------------------------------------------------
    def ack(self, sub_id: Any, seq: int) -> bool:
        """Acknowledge one delivery; returns False for an unknown (or
        already settled) sequence — acking is idempotent."""
        with self._lock:
            channel = self.channel(sub_id)
            lease = channel._window.get(seq)
            if lease is None:
                channel.unknown_acks += 1
                return False
            self._close(channel, lease, "ack")
            return True

    def nack(self, sub_id: Any, seq: int) -> bool:
        """Negative-acknowledge: the subscriber saw the delivery and
        wants it again.  Schedules an immediate-backoff retry (consuming
        one attempt from the budget); False for unknown sequences."""
        with self._lock:
            channel = self.channel(sub_id)
            lease = channel._window.get(seq)
            if lease is None or not lease.inflight:
                return False
            self._schedule_retry(channel, lease, self.clock.now())
            return True

    def poll(
        self, sub_id: Any, limit: Optional[int] = None, now: Optional[float] = None
    ) -> List[Notification]:
        """Lease due deliveries from a pull-mode channel.

        Each returned :class:`~repro.system.notifier.Notification`
        carries its ``seq``; the subscriber must :meth:`ack` it before
        the channel's ``ack_timeout`` or it will be re-leased (and the
        attempt counted against the retry budget)."""
        with self._lock:
            channel = self.channel(sub_id)
            now = self.clock.now() if now is None else now
            leased: List[Notification] = []
            for lease in channel._leases(inflight=False):
                if lease.due_at <= now and (limit is None or len(leased) < limit):
                    self._lease_out(channel, lease, now)
                    channel.delivered += 1
                    leased.append(lease.notification)
            return leased

    # ------------------------------------------------------------------
    # the clock-driven pump
    # ------------------------------------------------------------------
    def pump(self, now: Optional[float] = None) -> Dict[str, int]:
        """Advance every channel's redelivery state machine.

        Re-sends push-mode leases whose backoff elapsed, re-queues (or
        dead-letters) in-flight leases whose ack deadline passed, and
        returns counts of what happened.  The broker calls this lazily
        on every publish; anything driving a
        :class:`~repro.system.clock.VirtualClock` calls it after each
        advance.
        """
        # The watermark makes the broker's pump-per-publish cheap:
        # nothing is due yet, so don't even take the lock.  A stale
        # read can only skip one pump (the next call re-checks), and
        # the locked re-check below keeps the scan itself consistent.
        if now is not None and now < self._next_due:
            return {"redelivered": 0, "expired": 0, "dead_lettered": 0}
        with self._lock:
            now = self.clock.now() if now is None else now
            moved = {"redelivered": 0, "expired": 0, "dead_lettered": 0}
            if now < self._next_due:
                return moved
            # The scan re-arms the watermark as it goes: a lease it
            # leaves alone lowers it here, one it re-arms does so in
            # _lease_out / _queue.
            self._next_due = float("inf")
            for channel in self._channels.values():
                live = channel.connected
                # Ack deadlines: an expired in-flight lease goes back
                # through the retry budget.
                for lease in channel._leases(inflight=True):
                    if live and lease.due_at <= now:
                        moved["expired"] += 1
                        if not self._schedule_retry(channel, lease, now):
                            moved["dead_lettered"] += 1
                    else:
                        self._wake_at(lease.due_at)
                # Pending push-mode leases whose backoff elapsed re-send
                # now.  (Pull-mode pending is drained by poll().)
                if channel._sink is None:
                    continue
                for lease in channel._leases(inflight=False):
                    if lease.seq not in channel._window:
                        continue  # settled by a sink earlier in this scan
                    if live and lease.due_at <= now:
                        self._send(channel, lease, now)
                        moved["redelivered"] += 1
                    else:
                        self._wake_at(lease.due_at)
            return moved

    # ------------------------------------------------------------------
    # dead-letter operations
    # ------------------------------------------------------------------
    def redrive(self, sub_id: Any = None, limit: Optional[int] = None) -> int:
        """Re-dispatch dead letters into their (connected) channels.

        Each re-driven notification becomes a *fresh* delivery — new
        sequence number, reset attempt budget, journaled ``deliver``
        record.  The old sequence gets a ``redriven`` settle record so
        the ledger (and crash recovery) stops counting it dead.
        Entries whose subscriber has no connected channel stay dead.
        Returns the number re-driven.
        """
        with self._lock:
            redriven = 0
            stay: List[DeadLetter] = []
            for entry in self.dead_letters.take(sub_id, limit):
                channel = self._channels.get(entry.sub_id)
                if channel is None or not channel.connected:
                    stay.append(entry)
                    continue
                self._journal_settle(
                    entry.sub_id, entry.seq, "redriven", None, entry.attempts
                )
                self.dispatch(
                    entry.sub_id, entry.notification.event, now=self.clock.now()
                )
                redriven += 1
            for entry in stay:
                self.dead_letters.append(entry)
            return redriven

    # ------------------------------------------------------------------
    # recovery plumbing
    # ------------------------------------------------------------------
    def restore(self, sub_id: Any, seq: int, event: Any, at: float) -> None:
        """Re-queue one unacked delivery found in the WAL (recovery).

        Not journaled — the surviving ``deliver`` record in the log
        already covers it.  If the subscriber has no channel yet the
        lease is parked and drained on its next :meth:`register`.
        """
        with self._lock:
            channel = self._channels.get(sub_id)
            lease = self._open(channel, Notification(sub_id, event, at, seq=seq))
            if channel is not None:
                self._queue(channel, lease, self.clock.now())

    def restore_dead_letter(
        self, sub_id: Any, seq: int, event: Any, reason: str, attempts: int, at: float
    ) -> None:
        """Re-install one dead letter found in the WAL (recovery)."""
        reason = reason if reason in DEAD_LETTER_REASONS else "budget"
        notification = Notification(sub_id, event, at, seq=seq)
        self.dead_letters.append(
            DeadLetter(sub_id, seq, notification, reason, attempts, at)
        )
        with self._lock:
            self._seq_floor[sub_id] = max(self._seq_floor.get(sub_id, 0), seq + 1)
            channel = self._channels.get(sub_id)
            if channel is not None:
                channel._next_seq = max(channel._next_seq, seq + 1)

    def outstanding_leases(self) -> List[Tuple[Any, Lease]]:
        """Every unsettled lease, channel by channel, orphans last."""
        with self._lock:
            held = [(c.sub_id, c._in_order()) for c in self._channels.values()]
            held += self._orphans.items()
            return [(sub_id, lease) for sub_id, leases in held for lease in leases]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Unsettled deliveries across all channels (incl. orphans)."""
        with self._lock:
            return self._outstanding_total

    def _total(self, key: str) -> int:
        """One lifetime counter summed over every channel, departed ones
        included (the ``repro_delivery_*_total`` readers)."""
        with self._lock:
            channels = self._channels.values()
            return self._departed[key] + sum(getattr(c, key) for c in channels)

    def stats(self) -> Dict[str, Any]:
        """Unified stats shape (same contract as the matchers)."""
        with self._lock:
            return {
                "name": "delivery",
                "channels": len(self._channels),
                "inflight": self.inflight,
                "dead_letters": len(self.dead_letters),
                "counters": {key: self._total(key) for key in _COUNTER_KEYS},
                "per_channel": {str(s): c.stats() for s, c in self._channels.items()},
                "dead_letter_queue": self.dead_letters.stats(),
            }

    def health(self) -> Dict[str, Any]:
        """The compact view :meth:`BatchServer.health` embeds."""
        with self._lock:
            disconnected = [
                str(c.sub_id) for c in self._channels.values() if not c.connected
            ]
            return {
                "channels": len(self._channels),
                "connected": len(self._channels) - len(disconnected),
                "disconnected": disconnected,
                "inflight": self.inflight,
                "dead_letters": len(self.dead_letters),
            }

    def check_invariants(self) -> None:
        """Raise AssertionError if the bookkeeping disagrees with a
        recount.  Intended for tests and debugging — O(leases)."""
        with self._lock:
            held = self.outstanding_leases()
            assert self._outstanding_total == self.inflight == len(held), (
                f"{self._outstanding_total} counted, {len(held)} held"
            )
            for channel in self._channels.values():
                assert channel._window or channel._window is _EMPTY_WINDOW, "empty window dict"
                for seq, lease in channel._window.items():
                    assert seq == lease.seq < channel._next_seq, "seq drift"
                    if lease.inflight or channel._sink is not None:
                        assert self._next_due <= lease.due_at, "pump watermark too late"
                floor = self._seq_floor.get(channel.sub_id, 0)
                assert channel._next_seq >= floor, "seq reissued after a departure"
            for sub_id, leases in self._orphans.items():
                assert sub_id not in self._channels, "orphans beside their channel"
                assert all(lease.seq < self._seq_floor[sub_id] for lease in leases)
            totals = self.stats()["counters"]
            assert all(totals[k] >= v for k, v in self._totals_checked.items()), (
                "a lifetime total shrank"
            )
            self._totals_checked = totals


# ----------------------------------------------------------------------
# WAL replay
# ----------------------------------------------------------------------
class DeliveryLedger:
    """Replay ``deliver``/``settle`` WAL records into delivery state.

    The single merge-rule implementation shared by crash recovery
    (:func:`repro.system.recovery.recover`) and the ``repro deliveries``
    / ``repro dlq`` CLI: a ``deliver`` opens an in-flight entry keyed by
    ``(sub, seq)``, a ``settle`` closes it (outcome ``dead-letter``
    additionally lands it in :attr:`dead`).  Anything still open at the
    end of the log is exactly the unacked in-flight set a crash lost —
    what recovery must re-queue.
    """

    def __init__(self) -> None:
        #: (sub, seq) -> {"event": pairs-dict, "at": float}
        self.outstanding: "OrderedDict[Tuple[Any, int], Dict[str, Any]]" = OrderedDict()
        # (sub, seq) -> its settled-as-dead records, each with the
        # ordinal of its settle: a redrive pops a key, log order survives.
        self._dead: Dict[Tuple[Any, int], List[Tuple[int, Dict[str, Any]]]] = {}
        self.delivers = 0
        self.settles = 0
        self.acked = 0
        self.shed = 0

    def apply(self, record: Dict[str, Any]) -> bool:
        """Fold one WAL record (kinds but ``deliver`` / ``settle`` are
        no-ops); False, changing nothing, when its ``sub`` or ``seq`` is
        a list or an object, which cannot key the ledger: trust no more."""
        kind = record.get("type")
        if kind not in ("deliver", "settle"):
            return True
        key = (record.get("sub"), record.get("seq"))
        if not all(isinstance(part, Hashable) for part in key):
            return False
        if kind == "deliver":
            self.outstanding[key] = {
                "event": record.get("event", {}),
                "at": record.get("at", 0.0),
            }
            self.delivers += 1
            return True
        entry = self.outstanding.pop(key, None)
        outcome = record.get("outcome")
        if outcome == "ack":
            self.acked += 1
        elif outcome == "shed":
            self.shed += 1
        elif outcome == "dead-letter":
            dead = {
                "sub": record.get("sub"),
                "seq": record.get("seq"),
                "event": (entry or {}).get("event", {}),
                "reason": record.get("reason") or "budget",
                "attempts": record.get("attempts", 0),
                "at": record.get("at", 0.0),
            }
            self._dead.setdefault(key, []).append((self.settles, dead))
        elif outcome == "redriven":
            # The dead letter went back into a live channel under a
            # fresh sequence; its DLQ residency is over.
            self._dead.pop(key, None)
        self.settles += 1
        return True

    @property
    def dead(self) -> List[Dict[str, Any]]:
        """Settled-as-dead records still dead-lettered, in log order."""
        settled = [pair for group in self._dead.values() for pair in group]
        settled.sort(key=lambda pair: pair[0])
        return [dead for _ordinal, dead in settled]

    def summary(self) -> Dict[str, Any]:
        """Per-subscriber unacked/dead-letter totals (the CLI output)."""
        channels: Dict[str, Dict[str, Any]] = {}

        def slot(sub_id: Any) -> Dict[str, Any]:
            key = str(sub_id)
            if key not in channels:
                channels[key] = {
                    "unacked": 0,
                    "oldest_seq": None,
                    "oldest_at": None,
                    "dead_lettered": 0,
                }
            return channels[key]

        for (sub_id, seq), info in self.outstanding.items():
            entry = slot(sub_id)
            entry["unacked"] += 1
            if entry["oldest_seq"] is None:
                entry["oldest_seq"] = seq
                entry["oldest_at"] = info["at"]
        dead_letters = self.dead
        for dead in dead_letters:
            slot(dead["sub"])["dead_lettered"] += 1
        return {
            "channels": channels,
            "totals": {
                "delivers": self.delivers,
                "settles": self.settles,
                "acked": self.acked,
                "shed": self.shed,
                "unacked": len(self.outstanding),
                "dead_lettered": len(dead_letters),
            },
        }
