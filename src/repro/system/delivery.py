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
from collections import OrderedDict, deque
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

import time

from repro.core.errors import ReproError
from repro.obs.registry import MetricsRegistry
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


@dataclasses.dataclass
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
    #: Remaining backoff delays (one per allowed re-send).
    delays: Optional[Iterator[float]] = dataclasses.field(
        default=None, repr=False, compare=False
    )


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


#: Per-channel lifetime counters; the manager's totals sum them.
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


class SubscriberChannel:
    """One subscriber's acked delivery window.

    Not constructed directly — :meth:`DeliveryManager.register` creates
    and owns channels; all mutation happens under the manager's lock.
    """

    def __init__(
        self,
        manager: "DeliveryManager",
        sub_id: Any,
        sink: Optional[Sink],
        ack_timeout: float,
        retry: RetryPolicy,
        capacity: Optional[int],
        overflow: str,
        block_timeout: float,
        auto_ack: bool,
    ) -> None:
        self._manager = manager
        self.sub_id = sub_id
        self._sink = _as_callable(sink)
        self.ack_timeout = ack_timeout
        self.retry = retry
        self.capacity = capacity
        self.overflow = overflow
        self.block_timeout = block_timeout
        self.auto_ack = auto_ack
        self.connected = True
        #: Leases awaiting a (re)send — due when ``due_at`` passes.
        self._pending: Deque[Lease] = deque()
        #: Leases handed to the subscriber, awaiting ack.
        self._inflight: "OrderedDict[int, Lease]" = OrderedDict()
        self._next_seq = 0
        #: Lifetime counters.
        self.counters: Dict[str, int] = dict.fromkeys(_COUNTER_KEYS, 0)

    # -- sizing ---------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Unsettled leases (pending + in-flight)."""
        return len(self._pending) + len(self._inflight)

    def __len__(self) -> int:
        return self.outstanding

    # -- internals (called by the manager, under its lock) --------------
    def _allocate_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _find(self, seq: int) -> Optional[Lease]:
        lease = self._inflight.get(seq)
        if lease is not None:
            return lease
        for lease in self._pending:
            if lease.seq == seq:
                return lease
        return None

    def _drop(self, lease: Lease) -> None:
        """Remove *lease* from whichever structure holds it."""
        if self._inflight.pop(lease.seq, None) is None:
            try:
                self._pending.remove(lease)
            except ValueError:
                pass

    def _oldest(self) -> Optional[Lease]:
        """The stalest outstanding lease (pending preferred — never
        handed out is cheaper to lose than a lease a subscriber may be
        mid-processing)."""
        if self._pending:
            return self._pending[0]
        if self._inflight:
            return next(iter(self._inflight.values()))
        return None

    def stats(self) -> Dict[str, Any]:
        """JSON-serializable channel snapshot."""
        oldest = self._oldest()
        return {
            "sub": self.sub_id,
            "mode": "push" if self._sink is not None else "pull",
            "connected": self.connected,
            "pending": len(self._pending),
            "inflight": len(self._inflight),
            "capacity": self.capacity,
            "overflow": self.overflow,
            "oldest_seq": None if oldest is None else oldest.seq,
            "counters": dict(self.counters),
        }


class DeliveryManager:
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
        if overflow not in OVERFLOW_POLICIES:
            raise DeliveryError(
                f"unknown overflow policy {overflow!r}; "
                f"known: {', '.join(OVERFLOW_POLICIES)}"
            )
        if ack_timeout <= 0:
            raise DeliveryError(f"ack timeout must be positive, got {ack_timeout}")
        if capacity is not None and capacity < 1:
            raise DeliveryError(f"channel capacity must be >= 1, got {capacity}")
        self.clock = clock if clock is not None else SystemClock()
        self.wal = wal
        self.default_ack_timeout = ack_timeout
        self.default_retry = retry if retry is not None else RetryPolicy()
        self.default_capacity = capacity
        self.default_overflow = overflow
        self.default_block_timeout = block_timeout
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
        self._lock = threading.RLock()
        self._space = threading.Condition(self._lock)
        #: Fault-injection hook (tests): called with a named crash point
        #: around journaling steps; raising simulates a crash there.
        self.crash_hook: Optional[Callable[[str], None]] = None
        # Delivery is I/O-shaped (one update per notification, not per
        # predicate), so a live registry is the default — same reasoning
        # as the WAL and the sharded fan-out layer.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._bind_metrics()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _bind_metrics(self) -> None:
        m = self.metrics
        self._m_inflight = m.gauge(
            "repro_delivery_inflight",
            "Unacked notifications outstanding across all channels.",
        ).labels()
        self._m_channels = m.gauge(
            "repro_delivery_channels", "Registered subscriber channels."
        ).labels()
        self._m_redeliveries = m.counter(
            "repro_delivery_redeliveries_total",
            "Notification re-sends after an ack timeout or a sink error.",
        ).labels()
        dead = m.counter(
            "repro_delivery_dead_lettered_total",
            "Notifications moved to the dead-letter queue, by reason.",
            ("reason",),
        )
        self._m_dead = {r: dead.labels(reason=r) for r in DEAD_LETTER_REASONS}
        self._m_acks = m.counter(
            "repro_delivery_acks_total", "Notifications acknowledged by subscribers."
        ).labels()
        self._m_shed = m.counter(
            "repro_delivery_shed_total",
            "Notifications shed by full channels (overflow=shed-oldest).",
        ).labels()

    def use_metrics(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Attach a (shared) metrics registry; returns it."""
        registry = MetricsRegistry() if registry is None else registry
        self.metrics = registry
        self._bind_metrics()
        self._refresh_gauges()
        return registry

    def _refresh_gauges(self) -> None:
        self._m_inflight.set(self._outstanding_total)
        self._m_channels.set(len(self._channels))

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
        (crash recovery) are queued for redelivery immediately.
        """
        overflow = self.default_overflow if overflow is None else overflow
        if overflow not in OVERFLOW_POLICIES:
            raise DeliveryError(
                f"unknown overflow policy {overflow!r}; "
                f"known: {', '.join(OVERFLOW_POLICIES)}"
            )
        with self._lock:
            channel = self._channels.get(sub_id)
            if channel is None:
                channel = SubscriberChannel(
                    self,
                    sub_id,
                    sink,
                    self.default_ack_timeout if ack_timeout is None else ack_timeout,
                    retry if retry is not None else self.default_retry,
                    self.default_capacity if capacity is None else capacity,
                    overflow,
                    self.default_block_timeout
                    if block_timeout is None
                    else block_timeout,
                    auto_ack,
                )
                channel._next_seq = self._seq_floor.get(sub_id, 0)
                self._channels[sub_id] = channel
            else:
                channel._sink = _as_callable(sink)
                channel.auto_ack = auto_ack
                if ack_timeout is not None:
                    channel.ack_timeout = ack_timeout
                if retry is not None:
                    channel.retry = retry
                if capacity is not None:
                    channel.capacity = capacity
                channel.overflow = overflow
                if block_timeout is not None:
                    channel.block_timeout = block_timeout
                channel.connected = True
            now = self.clock.now()
            for lease in self._orphans.pop(sub_id, []):
                lease.due_at = now  # re-send as soon as something pumps
                if channel._sink is not None:
                    self._wake_at(now)
                channel._pending.append(lease)
                channel._next_seq = max(channel._next_seq, lease.seq + 1)
            self._refresh_gauges()
            return channel

    def unregister(self, sub_id: Any, dead_letter: bool = True) -> int:
        """Detach *sub_id*'s channel; returns its outstanding count.

        With ``dead_letter=True`` (default) every outstanding lease is
        dead-lettered with reason ``disconnected`` (re-drivable after a
        re-register); otherwise they are dropped silently.
        """
        with self._lock:
            channel = self._channels.pop(sub_id, None)
            if channel is None:
                raise UnknownChannelError(sub_id)
            self._seq_floor[sub_id] = channel._next_seq
            leases = list(channel._pending) + list(channel._inflight.values())
            channel._pending.clear()
            channel._inflight.clear()
            if dead_letter:
                for lease in leases:
                    self._dead_letter(channel, lease, "disconnected")
            else:
                self._outstanding_total -= len(leases)
            for key, value in channel.counters.items():
                self._departed[key] += value
            self._space.notify_all()
            self._refresh_gauges()
            return len(leases)

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
            channel = self._channels.get(sub_id)
            if channel is None:
                raise UnknownChannelError(sub_id)
            now = self.clock.now() if now is None else now
            return self._dispatch_one(channel, sub_id, event, now)

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
        # bookkeeping (window insertion, watermark, gauge refresh) is
        # skipped.  This is the publish hot path.
        seq = channel._next_seq
        channel._next_seq = seq + 1
        notification = Notification(sub_id, event, now, seq=seq)
        wal = self.wal
        if wal is not None:
            self._journal_deliver(sub_id, seq, event, now)
        counters = channel.counters
        counters["dispatched"] += 1
        try:
            channel._sink(notification)
        except Exception:
            self._auto_ack_failed(channel, notification, seq, now)
            return seq
        counters["delivered"] += 1
        counters["acks"] += 1
        # Counter.inc() is just `value += n`; skip the call.
        self._m_acks.value += 1
        if wal is not None:
            self._journal_settle(sub_id, seq, "ack", None, 1)
        return seq

    def _dispatch_slow(
        self, channel: SubscriberChannel, sub_id: Any, event: Any, now: float
    ) -> int:
        """The non-auto-ack dispatch tail (manager lock held)."""
        if not channel.connected:
            # A disconnected subscriber keeps losing its deliveries
            # to the DLQ (re-drivable on reconnect) — never blocks
            # the publisher.
            seq = channel._allocate_seq()
            lease = Lease(
                seq, Notification(sub_id, event, now, seq=seq), 0, now, now
            )
            self._journal_deliver(sub_id, lease.seq, event, now)
            channel.counters["dispatched"] += 1
            self._outstanding_total += 1  # netted out by _dead_letter
            self._dead_letter(channel, lease, "disconnected")
            self._refresh_gauges()
            return seq
        self._make_room(channel, now)
        seq = channel._allocate_seq()
        lease = Lease(
            seq,
            Notification(sub_id, event, now, seq=seq),
            0,
            now,
            now,
            delays=channel.retry.delays(),
        )
        self._journal_deliver(sub_id, lease.seq, event, now)
        channel.counters["dispatched"] += 1
        self._outstanding_total += 1
        if channel._sink is not None:
            self._send(channel, lease, now)
        else:
            # Pull-mode pendings are drained by poll(), not pump():
            # they don't lower the pump watermark.
            channel._pending.append(lease)
        self._refresh_gauges()
        return seq

    def _auto_ack_failed(
        self, channel: SubscriberChannel, notification: Notification, seq: int, now: float
    ) -> None:
        """Fall off the auto-ack fast path onto the retry machinery
        with one attempt already spent."""
        channel.counters["send_errors"] += 1
        lease = Lease(
            seq, notification, 1, now, now, delays=channel.retry.delays()
        )
        self._make_room(channel, now)
        self._outstanding_total += 1
        self._schedule_retry(channel, lease, now)
        self._refresh_gauges()

    def _make_room(self, channel: SubscriberChannel, now: float) -> None:
        """Apply the channel's overflow policy until one slot is free."""
        if channel.capacity is None:
            return
        if channel.outstanding < channel.capacity:
            return
        if channel.overflow == "block":
            # Wall-clock bound: block waits on real consumer progress
            # (acks arrive from other threads), so the timeout must be
            # real time even under VirtualClock.
            deadline = time.monotonic() + channel.block_timeout
            while channel.outstanding >= channel.capacity and channel.connected:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._space.wait(timeout=remaining):
                    raise ChannelOverflowError(
                        f"channel {channel.sub_id!r} full "
                        f"({channel.capacity} outstanding) for more than "
                        f"{channel.block_timeout}s"
                    )
            return
        if channel.overflow == "shed-oldest":
            while channel.outstanding >= channel.capacity:
                victim = channel._oldest()
                if victim is None:  # capacity >= 1 makes this unreachable
                    return
                channel._drop(victim)
                self._outstanding_total -= 1
                channel.counters["shed"] += 1
                self._m_shed.inc()
                self._journal_settle(
                    channel.sub_id, victim.seq, "shed", None, victim.attempts
                )
            return
        # disconnect: quarantine the whole subscriber.
        self.disconnect(channel.sub_id)
        raise ChannelOverflowError(
            f"channel {channel.sub_id!r} exceeded its window "
            f"({channel.capacity}); subscriber disconnected and its "
            f"outstanding deliveries dead-lettered"
        )

    def disconnect(self, sub_id: Any) -> int:
        """Detach a subscriber in place: dead-letter everything
        outstanding (reason ``disconnected``), keep the channel so a
        :meth:`register` reconnect plus :meth:`redrive` restores
        service.  Returns the number of dead-lettered deliveries."""
        with self._lock:
            channel = self._channels.get(sub_id)
            if channel is None:
                raise UnknownChannelError(sub_id)
            channel.connected = False
            leases = list(channel._pending) + list(channel._inflight.values())
            channel._pending.clear()
            channel._inflight.clear()
            for lease in leases:
                self._dead_letter(channel, lease, "disconnected")
            self._space.notify_all()
            self._refresh_gauges()
            return len(leases)

    # ------------------------------------------------------------------
    # sending / settling (internal, lock held)
    # ------------------------------------------------------------------
    def _send(self, channel: SubscriberChannel, lease: Lease, now: float) -> None:
        """One send attempt through the channel's sink."""
        lease.attempts += 1
        if lease.attempts > 1:
            channel.counters["redeliveries"] += 1
            self._m_redeliveries.inc()
        # In-flight *before* the sink runs: the lock is re-entrant, so a
        # subscriber that acks from inside its deliver callback must
        # find the lease already leased to it.
        lease.due_at = now + channel.ack_timeout
        self._wake_at(lease.due_at)
        channel._inflight[lease.seq] = lease
        try:
            channel._sink(lease.notification)
        except Exception:
            channel.counters["send_errors"] += 1
            # The sink may have settled the lease before raising; only
            # an attempt that left it in flight is retried.
            if channel._inflight.pop(lease.seq, None) is not None:
                self._schedule_retry(channel, lease, now)
            return
        channel.counters["delivered"] += 1
        if channel.auto_ack and channel._inflight.pop(lease.seq, None) is not None:
            self._settle_ack(channel, lease)

    def _schedule_retry(self, channel: SubscriberChannel, lease: Lease, now: float) -> None:
        """Queue the next attempt, or dead-letter on a spent budget."""
        delay = None if lease.delays is None else next(lease.delays, None)
        if delay is None:
            self._dead_letter(channel, lease, "budget")
            return
        lease.due_at = now + delay
        if channel._sink is not None:
            self._wake_at(lease.due_at)
        channel._pending.append(lease)

    def _dead_letter(self, channel: SubscriberChannel, lease: Lease, reason: str) -> None:
        self._outstanding_total -= 1
        channel.counters["dead_lettered"] += 1
        self._m_dead[reason].inc()
        entry = DeadLetter(
            channel.sub_id,
            lease.seq,
            lease.notification,
            reason,
            lease.attempts,
            self.clock.now(),
        )
        self.dead_letters.append(entry)
        self._journal_settle(
            channel.sub_id, lease.seq, "dead-letter", reason, lease.attempts
        )

    def _settle_ack(self, channel: SubscriberChannel, lease: Lease) -> None:
        self._outstanding_total -= 1
        channel.counters["acks"] += 1
        self._m_acks.inc()
        self._journal_settle(channel.sub_id, lease.seq, "ack", None, lease.attempts)

    # ------------------------------------------------------------------
    # the subscriber surface
    # ------------------------------------------------------------------
    def ack(self, sub_id: Any, seq: int) -> bool:
        """Acknowledge one delivery; returns False for an unknown (or
        already settled) sequence — acking is idempotent."""
        with self._lock:
            channel = self._channels.get(sub_id)
            if channel is None:
                raise UnknownChannelError(sub_id)
            lease = channel._find(seq)
            if lease is None:
                channel.counters["unknown_acks"] += 1
                return False
            channel._drop(lease)
            self._settle_ack(channel, lease)
            self._space.notify_all()
            self._refresh_gauges()
            return True

    def nack(self, sub_id: Any, seq: int) -> bool:
        """Negative-acknowledge: the subscriber saw the delivery and
        wants it again.  Schedules an immediate-backoff retry (consuming
        one attempt from the budget); False for unknown sequences."""
        with self._lock:
            channel = self._channels.get(sub_id)
            if channel is None:
                raise UnknownChannelError(sub_id)
            lease = channel._inflight.pop(seq, None)
            if lease is None:
                return False
            self._schedule_retry(channel, lease, self.clock.now())
            self._refresh_gauges()
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
            channel = self._channels.get(sub_id)
            if channel is None:
                raise UnknownChannelError(sub_id)
            now = self.clock.now() if now is None else now
            leased: List[Notification] = []
            due: List[Lease] = []
            for lease in channel._pending:
                if lease.due_at <= now and (limit is None or len(due) < limit):
                    due.append(lease)
            for lease in due:
                channel._pending.remove(lease)
                lease.attempts += 1
                if lease.attempts > 1:
                    channel.counters["redeliveries"] += 1
                    self._m_redeliveries.inc()
                channel.counters["delivered"] += 1
                lease.due_at = now + channel.ack_timeout
                self._wake_at(lease.due_at)
                channel._inflight[lease.seq] = lease
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
            self._next_due = float("inf")
            for channel in self._channels.values():
                if not channel.connected:
                    continue
                # Ack deadlines: an expired in-flight lease goes back
                # through the retry budget.
                expired = [
                    lease
                    for lease in channel._inflight.values()
                    if lease.due_at <= now
                ]
                for lease in expired:
                    del channel._inflight[lease.seq]
                    moved["expired"] += 1
                    before = len(self.dead_letters)
                    self._schedule_retry(channel, lease, now)
                    moved["dead_lettered"] += len(self.dead_letters) - before
                # Pending push-mode leases whose backoff elapsed re-send
                # now.  (Pull-mode pending is drained by poll().)
                if channel._sink is not None:
                    due = [
                        lease for lease in channel._pending if lease.due_at <= now
                    ]
                    for lease in due:
                        channel._pending.remove(lease)
                        self._send(channel, lease, now)
                        moved["redelivered"] += 1
            # Re-arm the watermark from every lease the scan left
            # behind (the _send/_schedule_retry calls above already
            # lowered it for the leases they re-armed).
            for channel in self._channels.values():
                for lease in channel._inflight.values():
                    self._wake_at(lease.due_at)
                if channel._sink is not None:
                    for lease in channel._pending:
                        self._wake_at(lease.due_at)
            self._space.notify_all()
            self._refresh_gauges()
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
            notification = Notification(sub_id, event, at, seq=seq)
            channel = self._channels.get(sub_id)
            self._outstanding_total += 1
            if channel is None:
                lease = Lease(seq, notification, 0, at, at)
                self._orphans.setdefault(sub_id, []).append(lease)
                self._seq_floor[sub_id] = max(
                    self._seq_floor.get(sub_id, 0), seq + 1
                )
            else:
                lease = Lease(
                    seq, notification, 0, at, self.clock.now(),
                    delays=channel.retry.delays(),
                )
                channel._pending.append(lease)
                if channel._sink is not None:
                    self._wake_at(lease.due_at)
                channel._next_seq = max(channel._next_seq, seq + 1)
            self._refresh_gauges()

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
        """Every unsettled lease (compaction re-journals these into the
        restarted log so crash safety survives a compact)."""
        with self._lock:
            out: List[Tuple[Any, Lease]] = []
            for channel in self._channels.values():
                for lease in channel._pending:
                    out.append((channel.sub_id, lease))
                for lease in channel._inflight.values():
                    out.append((channel.sub_id, lease))
            for sub_id, leases in self._orphans.items():
                for lease in leases:
                    out.append((sub_id, lease))
            return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Unsettled deliveries across all channels (incl. orphans)."""
        with self._lock:
            return self._outstanding_total

    def stats(self) -> Dict[str, Any]:
        """Unified stats shape (same contract as the matchers)."""
        with self._lock:
            totals = dict(self._departed)
            per_channel = {}
            for sub_id, channel in self._channels.items():
                for key in totals:
                    totals[key] += channel.counters[key]
                per_channel[str(sub_id)] = channel.stats()
            return {
                "name": "delivery",
                "channels": len(self._channels),
                "inflight": self.inflight,
                "dead_letters": len(self.dead_letters),
                "counters": totals,
                "per_channel": per_channel,
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
        """Apply one WAL record; returns True when it was delivery-kind."""
        kind = record.get("type")
        if kind == "deliver":
            key = (record.get("sub"), record.get("seq"))
            self.outstanding[key] = {
                "event": record.get("event", {}),
                "at": record.get("at", 0.0),
            }
            self.delivers += 1
            return True
        if kind == "settle":
            key = (record.get("sub"), record.get("seq"))
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
        return False

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
