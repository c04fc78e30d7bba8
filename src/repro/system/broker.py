"""The publish/subscribe broker: validity intervals over any matcher.

Implements the system model of Section 1: a stream of subscriptions and
a stream of events, each valid for an interval.  Two complementary
functionalities:

* ``publish_batch`` (``publish`` is a batch of one) — find the live
  subscriptions each event satisfies and notify their owners
  (optionally retaining the event);
* ``subscribe`` — register the subscription and, when events are being
  retained, immediately evaluate it against the still-valid events
  (retroactive notifications).

The matching engine is pluggable (:class:`DynamicMatcher` by default —
the paper's recommended configuration); expiry is lazy, driven by the
injected clock.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.errors import (
    ExpiredError,
    InvalidSubscriptionError,
    UnknownSubscriptionError,
)
from repro.core.matcher import Matcher
from repro.core.types import Event, Predicate, Subscription
from repro.lang.parser import parse_subscriptions
from repro.matchers.dynamic import DynamicMatcher
from repro.system.clock import Clock, SystemClock
from repro.system.delivery import DeliveryManager
from repro.system.event_store import EventStore
from repro.system.notifier import Notification, NullNotifier, QueueNotifier, Sink, _as_callable
from repro.system.resilience import PartialResults

if TYPE_CHECKING:  # annotation only: the broker needs nothing of the module at import
    from repro.system.wal import WriteAheadLog

#: Things subscribe() accepts: a full Subscription or bare predicates.
SubscriptionLike = Union[Subscription, Sequence[Predicate]]


class PubSubBroker:
    """Validity-windowed publish/subscribe over a matching engine."""

    def __init__(
        self,
        matcher: Optional[Matcher] = None,
        clock: Optional[Clock] = None,
        notifier: Optional[Sink] = None,
        default_subscription_ttl: Optional[float] = None,
        event_retention_ttl: Optional[float] = None,
        wal: Optional["WriteAheadLog"] = None,
        delivery: Optional[DeliveryManager] = None,
    ) -> None:
        """Create a broker.

        Parameters
        ----------
        matcher:
            matching engine; defaults to a fresh :class:`DynamicMatcher`.
        clock:
            time source; defaults to :class:`SystemClock`.
        notifier:
            delivery sink — a :class:`Notifier` or a plain callable
            taking the :class:`Notification`; defaults to a
            :class:`QueueNotifier` (drain it via :attr:`notifier`).
        default_subscription_ttl:
            lifetime of subscriptions subscribed without an explicit
            ``ttl``; None = immortal.
        event_retention_ttl:
            how long published events stay matchable against *new*
            subscriptions; None = events are not retained.
        wal:
            optional :class:`~repro.system.wal.WriteAheadLog`; when set,
            every accepted subscribe/unsubscribe is journaled so the
            broker can be rebuilt by :func:`repro.system.recovery.recover`.
        delivery:
            optional :class:`~repro.system.delivery.DeliveryManager`.
            Matches for subscribers with a registered channel route
            through it (acked, redelivered, dead-lettered at-least-once
            semantics); everything else keeps the fire-and-forget
            ``notifier``.  Publish pumps its redelivery state machine
            lazily, the same way expiry is lazy.  Build it on the same
            clock as the broker — redelivery deadlines age in the
            broker's time domain.
        """
        self.matcher = matcher if matcher is not None else DynamicMatcher()
        self.clock = clock if clock is not None else SystemClock()
        self.notifier = notifier if notifier is not None else QueueNotifier()
        self._deliver = _as_callable(self.notifier)
        self.delivery = delivery
        self.default_subscription_ttl = default_subscription_ttl
        self.event_retention_ttl = event_retention_ttl
        self.wal: Optional["WriteAheadLog"] = None
        self._wal_suppress = 0
        #: Fault-injection hook (tests): called with a named crash point
        #: around every durability-relevant step; raising from it
        #: simulates a crash at that exact point.
        self.crash_hook: Optional[Callable[[str], None]] = None
        #: Guards every stage that touches broker state; the engine's
        #: ``match_batch`` runs outside it (see :meth:`publish_batch`).
        self._lock = threading.RLock()
        self._events = EventStore()
        #: ``(expires_at, tie, sub_id)``: *tie* orders equal deadlines by
        #: insertion, so ids (any hashable, not mutually comparable) are
        #: never compared.
        self._sub_expiry_heap: List[Tuple[float, int, Any]] = []
        self._expiry_tie = itertools.count()
        self._sub_expires: Dict[Any, float] = {}
        self._auto_id = itertools.count()
        # DNF formula support: logical id <-> disjunct subscription ids.
        self._formula_disjuncts: Dict[Any, List[Any]] = {}
        self._logical_of: Dict[Any, Any] = {}
        #: Lifetime counters.
        self.counters: Dict[str, int] = {
            "published": 0,
            "subscribed": 0,
            "unsubscribed": 0,
            "expired_subscriptions": 0,
            "notifications": 0,
            "degraded_publishes": 0,
        }
        if wal is not None:
            self.attach_wal(wal)

    # ------------------------------------------------------------------
    # durability plumbing
    # ------------------------------------------------------------------
    def attach_wal(self, wal: "WriteAheadLog") -> None:
        """Journal all future mutations to *wal*.

        An anchor is appended immediately, pinning this broker's current
        clock in the log's time domain (the WAL and the broker must
        share a clock for recovery's ttl aging to be exact).  An
        attached delivery manager without its own log starts journaling
        ``deliver``/``settle`` records to the same WAL.
        """
        self.wal = wal
        wal.append_anchor(self.clock.now())
        if self.delivery is not None and self.delivery.wal is None:
            self.delivery.wal = wal

    @contextlib.contextmanager
    def wal_suppressed(self) -> Iterator[None]:
        """Suspend WAL journaling (recovery replay: the durable copy
        already exists, re-logging it would double it)."""
        self._wal_suppress += 1
        try:
            yield
        finally:
            self._wal_suppress -= 1

    def durable_subscriptions(
        self, now: float
    ) -> List[Tuple[Subscription, Optional[float], Optional[Any]]]:
        """``(subscription, remaining ttl at *now*, logical id)`` for
        every subscription still live at *now* — what a compacted log
        records.  Works through any matcher backend's public
        :meth:`~repro.core.matcher.Matcher.iter_subscriptions`."""
        with self._lock, self.wal_suppressed():
            self._expire(now)
            expires, logical_of = self._sub_expires, self._logical_of
            return [
                (
                    sub,
                    expires[sub.id] - now if sub.id in expires else None,
                    logical_of.get(sub.id),
                )
                for sub in self.matcher.iter_subscriptions()
            ]

    def restore_subscription(
        self, subscription: Subscription, ttl: Optional[float], logical: Optional[Any] = None
    ) -> None:
        """Install one :meth:`durable_subscriptions` triple (recovery):
        validity resumes with *ttl* measured from this broker's clock,
        a formula disjunct rejoins its *logical* id; nothing is
        journaled and retained events are not retro-matched — the
        subscription already saw its past."""
        with self._lock, self.wal_suppressed():
            self.subscribe(subscription, ttl=ttl, notify_retained=False)
            if logical is not None:
                self._logical_of[subscription.id] = logical
                self._formula_disjuncts.setdefault(logical, []).append(subscription.id)

    def _wal_active(self) -> bool:
        return self.wal is not None and not self._wal_suppress

    def _crash_point(self, name: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(name)

    # ------------------------------------------------------------------
    # expiry plumbing
    # ------------------------------------------------------------------
    def purge_expired(self) -> int:
        """Drop every expired subscription and event; returns subs dropped."""
        with self._lock:
            return self._expire(self.clock.now())

    def _expire(self, now: float) -> int:
        self._events.purge(now)
        dropped = 0
        heap = self._sub_expiry_heap
        while heap and heap[0][0] <= now:
            _exp, _tie, sub_id = heapq.heappop(heap)
            # The heap may hold stale entries for re-subscribed ids.
            expires = self._sub_expires.get(sub_id)
            if expires is not None and expires <= now:
                del self._sub_expires[sub_id]
                logical = self._logical_of.pop(sub_id, None)
                if logical is not None:
                    # The formula goes with its last live disjunct.
                    siblings = self._formula_disjuncts[logical]
                    siblings.remove(sub_id)
                    if not siblings:
                        del self._formula_disjuncts[logical]
                try:
                    self.matcher.remove(sub_id)
                    dropped += 1
                except KeyError:
                    # Already unsubscribed explicitly; the heap entry is stale.
                    pass
        self.counters["expired_subscriptions"] += dropped
        if dropped and self._wal_active():
            # Expiry is recomputed from ttls at recovery, so it is not
            # journaled per subscription — but an anchor pins the clock
            # so recovery's crash-time estimate keeps pace.
            self.wal.append_anchor(now)
        return dropped

    def _trim_expiry_heap(self) -> None:
        """Rebuild the heap once stale entries outnumber live ones.

        An explicit unsubscribe leaves its heap entry behind until the
        deadline; under join/leave churn with long ttls that is
        unbounded growth.  Rebuilding at 2x keeps it amortized O(1).
        """
        if len(self._sub_expiry_heap) > 2 * len(self._sub_expires):
            self._sub_expiry_heap = [
                (expires_at, next(self._expiry_tie), sub_id)
                for sub_id, expires_at in self._sub_expires.items()
            ]
            heapq.heapify(self._sub_expiry_heap)

    # ------------------------------------------------------------------
    # subscribe / unsubscribe
    # ------------------------------------------------------------------
    def subscribe(
        self,
        subscription: SubscriptionLike,
        ttl: Optional[float] = None,
        notify_retained: bool = True,
    ) -> Any:
        """Register a subscription; returns its id.

        Bare predicate sequences get an auto-generated id.  When events
        are retained, still-valid past events are matched immediately and
        notified (set ``notify_retained=False`` to skip).
        """
        with self._lock:
            self.purge_expired()
            if not isinstance(subscription, Subscription):
                preds = list(subscription)
                if not preds:
                    raise InvalidSubscriptionError("empty predicate list")
                subscription = Subscription(f"sub-{next(self._auto_id)}", preds)
            ttl = self.default_subscription_ttl if ttl is None else ttl
            if ttl is not None and ttl <= 0:
                raise ExpiredError(f"subscription ttl must be positive, got {ttl}")
            self._crash_point("subscribe:pre-apply")
            self.matcher.add(subscription)
            if ttl is not None:
                expires_at = self.clock.now() + ttl
                self._sub_expires[subscription.id] = expires_at
                heapq.heappush(
                    self._sub_expiry_heap,
                    (expires_at, next(self._expiry_tie), subscription.id),
                )
            self.counters["subscribed"] += 1
            if self._wal_active():
                # Applied-then-logged: a crash in the gap loses only this
                # not-yet-acknowledged mutation — still a consistent prefix.
                self._crash_point("subscribe:pre-log")
                self.wal.append_subscribe(subscription, ttl=ttl, at=self.clock.now())
                self._crash_point("subscribe:post-log")
            if notify_retained and len(self._events):
                now = self.clock.now()
                for event in self._events.retro_match(subscription, now):
                    self._notify(subscription.id, event, now)
            return subscription.id

    def subscribe_formula(
        self, text: str, sub_id: Any = None, ttl: Optional[float] = None
    ) -> Any:
        """Register a boolean formula (``and``/``or``/``not``) as one
        logical subscription.

        The formula is expanded to DNF (the paper's conclusion notes the
        prototype "already provides an efficient support to a
        subscription language consisting of disjunctive normal form
        conditions"); each disjunct becomes an internal subscription,
        but notifications carry the one logical id and each event
        notifies it at most once.
        """
        with self._lock:
            if sub_id is None:
                sub_id = f"sub-{next(self._auto_id)}"
            disjuncts = parse_subscriptions(text, f"{sub_id}~dnf")
            ids = []
            # Disjuncts are journaled below with their logical id attached,
            # so the per-disjunct subscribe must not log them bare.
            with self.wal_suppressed():
                for disjunct in disjuncts:
                    ids.append(self.subscribe(disjunct, ttl=ttl, notify_retained=False))
            self._formula_disjuncts[sub_id] = ids
            for did in ids:
                self._logical_of[did] = sub_id
            if self._wal_active():
                effective_ttl = self.default_subscription_ttl if ttl is None else ttl
                now = self.clock.now()
                self._crash_point("subscribe:pre-log")
                for disjunct in disjuncts:
                    self.wal.append_subscribe(
                        disjunct, ttl=effective_ttl, logical=sub_id, at=now
                    )
                self._crash_point("subscribe:post-log")
            # Retro-match once at the logical level (deduplicated).
            if len(self._events):
                now = self.clock.now()
                for event in self._events.valid_events(now):
                    if any(d.is_satisfied_by(event) for d in disjuncts):
                        self._notify(sub_id, event, now)
            return sub_id

    def unsubscribe(self, sub_id: Any) -> Subscription:
        """Remove a subscription before its interval ends.

        For formula subscriptions every disjunct is removed and the
        first disjunct's Subscription is returned.
        """
        with self._lock:
            disjuncts = self._formula_disjuncts.pop(sub_id, None)
            if disjuncts is None:
                removed = [self.matcher.remove(sub_id)]
                self._sub_expires.pop(sub_id, None)
            else:
                removed = []
                for did in disjuncts:
                    self._logical_of.pop(did, None)
                    self._sub_expires.pop(did, None)
                    try:
                        removed.append(self.matcher.remove(did))
                    except KeyError:
                        # The disjunct already expired; fine.
                        pass
                if not removed:
                    raise UnknownSubscriptionError(sub_id)
            self._trim_expiry_heap()
            self.counters["unsubscribed"] += 1
            if self._wal_active():
                self._crash_point("unsubscribe:pre-log")
                self.wal.append_unsubscribe(sub_id, at=self.clock.now())
                self._crash_point("unsubscribe:post-log")
            return removed[0]

    def _wal_batch(self) -> ContextManager[Any]:
        """One WAL durability boundary (:meth:`WriteAheadLog.batched`)
        around a mutation batch: under the ``always`` fsync policy the
        batch costs a single fsync instead of one per item."""
        return self.wal.batched() if self._wal_active() else contextlib.nullcontext()

    def subscribe_batch(
        self, subscriptions: Iterable[SubscriptionLike], ttl: Optional[float] = None
    ) -> List[Any]:
        """Batch submission (the paper submits in ``n_S_b`` batches);
        the whole batch shares one WAL durability boundary."""
        with self._wal_batch():
            return [self.subscribe(s, ttl=ttl) for s in subscriptions]

    def unsubscribe_batch(self, sub_ids: Iterable[Any]) -> List[Subscription]:
        """Batch removal under one WAL durability boundary."""
        with self._wal_batch():
            return [self.unsubscribe(s) for s in sub_ids]

    # ------------------------------------------------------------------
    # publish
    # ------------------------------------------------------------------
    def publish(self, event: Event, ttl: Optional[float] = None) -> List[Any]:
        """Publish one event: a batch of one (see :meth:`publish_batch`)."""
        return self.publish_batch([event], ttl=ttl)[0]

    def publish_batch(
        self, events: Iterable[Event], ttl: Optional[float] = None
    ) -> List[List[Any]]:
        """Match *events* against the live subscriptions and notify;
        returns the per-event lists of matched (logical) ids.

        The one publish path (``docs/architecture.md`` draws it).  A
        batch is matched against the subscription set as of batch start
        and carries one timestamp; a subscribe/unsubscribe made from a
        sink takes effect from the next batch.  Stages, in order:

        1. **expire + pump** — one ``clock.now()`` for the batch; drop
           expired subscriptions and retained events, advance the
           delivery manager's redelivery state machine (lazily, like
           expiry, so a publish-driven workload needs no thread);
        2. **match** — one ``matcher.match_batch(events)`` call, made
           *outside* the broker lock so a thread-safe engine overlaps
           concurrent batches;
        3. per event, under the lock and in event order: **collapse**
           formula disjunct ids onto their logical id (once per event),
           **dispatch** through ``delivery.dispatch_matches`` with the
           ids it does not handle going to the notifier, **retain** the
           event when retention is on (constructor or per-call ``ttl``),
           **count**.

        Each result keeps the engine's own list type: a quarantining
        engine's :class:`PartialResults` (``degraded`` when a sick shard
        could not contribute) reach the publisher as such.
        """
        events = list(events)
        with self._lock:
            now = self.clock.now()
            self._expire(now)
            if self.delivery is not None:
                self.delivery.pump(now)
        raw_lists = self.matcher.match_batch(events)
        with self._lock:
            logical_of = self._logical_of
            delivery = self.delivery
            # A discarding sink gets no Notification objects built for it.
            notify = None if isinstance(self.notifier, NullNotifier) else self._deliver
            ttl = self.event_retention_ttl if ttl is None else ttl
            retain_until = now + ttl if ttl is not None and ttl > 0 else None
            counters = self.counters
            out: List[List[Any]] = []
            for event, matched in zip(events, raw_lists):
                degraded = getattr(matched, "degraded", False)
                if logical_of:
                    collapsed = list(dict.fromkeys(logical_of.get(i, i) for i in matched))
                    if isinstance(matched, PartialResults):
                        collapsed = PartialResults(
                            collapsed, degraded=degraded, failed_shards=matched.failed_shards
                        )
                    matched = collapsed
                if matched:
                    # One manager lock for the whole match list; ids
                    # without a channel come back for the notifier.
                    unhandled = (
                        matched
                        if delivery is None
                        else delivery.dispatch_matches(matched, event, now)
                    )
                    if notify is not None:
                        for sub_id in unhandled:
                            notify(Notification(sub_id, event, now))
                    counters["notifications"] += len(matched)
                if retain_until is not None:
                    self._events.add(event, retain_until)
                counters["published"] += 1
                if degraded:
                    counters["degraded_publishes"] += 1
                out.append(matched)
            return out

    def _notify(self, sub_id: Any, event: Event, now: float) -> None:
        if self.delivery is not None and self.delivery.handles(sub_id):
            self.delivery.dispatch(sub_id, event, now=now)
        else:
            self._deliver(Notification(sub_id, event, now))
        self.counters["notifications"] += 1

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def subscription_count(self) -> int:
        """Live subscriptions (before lazy expiry)."""
        return len(self.matcher)

    @property
    def retained_event_count(self) -> int:
        """Events currently retained for retro-matching."""
        return len(self._events)

    def stats(self) -> Dict[str, Any]:
        """Broker counters plus the engine's own statistics."""
        out = {
            "subscriptions": self.subscription_count,
            "retained_events": self.retained_event_count,
            "counters": dict(self.counters),
            "matcher": self.matcher.stats(),
        }
        if self.wal is not None:
            out["wal"] = self.wal.stats()
        if self.delivery is not None:
            out["delivery"] = self.delivery.stats()
        return out

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release engine resources (idempotent).

        Matters for engines with real resources behind them — the
        sharded matcher's fan-out pool and, under ``executor="process"``,
        its shard worker processes.  The WAL (if attached) stays open:
        its lifetime belongs to whoever attached it.
        """
        self.matcher.close()

    def __enter__(self) -> "PubSubBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
