"""The publish/subscribe broker: validity intervals over any matcher.

Implements the system model of Section 1: a stream of subscriptions and
a stream of events, each valid for an interval.  Two complementary
functionalities:

* ``publish_batch`` (``publish`` is a batch of one) — find the live
  subscriptions each event satisfies and notify their owners
  (optionally retaining the event);
* ``subscribe_batch`` (``subscribe`` is a batch of one, a formula a
  unit of its disjuncts) — register the subscriptions whole or not at
  all and, when events are being retained, immediately evaluate them
  against the still-valid events (retroactive notifications, sent the
  way a publish sends its matches).

The matching engine is pluggable (:class:`DynamicMatcher` by default —
the paper's recommended configuration); expiry is lazy, driven by the
injected clock.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import threading
from collections.abc import Hashable
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.errors import (
    ExpiredError,
    InvalidEventError,
    InvalidSubscriptionError,
    UnknownSubscriptionError,
    id_repr,
    past_digit_limit,
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


def _check_ttl(ttl: Optional[float]) -> None:
    """Refuse a ttl no deadline can be computed from — NaN, which would
    stall the expiry heap, or a number past float range — before
    anything is installed, matched or journaled."""
    try:
        if ttl is None or not math.isnan(ttl):
            return
    except OverflowError:
        pass
    raise ExpiredError(f"ttl must be a number in float range, got {id_repr(ttl)}")


#: Things subscribe() accepts: a full Subscription or bare predicates.
SubscriptionLike = Union[Subscription, Sequence[Predicate]]


class SubscriptionTable:
    """A subscription's deadline and formula, kept beside the matcher
    that holds it: the one copy of the expiry, formula and unsubscribe
    rules, for a live broker and for recovery's replay of its log (in
    the source clock domain).  An immortal plain subscription costs
    nothing here."""

    def __init__(self) -> None:
        self._sub_expires: Dict[Any, float] = {}  # id -> absolute expiry
        #: ``(expires_at, tie, sub_id)``: *tie* orders equal deadlines by
        #: insertion, so ids (any hashable) are never compared.  A
        #: dropped id's entry stays until popped or trimmed.
        self._sub_expiry_heap: List[Tuple[float, int, Any]] = []
        self._expiry_tie = itertools.count()
        #: disjunct id -> formula id (publish reads it; only this class writes it).
        self.logical_of: Dict[Any, Any] = {}
        self._formula_disjuncts: Dict[Any, List[Any]] = {}  # and back

    def add(self, sub_id: Any, expires_at: Optional[float], logical: Optional[Any]) -> None:
        """The one way in: an untracked id, its deadline (None =
        immortal) and its formula (None = a plain subscription)."""
        if expires_at is not None:
            self._sub_expires[sub_id] = expires_at
            heapq.heappush(self._sub_expiry_heap, (expires_at, next(self._expiry_tie), sub_id))
        if logical is not None:
            self.logical_of[sub_id] = logical
            self._formula_disjuncts.setdefault(logical, []).append(sub_id)

    def drop(self, sub_id: Any) -> None:
        """The one way out; a formula goes with its last disjunct."""
        expires_at = self._sub_expires.pop(sub_id, None)
        if expires_at is not None:
            # A drop before the deadline leaves a stale heap entry: rebuild
            # once they outnumber live ones (amortized O(1) under churn).
            if len(self._sub_expiry_heap) > 2 * len(self._sub_expires):
                tie = self._expiry_tie
                self._sub_expiry_heap = [(at, next(tie), i) for i, at in self._sub_expires.items()]
                heapq.heapify(self._sub_expiry_heap)
        logical = self.logical_of.pop(sub_id, None)
        if logical is not None:
            siblings = self._formula_disjuncts[logical]
            siblings.remove(sub_id)
            if not siblings:
                del self._formula_disjuncts[logical]

    def targets(self, sub_id: Any) -> List[Any]:
        """What ``unsubscribe(sub_id)`` removes: the subscription
        *sub_id* if live (the caller knows), then every disjunct of the
        formula *sub_id*."""
        return [sub_id, *(d for d in self._formula_disjuncts.get(sub_id, ()) if d != sub_id)]

    def due(self, now: float) -> List[Any]:
        """Each id whose validity ended by *now*, once, for the caller to drop."""
        heap, expires = self._sub_expiry_heap, self._sub_expires
        if not heap or heap[0][0] > now:
            return []
        out = {}
        while heap and heap[0][0] <= now:
            sub_id = heapq.heappop(heap)[2]
            expires_at = expires.get(sub_id)  # None, or later: a stale entry
            if expires_at is not None and expires_at <= now:
                out[sub_id] = None
        return list(out)

    def state(self, sub_id: Any, now: float) -> Tuple[Optional[float], Optional[Any]]:
        """``(validity left at *now*, formula id)``, None for none."""
        expires_at = self._sub_expires.get(sub_id)
        remaining = None if expires_at is None else expires_at - now
        return remaining, self.logical_of.get(sub_id)

    def check_invariants(self, live: Set[Any]) -> None:
        """Raise AssertionError unless the heap holds every deadline
        within its trim bound, the formula maps are exact inverses with
        no empty formula, and every tracked id is in *live*."""
        heap, expires, formulas = self._sub_expiry_heap, self._sub_expires, self._formula_disjuncts
        assert len(heap) <= 2 * len(expires), "expiry heap past its trim bound"
        queued = {(at, sub_id) for at, _tie, sub_id in heap}
        assert queued >= {(at, sub_id) for sub_id, at in expires.items()}, "deadline off the heap"
        filed = {(d, logical) for logical, ds in formulas.items() for d in ds}
        assert sum(map(len, formulas.values())) == len(filed) == len(self.logical_of)
        assert all(formulas.values()) and filed == self.logical_of.items(), "formula maps"
        tracked = expires.keys() | self.logical_of.keys()
        assert tracked <= live, f"tracked but not live: {tracked - live!r}"


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
        #: Fault-injection hook (tests): called with a named crash point
        #: around every durability-relevant step; raising from it
        #: simulates a crash at that exact point.
        self.crash_hook: Optional[Callable[[str], None]] = None
        #: The one lock in front of the engine: every engine call this
        #: broker makes runs under it, so several threads may share one
        #: broker over any engine.  The delivery manager's ack, nack and
        #: poll take only its own lock and never wait behind matching.
        self._lock = threading.RLock()
        self._events = EventStore()
        #: Deadlines and formulas; the matcher holds the subscriptions.
        self._table = SubscriptionTable()
        self._auto_id = itertools.count()
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

    def restore_subscriptions(
        self, survivors: Iterable[Tuple[Subscription, Optional[float], Optional[Any]]]
    ) -> None:
        """Install a log's ``(subscription, ttl, formula id)`` survivors
        (recovery) as one batch: validity resumes with *ttl* (None =
        immortal) from one clock reading; nothing is journaled and nothing
        is retro-matched — the subscriptions already saw their past."""
        with self._lock:
            now = self.clock.now()
            subs, deadlines, formulas = [], [], []
            for sub, ttl, logical in survivors:
                subs.append(sub)
                deadlines.append(None if ttl is None else now + ttl)
                formulas.append(logical)
            self._install(subs, deadlines, formulas)

    def check_invariants(self) -> None:
        """Raise AssertionError if the subscription table disagrees with
        itself or with the matcher.  For tests — O(subscriptions)."""
        with self._lock:
            self._table.check_invariants({s.id for s in self.matcher.iter_subscriptions()})

    def _crash_point(self, name: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(name)

    def _check_journaled_id(self, sub_id: Any) -> None:
        """A journaling broker takes only ids its log gives back as
        themselves: JSON turns a tuple into a list (unhashable) and NaN
        into an unequal NaN, and recovery could key neither."""
        if self.wal is None or type(sub_id) is str:  # every str reads back; skip the round trip
            return
        try:
            back = json.loads(json.dumps(sub_id))
            if isinstance(back, Hashable) and back == sub_id:
                return
        except (TypeError, ValueError):  # no JSON form (an int past the digit limit has none)
            pass
        raise InvalidSubscriptionError(f"id {id_repr(sub_id)} would not read back from the log")

    def _check_journaled_values(self, subs: List[Subscription]) -> None:
        """A journaling broker takes only predicate values its log can
        write: an int past the str digit limit has no JSON form."""
        for sub in subs:
            for predicate in sub.predicates:
                if past_digit_limit(predicate.value):
                    raise InvalidSubscriptionError(
                        f"subscription {id_repr(sub.id)}: value {id_repr(predicate.value)} "
                        "has no form in the log"
                    )

    # ------------------------------------------------------------------
    # the one way in and out: matcher plus table, never journaled
    # ------------------------------------------------------------------
    def _install(
        self,
        subs: List[Subscription],
        deadlines: Iterable[Optional[float]],
        formulas: Iterable[Optional[Any]],
    ) -> None:
        """Add *subs* as one matcher batch (whole or not at all), then
        file each in the table with the deadline and formula id taken in
        order from *deadlines* and *formulas*."""
        self.matcher.add_batch(subs)
        add = self._table.add
        for sub, expires_at, logical in zip(subs, deadlines, formulas):
            add(sub.id, expires_at, logical)
        self.counters["subscribed"] += len(subs)

    def _uninstall(self, sub_ids: List[Any]) -> List[Subscription]:
        """Remove live *sub_ids* as one matcher batch; returns them."""
        removed = self.matcher.remove_batch(sub_ids)
        for sub_id in sub_ids:
            self._table.drop(sub_id)
        return removed

    def _admit(
        self, subs: List[Subscription], formula: Optional[Any], ttl: Optional[float], retro: bool
    ) -> None:
        """The one write path in: install *subs* — plain subscriptions
        (*formula* None), or the disjuncts of the formula *formula*,
        whose ids all differ from it — whole or not at all, journal them
        under one durability boundary, then retro-match each unit (a
        plain subscription, or the formula's disjuncts together).  Lock
        held by the caller."""
        ttl = self.default_subscription_ttl if ttl is None else ttl
        _check_ttl(ttl)
        if ttl is not None and ttl <= 0:
            raise ExpiredError(f"subscription ttl must be positive, got {ttl}")
        now = self.clock.now()
        self._expire(now)
        if formula is None:
            for sub in subs:
                self._check_journaled_id(sub.id)
        else:
            self._check_journaled_id(formula)
        if self.wal is not None:
            self._check_journaled_values(subs)
        expires_at = None if ttl is None else now + ttl
        self._crash_point("subscribe:pre-apply")
        self._install(subs, itertools.repeat(expires_at), itertools.repeat(formula))
        wal = self.wal
        if wal is not None:
            # Applied-then-logged: a crash in the gap loses only this
            # not-yet-acknowledged batch — still a consistent prefix.
            # One line needs no block: its append applies the fsync
            # policy itself.
            if len(subs) == 1:
                self._journal_subscribes(wal, subs, ttl, formula, now)
            else:
                with wal.batched():
                    self._journal_subscribes(wal, subs, ttl, formula, now)
        if retro and len(self._events):
            units = [(sub.id, [sub]) for sub in subs] if formula is None else [(formula, subs)]
            for unit_id, unit in units:
                for event in self._events.retro_match(unit, now):
                    self._dispatch([unit_id], event, now)

    def _journal_subscribes(
        self,
        wal: "WriteAheadLog",
        subs: List[Subscription],
        ttl: Optional[float],
        formula: Optional[Any],
        now: float,
    ) -> None:
        self._crash_point("subscribe:pre-log")
        for sub in subs:
            wal.append_subscribe(sub, ttl=ttl, logical=formula, at=now)
        self._crash_point("subscribe:post-log")

    # ------------------------------------------------------------------
    # expiry plumbing
    # ------------------------------------------------------------------
    def purge_expired(self) -> int:
        """Drop every expired subscription and event; returns subs dropped."""
        with self._lock:
            return self._expire(self.clock.now())

    def _expire(self, now: float) -> int:
        self._events.purge(now)
        due = self._table.due(now)
        if due:
            self._uninstall(due)
        self.counters["expired_subscriptions"] += len(due)
        if due and self.wal is not None:
            # Expiry is recomputed from ttls at recovery, so it is not
            # journaled per subscription — but an anchor pins the clock
            # so recovery's crash-time estimate keeps pace.
            self.wal.append_anchor(now)
        return len(due)

    # ------------------------------------------------------------------
    # subscribe / unsubscribe
    # ------------------------------------------------------------------
    def subscribe(
        self,
        subscription: SubscriptionLike,
        ttl: Optional[float] = None,
        notify_retained: bool = True,
    ) -> Any:
        """Register a subscription; returns its id.  A batch of one
        (see :meth:`subscribe_batch`).

        Bare predicate sequences get an auto-generated id.  When events
        are retained, still-valid past events are matched immediately and
        notified (set ``notify_retained=False`` to skip).  A journaling
        broker refuses an id its log would not give back as itself.
        """
        return self._subscribe_batch([subscription], ttl, notify_retained)[0]

    def subscribe_batch(
        self, subscriptions: Iterable[SubscriptionLike], ttl: Optional[float] = None
    ) -> List[Any]:
        """Register a batch (the paper submits in ``n_S_b`` batches);
        returns the ids.  Whole or not at all: an id already taken (in
        the broker or earlier in the batch), an id the log would not
        give back, or a non-positive ttl leaves the broker and its log
        as they were.  One clock reading, one WAL durability boundary;
        each subscription is then retro-matched in batch order."""
        return self._subscribe_batch(subscriptions, ttl, True)

    def _subscribe_batch(
        self, subscriptions: Iterable[SubscriptionLike], ttl: Optional[float], notify_retained: bool
    ) -> List[Any]:
        with self._lock:
            auto = self._auto_id
            subs = [
                sub if isinstance(sub, Subscription) else Subscription(f"sub-{next(auto)}", sub)
                for sub in subscriptions
            ]
            self._admit(subs, None, ttl, notify_retained)
            return [sub.id for sub in subs]

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
        notifies it at most once.  The disjuncts are installed whole or
        not at all: one whose id is taken rolls back the others.
        """
        with self._lock:
            if sub_id is None:
                sub_id = f"sub-{next(self._auto_id)}"
            try:
                prefix = f"{sub_id}~dnf"
            except ValueError:  # an int past the str digit limit has no str form
                raise InvalidSubscriptionError(
                    f"formula id {id_repr(sub_id)} has no str form to name its disjuncts"
                ) from None
            self._admit(parse_subscriptions(text, prefix), sub_id, ttl, True)
            return sub_id

    def unsubscribe(self, sub_id: Any) -> Subscription:
        """Remove a subscription before its interval ends: the
        subscription *sub_id* if live, then every disjunct of the
        formula *sub_id*; returns the first one removed.  A batch of
        one (see :meth:`unsubscribe_batch`).
        """
        return self.unsubscribe_batch([sub_id])[0]

    def unsubscribe_batch(self, sub_ids: Iterable[Any]) -> List[Subscription]:
        """Remove every id as :meth:`unsubscribe` does; returns the first
        subscription removed for each.  Whole or not at all: the targets
        of every id are found first, and an id with nothing live left to
        remove raises :class:`UnknownSubscriptionError` before anything
        changes.  The ids are journaled under one WAL durability
        boundary."""
        with self._lock:
            sub_ids = list(sub_ids)
            targets: Dict[Any, None] = {}  # in removal order
            firsts: List[int] = []  # where each id's targets start
            for sub_id in sub_ids:
                head, *disjuncts = self._table.targets(sub_id)
                # The table tracks live ids only; the matcher knows *head*.
                live = [head, *disjuncts] if self._holds(head) else disjuncts
                found = [t for t in live if t not in targets]
                if not found:
                    raise UnknownSubscriptionError(sub_id)
                firsts.append(len(targets))
                targets.update(dict.fromkeys(found))
            removed = self._uninstall(list(targets))
            self.counters["unsubscribed"] += len(sub_ids)
            if self.wal is not None:
                now = self.clock.now()
                with self.wal.batched():
                    self._crash_point("unsubscribe:pre-log")
                    for sub_id in sub_ids:
                        self.wal.append_unsubscribe(sub_id, at=now)
                    self._crash_point("unsubscribe:post-log")
            return [removed[i] for i in firsts]

    def _holds(self, sub_id: Any) -> bool:
        try:
            return self.matcher.get(sub_id) is not None
        except UnknownSubscriptionError:
            return False

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
        2. **match** — one ``matcher.match_batch(events)`` call;
        3. per event, in event order: **collapse** formula disjunct ids
           onto their logical id (once per event), **dispatch**
           (:meth:`_dispatch`, the step a retro-match goes through too),
           **retain** the event when retention is on (constructor or
           per-call ``ttl``), **count**.

        Each result keeps the engine's own list type: a quarantining
        engine's :class:`PartialResults` (``degraded`` when a sick shard
        could not contribute) reach the publisher as such.  The broker
        lock is held once, across all three stages.
        """
        events = list(events)
        with self._lock:
            ttl = self.event_retention_ttl if ttl is None else ttl
            _check_ttl(ttl)
            if self.delivery is not None and self.delivery.wal is not None:
                # Refused before anything is matched or numbered: a
                # deliver line cannot hold an int past the digit limit.
                for event in events:
                    for value in event.values:
                        if past_digit_limit(value):
                            raise InvalidEventError(
                                f"event value {id_repr(value)} has no form in the delivery log"
                            )
            now = self.clock.now()
            self._expire(now)
            if self.delivery is not None:
                self.delivery.pump(now)
            raw_lists = self.matcher.match_batch(events)
            logical_of = self._table.logical_of
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
                    self._dispatch(matched, event, now)
                if retain_until is not None:
                    self._events.add(event, retain_until)
                counters["published"] += 1
                if degraded:
                    counters["degraded_publishes"] += 1
                out.append(matched)
            return out

    def _dispatch(self, sub_ids: List[Any], event: Event, now: float) -> None:
        """The one way to a subscriber, for a published event and a
        retained one alike: *sub_ids* (logical ids *event* matched) go
        through ``delivery.dispatch_matches`` under one manager lock,
        the ids with no channel to the notifier.  Lock held."""
        delivery = self.delivery
        unhandled = sub_ids if delivery is None else delivery.dispatch_matches(sub_ids, event, now)
        # A discarding sink gets no Notification objects built for it.
        if unhandled and not isinstance(self.notifier, NullNotifier):
            deliver = self._deliver
            for sub_id in unhandled:
                deliver(Notification(sub_id, event, now))
        self.counters["notifications"] += len(sub_ids)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def subscription_count(self) -> int:
        """Live subscriptions (before lazy expiry)."""
        with self._lock:
            return len(self.matcher)

    @property
    def retained_event_count(self) -> int:
        """Events currently retained for retro-matching."""
        return len(self._events)

    def stats(self) -> Dict[str, Any]:
        """Broker counters plus the engine's own statistics."""
        with self._lock:
            out = {
                "subscriptions": len(self.matcher),
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
        with self._lock:
            self.matcher.close()

    def __enter__(self) -> "PubSubBroker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
