"""Crash recovery: rebuild a broker by replaying its write-ahead log.

The durable state of a broker is one file (:mod:`repro.system.wal`);
whether it was ever compacted makes no difference to the reader.
:func:`recover` replays it into an empty broker:

1. the log's longest valid prefix is replayed in order over a table
   keyed by subscription id — ``subscribe`` inserts/overwrites with its
   *absolute* expiry in the source broker's clock domain (``at`` +
   ``ttl``), ``unsubscribe`` deletes (including every disjunct of a
   logical formula id), ``anchor`` only advances time, and
   ``deliver``/``settle`` pairs fold into a
   :class:`~repro.system.delivery.DeliveryLedger` whose still-open
   entries (dispatched, never settled) are exactly the unacked
   in-flight notifications the crash interrupted;
2. the crash time is estimated as the newest timestamp seen anywhere
   (so clock anchors tighten ttl aging even across mutation-free
   stretches, and records with negative clock skew cannot move it
   backwards); every surviving entry is installed with its *remaining*
   validity, re-anchored on the recovering broker's clock, and entries
   that already expired before the crash are skipped.

Everything after the first damaged record is discarded — recovery
yields a *prefix-consistent* state, never a partially-trusted one.

When the recovering broker carries a
:class:`~repro.system.delivery.DeliveryManager` (``broker.delivery``),
the ledger's open entries are re-queued into it for redelivery
(subscribers that have not re-registered yet get theirs the moment they
do) and its dead letters are re-installed in the manager's
:class:`~repro.system.delivery.DeadLetterQueue` — an at-least-once
delivery survives a crash at any WAL offset.
"""

from __future__ import annotations

import dataclasses
import os
from typing import IO, Any, Dict, List, Optional, Union

from repro.core.errors import ReproError
from repro.core.types import Subscription
from repro.io import SerializationError, event_from_dict, subscription_from_dict
from repro.obs.registry import MetricsRegistry
from repro.system.broker import PubSubBroker
from repro.system.delivery import DeliveryLedger
from repro.system.wal import read_wal


class RecoveryError(ReproError, ValueError):
    """Recovery precondition violated (e.g. a non-empty target broker)."""


@dataclasses.dataclass
class RecoveryReport:
    """What one :func:`recover` run saw and rebuilt."""

    #: Subscriptions installed into the recovering broker.
    restored: int = 0
    #: Valid WAL records replayed (all kinds).
    wal_records: int = 0
    replayed_subscribes: int = 0
    replayed_unsubscribes: int = 0
    anchors: int = 0
    #: ``deliver`` / ``settle`` records folded into the delivery ledger.
    replayed_deliveries: int = 0
    replayed_settles: int = 0
    #: Deliveries still open at the crash (re-queued for redelivery).
    unacked_deliveries: int = 0
    #: Dead letters reconstructed from the log.
    recovered_dead_letters: int = 0
    #: Entries dropped because their validity ended before the crash.
    skipped_expired: int = 0
    #: WAL lines distrusted after the first damaged record.
    torn_tail_discarded: int = 0
    #: Unsubscribes whose target was already gone (expired at source).
    unknown_unsubscribes: int = 0
    #: Estimated source-broker clock at crash time.
    source_clock: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the CLI's ``repro recover`` output)."""
        return dataclasses.asdict(self)


@dataclasses.dataclass
class _Entry:
    subscription: Subscription
    #: Absolute expiry in the source clock domain; None = immortal.
    expires_src: Optional[float]
    logical: Optional[Any]


def _bind_metrics(registry: MetricsRegistry):
    replayed = registry.counter(
        "repro_recovery_replayed_total",
        "WAL records replayed during recovery, by kind.",
        ("kind",),
    )
    return {
        "subscribe": replayed.labels(kind="subscribe"),
        "unsubscribe": replayed.labels(kind="unsubscribe"),
        "anchor": replayed.labels(kind="anchor"),
        "deliver": replayed.labels(kind="deliver"),
        "settle": replayed.labels(kind="settle"),
        "restored": registry.counter(
            "repro_recovery_restored_total",
            "Subscriptions installed into the recovering broker.",
        ).labels(),
        "skipped_expired": registry.counter(
            "repro_recovery_skipped_expired_total",
            "Entries dropped at recovery because they expired pre-crash.",
        ).labels(),
        "torn_tail_discarded": registry.counter(
            "repro_recovery_torn_tail_discarded_total",
            "WAL lines distrusted after the first damaged record.",
        ).labels(),
    }


def recover(
    broker: PubSubBroker,
    wal_fp: Optional[IO[str]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> RecoveryReport:
    """Restore *broker* (must be empty) from a WAL stream.

    No stream is an empty log.  Raises :class:`RecoveryError` on a
    non-empty broker and :class:`~repro.system.wal.WalError` on input
    that is not a WAL at all.  The rebuilt state is *not* re-logged to
    any attached WAL — compact afterwards to re-establish durability.
    """
    if broker.subscription_count:
        raise RecoveryError("recovery requires an empty broker")
    report = RecoveryReport()

    wal_records: List[Dict[str, Any]] = []
    if wal_fp is not None:
        wal_records, report.torn_tail_discarded = read_wal(wal_fp)

    times = [
        float(r["at"]) for r in wal_records if isinstance(r.get("at"), (int, float))
    ]
    entries: Dict[Any, _Entry] = {}
    ledger = DeliveryLedger()
    for index, record in enumerate(wal_records):
        kind = record.get("type")
        at = record.get("at")
        if not isinstance(at, (int, float)):
            at = None
        if kind == "anchor":
            report.anchors += 1
        elif kind in ("deliver", "settle"):
            ledger.apply(record)
            if kind == "deliver":
                report.replayed_deliveries += 1
            else:
                report.replayed_settles += 1
        elif kind == "subscribe":
            try:
                sub = subscription_from_dict(record["subscription"])
            except (KeyError, TypeError, SerializationError):
                # Structurally valid JSON but not a replayable record:
                # treat like tail damage — trust nothing further.
                report.torn_tail_discarded += len(wal_records) - index
                break
            ttl = record.get("ttl")
            if ttl is not None and not isinstance(ttl, (int, float)):
                report.torn_tail_discarded += len(wal_records) - index
                break
            base = at if at is not None else (times and max(times)) or 0.0
            expires = None if ttl is None else base + ttl
            entries[sub.id] = _Entry(sub, expires, record.get("logical"))
            report.replayed_subscribes += 1
        elif kind == "unsubscribe":
            sid = record.get("id")
            removed = entries.pop(sid, None) is not None
            for key in [k for k, e in entries.items() if e.logical == sid]:
                del entries[key]
                removed = True
            if not removed:
                report.unknown_unsubscribes += 1
            report.replayed_unsubscribes += 1
        report.wal_records += 1

    now_src = max(times) if times else 0.0
    report.source_clock = now_src if wal_records else None

    for entry in entries.values():
        remaining = None if entry.expires_src is None else entry.expires_src - now_src
        if remaining is not None and remaining <= 0:
            report.skipped_expired += 1
            continue
        broker.restore_subscription(entry.subscription, remaining, entry.logical)
        report.restored += 1

    report.unacked_deliveries = len(ledger.outstanding)
    report.recovered_dead_letters = len(ledger.dead)
    delivery = getattr(broker, "delivery", None)
    if delivery is not None:
        # restore() never journals: the surviving ``deliver`` records
        # already cover these.
        for (sub_id, seq), info in ledger.outstanding.items():
            try:
                event = event_from_dict(info["event"])
            except (KeyError, TypeError, SerializationError):
                continue  # a ledger entry we cannot reconstruct
            delivery.restore(sub_id, seq, event, at=info["at"])
        for dead in ledger.dead:
            try:
                event = event_from_dict(dead["event"])
            except (KeyError, TypeError, SerializationError):
                continue
            delivery.restore_dead_letter(
                dead["sub"],
                dead["seq"],
                event,
                dead["reason"],
                dead["attempts"],
                dead["at"],
            )

    if metrics is not None:
        m = _bind_metrics(metrics)
        m["subscribe"].inc(report.replayed_subscribes)
        m["unsubscribe"].inc(report.replayed_unsubscribes)
        m["anchor"].inc(report.anchors)
        m["deliver"].inc(report.replayed_deliveries)
        m["settle"].inc(report.replayed_settles)
        m["restored"].inc(report.restored)
        m["skipped_expired"].inc(report.skipped_expired)
        m["torn_tail_discarded"].inc(report.torn_tail_discarded)
    return report


def recover_files(
    broker: PubSubBroker,
    wal_path: Optional[Union[str, os.PathLike]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> RecoveryReport:
    """:func:`recover` from a file path; a missing file is an empty log
    (a broker that crashed before its first append)."""
    if wal_path is None or not os.path.exists(wal_path):
        return recover(broker, metrics=metrics)
    with open(wal_path, encoding="utf-8") as wal_fp:
        return recover(broker, wal_fp, metrics=metrics)
