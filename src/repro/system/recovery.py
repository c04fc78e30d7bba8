"""Crash recovery: rebuild a broker by replaying its write-ahead log.

The durable state of a broker is one file (:mod:`repro.system.wal`);
:func:`fold_log` says what survives, for :func:`recover` to install
into an empty broker and for compaction to write back as a log:

1. the log's longest valid prefix is streamed, a record at a time
   (:class:`~repro.system.wal.WalReader`), into the live broker's own
   :class:`~repro.system.broker.SubscriptionTable` — ``subscribe``
   inserts/overwrites with its *absolute* expiry in the source broker's
   clock domain (``at`` + ``ttl``), ``unsubscribe`` removes what the
   live broker's did, ``anchor`` only advances time, and
   ``deliver``/``settle`` pairs fold into a
   :class:`~repro.system.delivery.DeliveryLedger` whose still-open
   entries (dispatched, never settled) are exactly the unacked
   in-flight notifications the crash interrupted;
2. the crash time is estimated as the newest timestamp seen anywhere
   (so clock anchors tighten ttl aging even across mutation-free
   stretches, and records with negative clock skew cannot move it
   backwards); entries that already expired before it are skipped, and
   :func:`recover` installs the survivors as one batch, each with its
   *remaining* validity, re-anchored on the recovering broker's clock.

Everything after the first damaged record is discarded — recovery
yields a *prefix-consistent* state, never a partially-trusted one —
and so is everything from a record that parses but cannot be replayed.

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
from collections.abc import Hashable
from typing import IO, Any, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.core.errors import ReproError
from repro.core.types import Subscription
from repro.io import SerializationError, event_from_dict, subscription_from_dict
from repro.obs.registry import MetricsRegistry
from repro.system.broker import PubSubBroker, SubscriptionTable
from repro.system.delivery import DeliveryLedger
from repro.system.wal import RECORD_TYPES, WalReader


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


class FoldedLog(NamedTuple):
    """What a log says survives (:func:`fold_log`): per survivor in install
    order ``(subscription, validity left at the crash, formula id, ttl of
    an at-less subscribe)``; the ledger; records per kind; the report."""

    survivors: List[Tuple[Subscription, Optional[float], Optional[Any], Optional[float]]]
    ledger: DeliveryLedger
    replayed: Dict[str, int]
    report: RecoveryReport


def fold_log(reader: WalReader) -> FoldedLog:
    """Fold *reader*'s records into what survives, in one pass whose
    memory is the surviving state, not the log."""
    report = RecoveryReport()
    records = iter(reader)
    subs: Dict[Any, Tuple[Subscription, Optional[float]]] = {}  # install order
    table = SubscriptionTable()
    ledger = DeliveryLedger()
    replayed = dict.fromkeys(RECORD_TYPES, 0)  # kind -> records folded
    for record, _end in records:
        kind = record["type"]
        if kind == "subscribe":
            try:
                sub = subscription_from_dict(record["subscription"])
            except (KeyError, TypeError, SerializationError):
                sub = None
            at, ttl, logical = record.get("at"), record.get("ttl"), record.get("logical")
            # Replayable: a body, a numeric ttl, ids JSON did not make lists.
            trusted = (
                sub is not None
                and isinstance(sub.id, Hashable)
                and isinstance(logical, Hashable)
                and (ttl is None or isinstance(ttl, (int, float)))
            )
            if trusted:
                if sub.id in subs:  # overwritten in place
                    table.drop(sub.id)
                dated = isinstance(at, (int, float))
                table.add(sub.id, at + ttl if dated and ttl is not None else None, logical)
                subs[sub.id] = (sub, None if dated else ttl)
        elif kind == "unsubscribe":
            sub_id = record.get("id")
            trusted = isinstance(sub_id, Hashable)
            if trusted:
                targets = [t for t in table.targets(sub_id) if t in subs]
                for target in targets:
                    table.drop(target)
                    del subs[target]
                if not targets:
                    report.unknown_unsubscribes += 1
        else:
            trusted = ledger.apply(record)
        if not trusted:
            # Treat like tail damage — trust nothing further, but read
            # on to count it (and keep the clock estimate).
            report.torn_tail_discarded = 1 + sum(1 for _ in records)
            break
        replayed[kind] += 1
    report.torn_tail_discarded += reader.discarded
    report.wal_records = sum(replayed.values())
    report.anchors = replayed["anchor"]
    report.replayed_subscribes = replayed["subscribe"]
    report.replayed_unsubscribes = replayed["unsubscribe"]
    report.replayed_deliveries = replayed["deliver"]
    report.replayed_settles = replayed["settle"]
    now_src = reader.last_at if reader.last_at is not None else 0.0
    report.source_clock = now_src if reader.records else None
    survivors = []
    for sub_id, (sub, undated_ttl) in subs.items():
        remaining, logical = table.state(sub_id, now_src)
        if undated_ttl is not None:
            remaining = now_src + undated_ttl - now_src
        if remaining is None or remaining > 0:
            survivors.append((sub, remaining, logical, undated_ttl))
    report.skipped_expired = len(subs) - len(survivors)
    return FoldedLog(survivors, ledger, replayed, report)


def recover(
    broker: PubSubBroker,
    wal_fp: Optional[Union[IO[str], IO[bytes]]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> RecoveryReport:
    """Restore *broker* (must be empty) from a WAL stream, text or binary:
    :func:`fold_log`, then install what survives.

    No stream is an empty log.  Raises :class:`RecoveryError` on a
    non-empty broker and :class:`~repro.system.wal.WalError` on input
    that is not a WAL at all.  The log holds only what was journaled to
    it: to go on journaling, open the ``WriteAheadLog`` on the same file.
    """
    if broker.subscription_count:
        raise RecoveryError("recovery requires an empty broker")
    survivors, ledger, replayed, report = fold_log(WalReader(wal_fp if wal_fp is not None else ()))
    broker.restore_subscriptions((sub, left, logical) for sub, left, logical, _ttl in survivors)
    report.restored = len(survivors)

    dead_letters = ledger.dead
    report.unacked_deliveries = len(ledger.outstanding)
    report.recovered_dead_letters = len(dead_letters)
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
        for dead in dead_letters:
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
        by_kind = metrics.counter(
            "repro_recovery_replayed_total",
            "WAL records replayed during recovery, by kind.",
            ("kind",),
        )
        for kind, count in replayed.items():
            by_kind.labels(kind=kind).inc(count)
        for name, count, help_text in (
            ("repro_recovery_restored_total", report.restored,
             "Subscriptions installed into the recovering broker."),
            ("repro_recovery_skipped_expired_total", report.skipped_expired,
             "Entries dropped at recovery because they expired pre-crash."),
            ("repro_recovery_torn_tail_discarded_total", report.torn_tail_discarded,
             "WAL lines distrusted after the first damaged record."),
        ):  # fmt: skip
            metrics.counter(name, help_text).labels().inc(count)
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
    # Bytes, as the re-open path reads them: a tail garbled into invalid
    # UTF-8 is damage to both, not a decode error to one.
    with open(wal_path, "rb") as wal_fp:
        return recover(broker, wal_fp, metrics=metrics)
