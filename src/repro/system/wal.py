"""Write-ahead log: the broker's one durable file.

The paper's system model (Section 5) keeps the whole subscription base
in main memory at a broker under continuous churn, so what survives a
crash is what was written down.  Every ``subscribe``/``unsubscribe``
the broker accepts (and every at-least-once delivery it dispatches) is
appended here as one JSON line; :func:`repro.system.recovery.recover`
replays the log and restores the pre-crash state.

Format — JSON lines, one record per line, ``sort_keys`` for stability:

* header (first line): ``{"type": "repro-broker-wal", "version": 1,
  "clock": t}``;
* ``{"type": "anchor", "at": t}`` — clock anchor: proof that the source
  broker's clock reached *t*, even if no mutation happened.  Recovery
  takes the max of all timestamps as the crash-time estimate, so
  anchors tighten ttl aging;
* ``{"type": "subscribe", "at": t, "subscription": {...}, "ttl": x}``
  (plus ``"logical": id`` for formula disjuncts);
* ``{"type": "unsubscribe", "at": t, "id": sid}``;
* ``{"type": "deliver", "at": t, "sub": sid, "seq": n, "event":
  {...}}`` — an at-least-once delivery was *dispatched* (journaled
  before the first send attempt, so a crash mid-send is recovered as an
  unacked delivery);
* ``{"type": "settle", "at": t, "sub": sid, "seq": n, "outcome":
  "ack"|"shed"|"dead-letter"|"redriven", "attempts": k}`` (plus ``"reason"`` for
  dead letters) — that delivery no longer needs redelivery.  The
  unmatched ``deliver`` records in the log prefix are exactly the
  in-flight set recovery must re-queue (see
  :class:`repro.system.delivery.DeliveryLedger`).

All timestamps are in the *source broker's* clock domain; recovery only
ever uses differences between them, so any monotonic clock works (the
broker passes its own).

Durability knobs:

* ``fsync="always"`` — fsync after every append (each acknowledged
  mutation survives power loss);
* ``fsync="interval"`` — fsync at most every ``fsync_interval`` seconds
  of real time (bounded loss window, amortized cost); callers with a
  natural batching boundary (the
  :class:`~repro.system.server.BatchServer`) call :meth:`sync`
  explicitly at it;
* ``fsync="never"`` — never fsync (the OS page cache is the only
  durability; process crashes are still survivable because every append
  is flushed to the OS).

Torn tails: a crash mid-append leaves a truncated or garbled last line.
The log is *prefix-consistent* — nothing after the first damage is
trusted — and :class:`WalReader` is the one place that says so: the
append path (re-opening a log truncates it to :func:`scan_valid_prefix`),
:func:`read_wal`, recovery and the CLI are all folds over it.

Compaction: a snapshot is nothing but a log that has been compacted.
:meth:`WriteAheadLog.compact` runs recovery's fold over the log, writes
what survives back as a fresh, ordinary log followed by whatever was
appended meanwhile, and swaps it in (temp file, fsync, rename — the one
commit point), bounding replay work.  Its only input is the log, so a
compacted log recovers to exactly what the log as written recovers to.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from collections.abc import Iterable, Iterator
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import IO, TYPE_CHECKING, Any, AnyStr, Callable, Dict, List, Optional, Tuple, Union

from repro.core.errors import ReproError
from repro.core.types import Subscription
from repro.io import event_to_dict
from repro.obs.registry import Instrumented
from repro.system.clock import Clock, SystemClock

if TYPE_CHECKING:  # recovery reads logs through this module
    from repro.system.recovery import FoldedLog

#: WAL format version (bump on incompatible changes).
FORMAT_VERSION = 1

#: The header's type tag.
HEADER_TYPE = "repro-broker-wal"

#: Header tag of the separate snapshot format this log replaced.
RETIRED_SNAPSHOT_TYPE = "repro-broker-snapshot"

#: Valid non-header record types.
RECORD_TYPES = ("anchor", "subscribe", "unsubscribe", "deliver", "settle")

#: Supported fsync policies.
FSYNC_POLICIES = ("always", "interval", "never")

#: A compaction's file buffer: each refill of a small one drops and retakes
#: the GIL, and 8 KiB starved a publishing thread for most of a fold.
_IO_BUFFER = 1 << 20

#: How log files are opened (injectable so the fault harness can wrap
#: the file object; see ``repro.testing.faults``).
Opener = Callable[[str, str], IO[str]]


class WalError(ReproError, ValueError):
    """Malformed write-ahead log or invalid WAL configuration."""


def _default_opener(path: str, mode: str) -> IO[str]:
    return open(path, mode, encoding="utf-8")


def _fsync(fp: IO[str]) -> None:
    """fsync a file object, tolerating sinks that have no descriptor."""
    try:
        fileno = fp.fileno()
    except (AttributeError, OSError, ValueError):
        return
    os.fsync(fileno)


def _check_header(record: Optional[Dict[str, Any]], parsed_ok: bool) -> None:
    """Reject files that are *valid JSON but not our WAL* — those are
    alien files, not crash damage, and must not be silently truncated."""
    if record is None:
        if parsed_ok:
            raise WalError(f"not a v{FORMAT_VERSION} broker WAL")
        return  # unparseable first line: crash damage, caller discards
    if record.get("type") == RETIRED_SNAPSHOT_TYPE:
        raise WalError(
            f"this is a {RETIRED_SNAPSHOT_TYPE!r} file, a retired format: a snapshot "
            "is now a compacted WAL — re-create it with `repro snapshot`"
        )
    if record.get("type") != HEADER_TYPE or record.get("version") != FORMAT_VERSION:
        raise WalError(f"not a v{FORMAT_VERSION} broker WAL")


def _parse_line(line: AnyStr) -> Tuple[Optional[Dict[str, Any]], bool]:
    """``(record-or-None, parsed_ok)`` for one line; torn (no newline)
    or garbled (not UTF-8, not JSON) is not parsed."""
    if not line.endswith(b"\n" if isinstance(line, bytes) else "\n"):
        return None, False
    try:
        parsed = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except ValueError:  # UnicodeDecodeError or JSONDecodeError
        return None, False
    return (parsed, True) if isinstance(parsed, dict) else (None, True)


def _timestamp(value: Any) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None


class WalReader:
    """The one reader: stream the trusted records of a log.

    *lines* is an open log, binary or text (or any iterable of its
    lines).  Iterating yields ``(record, end)`` per non-header record of
    the longest valid prefix, a line at a time; *end* is the offset just
    past it in the stream's own units (bytes for a binary stream — what
    a re-open truncates by).  The first torn, garbled or alien line ends
    the trusted prefix: it and everything after it are only counted.  A
    damaged header is an empty log; a first line that is valid JSON but
    not our header raises :class:`WalError` (not a WAL at all).

    A pass leaves behind :attr:`prefix_end` / :attr:`records` (the
    trusted prefix, header included), :attr:`discarded` (final once
    iteration ends — drain the reader to count what the caller stopped
    trusting earlier), :attr:`header_clock` and :attr:`last_at` (the
    newest record timestamp so far).
    """

    def __init__(self, lines: Iterable[AnyStr]) -> None:
        self._lines = lines
        self.prefix_end = 0
        self.records = 0
        self.discarded = 0
        self.header_clock: Optional[float] = None
        self.last_at: Optional[float] = None

    def __iter__(self) -> Iterator[Tuple[Dict[str, Any], int]]:
        lines = iter(self._lines)
        header = True
        for line in lines:
            record, parsed_ok = _parse_line(line)
            if header:
                _check_header(record, parsed_ok)
                if record is None:
                    break  # damaged header: trust nothing
                self.header_clock = _timestamp(record.get("clock"))
                self.prefix_end += len(line)
                header = False
                continue
            if record is None or record.get("type") not in RECORD_TYPES:
                break  # first damaged/alien record: distrust the rest
            at = _timestamp(record.get("at"))
            if at is not None and (self.last_at is None or at > self.last_at):
                self.last_at = at
            self.prefix_end += len(line)
            self.records += 1
            yield record, self.prefix_end
        else:
            return
        self.discarded = 1 + sum(1 for _ in lines)


def scan_valid_prefix(path: Union[str, os.PathLike]) -> Tuple[int, int, int, Optional[float]]:
    """The prefix form of :class:`WalReader`, for the file at *path*.

    Returns ``(prefix_bytes, records, discarded_lines, last_at)``: byte
    length of the trusted prefix (header included), its non-header
    record count, the (full or partial) lines after the first damage,
    and the newest timestamp seen (the header's clock included).
    """
    with open(path, "rb") as fp:
        reader = WalReader(fp)
        for _ in reader:
            pass
    stamps = [t for t in (reader.header_clock, reader.last_at) if t is not None]
    return reader.prefix_end, reader.records, reader.discarded, max(stamps, default=None)


def read_wal(fp: IO[AnyStr]) -> Tuple[List[Dict[str, Any]], int]:
    """The list form of :class:`WalReader`, for an open log.

    Returns ``(records, discarded_lines)``: the longest valid prefix of
    non-header records, and how many trailing lines (the first torn or
    garbled one and everything after it) were discarded.
    """
    reader = WalReader(fp)
    records = [record for record, _end in reader]
    return records, reader.discarded


#: ``json.dumps(sort_keys=True)`` as one C encoder built once (``dumps``
#: and ``JSONEncoder.encode`` build one per call), without the circular
#: reference check: a record is fresh lists and dicts of scalars.  Its
#: output is ASCII (``ensure_ascii``), so a line's length is its size in
#: bytes.
_CHUNKS = c_make_encoder(
    markers=None,
    default=json.JSONEncoder().default,
    encoder=encode_basestring_ascii,
    indent=None,
    key_separator=": ",
    item_separator=", ",
    sort_keys=True,
    skipkeys=False,
    allow_nan=True,
)
_INFINITY = float("inf")


def _encode(value: Any) -> str:
    return "".join(_CHUNKS(value, 0))


def _line(record: Dict[str, Any]) -> str:
    return _encode(record) + "\n"


def _json(value: Any) -> str:
    """``_encode(value)``, without the encoder call for the scalars a
    subscribe line holds (the encoder's own spellings)."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        return "-Infinity" if value == -_INFINITY else float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    return "null" if value is None else _encode(value)


def _header_record(at: float) -> Dict[str, Any]:
    return {"type": HEADER_TYPE, "version": FORMAT_VERSION, "clock": at}


def _subscribe_line(
    at: Optional[float], subscription: Subscription, ttl: Optional[float], logical: Optional[Any]
) -> str:
    """The ``subscribe`` record as ``_line`` writes it (``at`` left out
    when None — the ttl then runs from the crash-time estimate —
    ``logical`` only for a formula disjunct), put together in key order
    instead of through a dict: the most written line of a log."""
    head = '{"at": ' + _json(at) + ", " if at is not None else "{"
    if logical is not None:
        head += '"logical": ' + _json(logical) + ", "
    return (
        head
        + '"subscription": {"id": '
        + _json(subscription.id)
        + ', "predicates": '
        + _encode([p.as_tuple() for p in subscription.predicates])
        + '}, "ttl": '
        + _json(ttl)
        + ', "type": "subscribe"}\n'
    )


def _deliver_record(at: Any, sub_id: Any, seq: Any, event: Dict[str, Any]) -> Dict[str, Any]:
    return {"type": "deliver", "at": at, "sub": sub_id, "seq": seq, "event": event}


def _settle_record(
    at: Any, sub_id: Any, seq: Any, outcome: str, reason: Optional[str], attempts: Any
) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "type": "settle",
        "at": at,
        "sub": sub_id,
        "seq": seq,
        "outcome": outcome,
        "attempts": attempts,
    }
    if reason is not None:
        record["reason"] = reason
    return record


def _write_folded(log: "FoldedLog", out: IO[bytes]) -> int:
    """Write the fold *log* to *out* as a fresh log; returns the number of
    survivors: header, each survivor stamped at the crash-time estimate
    with the validity it has left (an at-less one stays at-less), each
    dead letter as ``deliver`` + ``settle``, then each open ``deliver``
    (so a ``(sub, seq)`` both dead and open reads back as both)."""
    def emit(line: str) -> None:
        out.write(line.encode("ascii"))

    at = log.report.source_clock or 0.0
    emit(_line(_header_record(at)))
    for subscription, remaining, logical, undated_ttl in log.survivors:
        if undated_ttl is None:
            emit(_subscribe_line(at, subscription, remaining, logical))
        else:
            emit(_subscribe_line(None, subscription, undated_ttl, logical))
    for dead in log.ledger.dead:
        key = dead["at"], dead["sub"], dead["seq"]
        emit(_line(_deliver_record(*key, dead["event"])))
        emit(_line(_settle_record(*key, "dead-letter", dead["reason"], dead["attempts"])))
    for (sub_id, seq), info in log.ledger.outstanding.items():
        emit(_line(_deliver_record(info["at"], sub_id, seq, info["event"])))
    return len(log.survivors)


def _head(fp: IO[bytes], size: int) -> Iterator[bytes]:
    """The lines of *fp*'s first *size* bytes, a line at a time."""
    while size > 0 and (line := fp.readline(size)):
        size -= len(line)
        yield line


class _Batched:
    """The block :meth:`WriteAheadLog.batched` returns; the nesting
    depth lives on the log, so blocks nest across instances."""

    __slots__ = ("_wal",)

    def __init__(self, wal: "WriteAheadLog") -> None:
        self._wal = wal

    def __enter__(self) -> "WriteAheadLog":
        wal = self._wal
        with wal._lock:
            wal._batch_depth += 1
        return wal

    def __exit__(self, *exc_info: Any) -> None:
        wal = self._wal
        with wal._lock:
            wal._batch_depth -= 1
            if wal._batch_depth == 0 and not wal._closed and wal._unsynced:
                wal._sync_if_due_locked()


class WriteAheadLog(Instrumented):
    """Append-only JSON-lines journal with pluggable fsync policy.

    Thread-safe: one internal lock serializes appends, syncs and a
    compaction's seal and swap, so a broker's writers and its delivery
    manager's settlements can share one log.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        fsync: str = "interval",
        fsync_interval: float = 1.0,
        clock: Optional[Clock] = None,
        opener: Opener = _default_opener,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; known: {', '.join(FSYNC_POLICIES)}"
            )
        if fsync_interval < 0:
            raise WalError(f"fsync interval must be >= 0, got {fsync_interval}")
        self.path = os.fspath(path)
        self.fsync_policy = fsync
        self.fsync_interval = fsync_interval
        self.clock = clock if clock is not None else SystemClock()
        self._opener = opener
        self._lock = threading.Lock()
        self._compacting = threading.Lock()  # one compaction at a time
        self._batch_depth = 0
        self._bytes = 0
        self._unsynced = 0
        self._last_sync = time.monotonic()
        self._closed = False
        # Appends are I/O-bound, so a live registry is the default (the
        # same reasoning as the sharded fan-out layer); ``use_metrics``
        # swaps in a shared one.
        self.use_metrics()
        torn = 0
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            # Re-opening an existing log: distrust any damaged tail
            # *before* appending after it, or the new records would sit
            # beyond the damage and be invisible to recovery.
            prefix_bytes, _records, torn, _last_at = scan_valid_prefix(self.path)
            if torn:
                with open(self.path, "r+b") as raw:
                    raw.truncate(prefix_bytes)
            self._bytes = prefix_bytes
            self._fp = self._opener(self.path, "a")
            if prefix_bytes == 0:  # even the header was damaged
                self._write_header(self.clock.now())
        else:
            self._fp = self._opener(self.path, "w")
            self._write_header(self.clock.now())
        if torn:
            self._m_torn.inc(torn)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _bind_metrics(self) -> None:
        m = self.metrics
        appends = m.counter(
            "repro_wal_appends_total", "WAL records appended, by kind.", ("kind",)
        )
        self._m_appends = {k: appends.labels(kind=k) for k in RECORD_TYPES}
        self._m_bytes = m.counter(
            "repro_wal_bytes_total", "Bytes appended to the WAL (header included)."
        ).labels()
        self._m_fsyncs = m.counter(
            "repro_wal_fsyncs_total", "fsync calls issued by the WAL."
        ).labels()
        self._m_compactions = m.counter(
            "repro_wal_compactions_total",
            "Compactions (log replaced by its compacted form).",
        ).labels()
        self._m_torn = m.counter(
            "repro_wal_torn_tail_discarded_total",
            "Damaged tail lines discarded when re-opening an existing log.",
        ).labels()
        m.gauge(
            "repro_wal_unsynced_appends",
            "Records appended since the last fsync (WAL lag).",
        ).read(self, lambda: self._unsynced)

    @property
    def counters(self) -> Dict[str, Any]:
        """Cumulative WAL counters (read from the registry families)."""
        return {
            "appends": sum(c.value for c in self._m_appends.values()),
            "fsyncs": self._m_fsyncs.value,
            "bytes": self._m_bytes.value,
            "compactions": self._m_compactions.value,
            "torn_tail_discarded": self._m_torn.value,
        }

    def stats(self) -> Dict[str, Any]:
        """Unified stats shape (same contract as the matchers)."""
        return {
            "name": "wal",
            "path": self.path,
            "fsync": self.fsync_policy,
            "bytes": self._bytes,
            "unsynced_appends": self._unsynced,
            "counters": self.counters,
        }

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def now(self) -> float:
        """The log's own clock (used when the caller has none)."""
        return self.clock.now()

    def _write_header(self, at: float) -> None:
        line = _line(_header_record(at))
        self._fp.write(line)
        self._fp.flush()
        self._bytes += len(line)
        self._m_bytes.inc(len(line))

    def _append(self, kind: str, line: str) -> None:
        with self._lock:
            if self._closed:  # checked under the lock: close() may have just run
                raise WalError("append to a closed WAL")
            self._fp.write(line)
            # Always hand the bytes to the OS: a *process* crash then
            # loses nothing; only the fsync policy decides what a
            # *machine* crash can lose.
            self._fp.flush()
            self._bytes += len(line)
            self._unsynced += 1
            self._m_bytes.inc(len(line))
            self._m_appends[kind].inc()
            if not self._batch_depth:  # else deferred to the batch end
                self._sync_if_due_locked()

    def append_subscribe(
        self,
        subscription: Subscription,
        ttl: Optional[float] = None,
        logical: Optional[Any] = None,
        at: Optional[float] = None,
    ) -> None:
        """Journal one accepted subscription (with its effective ttl)."""
        at = self.clock.now() if at is None else at
        self._append("subscribe", _subscribe_line(at, subscription, ttl, logical))

    def append_unsubscribe(self, sub_id: Any, at: Optional[float] = None) -> None:
        """Journal one accepted unsubscription (plain or logical id)."""
        at = self.clock.now() if at is None else at
        self._append("unsubscribe", _line({"type": "unsubscribe", "at": at, "id": sub_id}))

    def append_anchor(self, at: Optional[float] = None) -> None:
        """Journal a clock anchor (time passed without mutations)."""
        at = self.clock.now() if at is None else at
        self._append("anchor", _line({"type": "anchor", "at": at}))

    def append_deliver(
        self, sub_id: Any, seq: int, event: Any, at: Optional[float] = None
    ) -> None:
        """Journal one dispatched at-least-once delivery (write-ahead:
        appended *before* the first send attempt)."""
        at = self.clock.now() if at is None else at
        self._append("deliver", _line(_deliver_record(at, sub_id, seq, event_to_dict(event))))

    def append_settle(
        self,
        sub_id: Any,
        seq: int,
        outcome: str,
        reason: Optional[str] = None,
        attempts: int = 0,
        at: Optional[float] = None,
    ) -> None:
        """Journal one settled delivery (ack / shed / dead-letter / redriven)."""
        at = self.clock.now() if at is None else at
        self._append("settle", _line(_settle_record(at, sub_id, seq, outcome, reason, attempts)))

    # ------------------------------------------------------------------
    # durability boundary
    # ------------------------------------------------------------------
    def _sync_locked(self) -> None:
        self._fp.flush()
        _fsync(self._fp)
        self._last_sync = time.monotonic()
        self._unsynced = 0
        self._m_fsyncs.inc()

    def _sync_if_due_locked(self) -> None:
        """Keep the fsync policy's promise for what was appended."""
        if self.fsync_policy == "always" or (
            self.fsync_policy == "interval"
            and time.monotonic() - self._last_sync >= self.fsync_interval
        ):
            self._sync_locked()

    def sync(self) -> None:
        """Flush and fsync now, regardless of policy (batch boundaries)."""
        with self._lock:
            if not self._closed:
                self._sync_locked()

    def batched(self) -> "_Batched":
        """Amortize the durability boundary over a batch of appends.

        Inside the block, appends skip the per-record policy fsync (the
        bytes still reach the OS on every append — a process crash
        loses nothing).  When the outermost block exits, the policy's
        promise is restored in one step: ``always`` fsyncs once for the
        whole batch, ``interval`` fsyncs only if the interval has
        elapsed, ``never`` does nothing.  This is how
        ``PubSubBroker.subscribe_batch`` and the ``BatchServer`` keep
        one fsync per *batch* instead of one per subscription.
        Re-entrant: nested blocks sync once at the outermost exit.
        """
        return _Batched(self)

    def tell(self) -> int:
        """Bytes in the trusted log (header included)."""
        with self._lock:
            return self._bytes

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Replace the log by what it recovers to; returns the survivors.

        One at a time: **seal** (under the lock: flush, note the size),
        **fold** the sealed bytes with recovery's own ``fold_log`` into
        ``<path>.tmp`` off every lock, then under the lock copy what was
        appended meanwhile (unless the fold stopped trusting the log, as
        recovery would), fsync and rename — the one commit point.  A
        failure before the rename leaves the old log in charge; a failed
        reopen after it closes this object.
        """
        from repro.system.recovery import fold_log  # it imports this module

        with self._compacting:
            with self._lock:
                if self._closed:
                    raise WalError("compact on a closed WAL")
                self._fp.flush()
                sealed = self._bytes
            tmp_path = self.path + ".tmp"
            with open(self.path, "rb", _IO_BUFFER) as log, open(tmp_path, "wb", _IO_BUFFER) as tmp:
                folded = fold_log(WalReader(_head(log, sealed)))
                kept = _write_folded(folded, tmp)
                tmp.flush()  # durable before the rename; the bulk off the lock
                _fsync(tmp)
                with self._lock:
                    if self._closed:
                        raise WalError("compact on a closed WAL")
                    if not folded.report.torn_tail_discarded:
                        log.seek(sealed)
                        shutil.copyfileobj(log, tmp)
                        tmp.flush()
                        _fsync(tmp)
                    os.replace(tmp_path, self.path)
                    self._bytes = tmp.tell()
                    self._fp.close()
                    try:
                        self._fp = self._opener(self.path, "a")
                    except BaseException:
                        # The old file is unlinked: refuse appends rather
                        # than lose them.  A new WriteAheadLog on the path works.
                        self._closed = True
                        raise
                    self._m_bytes.inc(self._bytes)
                    self._sync_locked()  # already durable; resets the lag counters
                    self._m_compactions.inc()
        return kept

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush (and, unless policy is ``never``, fsync) and close."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fp.flush()
            if self.fsync_policy != "never":
                _fsync(self._fp)
                self._m_fsyncs.inc()
                self._unsynced = 0
            self._fp.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
