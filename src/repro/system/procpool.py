"""Process-per-shard execution backend for the sharded matcher.

The paper's premise is matching "as fast as the hardware allows", but a
thread-based :class:`~repro.system.sharding.ShardedMatcher` is
GIL-capped at roughly one core of matching work.  This module makes the
parallelism literal: one **worker process per shard**, each owning a
private matcher instance, fed over an ordered duplex pipe and answering
on the same pipe — so the existing fan-out thread pool blocks in
``recv`` (releasing the GIL) while N workers match concurrently on N
cores.

Design contract (pinned by ``tests/system/test_procpool_conformance.py``
and ``tests/properties/test_prop_procpool.py``):

* **One ordered command pipe per worker.**  Subscription mutations and
  event batches travel through the *same* pipe, so every worker
  observes exactly the operation sequence its parent issued — the
  property the determinism tests pin.  The parent mirrors each worker's
  subscriptions in a :class:`~repro.core.handles.HandleTable`: the mirror
  numbers every subscription, each add op carries its handle, and the
  mirror is the replay source after a crash and the table that turns
  the worker's hit handles back into ids.
* **Mutations are write-behind; every read is the barrier.**  ``add`` /
  ``remove`` are decided against the mirror (a duplicate or unknown id
  raises at once, with no pipe traffic) and pickled onto the shard's
  chunk, one pickle stream with one memo (a predicate or a class that
  recurs in the chunk is written once); the chunk goes down the pipe as
  one ``apply`` message per ``_APPLY_CHUNK`` ops — posted, its ack
  collected later, at most one unacknowledged per worker — and, always,
  before any request that reads the worker.  A read therefore sees every
  write before it, and a mutation costs a share of one pipe message
  instead of a round trip.
* **Epoch checking.**  Every reply carries the worker's mutation epoch;
  a mismatch against the parent's mirror epoch (a lost command, a
  corrupted pipe) raises :class:`~repro.system.resilience.WorkerStateError`
  instead of silently decoding hit handles against the wrong table.
  So does a worker that rejects a mutation the mirror accepted.
* **Worker death is a shard failure, not a crash.**  A dead or hung
  worker surfaces as :class:`~repro.system.resilience.WorkerDiedError`
  from that one call; the *next* read through the shard transparently
  respawns the worker, replays its subscriptions from the mirror (the
  same chunked ``apply``), and proceeds.  Once the mirror has taken a
  mutation, ``add`` / ``remove`` never raise for transport reasons: the
  worker is marked dead and that next read heals it.  Under
  ``breaker=`` the sharded layer therefore gets the issue lifecycle for
  free: death trips the breaker, events skip the shard (degraded
  ``PartialResults``), and the half-open probe is what respawns and
  re-converges it.
* **One data plane, one counted fallback.**  Every pool owns an
  anonymous shared :class:`~repro.system.shm.ShmArena`, mapped before
  its workers fork: an event batch
  whose values are all float64-exact numbers is packed once into a slot
  as a :class:`~repro.batch.columns.ColumnarBatch` and every probed
  worker reads it in place.  A batch the arena cannot take goes down
  the pipe instead, counted by reason (``SHM_FALLBACK_REASONS``): odd
  values (strings, oversized ints) pickle the objects themselves (the
  core types pickle via their constructors), a batch larger than a slot
  or one that found no free slot in time pickles its columnar form.
  Match results return over the pipe as **sparse hit handles** — one
  int32 count per event plus the int32 handles the parent's mirror gave
  the matching subscriptions, O(hits) however large the shard.

Worker lifecycle: fork → warm-up handshake (the worker builds its
matcher and reports its name/pid, so factory failures surface at
construction; a new pool forks every worker before it waits on any) →
serve → graceful ``stop`` on :meth:`ProcessPool.close` (abrupt
``terminate``/``kill`` for stragglers).  Workers start by ``fork`` only:
that is how they get the arena (and how a factory may be a closure).
Metrics: ``repro_procpool_workers`` (live workers),
``repro_procpool_respawns_total`` (by shard),
``repro_procpool_ipc_seconds`` (by op; one ``mutate`` sample per
``apply`` message) and ``repro_procpool_mutations_total`` (ops).
"""

from __future__ import annotations

import io
import os
import pickle
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.batch.columns import ColumnarBatch
from repro.core.handles import HandleTable
from repro.core.matcher import Matcher
from repro.core.types import Event, Subscription
from repro.obs.registry import Instrumented, MetricsRegistry
from repro.system.resilience import WorkerDiedError, WorkerStateError
from repro.system.shm import ShmArena, SlotTicket

#: Poll granularity while waiting on a worker reply.  ``Connection.poll``
#: returns the instant data arrives; this only bounds how often worker
#: liveness is re-checked, so death never turns into a hang.
_POLL_SECONDS = 0.02

#: IPC op label values (the ``repro_procpool_ipc_seconds`` label set).
_IPC_OPS = ("mutate", "batch", "control")

#: Why a batch took the pipe instead of the arena (the
#: ``repro_shm_fallback_total`` reason label values): it could not ride
#: the columnar layout at all (``oddpath``), no free slot appeared within
#: the publish timeout (``slot_wait``), or it was larger than one slot
#: (``slot_full``).
SHM_FALLBACK_REASONS = ("oddpath", "slot_wait", "slot_full")

#: How long a publish waits for a free event slot before falling back to
#: the pipe transport (slow readers should degrade, not deadlock).
_SLOT_WAIT_SECONDS = 2.0

#: Arena geometry: event slots in the ring and bytes per slot.
_SHM_SLOTS = 4
_SHM_SLOT_BYTES = 1 << 20

#: Mutations per ``apply`` message: a shard's buffered adds/removes go
#: down the pipe when this many have gathered (and before every read).
_APPLY_CHUNK = 64


# ----------------------------------------------------------------------
# wire forms (shared by parent and worker)
# ----------------------------------------------------------------------
def encode_events(events: Sequence[Event]) -> Union[ColumnarBatch, List[Event]]:
    """Encode an event batch for the wire.

    A :class:`ColumnarBatch` when every value is a float64-exact number,
    else the events themselves (the pickled odd lane) — the type says
    which lane a payload is on.
    """
    batch = ColumnarBatch.from_events(events)
    return list(events) if batch is None else batch


def match_payload(
    matcher: Matcher,
    payload: Union[ColumnarBatch, List[Event]],
    rows: Optional[Sequence[int]] = None,
) -> List[List[Any]]:
    """Match one wire payload against *matcher* (the worker's hot path).

    A :class:`ColumnarBatch` reaches :meth:`Matcher.match_batch` as it
    is, so the vectorized predicate phase runs straight off the
    matrices — when *rows* is the identity routing the arrays (possibly
    shm slot views) are used in place, otherwise the routed sub-batch is
    copied out.  A pipe payload goes in whole (only the arena lane
    routes by *rows*).
    """
    if rows is not None and list(rows) != list(range(len(payload))):
        payload = payload.select(rows)
    return matcher.match_batch(payload)


def encode_results(lists: List[List[Any]], handle_of: Dict[Any, int]) -> Tuple[str, Any]:
    """Encode per-event match lists as sparse hits over the parent's
    handles.

    ``("hits", counts, handles)``: one int32 hit count per event and the
    int32 handles of the matching ids, ascending within each event so
    the decode yields ids in ascending handle order whatever order the
    engine produced them in.  O(hits), not O(events × table).  The
    worker holds a handle for every id it was given, so an id without
    one (an engine inventing ids) raises :class:`KeyError`, which the
    worker sends back as its error.
    """
    handles: List[int] = []
    for ids in lists:
        handles.extend(sorted([handle_of[sub_id] for sub_id in ids]))
    counts = np.array([len(ids) for ids in lists], dtype=np.int32)
    return ("hits", counts, np.array(handles, dtype=np.int32))


def decode_results(payload: Tuple[str, Any], table: HandleTable) -> List[List[Any]]:
    """Inverse of :func:`encode_results`, through the parent's mirror."""
    _tag, counts, handles = payload
    ids = table.ids(handles.tolist())
    out: List[List[Any]] = []
    start = 0
    for count in counts.tolist():
        out.append(ids[start : start + count])
        start += count
    return out


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
def _send(conn, status: str, value: Any) -> None:
    try:
        conn.send((status, value))
    except (ValueError, TypeError, AttributeError, ImportError):
        # Unpicklable payload (odd exception state): degrade to a
        # message-preserving stand-in rather than wedging the pipe.
        conn.send(("err", RuntimeError(f"unpicklable worker reply: {value!r}")))


def _match_slot(
    arena: ShmArena, matcher: Matcher, slot_index: int, generation: int, rows
) -> List[List[Any]]:
    """Match the rows of a published slot routed to this shard, reading
    the slot in place.

    A function of its own so the slot views it takes are dropped at
    return — a lingering view would block the arena unmap at shutdown
    (exported-pointer semantics).
    """
    return match_payload(matcher, arena.read_slot(slot_index, generation), rows)


def _worker_main(
    conn, factory: Callable[[], Matcher], arena: ShmArena, inherited: List[Any]
) -> None:
    """Serve one shard's matcher over *conn* until EOF or ``stop``.

    *arena* is the parent's, inherited at fork: the worker reads event
    slots in place and never writes them.  *inherited* are the parent's
    pipe ends the fork copied in; closed here, so when the parent dies
    every worker sees EOF and exits, and the arena goes with the last.
    """
    for end in inherited:
        end.close()
    try:
        matcher = factory()
    except BaseException as exc:
        _send(conn, "err", exc)
        conn.close()
        return
    _send(conn, "ok", {"name": getattr(matcher, "name", "?"), "pid": os.getpid()})
    handle_of: Dict[Any, int] = {}  # the parent's handle of every live id
    epoch = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        try:
            if op in ("batch", "batch_shm"):
                if op == "batch":  # the arena's fallback lane
                    lists = match_payload(matcher, msg[1])
                else:
                    lists = _match_slot(arena, matcher, *msg[1:])
                # One reply form for both lanes, always on the pipe.
                reply: Any = (epoch, encode_results(lists, handle_of))
            elif op == "apply":
                # One pickle stream, one memo: one epoch per op, in
                # order.  An op the engine rejects ends the message: the
                # parent treats the error reply as a state error and
                # replaces this worker.
                stream = io.BytesIO(msg[1])
                ops = pickle.Unpickler(stream)
                while True:
                    try:
                        mutation = ops.load()
                    except EOFError:
                        break
                    if mutation is _FORGET:  # a fresh memo from here on
                        ops = pickle.Unpickler(stream)
                        continue
                    if mutation[0]:
                        _add, handle, sub = mutation
                        matcher.add(sub)
                        handle_of[sub.id] = handle
                    else:
                        matcher.remove(mutation[1])
                        del handle_of[mutation[1]]
                    epoch += 1
                reply = epoch
            elif op == "rebuild":
                matcher.rebuild()
                reply = True
            elif op == "stats":
                reply = matcher.stats()
            elif op == "stop":
                _send(conn, "ok", True)
                break
            else:
                raise RuntimeError(f"unknown worker command {op!r}")
        except Exception as exc:
            _send(conn, "err", exc)
        else:
            _send(conn, "ok", reply)
    arena.close()
    conn.close()


# ----------------------------------------------------------------------
# the parent-side pool
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side record of one live worker process."""

    __slots__ = ("process", "conn", "name", "pid", "dead", "send_seconds")

    def __init__(self, process, conn, name: str, pid: int) -> None:
        self.process = process
        self.conn = conn
        self.name = name
        self.pid = pid
        self.dead = False
        #: Time the last posted message spent in ``send`` (its reply's
        #: wait is added when it is collected).
        self.send_seconds = 0.0


class ProcessPool(Instrumented):
    """N worker processes, one per shard, each serving one matcher.

    ``request_timeout`` bounds any single IPC round trip: a worker that
    stops answering (a deadlocked inner engine, a wedged pipe) is killed
    and reported as :class:`WorkerDiedError` instead of hanging the
    caller — the executor-level deadlock guard the chaos suite leans on.
    Workers start by ``fork`` (factories may be closures); a platform
    without it is refused at construction.  The pool owns one
    :class:`ShmArena`, mapped before the first fork, that every worker
    inherits, a respawned one included.
    """

    def __init__(
        self,
        factories: Sequence[Callable[[], Matcher]],
        request_timeout: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not factories:
            raise ValueError("a process pool needs at least one shard factory")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(
                f"request timeout must be positive seconds, got {request_timeout}"
            )
        import multiprocessing  # here, not at module level: it loads the socket stack
        from multiprocessing.reduction import ForkingPickler

        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "process shards need the 'fork' start method (workers inherit "
                "the shared event arena at fork), which this platform lacks; "
                'use executor="thread"'
            )
        self._dumps = ForkingPickler.dumps  # what ``Connection.send`` would write
        self._ctx = multiprocessing.get_context("fork")
        self.request_timeout = request_timeout
        self._factories = list(factories)
        self._workers: List[Optional[_Worker]] = [None] * len(factories)
        self._closed = False
        self.arena = ShmArena.create(slots=_SHM_SLOTS, slot_bytes=_SHM_SLOT_BYTES)
        self.use_metrics(metrics)
        try:
            # Every worker builds its matcher while the others do.
            for index in range(len(factories)):
                self._start(index)
            for index in range(len(factories)):
                self._handshake(index)
        except BaseException:
            # A factory failure must not leak the workers already started.
            self.close()
            raise

    # -- observability --------------------------------------------------
    def _bind_metrics(self) -> None:
        m = self.metrics
        m.gauge("repro_procpool_workers", "Live shard worker processes.").read(
            self, self.alive_count
        )
        respawns = m.counter(
            "repro_procpool_respawns_total",
            "Worker respawns after a death, by shard.",
            ("shard",),
        )
        self._m_respawns = [
            respawns.labels(shard=str(i)) for i in range(len(self._factories))
        ]
        ipc = m.histogram(
            "repro_procpool_ipc_seconds",
            "Parent time spent on one worker pipe message (send plus the "
            "wait for its reply), by op; one mutate sample per apply message.",
            ("op",),
        )
        self._m_ipc = {op: ipc.labels(op=op) for op in _IPC_OPS}
        self._m_mutations = m.counter(
            "repro_procpool_mutations_total",
            "Subscription adds/removes sent to workers inside apply messages.",
        ).labels()
        pipe_bytes = m.counter(
            "repro_procpool_bytes_total",
            "Estimated bytes moved over the worker command pipes, by "
            "direction.",
            ("direction",),
        )
        self._m_pipe_bytes = {
            direction: pipe_bytes.labels(direction=direction)
            for direction in ("send", "recv")
        }
        shm_bytes = m.counter(
            "repro_shm_bytes_total",
            "Bytes placed in the shared-memory arena (event batches, "
            "direction=publish; replies ride the pipe).",
            ("direction",),
        )
        self._m_shm_bytes = {"publish": shm_bytes.labels(direction="publish")}
        self._m_shm_wait = m.histogram(
            "repro_shm_slot_wait_seconds",
            "Time a publish waited for a free event slot.",
        ).labels()
        shm_fallback = m.counter(
            "repro_shm_fallback_total",
            "Shared-memory batches that degraded to the pipe transport, "
            "by reason.",
            ("reason",),
        )
        self._m_shm_fallback = {
            reason: shm_fallback.labels(reason=reason)
            for reason in SHM_FALLBACK_REASONS
        }

    # -- lifecycle ------------------------------------------------------
    @property
    def workers(self) -> int:
        """Configured worker count (== shard count)."""
        return len(self._factories)

    def alive(self, index: int) -> bool:
        """Is shard *index*'s worker up and trusted?"""
        worker = self._workers[index]
        return worker is not None and not worker.dead and worker.process.is_alive()

    def alive_count(self) -> int:
        """Workers currently up."""
        return sum(self.alive(i) for i in range(len(self._factories)))

    def worker_pid(self, index: int) -> Optional[int]:
        """OS pid of shard *index*'s worker (None when down)."""
        worker = self._workers[index]
        return None if worker is None else worker.pid

    def spawn(self, index: int) -> None:
        """Start (or restart) shard *index*'s worker and run the warm-up
        handshake; raises the factory's own error if construction fails."""
        self._start(index)
        self._handshake(index)

    def _start(self, index: int) -> None:
        """Fork shard *index*'s worker (it inherits the arena)."""
        if self._closed:
            raise WorkerDiedError("process pool is closed", shard=index)
        self._reap(index)
        parent_conn, child_conn = self._ctx.Pipe()
        held = [worker.conn for worker in self._workers if worker is not None]
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._factories[index], self.arena, held + [parent_conn]),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        process.start()
        child_conn.close()  # EOF detection needs the parent copy gone
        self._workers[index] = _Worker(process, parent_conn, "?", process.pid)

    def _handshake(self, index: int) -> None:
        """Wait for shard *index*'s worker to report its matcher built."""
        worker = self._workers[index]
        status, value = pickle.loads(self._recv(worker, index))
        if status == "err":
            self._reap(index)
            raise value
        worker.name = value.get("name", "?")
        worker.pid = value.get("pid", worker.pid)

    def respawn(self, index: int) -> None:
        """Replace a dead worker (counted in ``repro_procpool_respawns_total``)."""
        self.spawn(index)
        self._m_respawns[index].inc()

    def note_death(self, index: int) -> None:
        """Mark shard *index*'s worker untrusted and reclaim its process."""
        worker = self._workers[index]
        if worker is not None:
            worker.dead = True
        self._reap(index)

    def _reap(self, index: int) -> None:
        worker = self._workers[index]
        if worker is None:
            return
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - stubborn child
                worker.process.kill()
                worker.process.join(timeout=1.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        self._workers[index] = None

    def close(self) -> None:
        """Stop every worker: graceful ``stop`` first, then terminate."""
        if self._closed:
            return
        self._closed = True
        for index, worker in enumerate(self._workers):
            if worker is None:
                continue
            if not worker.dead and worker.process.is_alive():
                try:
                    worker.conn.send(("stop",))
                    worker.process.join(timeout=2.0)
                except (OSError, ValueError):
                    pass
            self._reap(index)
        self.arena.close()

    # -- shared-memory publish path ------------------------------------
    def publish_events(self, events: Sequence[Event], readers: int) -> Optional[SlotTicket]:
        """Pack *events* once into a free arena slot for *readers* shards.

        Returns the slot ticket (every reader must be driven through
        :meth:`ProcessShard.consume_slot`, which acks it), or None
        when the batch must take the pipe instead — odd-path values,
        a batch bigger than one slot, or no slot freeing up in time,
        each counted in ``repro_shm_fallback_total``.  A single event
        is a batch of one like any other.
        """
        batch = encode_events(events)
        if not isinstance(batch, ColumnarBatch):
            self._m_shm_fallback["oddpath"].inc()
            return None
        waited = time.perf_counter()
        ticket = self.arena.ring.acquire(readers, timeout=_SLOT_WAIT_SECONDS)
        self._m_shm_wait.observe(time.perf_counter() - waited)
        if ticket is None:
            self._m_shm_fallback["slot_wait"].inc()
            return None
        try:
            nbytes = self.arena.write_slot(ticket, batch)
        except BaseException:
            self.arena.ring.release(ticket)
            raise
        if nbytes is None:
            self.arena.ring.release(ticket)
            self._m_shm_fallback["slot_full"].inc()
            return None
        self._m_shm_bytes["publish"].inc(nbytes)
        return ticket

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the request/response hop --------------------------------------
    def request(self, index: int, message: Tuple, op: str = "control") -> Any:
        """One ordered round trip to shard *index*'s worker: :meth:`post`
        then :meth:`collect`."""
        self.post(index, message)
        return self.collect(index, op)

    def _live_worker(self, index: int) -> _Worker:
        worker = self._workers[index]
        if worker is None or worker.dead:
            raise WorkerDiedError(f"shard {index} has no live worker", shard=index)
        return worker

    def post(self, index: int, message: Tuple) -> None:
        """Send *message* to shard *index*'s worker without waiting.

        Its reply must be taken with :meth:`collect` before the next
        ``post``: with one message outstanding the worker writes its
        (small) reply only after consuming the whole message, so neither
        side can block on a full pipe.  Raises :class:`WorkerDiedError`
        (after marking the worker dead) if the pipe is broken.
        """
        worker = self._live_worker(index)
        start = time.perf_counter()
        buf = self._dumps(message)
        try:
            worker.conn.send_bytes(buf)
        except (OSError, ValueError, BrokenPipeError) as exc:
            self.note_death(index)
            raise WorkerDiedError(
                f"shard {index} worker pipe broke on send: {exc}", shard=index
            ) from exc
        self._m_pipe_bytes["send"].inc(len(buf))
        worker.send_seconds = time.perf_counter() - start

    def collect(self, index: int, op: str = "control") -> Any:
        """Wait for the reply to the message last posted to shard *index*.

        Returns the worker's ``("ok", value)`` / ``("err", exc)`` tuple;
        raises :class:`WorkerDiedError` (after marking the worker dead)
        if the worker exits, the pipe breaks, or the wait exceeds
        ``request_timeout``.  The ``op`` histogram takes the time the
        parent spent on the message: its send plus this wait.
        """
        worker = self._live_worker(index)
        start = time.perf_counter()
        buf = self._recv(worker, index)
        reply = pickle.loads(buf)
        self._m_pipe_bytes["recv"].inc(len(buf))
        self._m_ipc[op if op in self._m_ipc else "control"].observe(
            worker.send_seconds + time.perf_counter() - start
        )
        return reply

    def _recv(self, worker: _Worker, index: int) -> bytes:
        """The next message from *worker*, still pickled."""
        deadline = (
            None
            if self.request_timeout is None
            else time.monotonic() + self.request_timeout
        )
        while True:
            try:
                if worker.conn.poll(_POLL_SECONDS):
                    return worker.conn.recv_bytes()
            except (EOFError, OSError) as exc:
                self.note_death(index)
                raise WorkerDiedError(
                    f"shard {index} worker died mid-request: {exc}", shard=index
                ) from exc
            if not worker.process.is_alive():
                # Drain a reply that raced the exit before declaring death.
                try:
                    if worker.conn.poll(0):
                        return worker.conn.recv_bytes()
                except (EOFError, OSError):
                    pass
                self.note_death(index)
                raise WorkerDiedError(
                    f"shard {index} worker (pid {worker.pid}) died mid-request",
                    shard=index,
                )
            if deadline is not None and time.monotonic() >= deadline:
                self.note_death(index)
                raise WorkerDiedError(
                    f"shard {index} worker (pid {worker.pid}) exceeded the "
                    f"{self.request_timeout}s request timeout",
                    shard=index,
                )

    def stats(self) -> Dict[str, Any]:
        """JSON-serializable pool snapshot (same contract as matchers)."""
        return {
            "name": "procpool",
            "workers": len(self._factories),
            "alive": self.alive_count(),
            "request_timeout": self.request_timeout,
            "counters": {
                "respawns": int(sum(c.value for c in self._m_respawns)),
                "ipc_requests": int(
                    sum(h.count for h in self._m_ipc.values())
                ),
                "ipc_seconds": float(
                    sum(h.sum for h in self._m_ipc.values())
                ),
                "mutations": int(self._m_mutations.value),
                "pipe_bytes": {
                    direction: int(c.value)
                    for direction, c in self._m_pipe_bytes.items()
                },
            },
            "shm": dict(
                self.arena.health(),
                bytes={
                    direction: int(c.value)
                    for direction, c in self._m_shm_bytes.items()
                },
                fallbacks={
                    reason: int(c.value)
                    for reason, c in self._m_shm_fallback.items()
                },
            ),
        }


#: The mark a chunk carries where the parent cut a half-written op and
#: cleared its memo: the worker reads on with a fresh unpickler, so a
#: memo reference after the cut names what the parent meant.
_FORGET = None


class ProcessShard(Matcher):
    """Matcher-shaped proxy for one shard's worker process.

    Drops into :class:`~repro.system.sharding.ShardedMatcher` exactly
    where an inner engine would sit, so routing, breakers and the
    deterministic merge order all apply unchanged.
    Keeps the authoritative subscription mirror on the parent side: a
    :class:`~repro.core.handles.HandleTable`, the replay source and the
    decoder of hit handles (rows come back in ascending handle order).

    Mutations are write-behind: ``add`` / ``remove`` are decided against
    the mirror, change it at once and pickle an op — ``(True, handle,
    subscription)`` / ``(False, sub_id)`` — onto the chunk, one pickle
    stream that reaches the worker as one ``apply`` message per
    ``_APPLY_CHUNK`` ops.  Every call that reads the worker (``match``,
    ``match_batch``, ``consume_slot``, ``stats``, ``rebuild``) is a
    barrier: it first sends what is buffered and collects the
    outstanding ack, so the worker has seen exactly the parent's op
    sequence before it answers.

    Self-healing: if the worker is marked dead, the next barrier
    respawns it and replays the mirror *before* sending — which is
    precisely the half-open probe's job when a breaker quarantines the
    shard.
    """

    def __init__(self, pool: ProcessPool, index: int) -> None:
        self.pool = pool
        self.index = index
        self._mirror = HandleTable()
        self._epoch = 0
        #: Ops the mirror has taken and the worker has not been sent: how
        #: many, and the pickle stream holding them.
        self._buffered = 0
        self._new_chunk()
        #: The epoch the one unacknowledged ``apply`` must answer with.
        self._posted_epoch: Optional[int] = None
        #: A state error met while a mutation was flushing a chunk; the
        #: next barrier raises it (``add`` / ``remove`` must not).
        self._desync: Optional[WorkerStateError] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        worker = self.pool._workers[self.index]
        return worker.name if worker is not None else "process-shard"

    @property
    def epoch(self) -> int:
        """The parent-side mutation epoch: the worker's own, once it has
        applied what is still buffered."""
        return self._epoch

    # -- plumbing -------------------------------------------------------
    def _call(self, message: Tuple, op: str) -> Any:
        """One round trip that reads the worker, behind the barrier."""
        if self._desync is not None:
            exc, self._desync = self._desync, None
            raise exc
        if not self.pool.alive(self.index):
            self._heal()
        self._post_buffer()
        self._collect_ack()
        status, value = self.pool.request(self.index, message, op)
        if status == "err":
            raise value
        return value

    def _heal(self) -> None:
        """Respawn the worker and replay the subscription mirror."""
        self.pool.respawn(self.index)
        # Whatever was buffered or in flight went with the old worker;
        # the mirror holds all of it.  A fresh worker's epoch counts
        # only the replayed adds.
        self._buffered = 0
        self._new_chunk()
        self._posted_epoch = None
        self._epoch = 0
        for handle, sub in self._mirror.items():
            self._pickler.dump((True, handle, sub))
            self._record()

    def _new_chunk(self) -> None:
        self._chunk = io.BytesIO()
        self._pickler = pickle.Pickler(self._chunk, pickle.HIGHEST_PROTOCOL)

    def _cut(self, start: int) -> None:
        """Drop a half-written op: the stream back to *start*, and the
        memo, which may name objects whose bytes were just dropped."""
        self._chunk.seek(start)
        self._chunk.truncate()
        self._pickler.clear_memo()
        if start:
            self._pickler.dump(_FORGET)

    def _record(self) -> None:
        """Count one op the mirror has taken and the chunk holds.

        Never raises: the op is already in the mirror, so a transport
        failure here only leaves the worker marked dead for the next
        barrier to heal (an error out of ``add`` would have
        ``ShardedMatcher`` forget a subscription the mirror still holds).
        """
        self._epoch += 1
        self._buffered += 1
        if self._buffered < _APPLY_CHUNK:
            return
        try:
            self._post_buffer()
        except WorkerStateError as exc:
            self._desync = exc
        except WorkerDiedError:
            pass

    def _post_buffer(self) -> None:
        """Send the buffered ops as one ``apply``, not waiting for its ack."""
        if not self._buffered:
            return
        # Taken before anything can raise: a failed post marks the
        # worker dead, and the heal replays the mirror, not this chunk.
        ops, count, self._buffered = self._chunk.getvalue(), self._buffered, 0
        self._new_chunk()
        self._collect_ack()
        self.pool.post(self.index, ("apply", ops))
        self.pool._m_mutations.inc(count)
        self._posted_epoch = self._epoch

    def _collect_ack(self) -> None:
        """Check the outstanding ``apply`` landed where the mirror says."""
        if self._posted_epoch is None:
            return
        expected, self._posted_epoch = self._posted_epoch, None
        status, value = self.pool.collect(self.index, "mutate")
        if status == "err":
            self.pool.note_death(self.index)
            raise WorkerStateError(
                f"shard {self.index} worker rejected a mutation the parent "
                f"mirror accepted: {value!r}",
                shard=self.index,
            ) from value
        self._check_epoch(value, expected)

    def _check_epoch(self, worker_epoch: int, expected: int) -> None:
        if worker_epoch != expected:
            self.pool.note_death(self.index)
            raise WorkerStateError(
                f"shard {self.index} worker answered with epoch {worker_epoch}, "
                f"parent mirror is at {expected}",
                shard=self.index,
            )

    # -- the Matcher surface --------------------------------------------
    def add(self, subscription: Subscription) -> None:
        start = self._chunk.tell()
        try:
            # An unpicklable id fails here, before the mirror takes a handle.
            self._pickler.dump((True, self._mirror.next_handle, subscription))
            self._mirror.put(subscription)
        except BaseException:
            self._cut(start)
            raise
        self._record()

    def remove(self, sub_id: Any) -> Subscription:
        _handle, subscription = self._mirror.drop(sub_id)
        self._pickler.dump((False, sub_id))
        self._record()
        return subscription

    def match(self, event: Event) -> List[Any]:
        """A batch of one: its row comes back in handle order too."""
        return self.match_batch([event])[0]

    def match_batch(self, events: Sequence[Event]) -> List[List[Any]]:
        events = list(events)
        if not events:
            return []
        # Always the pipe: the sharded layer publishes a batch to the
        # arena once for all its shards (:meth:`consume_slot`) and comes
        # here only when that publish fell back — retrying the arena per
        # shard would count, and wait out, the same fallback again.
        worker_epoch, results = self._call(("batch", encode_events(events)), "batch")
        self._check_epoch(worker_epoch, self._epoch)
        return decode_results(results, self._mirror)

    def consume_slot(
        self, ticket: SlotTicket, rows: Optional[List[int]]
    ) -> List[List[Any]]:
        """Match the published slot's batch (or its *rows* subset).

        Consumes exactly one reader ack of *ticket* — in a ``finally``,
        so a worker that dies (or desyncs) mid-request still frees the
        slot for the next batch.
        """
        try:
            worker_epoch, results = self._call(
                ("batch_shm", ticket.index, ticket.generation, rows), "batch"
            )
            self._check_epoch(worker_epoch, self._epoch)
            return decode_results(results, self._mirror)
        finally:
            self.pool.arena.ring.ack(ticket)

    def rebuild(self) -> None:
        """Forward the build step to the worker's engine (if it has one)."""
        self._call(("rebuild",), "control")

    def get(self, sub_id: Any) -> Subscription:
        """Mirror lookup (authoritative; works even while the worker is down)."""
        return self._mirror.get(self._mirror.handle_of(sub_id))

    def iter_subscriptions(self) -> List[Subscription]:
        """The mirror's subscriptions in ascending handle order."""
        return [sub for _handle, sub in self._mirror.items()]

    def __len__(self) -> int:
        return len(self._mirror)

    def stats(self) -> Dict[str, Any]:
        """The worker engine's stats, or a mirror-only view when down."""
        try:
            return self._call(("stats",), "control")
        except WorkerDiedError:
            return {
                "name": self.name,
                "subscriptions": len(self._mirror),
                "counters": {},
                "worker": "down",
            }
