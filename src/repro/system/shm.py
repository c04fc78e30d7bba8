"""Zero-copy shared-memory event plane for the process executor.

Pickling an event batch down each worker's pipe would serialize the
same columnar batch once **per shard** — four pickled copies on a
4-shard fan-out.  Every :class:`~repro.system.procpool.ProcessPool`
instead places batches write-once / read-many in one anonymous shared
mapping holding a small ring of fixed-size **event slots**.  The parent
packs a :class:`~repro.batch.columns.ColumnarBatch` (attrs table,
float64 value matrix, packed presence/int-ness bit rows) into a free
slot exactly once; every shard worker reads the slot in place (numpy
views over the mapping, no deserialization), so N shards cost one write
instead of N pickled sends.

The mapping is ``mmap(-1, size, MAP_SHARED)``, made before the pool
forks its workers: each worker, a respawned one included, inherits it
at fork and sees every later write.  It has no name, so there is nothing
to attach by, unlink or leak into ``/dev/shm``, and no helper process
tracks it: the kernel frees it with the last process that maps it, a
SIGKILLed parent included.

Replies do not come back through here: a worker answers with sparse hit
handles (:func:`repro.system.procpool.encode_results`), O(hits) bytes
that ride the pipe.

The command pipe carries the rest: slot hand-off, replies, and the
batches the arena cannot take — the pickle odd path for batches the
columnar form cannot carry (strings, integers at or past 2**53 — the
same split the batch kernel makes; NaN floats ride the matrix, the
presence bit distinguishes them from missing attributes), and a batch
larger than a slot or one that found no slot free in time.

Slot lifecycle (pinned by ``tests/system/test_shm_ring.py`` and the
hypothesis suite ``tests/properties/test_prop_shm.py``):

* :class:`SlotRing` hands out slots round-robin.  ``acquire(readers=k)``
  blocks until a slot's previous readers have all acked, bumps the
  slot's **generation**, and returns a :class:`SlotTicket`; every
  reader acks exactly once (in arbitrary order), and the slot becomes
  reusable only when the pending count hits zero.
* The generation is written into the slot header and echoed in every
  worker request/result, so a stale reuse (a lost ack, a desynced
  worker) surfaces as :class:`ShmLayoutError` instead of decoding
  someone else's batch.
* Worker death while holding a slot must not leak it: the parent-side
  request path acks in a ``finally``, so a SIGKILLed reader frees the
  slot exactly like a healthy one.
"""

from __future__ import annotations

import json
import mmap
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch.bitmatrix import packed_words
from repro.batch.columns import ColumnarBatch

#: Slot-header magic ("REPROSHM" little-endian) — a wrong-mapping or
#: torn-layout read fails loudly instead of decoding garbage.
_MAGIC = int.from_bytes(b"REPROSHM", "little")

#: Words (uint64) in an event-slot header.
HEADER_WORDS = 8

#: Section dtype codes recorded in (and validated against) the slot
#: header's dtype table.  The columnar batch always ships float64
#: values plus uint64-packed presence/int bit rows today; the table
#: exists so a future layout bump is a readable error, not corruption.
DTYPE_CODES: Dict[str, int] = {"<f8": 1, "<u8": 2}
_CODE_DTYPES = {code: dtype for dtype, code in DTYPE_CODES.items()}

#: The dtype table of the current columnar layout:
#: (values, presence, ints) section dtypes.
EVENT_DTYPES = ("<f8", "<u8", "<u8")


class ShmLayoutError(RuntimeError):
    """A shared-memory slot failed validation."""


def _pad8(n: int) -> int:
    """Round *n* up to a multiple of 8 bytes (u64 alignment)."""
    return (n + 7) & ~7


def pack_dtype_table(dtypes: Sequence[str]) -> int:
    """Encode up to 8 section dtypes into one header word (8 bits each)."""
    if len(dtypes) > 8:
        raise ValueError(f"dtype table holds at most 8 sections, got {len(dtypes)}")
    word = 0
    for i, dtype in enumerate(dtypes):
        try:
            word |= DTYPE_CODES[dtype] << (8 * i)
        except KeyError:
            raise ValueError(f"unknown section dtype {dtype!r}") from None
    return word


def unpack_dtype_table(word: int, n_sections: int) -> Tuple[str, ...]:
    """Inverse of :func:`pack_dtype_table` for the first *n_sections*."""
    out = []
    for i in range(n_sections):
        code = (word >> (8 * i)) & 0xFF
        dtype = _CODE_DTYPES.get(code)
        if dtype is None:
            raise ShmLayoutError(f"unknown dtype code {code} in section {i}")
        out.append(dtype)
    return tuple(out)


class SlotTicket:
    """One published batch: slot index + the generation it was written at.

    Carries the pending-reader accounting handle; every reader (one per
    shard the batch was handed to) must :meth:`SlotRing.ack` exactly
    once — the parent request path does so in a ``finally`` so worker
    death cannot leak the slot.
    """

    __slots__ = ("index", "generation", "readers")

    def __init__(self, index: int, generation: int, readers: int) -> None:
        self.index = index
        self.generation = generation
        self.readers = readers

    def __repr__(self) -> str:
        return (
            f"SlotTicket(slot={self.index}, gen={self.generation}, "
            f"readers={self.readers})"
        )


class SlotRing:
    """Reader-acked ring of reusable slots (parent-side bookkeeping only).

    Thread-safe: the sharded layer publishes from whatever thread runs
    ``match_batch`` and acks from its fan-out pool threads.  A slot is
    handed out again only when every reader of its previous batch has
    acked; generations increase monotonically per slot so stale tickets
    are detectable.
    """

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ValueError(f"ring needs at least one slot, got {slots}")
        self._pending = [0] * slots
        self._generation = [0] * slots
        self._next = 0
        self._cond = threading.Condition()

    @property
    def slots(self) -> int:
        return len(self._pending)

    def acquire(
        self, readers: int, timeout: Optional[float] = None
    ) -> Optional[SlotTicket]:
        """Claim a free slot for *readers* readers, or None on timeout.

        The scan starts after the last handed-out slot (round-robin), so
        consecutive batches land in different slots — the double-buffer
        behaviour that lets the parent pack batch *k+1* while slow
        readers drain batch *k*.
        """
        if readers < 1:
            raise ValueError(f"a published slot needs >= 1 reader, got {readers}")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                n = len(self._pending)
                for step in range(n):
                    index = (self._next + step) % n
                    if self._pending[index] == 0:
                        self._next = (index + 1) % n
                        self._pending[index] = readers
                        self._generation[index] += 1
                        return SlotTicket(index, self._generation[index], readers)
                if deadline is None:
                    self._cond.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        if deadline <= time.monotonic():
                            return None

    def _check_generation(self, ticket: SlotTicket, what: str) -> None:
        if self._generation[ticket.index] != ticket.generation:
            raise ShmLayoutError(
                f"stale {what} for slot {ticket.index}: ticket generation "
                f"{ticket.generation}, slot at {self._generation[ticket.index]}"
            )

    def ack(self, ticket: SlotTicket) -> None:
        """One reader is done with *ticket*'s slot (any order across slots)."""
        with self._cond:
            self._check_generation(ticket, "ack")
            if self._pending[ticket.index] <= 0:
                raise ShmLayoutError(
                    f"over-ack of slot {ticket.index} (generation "
                    f"{ticket.generation}): no readers pending"
                )
            self._pending[ticket.index] -= 1
            if self._pending[ticket.index] == 0:
                self._cond.notify_all()

    def release(self, ticket: SlotTicket) -> int:
        """Give back every reader claim *ticket* still holds (all of
        them for a slot nobody will read, none once every reader acked);
        returns how many.  A stale ticket is refused like a stale
        :meth:`ack`: its slot carries a later batch's claims."""
        with self._cond:
            self._check_generation(ticket, "release")
            held = self._pending[ticket.index]
            if held:
                self._pending[ticket.index] = 0
                self._cond.notify_all()
            return held

    def in_flight(self) -> int:
        """Slots currently held by at least one un-acked reader."""
        with self._cond:
            return sum(1 for p in self._pending if p)

    def pending(self) -> List[int]:
        """Per-slot outstanding reader counts (for health/tests)."""
        with self._cond:
            return list(self._pending)


class ShmArena:
    """The shared event-slot mapping plus the layout codec over it.

    Made with :meth:`create` in the pool's process, before any worker
    forks; a worker reads slots through its inherited copy of this
    object (its :attr:`ring` is the parent's bookkeeping and goes
    unused there).
    """

    def __init__(self, mapping: mmap.mmap, slots: int, slot_bytes: int) -> None:
        self._map = mapping
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.ring = SlotRing(slots)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, slots: int, slot_bytes: int) -> "ShmArena":
        """Map the event slot ring: anonymous, shared with later forks."""
        if slots < 1:
            raise ValueError(f"arena needs >= 1 slot, got {slots}")
        min_slot = HEADER_WORDS * 8 + 16
        if slot_bytes < min_slot:
            raise ValueError(f"slot_bytes must be >= {min_slot}, got {slot_bytes}")
        slot_bytes = _pad8(slot_bytes)
        mapping = mmap.mmap(-1, slots * slot_bytes, flags=mmap.MAP_SHARED)
        return cls(mapping, slots, slot_bytes)

    def close(self) -> None:
        """Unmap this process's view of the ring. Idempotent."""
        try:
            self._map.close()
        except BufferError:  # a slot view is still alive; it unmaps with it
            pass

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def health(self) -> Dict[str, Any]:
        """Slot state for ``executor_health()``."""
        return {
            "slots": self.slots,
            "slot_bytes": self.slot_bytes,
            "bytes_total": self.slots * self.slot_bytes,
            "slots_in_flight": self.ring.in_flight(),
        }

    # ------------------------------------------------------------------
    # event-slot codec (parent writes, workers read)
    # ------------------------------------------------------------------
    def _slot_words(self, index: int) -> np.ndarray:
        if not 0 <= index < self.slots:
            raise ShmLayoutError(f"slot index {index} out of range 0..{self.slots - 1}")
        start = index * self.slot_bytes
        return np.frombuffer(
            self._map, dtype="<u8", offset=start, count=self.slot_bytes // 8
        )

    def payload_bytes(
        self, n_events: int, n_attrs: int, blob_len: int
    ) -> int:
        """Bytes a columnar batch of this shape occupies inside a slot."""
        words = packed_words(n_attrs)
        return (
            HEADER_WORDS * 8
            + _pad8(blob_len)
            + n_events * n_attrs * 8
            + 2 * n_events * words * 8
        )

    def write_slot(self, ticket: SlotTicket, batch: ColumnarBatch) -> Optional[int]:
        """Pack one columnar batch into *ticket*'s slot.

        Returns the payload size in bytes, or None (without writing)
        when the batch does not fit ``slot_bytes`` — the caller falls
        back to the pipe transport and releases the ticket.
        """
        values, presence, ints = batch.values, batch.presence, batch.ints
        blob = json.dumps(batch.attrs).encode("utf-8")
        n_events, n_attrs = values.shape
        words = packed_words(n_attrs)
        need = self.payload_bytes(n_events, n_attrs, len(blob))
        if need > self.slot_bytes:
            return None
        slot = self._slot_words(ticket.index)
        header = np.array(
            [
                _MAGIC,
                ticket.generation,
                n_events,
                n_attrs,
                len(blob),
                pack_dtype_table(EVENT_DTYPES),
                words,
                0,
            ],
            dtype="<u8",
        )
        slot[:HEADER_WORDS] = header
        byte_view = slot.view("<u1")
        cursor = HEADER_WORDS * 8
        byte_view[cursor : cursor + len(blob)] = np.frombuffer(blob, dtype="<u1")
        cursor += _pad8(len(blob))
        n_values = n_events * n_attrs
        np.copyto(
            byte_view[cursor : cursor + n_values * 8].view("<f8"),
            values.reshape(-1),
            casting="same_kind",
        )
        cursor += n_values * 8
        n_bits = n_events * words
        np.copyto(
            byte_view[cursor : cursor + n_bits * 8].view("<u8"), presence.reshape(-1)
        )
        cursor += n_bits * 8
        np.copyto(
            byte_view[cursor : cursor + n_bits * 8].view("<u8"), ints.reshape(-1)
        )
        return need

    def read_slot(self, index: int, generation: int) -> ColumnarBatch:
        """The batch in slot *index*, as zero-copy views.

        Validates magic, generation and the dtype table; the batch's
        arrays alias the shared buffer and are only valid until the
        reader acks (i.e. for the duration of the request).
        """
        slot = self._slot_words(index)
        header = slot[:HEADER_WORDS]
        if int(header[0]) != _MAGIC:
            raise ShmLayoutError(f"slot {index}: bad magic {int(header[0]):#x}")
        if int(header[1]) != generation:
            raise ShmLayoutError(
                f"slot {index}: generation {int(header[1])} in header, "
                f"request expected {generation}"
            )
        n_events, n_attrs, blob_len = (
            int(header[2]),
            int(header[3]),
            int(header[4]),
        )
        dtypes = unpack_dtype_table(int(header[5]), len(EVENT_DTYPES))
        if dtypes != EVENT_DTYPES:
            raise ShmLayoutError(
                f"slot {index}: dtype table {dtypes} != expected {EVENT_DTYPES}"
            )
        words = int(header[6])
        if words != packed_words(n_attrs):
            raise ShmLayoutError(
                f"slot {index}: {words} packed words cannot hold {n_attrs} attrs"
            )
        if self.payload_bytes(n_events, n_attrs, blob_len) > self.slot_bytes:
            raise ShmLayoutError(f"slot {index}: header describes an oversized payload")
        byte_view = slot.view("<u1")
        cursor = HEADER_WORDS * 8
        attrs = json.loads(bytes(byte_view[cursor : cursor + blob_len]).decode("utf-8"))
        if len(attrs) != n_attrs:
            raise ShmLayoutError(
                f"slot {index}: attrs blob lists {len(attrs)}, header says {n_attrs}"
            )
        cursor += _pad8(blob_len)
        n_values = n_events * n_attrs
        values = byte_view[cursor : cursor + n_values * 8].view("<f8").reshape(
            n_events, n_attrs
        )
        cursor += n_values * 8
        n_bits = n_events * words
        presence = byte_view[cursor : cursor + n_bits * 8].view("<u8").reshape(
            n_events, words
        )
        cursor += n_bits * 8
        ints = byte_view[cursor : cursor + n_bits * 8].view("<u8").reshape(
            n_events, words
        )
        return ColumnarBatch(attrs, values, presence, ints)
