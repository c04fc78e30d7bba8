"""Unit pins for the shared-memory data plane (:mod:`repro.system.shm`).

Three layers, bottom up: the reader-acked :class:`SlotRing` (round-robin
reuse, generation bumping, stale/over-ack detection, timeout), the slot
codec over a live arena (header validation, zero-copy round trips,
graceful too-big refusals), and mapping lifecycle (a process forked
after create reads later writes in place; nothing ever appears in
``/dev/shm``).
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.batch.columns import ColumnarBatch
from repro.core import Event
from repro.system.procpool import encode_events
from repro.system.shm import (
    EVENT_DTYPES,
    ShmArena,
    ShmLayoutError,
    SlotRing,
    pack_dtype_table,
    unpack_dtype_table,
)


# ----------------------------------------------------------------------
# SlotRing
# ----------------------------------------------------------------------
class TestSlotRing:
    def test_round_robin_hands_out_distinct_slots(self):
        ring = SlotRing(3)
        tickets = [ring.acquire(1) for _ in range(3)]
        assert [t.index for t in tickets] == [0, 1, 2]
        assert ring.in_flight() == 3
        assert ring.pending() == [1, 1, 1]

    def test_acked_slot_is_reused_with_a_higher_generation(self):
        ring = SlotRing(3)
        tickets = [ring.acquire(1) for _ in range(3)]
        ring.ack(tickets[1])
        again = ring.acquire(1)
        assert again.index == 1
        assert again.generation == tickets[1].generation + 1

    def test_full_ring_times_out_until_every_reader_acks(self):
        ring = SlotRing(1)
        ticket = ring.acquire(2)
        assert ring.acquire(1, timeout=0.05) is None
        ring.ack(ticket)  # one of two readers: still busy
        assert ring.acquire(1, timeout=0.05) is None
        ring.ack(ticket)
        fresh = ring.acquire(1, timeout=0.05)
        assert fresh is not None and fresh.generation == ticket.generation + 1

    def test_stale_ticket_ack_raises(self):
        ring = SlotRing(1)
        old = ring.acquire(1)
        ring.ack(old)
        ring.acquire(1)  # same slot, new generation
        with pytest.raises(ShmLayoutError, match="stale ack"):
            ring.ack(old)

    def test_over_ack_raises(self):
        ring = SlotRing(2)
        ticket = ring.acquire(1)
        ring.ack(ticket)
        with pytest.raises(ShmLayoutError, match="over-ack"):
            ring.ack(ticket)

    @pytest.mark.parametrize("acked", [0, 2, 3])
    def test_release_returns_the_claims_still_held(self, acked):
        ring = SlotRing(1)
        ticket = ring.acquire(3)
        for _ in range(acked):
            ring.ack(ticket)
        assert ring.release(ticket) == 3 - acked
        assert ring.pending() == [0]
        fresh = ring.acquire(1, timeout=0.05)  # the slot is back in the ring
        assert fresh is not None and fresh.generation == ticket.generation + 1

    def test_stale_ticket_release_is_refused(self):
        ring = SlotRing(1)
        old = ring.acquire(1)
        ring.ack(old)
        ring.acquire(2)  # same slot, a later batch's claims
        with pytest.raises(ShmLayoutError, match="stale release"):
            ring.release(old)
        assert ring.pending() == [2]

    def test_constructor_and_acquire_validate_arguments(self):
        with pytest.raises(ValueError):
            SlotRing(0)
        ring = SlotRing(1)
        with pytest.raises(ValueError):
            ring.acquire(0)

    def test_blocked_acquire_wakes_when_a_reader_acks(self):
        ring = SlotRing(1)
        ticket = ring.acquire(1)
        releaser = threading.Timer(0.05, ring.ack, args=(ticket,))
        releaser.start()
        try:
            start = time.monotonic()
            fresh = ring.acquire(1, timeout=5.0)
            assert fresh is not None
            assert time.monotonic() - start < 4.0  # woke on notify, not timeout
        finally:
            releaser.cancel()


# ----------------------------------------------------------------------
# dtype table
# ----------------------------------------------------------------------
class TestDtypeTable:
    def test_event_layout_round_trips(self):
        word = pack_dtype_table(EVENT_DTYPES)
        assert unpack_dtype_table(word, len(EVENT_DTYPES)) == EVENT_DTYPES

    def test_unknown_dtype_and_code_fail_loudly(self):
        with pytest.raises(ValueError, match="unknown section dtype"):
            pack_dtype_table(("<f4",))
        with pytest.raises(ShmLayoutError, match="unknown dtype code"):
            unpack_dtype_table(0xFF, 1)

    def test_table_is_capped_at_eight_sections(self):
        with pytest.raises(ValueError, match="at most 8"):
            pack_dtype_table(("<f8",) * 9)


# ----------------------------------------------------------------------
# arena codecs
# ----------------------------------------------------------------------
def numeric_events(n=6):
    return [Event({"a": i, "b": i * 0.5, "c": -i}) for i in range(n)]


def columnar(events):
    batch = encode_events(events)
    assert isinstance(batch, ColumnarBatch), "test workload must ride the columnar layout"
    return batch


def publish(arena, events, readers=1):
    ticket = arena.ring.acquire(readers, timeout=1.0)
    assert ticket is not None
    nbytes = arena.write_slot(ticket, columnar(events))
    return ticket, nbytes


def read_copy(arena, ticket, rows=None):
    """Read a slot and materialize events (no view outlives this frame,
    or closing the segment would raise BufferError)."""
    batch = arena.read_slot(ticket.index, ticket.generation)
    return (batch if rows is None else batch.select(rows)).to_events()


@pytest.fixture
def arena():
    with ShmArena.create(slots=2, slot_bytes=1 << 16) as a:
        yield a


class TestEventSlotCodec:
    def test_slot_round_trip_is_exact(self, arena):
        events = numeric_events()
        ticket, nbytes = publish(arena, events)
        blob = json.dumps(columnar(events).attrs).encode()
        assert nbytes == arena.payload_bytes(len(events), 3, len(blob))
        got = read_copy(arena, ticket)
        assert [e.pairs for e in got] == [e.pairs for e in events]
        arena.ring.ack(ticket)

    def test_row_subset_selects_in_given_order(self, arena):
        events = numeric_events()
        ticket, _ = publish(arena, events)
        got = read_copy(arena, ticket, rows=[4, 0, 2])
        assert [e.pairs for e in got] == [events[i].pairs for i in (4, 0, 2)]
        arena.ring.ack(ticket)

    def test_oversized_batch_is_refused_without_writing(self, arena):
        big = [Event({f"a{j}": float(i + j) for j in range(40)}) for i in range(300)]
        ticket = arena.ring.acquire(1, timeout=1.0)
        assert arena.write_slot(ticket, columnar(big)) is None
        arena.ring.ack(ticket)

    def test_unwritten_slot_fails_magic_validation(self, arena):
        with pytest.raises(ShmLayoutError, match="bad magic"):
            arena.read_slot(1, 1)

    def test_generation_mismatch_is_detected(self, arena):
        ticket, _ = publish(arena, numeric_events())
        with pytest.raises(ShmLayoutError, match="generation"):
            arena.read_slot(ticket.index, ticket.generation + 1)
        arena.ring.ack(ticket)

    def test_slot_index_bounds_are_enforced(self, arena):
        with pytest.raises(ShmLayoutError, match="out of range"):
            arena.read_slot(arena.slots, 1)


# ----------------------------------------------------------------------
# mapping lifecycle
# ----------------------------------------------------------------------
class TestMappingLifecycle:
    def test_a_fork_shares_the_same_memory(self):
        """A process forked after ``create`` reads in place what the
        parent writes afterwards: the mapping is shared, not a
        copy-on-write snapshot."""
        events = numeric_events()
        ctx = multiprocessing.get_context("fork")
        with ShmArena.create(slots=2, slot_bytes=1 << 16) as parent:
            ask, answer = ctx.Pipe()

            def reader():  # the worker side: zero re-encode
                index, generation = answer.recv()
                batch = parent.read_slot(index, generation)
                answer.send([e.pairs for e in batch.to_events()])

            child = ctx.Process(target=reader, daemon=True)
            child.start()
            try:
                ticket, _ = publish(parent, events)
                ask.send((ticket.index, ticket.generation))
                assert ask.poll(30)
                assert ask.recv() == [e.pairs for e in events]
                parent.ring.ack(ticket)
            finally:
                child.join(timeout=10)

    def test_nothing_is_named_and_close_is_idempotent(self):
        before = set(os.listdir("/dev/shm"))
        arena = ShmArena.create(slots=2, slot_bytes=1 << 16)
        assert set(os.listdir("/dev/shm")) <= before  # no name to unlink or leak
        assert "segments" not in arena.health()
        assert arena.health()["bytes_total"] == 2 * (1 << 16)
        arena.close()
        arena.close()  # idempotent
        assert set(os.listdir("/dev/shm")) <= before

    def test_constructor_validates_sizes(self):
        with pytest.raises(ValueError):
            ShmArena.create(slots=0, slot_bytes=1 << 16)
        with pytest.raises(ValueError):
            ShmArena.create(slots=2, slot_bytes=8)
