"""Hypothesis properties for the shared-memory ring and slot codecs.

Three invariants, each over adversarial schedules/shapes the unit pins
cannot enumerate:

* **Ring safety** — under any interleaving of acquires and (arbitrarily
  ordered) acks, the ring never double-books a slot, per-slot
  generations only ever increase, and a fully-drained ring returns to
  all-slots-free.
* **Slot codec** — any columnar-eligible batch (shape, value mix,
  attr-name length, row subset) round-trips through a slot bit-exactly.
* **Dtype table** — packing/unpacking any legal section list is the
  identity.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.batch.columns import ColumnarBatch
from repro.core import Event
from repro.system.procpool import encode_events
from repro.system.shm import (
    DTYPE_CODES,
    ShmArena,
    SlotRing,
    pack_dtype_table,
    unpack_dtype_table,
)

COMMON_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def arena():
    """One arena shared by every example (slots are fully recycled)."""
    with ShmArena.create(slots=2, slot_bytes=1 << 18) as a:
        yield a


class TestRingSafety:
    @COMMON_SETTINGS
    @given(
        slots=st.integers(min_value=1, max_value=4),
        reader_counts=st.lists(
            st.integers(min_value=1, max_value=3), min_size=1, max_size=24
        ),
        data=st.data(),
    )
    def test_any_acquire_ack_interleaving_is_safe(self, slots, reader_counts, data):
        ring = SlotRing(slots)
        outstanding = []  # [ticket, acks_remaining]
        held = set()
        last_generation = {}

        def ack_one():
            pick = data.draw(
                st.integers(min_value=0, max_value=len(outstanding) - 1),
                label="which outstanding ticket acks next",
            )
            entry = outstanding[pick]
            ring.ack(entry[0])
            entry[1] -= 1
            if entry[1] == 0:
                held.discard(entry[0].index)
                outstanding.pop(pick)

        for readers in reader_counts:
            while True:
                ticket = ring.acquire(readers, timeout=0.01)
                if ticket is not None:
                    break
                assert outstanding, "empty ring refused an acquire"
                ack_one()
            # never double-booked, generation strictly monotonic per slot.
            assert ticket.index not in held
            assert ticket.generation > last_generation.get(ticket.index, 0)
            last_generation[ticket.index] = ticket.generation
            held.add(ticket.index)
            outstanding.append([ticket, readers])
            assert ring.in_flight() == len(held)
        while outstanding:
            ack_one()
        assert ring.in_flight() == 0
        assert ring.pending() == [0] * slots


#: Columnar-eligible values: finite floats and float64-exact integers
#: (NaN/inf/strings/huge ints take the pickle odd path by design, which
#: never reaches a slot).
values = st.one_of(
    st.integers(min_value=-(2**53) + 1, max_value=2**53 - 1),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)

attr_names = st.lists(
    st.text(
        alphabet=st.characters(whitelist_categories=("L", "N")),
        min_size=1,
        max_size=12,
    ),
    min_size=1,
    max_size=8,
    unique=True,
)


@st.composite
def columnar_batches(draw):
    """(events, payload) with per-event random attribute subsets."""
    names = draw(attr_names)
    n_events = draw(st.integers(min_value=1, max_value=12))
    events = []
    for _ in range(n_events):
        subset = draw(
            st.lists(st.sampled_from(names), min_size=1, unique=True)
        )
        events.append(Event({a: draw(values) for a in subset}))
    return events


class TestSlotCodec:
    @COMMON_SETTINGS
    @given(events=columnar_batches(), data=st.data())
    def test_any_columnar_batch_round_trips_exactly(self, arena, events, data):
        batch = encode_events(events)
        assert isinstance(batch, ColumnarBatch)
        ticket = arena.ring.acquire(1, timeout=1.0)
        try:
            if arena.write_slot(ticket, batch) is None:
                return  # batch legitimately larger than one slot
            rows = data.draw(
                st.one_of(
                    st.none(),
                    st.lists(
                        st.integers(min_value=0, max_value=len(events) - 1),
                        max_size=len(events),
                    ),
                ),
                label="row subset",
            )
            read = arena.read_slot(ticket.index, ticket.generation)
            assert read.attrs == batch.attrs
            for column in ("values", "presence", "ints"):
                # bit-exact (NaN-safe: compared as bytes, not floats)
                assert getattr(read, column).tobytes() == getattr(batch, column).tobytes()
            got = (read if rows is None else read.select(rows)).to_events()
            want = events if rows is None else [events[i] for i in rows]
            assert [e.pairs for e in got] == [e.pairs for e in want]
        finally:
            arena.ring.ack(ticket)


class TestDtypeTable:
    @COMMON_SETTINGS
    @given(
        dtypes=st.lists(
            st.sampled_from(sorted(DTYPE_CODES)), min_size=0, max_size=8
        )
    )
    def test_pack_unpack_is_identity(self, dtypes):
        word = pack_dtype_table(dtypes)
        assert unpack_dtype_table(word, len(dtypes)) == tuple(dtypes)
