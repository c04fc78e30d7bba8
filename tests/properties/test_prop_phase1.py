"""Phase 1 has one copy: each index's compiled form vs. a whole recompile.

The batch kernel reads every predicate index through the index's own
compiled form (``OperatorIndex.vector_form``): built on first batch use,
dropped by that index's ``insert`` / ``remove``.  The reference below is
the previous design kept verbatim — one evaluator compiled whole from
``indexes.entries()`` — and after every step of any interleaving of
adds, removes and batches each live form must equal what that
from-scratch compile yields, and every truth row must equal the scalar
``indexes.evaluate`` of the same event — whether the batch reached
``evaluate`` as an event list or as its ``ColumnarBatch``.  Values are
the awkward ones:
strings (numeric-looking too), NaN, ints at and past 2**53, constants
float64 cannot carry.  An incremental patch of the arrays (ROADMAP 3a)
has to keep this green.
"""

import itertools
import math
import random

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.batch import BatchPredicateEvaluator
from repro.batch.columns import ColumnarBatch
from repro.core import BitVector, Event, Operator, Predicate, Subscription
from repro.indexes import IndexKind
from repro.matchers import CountingMatcher
from repro.workload import WorkloadGenerator, w0

_SAFE_INT = 2**53
#: Event values share one NaN object (the list kernel must hand the
#: exact path the event's own object); every NaN *constant* is a fresh
#: one — two predicates over the same NaN object are unequal yet collide
#: in the = / != dicts by identity, which ``add`` has never survived.
NAN = float("nan")
FRESH_NAN = st.builds(float, st.just("nan"))

ATTRIBUTES = st.sampled_from(["a", "b", "c"])
NUMBERS = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.sampled_from([0.5, 2.0, -1.5, math.inf, -math.inf]),
    st.sampled_from(
        [_SAFE_INT - 1, _SAFE_INT, _SAFE_INT + 1, -_SAFE_INT - 1, 2**60, 10**30, 1e300]
    ),
)
STRINGS = st.sampled_from(["x", "3", "0.5", "nan"])
VALUES = st.one_of(NUMBERS, STRINGS, st.just(NAN))
CONSTANTS = st.one_of(NUMBERS, STRINGS, FRESH_NAN)


@st.composite
def odd_predicates(draw):
    op = draw(st.sampled_from(list(Operator)))
    return Predicate(draw(ATTRIBUTES), op, draw(NUMBERS if op.is_range else CONSTANTS))


@st.composite
def odd_events(draw):
    attrs = draw(st.lists(ATTRIBUTES, min_size=1, max_size=3, unique=True))
    return Event({a: draw(VALUES) for a in attrs})


# ----------------------------------------------------------------------
# the reference: the whole-evaluator compile, as it was
# ----------------------------------------------------------------------
def _float_exact(value):
    if isinstance(value, float):
        return not math.isnan(value)
    return -_SAFE_INT <= value <= _SAFE_INT


class _EqualityGroup:
    """All ``=`` (or all ``!=``) constants of one attribute."""

    def __init__(self, pairs):
        self.all_bits = np.array(sorted(b for _, b in pairs), dtype=np.int64)
        numeric = [(v, b) for v, b in pairs if not isinstance(v, str)]
        safe = sorted((float(v), b) for v, b in numeric if _float_exact(v))
        self.exact = any(
            not _float_exact(v) and not (isinstance(v, float) and math.isnan(v))
            for v, _ in numeric
        )
        self.keys = np.array([k for k, _ in safe], dtype=np.float64)
        self.bits = np.array([b for _, b in safe], dtype=np.int64)


class _RangeGroup:
    """All constants of one ordered operator on one attribute."""

    def __init__(self, pairs):
        clean = [
            (v, b) for v, b in pairs if not (isinstance(v, float) and math.isnan(v))
        ]
        clean.sort(key=lambda vb: vb[0])
        self.exact = any(not _float_exact(v) for v, _ in clean)
        self.keys = np.array([v for v, _ in clean], dtype=np.float64)
        self.bits = np.array([b for _, b in clean], dtype=np.int64)
        self.all_bits = self.bits


def compile_whole(entries):
    """``{(attribute, operator): group}`` from ``indexes.entries()``."""
    grouped = {}
    for attr, op, value, bit in entries:
        grouped.setdefault((attr, op), []).append((value, bit))
    return {
        key: (_RangeGroup if key[1].is_range else _EqualityGroup)(pairs)
        for key, pairs in grouped.items()
    }


def assert_forms_equal_a_whole_recompile(indexes):
    reference = compile_whole(indexes.entries())
    live = {
        (attr, op): form
        for attr, forms in indexes.vector_forms()
        for op, form in forms
    }
    assert live.keys() == reference.keys()
    for key, form in live.items():
        ref = reference[key]
        assert form.exact == ref.exact, key
        assert sorted(form.all_bits.tolist()) == sorted(ref.all_bits.tolist()), key
        if not form.exact or not key[1].is_range:
            # (An inexact range group is never read through its arrays;
            # the reference kept the rounded constants in, the index
            # keeps them out.)
            assert form.keys.tolist() == ref.keys.tolist(), key
            assert form.bits.tolist() == ref.bits.tolist(), key


def scalar_rows(indexes, events, n_slots):
    """The truth matrix the scalar phase 1 produces, event by event."""
    truth = np.zeros((len(events), n_slots), dtype=bool)
    bits = BitVector()
    bits.grow_to(n_slots)
    for row, event in enumerate(events):
        bits.reset()
        indexes.evaluate(event, bits)
        truth[row, list(bits.set_indexes())] = True
    return truth


def rows_of(results):
    """Result rows as sorted lists (counting's two kernels order a row
    differently; membership is what phase 1 decides)."""
    return [sorted(row) for row in results]


def assert_both_forms_equal_the_scalar_rows(engine, events):
    """Phase 1 has one entry for both batch forms: ``evaluate`` over the
    event list and over its ``ColumnarBatch`` (when the batch encodes)
    must each give the scalar truth matrix, and so must the engine's
    ``match_batch`` rows."""
    kernel = BatchPredicateEvaluator(engine.indexes)
    n_slots = engine.bits.size
    expected = scalar_rows(engine.indexes, events, n_slots)
    assert np.array_equal(kernel.evaluate(events, n_slots), expected)
    scalar = rows_of(engine.match(e) for e in events)
    assert rows_of(engine.match_batch(events)) == scalar
    columnar = ColumnarBatch.from_events(events)
    if columnar is not None:
        assert np.array_equal(kernel.evaluate(columnar, n_slots), expected)
        assert rows_of(engine.match_batch(columnar)) == scalar


class PhaseOneMachine(RuleBasedStateMachine):
    """Both index kinds get every operation."""

    def __init__(self):
        super().__init__()
        self.engines = [CountingMatcher(index_kind=kind) for kind in IndexKind]
        self.live = []
        self.counter = 0

    @rule(preds=st.lists(odd_predicates(), min_size=1, max_size=3))
    def add(self, preds):
        self.counter += 1
        for engine in self.engines:
            engine.add(Subscription(f"s{self.counter}", preds))
        self.live.append(f"s{self.counter}")

    @rule(data=st.data())
    def remove(self, data):
        if not self.live:
            return
        sid = data.draw(st.sampled_from(self.live))
        self.live.remove(sid)
        for engine in self.engines:
            engine.remove(sid)

    @rule(events=st.lists(odd_events(), min_size=2, max_size=6))
    def match_batch(self, events):
        for engine in self.engines:
            assert_both_forms_equal_the_scalar_rows(engine, events)

    @invariant()
    def one_copy(self):
        for engine in self.engines:
            assert_forms_equal_a_whole_recompile(engine.indexes)
            engine.check_invariants()


TestPhaseOneHasOneCopy = PhaseOneMachine.TestCase
TestPhaseOneHasOneCopy.settings = settings(
    max_examples=150, stateful_step_count=25, deadline=None
)


def shard_shm_shaped():
    """A counting engine and ``shard_shm``-shaped traffic: 8 of 24
    attributes in random order, ints and floats mixed, so nearly every
    event is its own shape."""
    rng = random.Random(5)
    attrs = [f"a{i:02d}" for i in range(24)]
    engine = CountingMatcher()
    for i in range(400):
        engine.add(
            Subscription(
                i,
                [
                    Predicate(attr, rng.choice(list(Operator)), rng.randint(0, 9))
                    for attr in rng.sample(attrs, rng.randint(1, 3))
                ],
            )
        )
    events = [
        Event({a: rng.choice([v, float(v)]) for a, v in zip(rng.sample(attrs, 8), range(0, 16, 2))})
        for _ in range(96)
    ]
    return engine, events


def test_both_forms_when_every_event_brings_its_own_shape():
    engine, events = shard_shm_shaped()
    assert len({e.shape for e in events}) > 90
    assert_both_forms_equal_the_scalar_rows(engine, events)


def test_counting_reads_a_columnar_batch_end_to_end(monkeypatch):
    """What a process worker running counting does with an arena slot:
    phase 1 reads the matrices and phase 2 only the truth matrix, so no
    Event is ever built from the batch."""
    engine, events = shard_shm_shaped()
    expected = engine.match_batch(events)
    batch = ColumnarBatch.from_events(events)

    def refuse(self):
        raise AssertionError("the columnar batch was turned into events")

    monkeypatch.setattr(ColumnarBatch, "to_events", refuse)
    monkeypatch.setattr(ColumnarBatch, "__iter__", refuse)
    assert engine.match_batch(batch) == expected


def test_both_forms_on_a_dense_w0_batch():
    """W0: every event carries every attribute, one shared shape."""
    gen = WorkloadGenerator(w0(n_subscriptions=2000, seed=11))
    engine = CountingMatcher()
    for sub in gen.subscriptions():
        engine.add(sub)
    events = list(itertools.islice(gen.events(), 128))
    assert len({e.shape for e in events}) == 1
    assert_both_forms_equal_the_scalar_rows(engine, events)


def test_a_numeric_string_is_a_string_to_the_batch_kernel():
    """numpy parses ``"3"`` when asked for float64; the gather must not."""
    engine = CountingMatcher()
    engine.add(Subscription("eq", [Predicate("a", Operator.EQ, 3)]))
    engine.add(Subscription("le", [Predicate("a", Operator.LE, 4)]))
    events = [Event({"a": "3"}), Event({"a": 3.0}), Event({"a": _SAFE_INT + 1})]
    assert engine.match_batch(events) == [[], ["eq", "le"], []]
    assert ColumnarBatch.from_events(events[:1]) is None
