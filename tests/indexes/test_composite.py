"""PredicateIndexSet: phase-1 evaluation against a brute-force reference."""

import random

import pytest

from repro.core import BitVector, Event, Operator, Predicate
from repro.indexes import IndexKind, PredicateIndexSet


def brute_force_satisfied(preds_with_bits, event):
    """Reference: which bits should be set after evaluating *event*."""
    out = set()
    for pred, bit in preds_with_bits:
        v = event.get(pred.attribute)
        if (v is not None or event.has(pred.attribute)) and pred.matches(v):
            out.add(bit)
    return out


@pytest.mark.parametrize("kind", [IndexKind.SORTED_ARRAY, IndexKind.BTREE])
class TestEvaluate:
    def test_matches_brute_force_on_random_predicates(self, kind):
        rng = random.Random(3)
        idx = PredicateIndexSet(kind)
        bits = BitVector()
        preds = []
        for i in range(300):
            p = Predicate(
                f"a{rng.randint(0, 5)}",
                rng.choice(list(Operator)),
                rng.randint(1, 12),
            )
            if any(p == q for q, _ in preds):
                continue
            bit = bits.allocate()
            idx.insert(p, bit)
            preds.append((p, bit))
        for _ in range(60):
            event = Event(
                {f"a{j}": rng.randint(1, 12) for j in rng.sample(range(6), 4)}
            )
            bits.reset()
            n = idx.evaluate(event, bits)
            expected = brute_force_satisfied(preds, event)
            assert set(bits.set_indexes()) == expected
            assert n == len(expected)

    def test_string_values_skip_range_indexes(self, kind):
        idx = PredicateIndexSet(kind)
        bits = BitVector()
        b_le = bits.allocate()
        b_eq = bits.allocate()
        idx.insert(Predicate("x", Operator.LE, 10), b_le)
        idx.insert(Predicate("x", Operator.EQ, "hello"), b_eq)
        bits.reset()
        idx.evaluate(Event({"x": "hello"}), bits)
        assert set(bits.set_indexes()) == {b_eq}


class TestMaintenance:
    def test_insert_remove_roundtrip(self):
        idx = PredicateIndexSet()
        p = Predicate("x", Operator.GE, 5)
        idx.insert(p, 42)
        assert idx.predicate_count == 1
        assert idx.remove(p) == 42
        assert idx.predicate_count == 0
        assert idx.attributes == ()

    def test_remove_unknown_raises(self):
        idx = PredicateIndexSet()
        with pytest.raises(KeyError):
            idx.remove(Predicate("x", Operator.EQ, 1))

    def test_remove_unknown_names_a_value_past_the_digit_limit(self):
        huge = 10**5000
        with pytest.raises(KeyError, match=f"<int of {huge.bit_length()} bits>"):
            PredicateIndexSet().remove(Predicate("x", Operator.EQ, huge))

    def test_empty_structures_pruned(self):
        idx = PredicateIndexSet()
        p1 = Predicate("x", Operator.EQ, 1)
        p2 = Predicate("x", Operator.LE, 2)
        idx.insert(p1, 0)
        idx.insert(p2, 1)
        idx.remove(p1)
        assert idx.operators_on("x") == (Operator.LE,)
        idx.remove(p2)
        assert "x" not in idx.attributes

    def test_entries_iteration(self):
        idx = PredicateIndexSet()
        idx.insert(Predicate("x", Operator.EQ, 1), 0)
        idx.insert(Predicate("y", Operator.GT, 2), 1)
        got = {(a, op, v, b) for a, op, v, b in idx.entries()}
        assert got == {
            ("x", Operator.EQ, 1, 0),
            ("y", Operator.GT, 2, 1),
        }

    def test_evaluate_unknown_attribute_is_noop(self):
        idx = PredicateIndexSet()
        bits = BitVector()
        idx.insert(Predicate("x", Operator.EQ, 1), bits.allocate())
        bits.reset()
        assert idx.evaluate(Event({"zzz": 1}), bits) == 0

    def test_len(self):
        idx = PredicateIndexSet()
        idx.insert(Predicate("x", Operator.EQ, 1), 0)
        assert len(idx) == 1
