"""Per-operator predicate indexes: hash, not-equal, and both ordered kinds."""

import pytest

from repro.core import Operator
from repro.indexes import (
    BTreeOrderedIndex,
    EqualityHashIndex,
    IndexKind,
    NotEqualIndex,
    SortedArrayOrderedIndex,
    make_ordered_index,
)


class TestEqualityHashIndex:
    def test_single_probe(self):
        idx = EqualityHashIndex()
        idx.insert(5, 100)
        assert list(idx.satisfied(5)) == [100]
        assert list(idx.satisfied(6)) == []

    def test_vector_form_is_the_indexes_own_and_dropped_by_its_writes(self):
        idx = EqualityHashIndex()
        idx.insert("gd", 7)
        idx.insert(3, 1)
        idx.insert(2.5, 4)
        form = idx.vector_form()
        assert idx.vector_form() is form
        assert form.keys.tolist() == [2.5, 3.0] and form.bits.tolist() == [4, 1]
        assert form.all_bits.tolist() == [1, 4, 7] and not form.exact
        idx.insert(2**53 + 1, 9)
        assert idx.vector_form() is not form and idx.vector_form().exact
        idx.remove(2**53 + 1)
        assert not idx.vector_form().exact

    def test_duplicate_constant_rejected(self):
        idx = EqualityHashIndex()
        idx.insert(5, 1)
        with pytest.raises(KeyError):
            idx.insert(5, 2)

    def test_remove(self):
        idx = EqualityHashIndex()
        idx.insert(5, 1)
        assert idx.remove(5) == 1
        assert len(idx) == 0 and not idx

    def test_entries(self):
        idx = EqualityHashIndex()
        idx.insert(1, 10)
        idx.insert(2, 20)
        assert dict(idx.entries()) == {1: 10, 2: 20}


class TestNotEqualIndex:
    def test_all_but_matching(self):
        idx = NotEqualIndex()
        idx.insert(1, 10)
        idx.insert(2, 20)
        idx.insert(3, 30)
        assert sorted(idx.satisfied(2)) == [10, 30]

    def test_no_exclusion(self):
        idx = NotEqualIndex()
        idx.insert(1, 10)
        assert list(idx.satisfied(99)) == [10]

    def test_remove_and_len(self):
        idx = NotEqualIndex()
        idx.insert(1, 10)
        assert idx.remove(1) == 10 and len(idx) == 0

    def test_duplicate_rejected(self):
        idx = NotEqualIndex()
        idx.insert(1, 10)
        with pytest.raises(KeyError):
            idx.insert(1, 11)


#: Both ordered-index implementations must behave identically.
KINDS = [IndexKind.SORTED_ARRAY, IndexKind.BTREE]


@pytest.mark.parametrize("kind", KINDS)
class TestOrderedIndexes:
    def _loaded(self, op, kind):
        idx = make_ordered_index(op, kind)
        # constants 10, 20, 30 with bits 1, 2, 3
        for c, b in [(20, 2), (10, 1), (30, 3)]:
            idx.insert(c, b)
        return idx

    def test_lt_reports_strictly_greater_constants(self, kind):
        idx = self._loaded(Operator.LT, kind)
        # event 15 satisfies x < 20 and x < 30
        assert sorted(idx.satisfied(15)) == [2, 3]
        # boundary: event 20 does NOT satisfy x < 20
        assert sorted(idx.satisfied(20)) == [3]

    def test_le_boundary_inclusive(self, kind):
        idx = self._loaded(Operator.LE, kind)
        assert sorted(idx.satisfied(20)) == [2, 3]
        assert sorted(idx.satisfied(21)) == [3]

    def test_ge_boundary_inclusive(self, kind):
        idx = self._loaded(Operator.GE, kind)
        assert sorted(idx.satisfied(20)) == [1, 2]
        assert sorted(idx.satisfied(19)) == [1]

    def test_gt_strict(self, kind):
        idx = self._loaded(Operator.GT, kind)
        assert sorted(idx.satisfied(20)) == [1]
        assert sorted(idx.satisfied(31)) == [1, 2, 3]

    def test_extremes(self, kind):
        idx = self._loaded(Operator.LT, kind)
        assert sorted(idx.satisfied(0)) == [1, 2, 3]
        assert sorted(idx.satisfied(100)) == []

    def test_remove(self, kind):
        idx = self._loaded(Operator.LE, kind)
        assert idx.remove(20) == 2
        assert sorted(idx.satisfied(5)) == [1, 3]
        assert len(idx) == 2

    def test_remove_missing(self, kind):
        idx = self._loaded(Operator.LE, kind)
        with pytest.raises(KeyError):
            idx.remove(99)

    def test_duplicate_rejected(self, kind):
        idx = self._loaded(Operator.LE, kind)
        with pytest.raises(KeyError):
            idx.insert(20, 9)

    def test_entries_complete(self, kind):
        idx = self._loaded(Operator.GE, kind)
        assert sorted(idx.entries()) == [(10, 1), (20, 2), (30, 3)]

    def test_float_constants(self, kind):
        idx = make_ordered_index(Operator.LE, kind)
        idx.insert(1.5, 7)
        assert list(idx.satisfied(1.2)) == [7]
        assert list(idx.satisfied(1.6)) == []


class TestOrderedValidation:
    def test_eq_rejected(self):
        from repro.core.errors import InvalidPredicateError

        with pytest.raises(InvalidPredicateError):
            SortedArrayOrderedIndex(Operator.EQ)
        with pytest.raises(InvalidPredicateError):
            BTreeOrderedIndex(Operator.NE)

    def test_factory_kinds(self):
        assert isinstance(
            make_ordered_index(Operator.LT, IndexKind.BTREE), BTreeOrderedIndex
        )
        assert isinstance(
            make_ordered_index(Operator.LT), SortedArrayOrderedIndex
        )


HUGE = 10**5000
NAMED = f"<int of {HUGE.bit_length()} bits>"


@pytest.mark.parametrize(
    "make",
    [
        EqualityHashIndex,
        NotEqualIndex,
        lambda: make_ordered_index(Operator.LE, IndexKind.SORTED_ARRAY),
        lambda: make_ordered_index(Operator.LE, IndexKind.BTREE),
    ],
    ids=["hash", "not-equal", "sorted-array", "btree"],
)
def test_a_duplicate_past_the_digit_limit_is_named(make):
    """``repr(10**5000)`` raises ``ValueError``: the duplicate error
    names the constant by type and size instead."""
    idx = make()
    idx.insert(HUGE, 1)
    with pytest.raises(KeyError, match=NAMED):
        idx.insert(HUGE, 2)
