"""Predicate registry: dedup, refcounts, slot recycling."""

import pytest

from repro.core import Operator, PredicateRegistry, Subscription, eq, le
from repro.matchers import MATCHER_FACTORIES

HUGE = 10**5000
NAMED = f"<int of {HUGE.bit_length()} bits>"


class TestIntern:
    def test_first_intern_allocates(self):
        r = PredicateRegistry()
        slot, added = r.intern(eq("x", 1))
        assert added and slot == 0
        assert len(r) == 1

    def test_second_intern_reuses(self):
        r = PredicateRegistry()
        s1, _ = r.intern(eq("x", 1))
        s2, added = r.intern(eq("x", 1))
        assert s2 == s1 and not added
        assert r.refcount(eq("x", 1)) == 2

    def test_distinct_predicates_get_distinct_slots(self):
        r = PredicateRegistry()
        s1, _ = r.intern(eq("x", 1))
        s2, _ = r.intern(le("x", 1))
        assert s1 != s2

    def test_inverse_lookup(self):
        r = PredicateRegistry()
        slot, _ = r.intern(eq("x", 1))
        assert r.predicate(slot) == eq("x", 1)
        assert r.slot(eq("x", 1)) == slot

    def test_contains_and_items(self):
        r = PredicateRegistry()
        r.intern(eq("x", 1))
        assert eq("x", 1) in r
        assert dict(r.items()) == {eq("x", 1): 0}


class TestRelease:
    def test_release_drops_to_zero_frees(self):
        r = PredicateRegistry()
        r.intern(eq("x", 1))
        slot, removed = r.release(eq("x", 1))
        assert removed and slot == 0
        assert eq("x", 1) not in r

    def test_release_with_remaining_refs(self):
        r = PredicateRegistry()
        r.intern(eq("x", 1))
        r.intern(eq("x", 1))
        _slot, removed = r.release(eq("x", 1))
        assert not removed
        assert r.refcount(eq("x", 1)) == 1

    def test_release_unknown_raises(self):
        r = PredicateRegistry()
        with pytest.raises(KeyError):
            r.release(eq("x", 1))

    def test_release_unknown_names_a_value_past_the_digit_limit(self):
        with pytest.raises(KeyError, match=f"not interned: Predicate\\('x' = {NAMED}\\)"):
            PredicateRegistry().release(eq("x", HUGE))

    def test_freed_slot_is_recycled(self):
        r = PredicateRegistry()
        s1, _ = r.intern(eq("x", 1))
        r.release(eq("x", 1))
        s2, _ = r.intern(le("y", 2))
        assert s2 == s1

    def test_refcount_zero_when_absent(self):
        assert PredicateRegistry().refcount(eq("x", 1)) == 0

    def test_grows_bitvector(self):
        r = PredicateRegistry()
        for i in range(100):
            r.intern(eq("x", i))
        assert r.bits.size >= 100


class TestCheckInvariants:
    """Each assertion of ``check_invariants`` fails on the corruption it
    names; the table below is slots 0 (x = 1, two references), 1 (free)
    and 2 (x = 3)."""

    @staticmethod
    def loaded():
        r = PredicateRegistry()
        r.intern_all([eq("x", 1), eq("x", 2), eq("x", 3), eq("x", 1)])
        r.release(eq("x", 2))
        r.check_invariants()
        return r

    def test_churn_keeps_them(self):
        r = PredicateRegistry()
        for i in range(40):
            r.intern(eq("x", i % 7))
            if i % 3 == 0:
                r.release(eq("x", i % 7))
            r.check_invariants()
        assert r.predicate(r.slot(eq("x", 1))) == eq("x", 1)
        with pytest.raises(KeyError):
            r.predicate(len(r._pred_of))

    def test_a_free_slot_has_no_predicate(self):
        with pytest.raises(KeyError):
            self.loaded().predicate(1)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda r: r._refcount.append(0), "slot lists out of step"),
            (lambda r: setattr(r.bits, "_size", 2), "past the bit vector"),
            (lambda r: r._slot_of.__setitem__(eq("x", 3), 0), "slot ↔ predicate drift"),
            (lambda r: r._pred_of.__setitem__(1, eq("x", 1)), "slot ↔ predicate drift"),
            (lambda r: r._free.append(1), "freed twice"),
            (lambda r: r._free.pop(), "neither live nor free"),
            (lambda r: r._free.append(2), "free slot holds a predicate"),
            (lambda r: r._refcount.__setitem__(1, 1), "free slot has references"),
            (lambda r: r._refcount.__setitem__(2, 0), "live slot without references"),
        ],
    )
    def test_each_catches_its_corruption(self, corrupt, message):
        r = self.loaded()
        corrupt(r)
        with pytest.raises(AssertionError, match=message):
            r.check_invariants()

    def test_the_engine_check_runs_them(self):
        matcher = MATCHER_FACTORIES["counting"]()
        matcher.add(Subscription("s", [eq("x", 1)]))
        matcher.check_invariants()
        matcher.registry._free.append(0)
        with pytest.raises(AssertionError, match="free slot holds a predicate"):
            matcher.check_invariants()

    @pytest.mark.parametrize("engine", ["counting", "dynamic"])
    def test_the_engine_check_names_a_value_past_the_digit_limit(self, engine):
        """The engine's own asserts name their predicate through
        ``id_repr``: a drift on such a value is an ``AssertionError``,
        not a ``ValueError`` from building its message."""
        matcher = MATCHER_FACTORIES[engine]()
        pred = eq("x", HUGE)
        matcher.add(Subscription("s", [pred]))
        matcher.check_invariants()
        matcher.registry._refcount[matcher.registry.slot(pred)] += 1
        with pytest.raises(AssertionError, match=f"refcount drift: Predicate\\('x' = {NAMED}\\)"):
            matcher.check_invariants()
        matcher.registry._refcount[matcher.registry.slot(pred)] -= 1
        matcher.indexes._index_for("x", Operator.EQ, False)._bits[HUGE] += 1
        with pytest.raises(AssertionError, match=f"slot mismatch for Predicate\\('x' = {NAMED}\\)"):
            matcher.check_invariants()
