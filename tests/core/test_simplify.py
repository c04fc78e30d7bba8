"""Subscription canonicalization."""

import pytest

from repro.core import (
    InvalidSubscriptionError,
    Subscription,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
    simplify,
    simplify_predicates,
)


def simp(*preds):
    return simplify_predicates(tuple(preds))


class TestRangeCollapse:
    def test_two_upper_bounds_keep_tightest(self):
        assert simp(le("x", 10), le("x", 5)) == [le("x", 5)]

    def test_two_lower_bounds_keep_tightest(self):
        assert simp(ge("x", 1), gt("x", 3)) == [gt("x", 3)]

    def test_strictness_wins_at_equal_bound(self):
        assert simp(le("x", 5), lt("x", 5)) == [lt("x", 5)]
        assert simp(ge("x", 5), gt("x", 5)) == [gt("x", 5)]

    def test_interval_keeps_both_sides(self):
        assert set(simp(ge("x", 1), le("x", 9), le("x", 12))) == {
            ge("x", 1),
            le("x", 9),
        }

    def test_untouched_single_predicate(self):
        assert simp(le("x", 5)) == [le("x", 5)]


class TestEqualityAbsorption:
    def test_equality_absorbs_compatible_range(self):
        assert simp(eq("x", 5), le("x", 9), gt("x", 1)) == [eq("x", 5)]

    def test_equality_absorbs_compatible_ne(self):
        assert simp(eq("x", 5), ne("x", 7)) == [eq("x", 5)]

    def test_duplicate_equalities_collapse(self):
        assert simp(eq("x", 5), eq("x", 5)) == [eq("x", 5)]


class TestNotEqualPruning:
    def test_ne_outside_interval_dropped(self):
        assert simp(ne("x", 3), gt("x", 7)) == [gt("x", 7)]

    def test_ne_inside_interval_kept(self):
        assert set(simp(ne("x", 8), gt("x", 7))) == {gt("x", 7), ne("x", 8)}

    def test_ne_at_excluded_boundary_dropped(self):
        assert simp(ne("x", 7), gt("x", 7)) == [gt("x", 7)]

    def test_ne_at_included_boundary_kept(self):
        assert set(simp(ne("x", 7), ge("x", 7))) == {ge("x", 7), ne("x", 7)}

    def test_string_ne_kept(self):
        assert simp(ne("x", "a"), ne("x", "b")) == [ne("x", "a"), ne("x", "b")]


class TestContradictions:
    @pytest.mark.parametrize(
        "preds",
        [
            (eq("x", 1), eq("x", 2)),
            (eq("x", 1), gt("x", 5)),
            (eq("x", 5), ne("x", 5)),
            (lt("x", 3), gt("x", 7)),
            (lt("x", 5), ge("x", 5)),
        ],
    )
    def test_detected(self, preds):
        with pytest.raises(InvalidSubscriptionError):
            simplify_predicates(preds)

    def test_point_interval_survives(self):
        assert set(simp(le("x", 5), ge("x", 5))) == {le("x", 5), ge("x", 5)}

    def test_a_value_past_the_digit_limit_is_named(self):
        """``str(10**5000)`` raises ``ValueError``: the contradiction
        names such a value by type and size."""
        huge = 10**5000
        named = f"<int of {huge.bit_length()} bits>"
        with pytest.raises(InvalidSubscriptionError, match=f"equals both 1 and {named}"):
            simp(eq("x", huge), eq("x", 1))
        with pytest.raises(InvalidSubscriptionError, match=f"{named} fails <= 5"):
            simp(eq("x", huge), le("x", 5))


class TestSubscriptionLevel:
    def test_simplify_preserves_id_and_semantics(self):
        from repro.core import Event

        s = Subscription("s", [le("x", 10), le("x", 5), eq("y", 2), ne("y", 9)])
        slim = simplify(s)
        assert slim.id == "s"
        assert slim.size < s.size
        for xv in (3, 5, 6, 11):
            for yv in (2, 9):
                e = Event({"x": xv, "y": yv})
                assert slim.is_satisfied_by(e) == s.is_satisfied_by(e)

    def test_multi_attribute_order_stable(self):
        s = Subscription("s", [le("b", 5), eq("a", 1), ge("b", 1)])
        slim = simplify(s)
        assert [p.attribute for p in slim.predicates] == ["b", "b", "a"]
