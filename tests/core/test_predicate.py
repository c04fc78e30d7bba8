"""Predicate and Operator semantics."""

import pytest

from repro.core import (
    InvalidPredicateError,
    Operator,
    Predicate,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
)


class TestOperator:
    def test_symbols_round_trip(self):
        for op in Operator:
            assert Operator.from_symbol(op.value) is op

    def test_double_equals_alias(self):
        assert Operator.from_symbol("==") is Operator.EQ

    def test_unknown_symbol_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Operator.from_symbol("<>")

    @pytest.mark.parametrize("symbol", [["="], {"=": 1}, 1, None, "EQ", ""])
    def test_unhashable_or_foreign_symbol_rejected(self, symbol):
        with pytest.raises(InvalidPredicateError, match="unknown operator"):
            Operator.from_symbol(symbol)

    def test_member_is_itself(self):
        for op in Operator:
            assert Operator.from_symbol(op) is op

    def test_is_equality(self):
        assert Operator.EQ.is_equality
        assert not any(
            op.is_equality for op in Operator if op is not Operator.EQ
        )

    def test_is_range(self):
        assert {op for op in Operator if op.is_range} == {
            Operator.LT,
            Operator.LE,
            Operator.GE,
            Operator.GT,
        }

    @pytest.mark.parametrize(
        "op,complement",
        [
            (Operator.LT, Operator.GE),
            (Operator.LE, Operator.GT),
            (Operator.EQ, Operator.NE),
        ],
    )
    def test_negate_is_involution(self, op, complement):
        assert op.negate() is complement
        assert complement.negate() is op

    def test_python_callable_order(self):
        # event_value on the left: 8 <= 10 is True for (price, 10, <=).
        assert Operator.LE.python(8, 10) is True
        assert Operator.LE.python(12, 10) is False


class TestPredicateMatching:
    @pytest.mark.parametrize(
        "op,value,event_value,expected",
        [
            (Operator.LT, 10, 9, True),
            (Operator.LT, 10, 10, False),
            (Operator.LE, 10, 10, True),
            (Operator.LE, 10, 11, False),
            (Operator.EQ, 10, 10, True),
            (Operator.EQ, 10, 9, False),
            (Operator.NE, 10, 9, True),
            (Operator.NE, 10, 10, False),
            (Operator.GE, 10, 10, True),
            (Operator.GE, 10, 9, False),
            (Operator.GT, 10, 11, True),
            (Operator.GT, 10, 10, False),
        ],
    )
    def test_numeric_semantics(self, op, value, event_value, expected):
        assert Predicate("x", op, value).matches(event_value) is expected

    def test_paper_example(self):
        # (price, $8) matches (price, $10, <=) because 8 <= 10.
        assert le("price", 10).matches(8)

    def test_string_equality(self):
        p = eq("movie", "groundhog day")
        assert p.matches("groundhog day")
        assert not p.matches("casablanca")

    def test_string_inequality(self):
        assert ne("movie", "casablanca").matches("groundhog day")

    def test_mixed_types_eq_is_false(self):
        assert not eq("x", "5").matches(5)
        assert not eq("x", 5).matches("5")

    def test_mixed_types_ne_is_true(self):
        assert ne("x", "5").matches(5)

    def test_mixed_types_range_is_false(self):
        assert not le("x", 10).matches("3")

    def test_int_float_cross_match(self):
        assert eq("x", 5).matches(5.0)
        assert le("x", 5.5).matches(5)

    def test_bool_normalized_to_int(self):
        assert Predicate("x", Operator.EQ, True).value == 1
        assert eq("x", 1).matches(True) or eq("x", 1).matches(1)


class TestPredicateValidation:
    def test_empty_attribute_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("", Operator.EQ, 1)

    def test_non_string_attribute_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate(5, Operator.EQ, 1)

    def test_string_with_range_operator_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("x", Operator.LE, "abc")

    def test_unsupported_value_type_rejected(self):
        with pytest.raises(InvalidPredicateError):
            Predicate("x", Operator.EQ, [1, 2])

    def test_operator_coerced_from_symbol(self):
        assert Predicate("x", "<=", 3).operator is Operator.LE

    def test_immutable(self):
        p = eq("x", 1)
        with pytest.raises(AttributeError):
            p.value = 2


class TestPredicateIdentity:
    def test_structural_equality_and_hash(self):
        assert eq("x", 3) == eq("x", 3)
        assert hash(eq("x", 3)) == hash(eq("x", 3))

    def test_distinct_operator_not_equal(self):
        assert eq("x", 3) != le("x", 3)

    def test_usable_as_dict_key(self):
        d = {eq("x", 3): "a"}
        assert d[eq("x", 3)] == "a"

    def test_as_tuple(self):
        assert ge("y", 7).as_tuple() == ("y", ">=", 7)

    def test_repr_mentions_parts(self):
        r = repr(lt("price", 400))
        assert "price" in r and "<" in r and "400" in r


class TestPredicateCovers:
    def test_identical_covers(self):
        assert le("x", 5).covers(le("x", 5))

    def test_le_covers_tighter_le(self):
        assert le("x", 10).covers(le("x", 5))
        assert not le("x", 5).covers(le("x", 10))

    def test_lt_le_boundary(self):
        assert le("x", 10).covers(lt("x", 10))
        assert not lt("x", 10).covers(le("x", 10))

    def test_ge_covers_tighter(self):
        assert ge("x", 1).covers(ge("x", 5))
        assert ge("x", 1).covers(gt("x", 1))

    def test_covers_eq_point(self):
        assert le("x", 10).covers(eq("x", 7))
        assert not le("x", 10).covers(eq("x", 11))

    def test_ne_covered_by_excluding_range(self):
        assert ne("x", 5).covers(lt("x", 5))
        assert ne("x", 5).covers(gt("x", 5))
        assert not ne("x", 5).covers(lt("x", 6))

    def test_different_attribute_never_covers(self):
        assert not le("x", 10).covers(le("y", 5))

    def test_opposite_directions_do_not_cover(self):
        assert not le("x", 10).covers(ge("x", 1))
