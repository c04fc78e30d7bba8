"""Parser: predicates, boolean structure, DNF, events."""

import pytest

from repro.core import Event, Operator, ParseError, eq, ge, gt, le, lt, ne
from repro.lang import (
    parse_event,
    parse_formula,
    parse_subscription,
    parse_subscriptions,
)


class TestPredicates:
    def test_simple(self):
        sub = parse_subscription("price <= 400", "s")
        assert sub.predicates == (le("price", 400),)

    def test_conjunction(self):
        sub = parse_subscription("movie = 'gd' and price <= 10 and price >= 5", "s")
        assert set(sub.predicates) == {eq("movie", "gd"), le("price", 10), ge("price", 5)}

    def test_bare_word_is_string(self):
        sub = parse_subscription("city = paris", "s")
        assert sub.predicates == (eq("city", "paris"),)

    def test_double_equals(self):
        assert parse_subscription("x == 1", "s").predicates == (eq("x", 1),)

    def test_string_with_range_op_rejected(self):
        with pytest.raises(ParseError):
            parse_subscription("x <= 'abc'", "s")

    def test_formulas_share_one_attribute_string(self):
        # Built at run time, so only the lexer's interning can make the
        # two parses hold the same object.
        name = "".join(["attr", "00"])
        first = parse_subscription(f"{name} = 1", "s1").predicates[0]
        second = parse_subscriptions(f"({name} = 2) or (b = 3)", "s2")[0].predicates[0]
        assert first.attribute == second.attribute == name
        assert first.attribute is second.attribute


class TestBooleanStructure:
    def test_or_expands_to_two_subscriptions(self):
        subs = parse_subscriptions("x = 1 or y = 2", "u")
        assert [s.id for s in subs] == ["u#0", "u#1"]
        assert subs[0].predicates == (eq("x", 1),)
        assert subs[1].predicates == (eq("y", 2),)

    def test_and_binds_tighter_than_or(self):
        subs = parse_subscriptions("a = 1 and b = 2 or c = 3", "u")
        assert len(subs) == 2
        assert set(subs[0].predicates) == {eq("a", 1), eq("b", 2)}

    def test_parens_override(self):
        subs = parse_subscriptions("a = 1 and (b = 2 or c = 3)", "u")
        assert len(subs) == 2
        assert set(subs[0].predicates) == {eq("a", 1), eq("b", 2)}
        assert set(subs[1].predicates) == {eq("a", 1), eq("c", 3)}

    def test_not_pushes_into_complement_operator(self):
        sub = parse_subscription("not price <= 10", "s")
        assert sub.predicates == (gt("price", 10),)

    def test_not_over_conjunction_is_disjunction(self):
        subs = parse_subscriptions("not (a = 1 and b < 2)", "u")
        assert len(subs) == 2
        assert subs[0].predicates == (ne("a", 1),)
        assert subs[1].predicates == (ge("b", 2),)

    def test_double_negation(self):
        sub = parse_subscription("not not x = 1", "s")
        assert sub.predicates == (eq("x", 1),)

    def test_dnf_product(self):
        subs = parse_subscriptions("(a = 1 or a = 2) and (b = 1 or b = 2)", "u")
        assert len(subs) == 4

    def test_single_conjunct_keeps_id(self):
        assert parse_subscription("x = 1 and y = 2", "keep").id == "keep"

    def test_parse_subscription_rejects_disjunction(self):
        with pytest.raises(ParseError):
            parse_subscription("x = 1 or y = 2", "s")

    def test_dnf_semantics_match(self):
        subs = parse_subscriptions("a = 1 and (b = 2 or not c <= 3)", "u")
        for event, expected in [
            (Event({"a": 1, "b": 2, "c": 1}), True),
            (Event({"a": 1, "b": 9, "c": 9}), True),
            (Event({"a": 1, "b": 9, "c": 1}), False),
            (Event({"a": 2, "b": 2, "c": 9}), False),
        ]:
            got = any(s.is_satisfied_by(event) for s in subs)
            assert got is expected, event


class TestEvents:
    def test_parse_event(self):
        e = parse_event("movie='gd', price=8, theater=odeon")
        assert e == Event({"movie": "gd", "price": 8, "theater": "odeon"})

    def test_single_pair(self):
        assert parse_event("x = 1") == Event({"x": 1})

    def test_non_equality_rejected(self):
        with pytest.raises(ParseError):
            parse_event("x <= 1")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_event("x = 1 y = 2")

    def test_duplicate_attribute_rejected(self):
        from repro.core import InvalidEventError

        with pytest.raises(InvalidEventError):
            parse_event("x = 1, x = 2")


class TestParseErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x =",
            "= 5",
            "x = 1 and",
            "(x = 1",
            "x = 1)",
            "x = 1 or or y = 2",
            "and x = 1",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_subscriptions(text, "s")

    def test_error_message_has_caret(self):
        with pytest.raises(ParseError) as err:
            parse_subscription("price <=", "s")
        assert "^" in str(err.value)

    def test_formula_roundtrip_through_ast(self):
        node = parse_formula("a = 1 and b <= 2")
        assert len(node.dnf()) == 1
