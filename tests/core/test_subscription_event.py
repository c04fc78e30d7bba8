"""Subscription and Event value types."""

import pytest

from repro.core import (
    Event,
    InvalidEventError,
    InvalidSubscriptionError,
    Subscription,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
)


class TestSubscriptionConstruction:
    def test_requires_predicates(self):
        with pytest.raises(InvalidSubscriptionError):
            Subscription("s", [])

    def test_rejects_non_predicates(self):
        with pytest.raises(InvalidSubscriptionError):
            Subscription("s", [("x", "=", 1)])

    def test_an_empty_subscription_with_an_unprintable_id_still_names_it(self):
        """``repr(10**5000)`` raises ``ValueError``; the error must not."""
        huge = 10**5000
        with pytest.raises(InvalidSubscriptionError) as error:
            Subscription(huge, [])
        assert f"<int of {huge.bit_length()} bits> must contain" in str(error.value)

    def test_a_non_predicate_with_an_unprintable_id_still_names_it(self):
        huge = 10**5000
        with pytest.raises(InvalidSubscriptionError) as error:
            Subscription(huge, [("x", "=", 1)])
        assert f"<int of {huge.bit_length()} bits>: expected Predicate" in str(error.value)

    def test_reprs_name_an_unprintable_value(self):
        """``repr(10**5000)`` raises ``ValueError``; a repr holding one
        names it by type and size."""
        huge = 10**5000
        named = f"<int of {huge.bit_length()} bits>"
        assert repr(eq("a", huge)) == f"Predicate('a' = {named})"
        assert repr(Subscription("s", [eq("a", huge)])) == f"Subscription('s': a = {named})"
        assert repr(Event({"a": huge, "b": 1})) == f"Event(a={named}, b=1)"

    def test_repr_names_an_unprintable_id(self):
        huge = 10**5000
        assert repr(Subscription(huge, [eq("a", 1)])) == (
            f"Subscription(<int of {huge.bit_length()} bits>: a = 1)"
        )
        assert repr(Subscription("s", [eq("a", 1)])) == "Subscription('s': a = 1)"

    def test_duplicates_collapse(self):
        s = Subscription("s", [eq("x", 1), eq("x", 1), le("y", 2)])
        assert s.size == 2

    def test_preserves_first_occurrence_order(self):
        s = Subscription("s", [le("y", 2), eq("x", 1), le("y", 2)])
        assert [p.attribute for p in s.predicates] == ["y", "x"]

    def test_immutable(self):
        s = Subscription("s", [eq("x", 1)])
        with pytest.raises(AttributeError):
            s.id = "t"

    def test_len_and_iter(self):
        s = Subscription("s", [eq("x", 1), le("y", 2)])
        assert len(s) == 2
        assert set(s) == {eq("x", 1), le("y", 2)}


class TestSubscriptionNotation:
    """The paper's P(s) and A(s)."""

    def test_equality_predicates(self):
        s = Subscription("s", [eq("movie", "gd"), le("price", 10), ge("price", 5)])
        assert s.equality_predicates() == (eq("movie", "gd"),)

    def test_equality_attributes(self):
        s = Subscription("s", [eq("movie", "gd"), le("price", 10)])
        assert s.equality_attributes == frozenset({"movie"})

    def test_attributes(self):
        s = Subscription("s", [eq("movie", "gd"), le("price", 10)])
        assert s.attributes == frozenset({"movie", "price"})

    def test_predicates_on(self):
        s = Subscription("s", [le("price", 10), ge("price", 5), eq("m", 1)])
        assert set(s.predicates_on("price")) == {le("price", 10), ge("price", 5)}


class TestSatisfaction:
    def test_paper_example(self):
        # Event (movie, groundhog day), (price, $8), (theater, odeon)
        # satisfies (movie =), (price <= 10), (price >= 5).
        e = Event({"movie": "groundhog day", "price": 8, "theater": "odeon"})
        s = Subscription(
            "s", [eq("movie", "groundhog day"), le("price", 10), ge("price", 5)]
        )
        assert s.is_satisfied_by(e)

    def test_missing_attribute_fails(self):
        e = Event({"movie": "groundhog day"})
        s = Subscription("s", [eq("movie", "groundhog day"), le("price", 10)])
        assert not s.is_satisfied_by(e)

    def test_one_failing_predicate_fails(self):
        e = Event({"movie": "groundhog day", "price": 12})
        s = Subscription("s", [eq("movie", "groundhog day"), le("price", 10)])
        assert not s.is_satisfied_by(e)

    def test_extra_event_attributes_ignored(self):
        e = Event({"x": 1, "y": 2, "z": 3})
        assert Subscription("s", [eq("x", 1)]).is_satisfied_by(e)


class TestSatisfiability:
    def test_plain_conjunction_satisfiable(self):
        assert Subscription("s", [le("x", 10), ge("x", 5)]).is_satisfiable()

    def test_contradictory_equalities(self):
        assert not Subscription("s", [eq("x", 1), eq("x", 2)]).is_satisfiable()

    def test_equality_outside_range(self):
        assert not Subscription("s", [eq("x", 1), ge("x", 5)]).is_satisfiable()

    def test_empty_interval(self):
        assert not Subscription("s", [lt("x", 5), gt("x", 5)]).is_satisfiable()
        assert not Subscription("s", [le("x", 4), ge("x", 5)]).is_satisfiable()

    def test_point_interval_ok(self):
        assert Subscription("s", [le("x", 5), ge("x", 5)]).is_satisfiable()

    def test_point_interval_excluded_by_ne(self):
        assert not Subscription(
            "s", [le("x", 5), ge("x", 5), ne("x", 5)]
        ).is_satisfiable()

    def test_strict_point_interval(self):
        assert not Subscription("s", [lt("x", 5), ge("x", 5)]).is_satisfiable()

    def test_equality_with_ne_conflict(self):
        assert not Subscription("s", [eq("x", 5), ne("x", 5)]).is_satisfiable()


class TestEvent:
    def test_from_mapping_and_pairs(self):
        assert Event({"a": 1}) == Event([("a", 1)])

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(InvalidEventError):
            Event([("a", 1), ("a", 2)])

    def test_empty_rejected(self):
        with pytest.raises(InvalidEventError):
            Event({})

    def test_bad_attribute_rejected(self):
        with pytest.raises(InvalidEventError):
            Event({"": 1})

    def test_bad_value_rejected(self):
        with pytest.raises(InvalidEventError):
            Event({"a": [1]})

    def test_schema(self):
        assert Event({"a": 1, "b": 2}).schema == frozenset({"a", "b"})

    def test_get_and_has(self):
        e = Event({"a": 1})
        assert e.get("a") == 1
        assert e.get("b") is None
        assert e.get("b", 9) == 9
        assert e.has("a") and not e.has("b")

    def test_contains_getitem_len(self):
        e = Event({"a": 1, "b": 2})
        assert "a" in e and e["b"] == 2 and len(e) == 2

    def test_equality_and_hash(self):
        assert Event({"a": 1, "b": 2}) == Event({"b": 2, "a": 1})
        assert hash(Event({"a": 1})) == hash(Event({"a": 1}))

    def test_immutable(self):
        e = Event({"a": 1})
        with pytest.raises(AttributeError):
            e.pairs = {}

    def test_bool_value_normalized(self):
        assert Event({"a": True})["a"] == 1
