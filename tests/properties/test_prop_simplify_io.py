"""Property tests: canonicalization equivalence and wire round-trips."""

import io

from hypothesis import example, given, settings

from repro.core import InvalidSubscriptionError, Subscription, ge, le, ne, simplify
from repro.io import (
    dump_events,
    dump_subscriptions,
    load_events,
    load_subscriptions,
)
from tests.properties.strategies import events, subscriptions


@settings(max_examples=120, deadline=None)
@given(s=subscriptions(), e=events())
def test_simplify_preserves_semantics(s, e):
    """A simplified subscription matches exactly the same events —
    and a contradiction verdict implies no event can match."""
    try:
        slim = simplify(s)
    except InvalidSubscriptionError:
        assert not s.is_satisfied_by(e)
        return
    assert slim.is_satisfied_by(e) == s.is_satisfied_by(e)
    assert slim.size <= s.size


@settings(max_examples=120, deadline=None)
@given(s=subscriptions())
@example(s=Subscription("point", [ge("a", 5), le("a", 5), ne("a", 5)]))
def test_is_satisfiable_agrees_with_simplify(s):
    """One contradiction rule: ``is_satisfiable()`` is False exactly
    when ``simplify`` refuses the subscription."""
    try:
        simplify(s)
    except InvalidSubscriptionError:
        assert not s.is_satisfiable()
    else:
        assert s.is_satisfiable()


@settings(max_examples=80, deadline=None)
@given(s=subscriptions())
def test_simplify_is_idempotent(s):
    try:
        once = simplify(s)
    except InvalidSubscriptionError:
        return
    twice = simplify(once)
    assert set(twice.predicates) == set(once.predicates)


@settings(max_examples=80, deadline=None)
@given(s=subscriptions())
def test_subscription_wire_roundtrip(s):
    buf = io.StringIO()
    dump_subscriptions([s], buf)
    buf.seek(0)
    assert load_subscriptions(buf) == [s]


@settings(max_examples=80, deadline=None)
@given(e=events())
def test_event_wire_roundtrip(e):
    buf = io.StringIO()
    dump_events([e], buf)
    buf.seek(0)
    assert load_events(buf) == [e]
