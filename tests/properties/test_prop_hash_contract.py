"""The hash/eq contract of the value types: ``a == b`` ⇒ ``hash(a) == hash(b)``.

Equal values arrive spelled differently — ``1``, ``1.0`` and ``True``;
predicates in another order or repeated — and must still land in one
set slot.  A subscription compares its predicates as a set, so its hash
may not depend on their order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Event, Operator, Predicate, Subscription

ATTRIBUTES = st.sampled_from(["a", "b", "c"])
#: A number and one of its equal spellings.
SPELLINGS = st.integers(min_value=0, max_value=3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sampled_from([n, float(n)] + ([bool(n)] if n < 2 else [])),
    )
)
PREDICATE_PAIRS = st.builds(
    lambda attr, op, spelled: (Predicate(attr, op, spelled[0]), Predicate(attr, op, spelled[1])),
    ATTRIBUTES,
    st.sampled_from(list(Operator)),
    SPELLINGS,
)


def contract(a, b):
    if a == b:
        assert hash(a) == hash(b), (a, b)
        assert len({a, b}) == 1


@settings(max_examples=200, deadline=None)
@given(pair=PREDICATE_PAIRS, other=PREDICATE_PAIRS)
def test_predicates(pair, other):
    assert pair[0] == pair[1]
    contract(*pair)
    contract(pair[0], other[1])


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(PREDICATE_PAIRS, min_size=1, max_size=5),
    order=st.randoms(use_true_random=False),
    repeat=st.booleans(),
    sub_id=st.sampled_from([0, 0.0, False, "s"]),
)
def test_subscriptions_with_permuted_respelled_predicates(pairs, order, repeat, sub_id):
    left = [p for p, _q in pairs]
    right = [q for _p, q in pairs] + ([pairs[0][1]] if repeat else [])
    order.shuffle(right)
    a, b = Subscription(sub_id, left), Subscription(0, right)
    assert (a == b) == (sub_id == 0)
    contract(a, b)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.dictionaries(ATTRIBUTES, SPELLINGS, min_size=1),
    order=st.randoms(use_true_random=False),
)
def test_events(cells, order):
    left = [(attr, spelled[0]) for attr, spelled in cells.items()]
    right = [(attr, spelled[1]) for attr, spelled in cells.items()]
    order.shuffle(right)
    a, b = Event(left), Event(right)
    assert a == b
    contract(a, b)
