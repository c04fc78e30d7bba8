"""Batch conformance battery: ``match_batch`` == per-event ``match``.

One parametrized suite over every registered engine, pinning the batch
API's contract: for any event sequence, ``match_batch(events)`` returns
exactly ``[match(e) for e in events]`` up to within-event ordering, and
equals the oracle.  Engines with a real vectorized kernel and engines on
the default per-event fallback face the same battery, so a new engine
(or a new kernel) inherits the contract automatically.
"""

import random

import pytest

from repro.batch.columns import ColumnarBatch
from repro.bench.harness import uniform_statistics_for
from repro.core import Event, Operator, Predicate, Subscription, eq, ge, le, ne
from repro.core.errors import InvalidPredicateError
from repro.matchers import MATCHER_FACTORIES
from repro.workload import w0

ENGINES = sorted(MATCHER_FACTORIES)


def build(engine):
    if engine == "static":
        return MATCHER_FACTORIES[engine](uniform_statistics_for(w0()))
    return MATCHER_FACTORIES[engine]()


def norm(ids):
    """Order-insensitive view of one event's match list."""
    return sorted(ids, key=repr)


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


@pytest.fixture
def matcher(engine):
    return build(engine)


def _random_workload(seed, n_subs=120, n_events=150):
    """Mixed-type subscriptions and events over a small value domain."""
    rng = random.Random(seed)
    attrs = list("abcde")
    ops = list(Operator)

    def value():
        r = rng.random()
        if r < 0.5:
            return rng.randint(0, 8)
        if r < 0.75:
            return round(rng.uniform(0, 8), 1)
        if r < 0.9:
            return rng.choice(["x", "y", "z"])
        return rng.choice([2**60 + 1, float("inf"), float("nan"), 5.0])

    subs = []
    while len(subs) < n_subs:
        preds = []
        for a in rng.sample(attrs, rng.randint(1, 3)):
            try:
                preds.append(Predicate(a, rng.choice(ops), value()))
            except InvalidPredicateError:
                pass
        if preds:
            subs.append(Subscription(f"s{len(subs)}", preds))
    events = []
    while len(events) < n_events:
        pairs = {}
        for a in rng.sample(attrs, rng.randint(1, 4)):
            pairs[a] = value()
        events.append(Event(pairs))
    return subs, events


class TestBatchEqualsScalar:
    def test_differential_vs_scalar_and_oracle(self, matcher, engine):
        """The core claim, on a mixed-type random workload."""
        subs, events = _random_workload(seed=3)
        oracle = build("oracle")
        for s in subs:
            matcher.add(s)
            oracle.add(s)
        scalar_twin = build(engine)
        for s in subs:
            scalar_twin.add(s)
        expected = [norm(oracle.match(e)) for e in events]
        scalar = [norm(scalar_twin.match(e)) for e in events]
        batch = [norm(ids) for ids in matcher.match_batch(events)]
        assert scalar == expected
        assert batch == expected

    def test_empty_batch(self, matcher):
        matcher.add(Subscription("s", [eq("x", 1)]))
        assert matcher.match_batch([]) == []

    def test_batch_of_one(self, matcher):
        matcher.add(Subscription("s", [eq("x", 1), le("y", 5)]))
        assert matcher.match_batch([Event({"x": 1, "y": 3})]) == [["s"]]
        assert matcher.match_batch([Event({"x": 1, "y": 9})]) == [[]]

    def test_duplicate_events_get_identical_results(self, matcher):
        matcher.add(Subscription("a", [ge("v", 3)]))
        matcher.add(Subscription("b", [ne("v", 4)]))
        event = Event({"v": 5})
        results = matcher.match_batch([event, event, event])
        assert len(results) == 3
        assert [norm(r) for r in results] == [["a", "b"]] * 3

    def test_events_missing_every_attribute(self, matcher):
        matcher.add(Subscription("s", [eq("x", 1)]))
        batch = [Event({"other": 7}), Event({"another": 0})]
        assert matcher.match_batch(batch) == [[], []]

    def test_mid_batch_subscribe_visible_to_next_batch(self, matcher):
        """Churn between batches recompiles the kernel (registry epoch)."""
        matcher.add(Subscription("a", [eq("x", 1)]))
        events = [Event({"x": 1}), Event({"x": 2})]
        assert [norm(r) for r in matcher.match_batch(events)] == [["a"], []]
        matcher.add(Subscription("b", [eq("x", 2)]))
        assert [norm(r) for r in matcher.match_batch(events)] == [["a"], ["b"]]
        matcher.remove("a")
        assert [norm(r) for r in matcher.match_batch(events)] == [[], ["b"]]

    def test_unsubscribe_of_shared_predicate_between_batches(self, matcher):
        """Refcount-only churn (no structural epoch bump) must still
        change the association: the removed sub stops matching."""
        matcher.add(Subscription("a", [eq("x", 1)]))
        matcher.add(Subscription("b", [eq("x", 1)]))
        events = [Event({"x": 1})]
        assert norm(matcher.match_batch(events)[0]) == ["a", "b"]
        matcher.remove("a")
        assert norm(matcher.match_batch(events)[0]) == ["b"]

    def test_split_invariance_smoke(self, matcher):
        """match_batch(a + b) == match_batch(a) + match_batch(b)."""
        subs, events = _random_workload(seed=9, n_subs=60, n_events=64)
        for s in subs:
            matcher.add(s)
        whole = [norm(r) for r in matcher.match_batch(events)]
        # Cuts at every size, a batch of one (the scalar path) included.
        for cut in (0, 1, 17, 31, 32, 33, 63, 64):
            halves = matcher.match_batch(events[:cut]) + matcher.match_batch(
                events[cut:]
            )
            assert [norm(r) for r in halves] == whole

    def test_columnar_batch_matches_like_its_events(self, matcher):
        """match_batch accepts a ColumnarBatch on every backend: column-
        aware engines read the matrices, the rest iterate its events."""
        rng = random.Random(11)
        for i in range(40):
            matcher.add(
                Subscription(f"s{i}", [le("a", rng.randint(0, 8)), ge("b", rng.uniform(0, 8))])
            )
        events = [
            Event({"a": rng.randint(0, 8), "b": rng.uniform(0, 8)}) for _ in range(30)
        ] + [Event({"b": float("nan")}), Event({"c": 1})]
        batch = ColumnarBatch.from_events(events)
        assert batch is not None
        assert [norm(r) for r in matcher.match_batch(batch)] == [
            norm(r) for r in matcher.match_batch(events)
        ]
