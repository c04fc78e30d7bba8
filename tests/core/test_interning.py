"""One object per distinct predicate: ``Predicate`` hands out the
process-wide canonical instance, held weakly.

The canonical object must be indistinguishable from the one asked for
(value type, the sign of zero, NaN), must die with its last holder, and
must be what every producer — shorthands, the parser, negation, the wire
form, pickle — returns.
"""

import gc
import math
import pickle
import sys
import threading

import pytest

from repro.core import (
    InvalidPredicateError,
    Operator,
    Predicate,
    Subscription,
    eq,
    ge,
    le,
)
from repro.core import types
from repro.core.threadsafe import ThreadSafeMatcher
from repro.io import subscription_from_dict
from repro.lang import parse_subscription
from repro.lang.nodes import Leaf
from repro.matchers import CountingMatcher, DynamicMatcher


def table_size():
    """(sub-tables, entries) of the canonical table."""
    return len(types._CANONICAL), sum(len(t) for t in types._CANONICAL.values())


class TestCanonicalInstance:
    def test_independently_built_equal_predicates_are_one_object(self):
        p = le("price", 10)
        assert Predicate("price", Operator.LE, 10) is p
        assert Predicate("price", "<=", 10) is p
        assert parse_subscription("price <= 10", "s").predicates[0] is p
        assert subscription_from_dict({"id": "s", "predicates": [["price", "<=", 10]]}).predicates[0] is p
        assert Leaf(Predicate("price", Operator.GT, 10)).negated().predicate is p

    def test_bool_is_normalised_before_the_lookup(self):
        assert eq("flag", True) is eq("flag", 1)
        assert type(eq("flag", False).value) is int

    def test_value_type_is_part_of_the_identity(self):
        whole, real = eq("x", 1), eq("x", 1.0)
        assert whole is not real
        assert type(whole.value) is int and type(real.value) is float
        assert whole == real and hash(whole) == hash(real)
        assert repr(real) == "Predicate('x' = 1.0)"

    def test_zero_floats_keep_their_sign(self):
        plus, minus = ge("x", 0.0), ge("x", -0.0)
        assert math.copysign(1.0, plus.value) == 1.0
        assert math.copysign(1.0, minus.value) == -1.0
        assert math.copysign(1.0, ge("x", -0.0).value) == -1.0
        assert math.copysign(1.0, ge("x", 0.0).value) == 1.0
        assert eq("x", 0) is eq("x", 0)

    def test_nan_is_never_interned(self):
        nan = float("nan")
        assert eq("x", nan) is not eq("x", nan)
        before = table_size()
        keep = eq("nan_only", nan)
        assert table_size() == before
        assert keep.value != keep.value

    @pytest.mark.parametrize("value", [[1, 2], {"a": 1}, {1}])
    def test_an_unhashable_value_is_an_invalid_predicate(self, value):
        with pytest.raises(InvalidPredicateError, match="unsupported value type"):
            eq("x", value)

    def test_invalid_arguments_still_raise(self):
        with pytest.raises(InvalidPredicateError, match="non-empty string"):
            Predicate(["x"], Operator.EQ, 1)
        with pytest.raises(InvalidPredicateError, match="unknown operator"):
            Predicate("x", "<>", 1)
        with pytest.raises(InvalidPredicateError, match="string values"):
            Predicate("x", "<=", "abc")

    def test_pickle_round_trip_returns_the_canonical_object(self):
        p = ge("pickled", 7.5)
        assert pickle.loads(pickle.dumps(p)) is p
        sub = Subscription("s", [p, eq("pickled_too", "a")])
        back = pickle.loads(pickle.dumps(sub))
        assert back == sub
        assert all(a is b for a, b in zip(back.predicates, sub.predicates))


class TestWeakTable:
    def test_a_dropped_unique_predicate_leaves_the_table(self):
        gc.collect()
        before = table_size()
        p = eq("only_here_once", 41)
        assert table_size() == (before[0] + 1, before[1] + 1)
        del p
        gc.collect()
        assert table_size() == before

    def test_churn_returns_the_table_to_its_baseline(self):
        gc.collect()
        before = table_size()
        subs = [
            Subscription(i, [eq(f"unique_{i}", i), le(f"unique_{i}", float(i) + 0.5)])
            for i in range(10_000)
        ]
        assert table_size()[0] == before[0] + 20_000
        del subs
        gc.collect()
        assert table_size() == before

    def test_a_replaced_entry_does_not_unfile_its_successor(self):
        # Two equal objects exist when two threads miss at once: the later
        # registration wins, and the earlier object's death leaves it alone.
        first = eq("raced", 3)
        types._CANONICAL[("raced", Operator.EQ, int)].pop(3)
        second = eq("raced", 3)
        assert second is not first and second == first
        del first
        gc.collect()
        assert eq("raced", 3) is second


def test_threads_building_the_same_predicates_feed_a_sound_engine():
    gc.collect()
    before = table_size()
    matcher = DynamicMatcher()
    shared = ThreadSafeMatcher(matcher)
    start = threading.Barrier(8)
    built = [[] for _ in range(8)]

    def work(worker):
        start.wait()
        for i in range(300):
            eq("t_transient", i)  # minted and dropped at once: unfiling races filing
            sub = Subscription((worker, i), [eq("t_attr", i % 7), le(f"t_range_{i % 3}", i % 11)])
            shared.add(sub)
            built[worker].append(sub)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(matcher) == 8 * 300
    matcher.check_invariants()
    assert len(matcher.registry) == 7 + 3 * 11
    for mine in built:
        for sub in mine[::5]:
            matcher.remove(sub.id)
    matcher.check_invariants()
    for table in types._CANONICAL.values():
        for value, entry in table.items():
            assert entry() is not None and entry().value == value
    del matcher, shared, built, mine, sub
    gc.collect()
    assert table_size() == before


class TestResidentBytes:
    """``tracemalloc`` pins: what W0 subscriptions cost once predicates are
    shared, and what a population of all-distinct constants costs with
    the table included."""

    @staticmethod
    def resident(build):
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            held = build()
            gc.collect()
            size, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return held, size

    @staticmethod
    def w0(n):
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.scenarios import w0

        return WorkloadGenerator(w0(n_subscriptions=n, seed=0)).subscriptions(n)

    def test_a_caller_held_w0_subscription(self):
        n = 20_000
        subs, size = self.resident(lambda: list(self.w0(n)))
        assert len(subs) == n
        assert size / n <= 260, f"{size / n:.0f} B/subscription (731 with private predicates)"

    def test_a_w0_subscription_held_by_the_engine_alone(self):
        n = 20_000

        def load():
            matcher = DynamicMatcher()
            for sub in self.w0(n):
                matcher.add(sub)
            return matcher

        matcher, size = self.resident(load)
        assert len(matcher) == n
        assert size / n <= 450, f"{size / n:.0f} B/subscription (898 with private predicates)"

    def test_distinct_float_constants_pay_for_their_table_entries(self):
        import random

        names = ["a%02d" % i for i in range(24)]

        def build():
            rng = random.Random(0)
            subs = []
            for i in range(2_000):
                a, b, c = rng.sample(names, 3)
                subs.append(
                    Subscription(
                        f"s{i}",
                        [
                            ge(a, rng.uniform(0.0, 80.0)),
                            le(b, rng.uniform(20.0, 100.0)),
                            ge(c, rng.uniform(0.0, 80.0)),
                        ],
                    )
                )
            return subs

        subs, size = self.resident(build)
        assert len({p for s in subs for p in s}) == 6_000
        assert size / 6_000 <= 330, f"{size / 6_000:.0f} B/predicate (184 with no table)"

    def test_the_counting_engine_shares_the_callers_predicates(self):
        subs = list(self.w0(2_000))
        matcher = CountingMatcher()
        for sub in subs:
            matcher.add(sub)
        registered = {p: p for p, _slot in matcher.registry.items()}
        assert all(registered[p] is p for sub in subs for p in sub)
