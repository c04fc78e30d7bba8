"""An event is a shared shape plus a value tuple.

``Event`` keeps its attribute order in an ``EventShape`` hash-consed in a
weak table, and its values in a tuple in that order.  Events compare and
hash by content, so the representation must be invisible: order-free
equality, the same validation and messages, a ``pairs`` that is a copy,
shapes that die with their last event, and the batch kernel and the
columnar codec agreeing with the scalar path over batches of mixed
shapes.
"""

import gc
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.batch.columns import ColumnarBatch
from repro.core import Event, InvalidEventError, Subscription, eq, ge, le
from repro.core import types
from repro.matchers import CountingMatcher, DynamicMatcher


def shapes():
    gc.collect()
    return len(types._SHAPES)


class TestSharedShape:
    def test_like_events_share_one_shape_and_hold_a_value_tuple(self):
        a = Event({"price": 8, "movie": "groundhog day"})
        b = Event([("price", 9), ("movie", "heat")])
        assert a.shape is b.shape
        assert a.shape.attrs == ("price", "movie")
        assert a.values == (8, "groundhog day") and type(a.values) is tuple

    def test_order_is_part_of_the_shape_but_not_of_equality(self):
        a, b = Event({"x": 1, "y": 2.5}), Event({"y": 2.5, "x": 1})
        assert a.shape is not b.shape
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert list(a.items()) == [("x", 1), ("y", 2.5)]
        assert list(b.items()) == [("y", 2.5), ("x", 1)]
        assert repr(a) == repr(b) == "Event(x=1, y=2.5)"

    def test_content_semantics_are_unchanged(self):
        assert Event({"x": 1}) == Event({"x": 1.0}) == Event({"x": True})
        assert Event({"x": 1}) != Event({"x": 1, "y": 1})
        assert Event({"x": 1, "y": 2}) != Event({"x": 1, "z": 2})
        nan = float("nan")
        assert Event({"x": nan}) == Event({"x": nan})  # one NaN object: identity, as a dict
        assert Event({"x": nan}) != Event({"x": float("nan")})
        assert math.copysign(1.0, Event({"x": -0.0})["x"]) == -1.0

    def test_lookups_read_positions(self):
        e = Event({"a": 1, "b": "s", "c": 2.5})
        assert e.shape.position("b") == 1 and e.shape.position("z") is None
        assert e.shape.positions(("c", "a")) == (2, 0)
        assert e.shape.positions(("c", "z")) is None
        assert e.get("c") == 2.5 and e.get("z", 7) == 7 and e.get("z") is None
        assert "a" in e and e.has("b") and not e.has("z")
        with pytest.raises(KeyError):
            e["z"]

    def test_pairs_is_a_copy(self):
        e = Event({"a": 1})
        pairs = e.pairs
        pairs["a"] = 2
        pairs["b"] = 3
        assert e.pairs == {"a": 1} and e["a"] == 1 and len(e) == 1
        assert e == Event({"a": 1}) and hash(e) == hash(Event({"a": 1}))

    def test_shape_is_immutable(self):
        e, f = Event({"im_a": 1, "im_b": 2}), Event({"im_a": 3, "im_b": 4})
        e.shape.position("im_b")  # the lazily built index goes in too
        for name, value in (("attrs", ("im_b", "im_a")), ("_index", {}), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(e.shape, name, value)
        assert f.shape.attrs == ("im_a", "im_b") and f["im_b"] == 4
        assert types._SHAPES[("im_a", "im_b")] is f.shape


class TestValidation:
    def test_first_error_in_event_order_wins(self):
        with pytest.raises(InvalidEventError, match="non-empty string"):
            Event([("", 1), ("b", [1])])
        with pytest.raises(InvalidEventError, match="unsupported type list"):
            Event([("a", [1]), ("", 1)])
        with pytest.raises(InvalidEventError, match="duplicate attribute 'a'"):
            Event([("a", 1), ("a", [1])])
        with pytest.raises(InvalidEventError, match="non-empty string"):
            Event([(["a"], 1)])  # unhashable: no table lookup crash
        with pytest.raises(InvalidEventError, match="at least one pair"):
            Event([])

    def test_values_keep_their_types(self):
        e = Event({"flag": True, "big": 2**70, "f": np.float64(0.5), "s": "x"})
        assert type(e["flag"]) is int and e["big"] == 2**70
        assert isinstance(e["f"], float) and e["s"] == "x"
        with pytest.raises(InvalidEventError):
            Event({"i": np.int64(3)})

    def test_a_failed_event_files_no_shape(self):
        before = shapes()
        with pytest.raises(InvalidEventError):
            Event([("never_filed", 1), ("never_filed", 2)])
        assert shapes() == before


class TestWeakTable:
    def test_a_shape_dies_with_its_last_event(self):
        before = shapes()
        e = Event({"only_here_once": 1})
        f = Event({"only_here_once": 2})
        assert shapes() == before + 1
        del e
        assert shapes() == before + 1
        del f
        assert shapes() == before

    def test_churn_returns_the_table_to_its_baseline(self):
        before = shapes()
        events = [Event({f"unique_{i}": i, "common": 1}) for i in range(10_000)]
        assert shapes() == before + 10_000
        del events
        assert shapes() == before

    def test_pickle_round_trip_shares_the_shape(self):
        e = Event({"p": 1, "q": "v"})
        back = pickle.loads(pickle.dumps(e))
        assert back == e and back.shape is e.shape and back.values == e.values

    def test_threads_building_like_events(self):
        before = shapes()
        start = threading.Barrier(8)
        built = [[] for _ in range(8)]

        def work(worker):
            start.wait()
            for i in range(300):
                Event({"t_transient": i})  # minted and dropped at once
                built[worker].append(Event({"t_k": i % 7, f"t_x{i % 3}": i}))

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
        # A race may mint two equal shapes; the events still compare equal.
        assert all(a == b for a, b in zip(built[0], built[7]))
        assert all(shape.attrs == attrs for attrs, shape in types._SHAPES.items())
        del built
        assert shapes() == before


class TestBatchKernelOverMixedShapes:
    """Phase 1 converts a batch once whatever its shapes; phase 2
    resolves a table's schema once per shape.  Both must agree with the
    scalar path for any mix of orders, subsets and odd values in one
    batch."""

    EVENTS = [
        Event({"a": 1, "b": 2, "c": 3}),
        Event({"c": 3, "a": 1, "b": 2}),
        Event({"b": 2, "a": 1}),
        Event({"a": "1", "b": 2}),
        Event({"a": 1, "b": float("nan")}),
        Event({"a": 2**60, "b": 2, "c": 3}),
        Event({"c": 3.0}),
        Event({"a": 1, "b": 2, "c": 3}),
    ]

    def population(self):
        return [
            Subscription("ab", [eq("a", 1), eq("b", 2)]),
            Subscription("abc", [eq("a", 1), eq("b", 2), le("c", 3)]),
            Subscription("c", [ge("c", 3)]),
            Subscription("s", [eq("a", "1")]),
            Subscription("big", [eq("a", 2**60), eq("b", 2)]),
        ]

    @pytest.mark.parametrize("engine", [DynamicMatcher, CountingMatcher])
    def test_batch_equals_scalar(self, engine):
        matcher = engine()
        for sub in self.population():
            matcher.add(sub)
        got = matcher.match_batch(self.EVENTS)
        assert [sorted(row) for row in got] == [sorted(matcher.match(e)) for e in self.EVENTS]
        assert sorted(got[0]) == ["ab", "abc", "c"] and sorted(got[1]) == ["ab", "abc", "c"]
        assert got[3] == ["s"] and sorted(got[5]) == ["big", "c"]

    def test_columns_are_resolved_per_shape(self):
        events = [self.EVENTS[i] for i in (0, 1, 2, 4, 6, 7)]
        batch = ColumnarBatch.from_events(events)
        assert batch.attrs == ["a", "b", "c"]
        back = batch.to_events()
        assert [e.pairs for e in back[:3]] == [{"a": 1, "b": 2, "c": 3}] * 2 + [{"a": 1, "b": 2}]
        assert math.isnan(back[3]["b"]) and back[4:] == events[4:]
        assert back[0].shape is back[-1].shape
        assert ColumnarBatch.from_events(self.EVENTS) is None

    @pytest.mark.parametrize("odd", [None, "7", 2**60])
    def test_one_kernel_call_per_attribute_when_every_event_has_its_own_shape(
        self, odd, monkeypatch
    ):
        # The shard_shm regime: 8 of 24 attributes per event, in random
        # order, so nearly every event of a batch brings a new shape.
        import random

        from repro.batch import evaluator

        rng = random.Random(3)
        names = ["a%02d" % i for i in range(24)]
        matcher = CountingMatcher()
        for i in range(300):
            a, b, c = rng.sample(names, 3)
            matcher.add(
                Subscription(
                    f"s{i}",
                    [ge(a, rng.uniform(0, 80)), le(b, rng.uniform(20, 100)), eq(c, i % 5)],
                )
            )
        events = [
            Event({a: float(rng.randrange(100)) for a in rng.sample(names, 8)})
            for _ in range(128)
        ]
        if odd is not None:
            events[5] = Event({**events[5].pairs, "a00": odd})
        assert len({e.shape for e in events}) > 120
        calls = []
        vector = evaluator.BatchPredicateEvaluator._vector
        monkeypatch.setattr(
            evaluator.BatchPredicateEvaluator,
            "_vector",
            staticmethod(lambda *args: calls.append(1) or vector(*args)),
        )
        got = matcher.match_batch(events)
        assert [sorted(row) for row in got] == [sorted(matcher.match(e)) for e in events]
        assert sum(map(len, got)) > 0
        # One vector call per indexed attribute per batch; the attribute
        # holding the odd value resolves cell by cell instead.
        assert len(calls) == 24 - (odd is not None)


class TestResidentBytes:
    """``tracemalloc`` pins: a W0 event is one object and one value
    tuple; events that each bring a new shape pay for their shape."""

    @staticmethod
    def per_event(build, n):
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            held = build()
            gc.collect()
            size, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(held) == n
        return (size - sys.getsizeof(held)) / n

    def test_a_caller_held_w0_event(self):
        from repro.workload.generator import WorkloadGenerator
        from repro.workload.scenarios import w0

        gen = WorkloadGenerator(w0(n_subscriptions=10, seed=0))
        size = self.per_event(lambda: list(gen.events(8_000)), 8_000)
        assert size <= 360, f"{size:.0f} B/event (916 as a private dict)"

    def test_events_that_each_bring_a_new_shape(self):
        import random

        names = ["a%02d" % i for i in range(24)]

        def build():
            rng = random.Random(0)
            return [
                Event({a: rng.uniform(0.0, 100.0) for a in rng.sample(names, 8)})
                for _ in range(6_000)
            ]

        size = self.per_event(build, 6_000)
        assert size <= 660, f"{size:.0f} B/event (548 as a private dict)"
