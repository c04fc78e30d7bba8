"""The one numbering of subscriptions: ``HandleTable`` and the failure
paths that must leave no handle behind."""

import pickle
import sys
import tracemalloc

import pytest

from repro.core import Event, Subscription, eq
from repro.core.errors import DuplicateSubscriptionError, UnknownSubscriptionError
from repro.core.handles import FREE_SHARE, HandleTable
from repro.matchers import MATCHER_FACTORIES
from repro.system.sharding import ShardedMatcher
from tests.matchers.test_batch_conformance import build

#: The two-phase engines: they number their subscriptions with a table.
TWO_PHASE = ["counting", "dynamic", "propagation", "propagation-wp", "static"]


def sub(sub_id, value=1):
    return Subscription(sub_id, [eq("x", value)])


class TestHandleTable:
    def test_handles_are_dense_and_the_last_freed_is_reused_first(self):
        table = HandleTable()
        assert [table.put(sub(i)) for i in "abcd"] == [0, 1, 2, 3]
        b = table.get(1)
        assert table.drop("b") == (1, b)
        table.drop("c")
        assert table.next_handle == 2
        assert table.put(sub("e")) == 2
        assert table.put(sub("f")) == 1
        assert table.put(sub("g")) == 4
        assert table.capacity == 5 and len(table) == 5
        table.check_invariants()

    def test_drop_returns_the_handle_and_the_subscription(self):
        table = HandleTable()
        s = sub("a")
        table.put(sub("z"))
        table.put(s)
        assert table.drop("a") == (1, s)
        assert "a" not in table and "z" in table
        table.check_invariants()

    def test_duplicate_id_rejected(self):
        table = HandleTable()
        table.put(sub("a"))
        with pytest.raises(DuplicateSubscriptionError):
            table.put(sub("a", 2))
        assert len(table) == 1 and table.capacity == 1
        table.check_invariants()

    def test_unknown_id_rejected(self):
        table = HandleTable()
        for call in (table.drop, table.handle_of):
            with pytest.raises(UnknownSubscriptionError):
                call("nobody")

    def test_ids_gather_and_items_walk_in_handle_order(self):
        table = HandleTable()
        for sub_id in ("a", ("b", 1), 7, "d"):
            table.put(sub(sub_id))
        table.drop(("b", 1))
        assert table.ids([3, 0, 2, 0]) == ["d", "a", 7, "a"]
        assert [(h, s.id) for h, s in table.items()] == [(0, "a"), (2, 7), (3, "d")]
        assert table.get(table.handle_of(7)).id == 7

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda t: t._free.append(0), "live handle on the free list"),
            (lambda t: t._free.append(t._free[0]), "freed twice"),
            (lambda t: t._free.pop(), "neither live nor free"),
            (lambda t: t._handle.__setitem__("a", 1), "handle ↔ id drift"),
            (lambda t: t._handle.pop("a"), "handle ↔ id drift"),
            (lambda t: t._handle.__setitem__("a", None), "handle ↔ id drift"),
            (lambda t: t._handle.update(dict.fromkeys("wxyz")), "free entries past their share"),
        ],
    )
    def test_check_invariants_catches_a_broken_numbering(self, corrupt, message):
        table = HandleTable()
        for sub_id in "abcd":
            table.put(sub(sub_id))
        table.drop("c")
        table.check_invariants()
        corrupt(table)
        with pytest.raises(AssertionError, match=message):
            table.check_invariants()


class TestChurnKeepsTheIndex:
    """A freed id keeps its index entry, marked free: re-adding it
    writes that entry in place, so churn over a steady population takes
    no new insertion slot.  With a ``del`` per drop, CPython rebuilds
    the dict at three times its live entries once the slots run out:
    at 20k ids the table built by insertion has about 1.8k to spare."""

    N = 20_000

    def loaded(self):
        subs = [sub(f"s{i}") for i in range(self.N)]
        table = HandleTable()
        for s in subs:
            table.put(s)
        return table, subs

    def test_re_added_ids_do_not_grow_the_index(self):
        table, subs = self.loaded()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for start in range(0, 100 * 32, 32):  # 3 200 re-adds
                chunk = subs[start : start + 32]
                for s in chunk:
                    table.drop(s.id)
                for s in reversed(chunk):
                    table.put(s)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16 * 1024, grown
        assert len(table) == self.N and len(table._handle) == self.N
        table.check_invariants()

    def test_fresh_ids_stay_within_the_free_share(self):
        """Fresh ids do take new entries: the index is rebuilt once free
        ones pass their share, and stays no larger than a dict under
        ``del`` churn."""
        table, subs = self.loaded()
        model = {s.id: h for h, s in table.items()}  # the ``del`` layout
        largest = model_largest = 0
        live = [s.id for s in subs]
        for i in range(20_000):
            fresh = sub(f"f{i}")
            model[fresh.id] = table.put(fresh)
            live.append(fresh.id)
            gone = live[i]
            table.drop(gone)
            del model[gone]
            assert len(table._handle) - len(table) <= FREE_SHARE * len(table._handle)
            largest = max(largest, sys.getsizeof(table._handle))
            model_largest = max(model_largest, sys.getsizeof(model))
        assert len(table) == self.N
        assert largest <= model_largest
        table.check_invariants()


class TestFailurePathsLeaveNoHandle:
    @pytest.mark.parametrize("engine", TWO_PHASE)
    def test_an_add_whose_place_raises_frees_its_handle(self, engine, monkeypatch):
        matcher = build(engine)
        matcher.add(sub("a"))
        matcher.add(sub("b"))
        matcher.remove("a")
        expected = matcher._subs.next_handle

        def explode(*_args):
            raise RuntimeError("boom")

        monkeypatch.setattr(matcher, "_place", explode)
        with pytest.raises(RuntimeError):
            matcher.add(sub("c"))
        monkeypatch.undo()
        assert len(matcher) == 1 and "c" not in matcher
        matcher.check_invariants()
        matcher.add(sub("c"))
        assert matcher._subs.handle_of("c") == expected
        matcher.check_invariants()
        assert sorted(matcher.match(Event({"x": 1}))) == ["b", "c"]

    def test_an_unpicklable_id_takes_no_handle_on_a_process_shard(self):
        proc = ShardedMatcher(
            shards=1,
            inner=MATCHER_FACTORIES["counting"],
            executor="process",
            worker_timeout=60.0,
        )
        try:
            shard = proc.shard(0)
            shard.add(sub("a"))
            shard.add(sub("b"))
            shard.remove("a")
            before = (shard._mirror.capacity, shard._mirror.next_handle, shard.epoch)
            with pytest.raises((pickle.PicklingError, AttributeError)):
                shard.add(sub(lambda: 0))
            assert (shard._mirror.capacity, shard._mirror.next_handle, shard.epoch) == before
            assert [s.id for s in shard.iter_subscriptions()] == ["b"]
            shard._mirror.check_invariants()
            shard.add(sub("c"))
            assert shard._mirror.handle_of("c") == 0
            assert shard.match(Event({"x": 1})) == ["c", "b"]  # ascending handle
        finally:
            proc.close()
