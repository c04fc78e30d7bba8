"""Handle reuse under churn: every two-phase engine stays exact.

A rule-based machine drives one engine through adds, removes (so the
next adds reuse freed handles), scalar matches, batches and the
engine's own maintenance (``sweep`` for dynamic, ``rebuild`` for
static).  After every rule ``check_invariants()`` must pass — it
includes the handle table's own checks (handle ↔ id is a bijection, the
free list and the live handles are disjoint and together cover the
table) and, for the clustered engines, that every live handle's column
in its home cluster holds that handle — and every row must equal the
oracle's as a sorted list.

A second machine drives a bare ``HandleTable`` against a plain dict and
a LIFO list of freed handles, across the rebuilds of its id index.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.clustering import DynamicParams
from repro.core import Subscription, eq
from repro.core.errors import DuplicateSubscriptionError, UnknownSubscriptionError
from repro.core.handles import HandleTable
from repro.matchers import DynamicMatcher
from tests.matchers.test_batch_conformance import build
from tests.properties.strategies import events, subscriptions


def norm(ids):
    return sorted(ids, key=repr)


class _HandleMachine(RuleBasedStateMachine):
    engine = ""

    def __init__(self):
        super().__init__()
        if self.engine == "dynamic":
            # Aggressive thresholds: moves, table creation and deletion
            # all happen inside a short run.
            self.matcher = DynamicMatcher(
                params=DynamicParams(bm_max=1.0, b_create=3, b_delete=2, maintenance_interval=8)
            )
        else:
            self.matcher = build(self.engine)
        self.oracle = build("oracle")
        self.live = []
        self.counter = 0

    @rule(sub=subscriptions())
    def add(self, sub):
        self.counter += 1
        sub = type(sub)(f"h{self.counter}", sub.predicates)
        self.matcher.add(sub)
        self.oracle.add(sub)
        self.live.append(sub.id)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove(self, data):
        sid = self.live.pop(data.draw(st.integers(0, len(self.live) - 1)))
        freed = self.matcher._subs.handle_of(sid)
        assert self.matcher.remove(sid) == self.oracle.remove(sid)
        assert self.matcher._subs.next_handle == freed

    @rule(event=events())
    def match(self, event):
        assert norm(self.matcher.match(event)) == norm(self.oracle.match(event))

    @rule(batch=st.lists(events(), min_size=2, max_size=6))
    def match_batch(self, batch):
        expected = [norm(self.oracle.match(e)) for e in batch]
        assert [norm(row) for row in self.matcher.match_batch(batch)] == expected

    @precondition(lambda self: self.engine == "dynamic")
    @rule()
    def sweep(self):
        self.matcher.sweep()

    @precondition(lambda self: self.engine == "static")
    @rule()
    def rebuild(self):
        self.matcher.rebuild()

    @invariant()
    def bookkeeping_exact(self):
        assert len(self.matcher) == len(self.live)
        self.matcher.check_invariants()


SETTINGS = settings(max_examples=15, stateful_step_count=30, deadline=None)


def _case(engine):
    machine = type(f"{engine.title()}HandleMachine", (_HandleMachine,), {"engine": engine})
    case = machine.TestCase
    case.settings = SETTINGS
    return case


TestCountingHandles = _case("counting")
TestPropagationHandles = _case("propagation")
TestPrefetchPropagationHandles = _case("propagation-wp")
TestStaticHandles = _case("static")
TestDynamicHandles = _case("dynamic")


#: Ids a rule may re-use, among them ``1`` and ``1.0``, which a dict
#: takes for one key.
ID_POOL = [0, 1, 1.0, 2, -3, 2.5, "a", "b", "", ("t", 1), ("t", 2)]


class HandleTableModel(RuleBasedStateMachine):
    """``put`` hands out the last freed handle, else the next unused
    one; every read agrees with the model whatever the index's free
    entries and rebuilds."""

    def __init__(self):
        super().__init__()
        self.table = HandleTable()
        self.model = {}  # id -> handle
        self.subs = {}  # handle -> subscription
        self.free = []
        self.fresh = 0

    def _put(self, sub_id):
        sub = Subscription(sub_id, [eq("x", 1)])
        if sub_id in self.model:
            with pytest.raises(DuplicateSubscriptionError):
                self.table.put(sub)
            return
        expected = self.free.pop() if self.free else len(self.subs)
        assert self.table.put(sub) == expected
        self.model[sub_id] = expected
        self.subs[expected] = sub

    @rule(n=st.integers(1, 12))
    def put_fresh(self, n):
        for _ in range(n):
            self.fresh += 1
            self._put(f"f{self.fresh}")

    @rule(sub_id=st.sampled_from(ID_POOL))
    def put_pooled(self, sub_id):
        self._put(sub_id)

    @precondition(lambda self: self.fresh)
    @rule(data=st.data())
    def re_put_a_fresh_id(self, data):
        self._put(f"f{data.draw(st.integers(1, self.fresh))}")

    @precondition(lambda self: self.model)
    @rule(data=st.data(), n=st.integers(1, 8))
    def drop(self, data, n):
        for _ in range(min(n, len(self.model))):
            sub_id = data.draw(st.sampled_from(sorted(self.model, key=repr)))
            handle = self.model.pop(sub_id)
            assert self.table.drop(sub_id) == (handle, self.subs[handle])
            self.subs[handle] = None
            self.free.append(handle)

    @rule(sub_id=st.sampled_from(ID_POOL + ["f1", "nobody"]))
    def look_up(self, sub_id):
        assert (sub_id in self.table) == (sub_id in self.model)
        if sub_id in self.model:
            assert self.table.handle_of(sub_id) == self.model[sub_id]
        else:
            for call in (self.table.handle_of, self.table.drop):
                with pytest.raises(UnknownSubscriptionError):
                    call(sub_id)

    @invariant()
    def agrees_with_the_model(self):
        table = self.table
        assert len(table) == len(self.model)
        assert table.capacity == len(self.subs)
        assert table.next_handle == (self.free[-1] if self.free else len(self.subs))
        live = sorted(self.model.values())
        assert [(h, s) for h, s in table.items()] == [(h, self.subs[h]) for h in live]
        assert table.ids(live[::-1]) == [self.subs[h].id for h in live[::-1]]
        table.check_invariants()


TestHandleTableModel = HandleTableModel.TestCase
TestHandleTableModel.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)

