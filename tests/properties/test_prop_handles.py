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
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.clustering import DynamicParams
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
