"""The composition contract, one battery over every composite.

``core/matcher.py`` states what a layer owes the matchers it holds:
``close`` / ``rebuild`` / ``use_metrics`` / ``use_tracer`` reach every
inner matcher through ``inner_matchers()``, a batch arrives below as one
``match_batch`` call, and the bookkeeping surface (``get`` / ``len`` /
``iter_subscriptions`` / ``stats()``) agrees with what is stored
underneath.  Each composite in ``src/`` faces the same assertions over
recording leaf engines; the three defects that motivated the contract
are pinned at the bottom.
"""

import collections
import io
import itertools
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.aggregation import AggregatingMatcher
from repro.bench.harness import matcher_for
from repro.core import Event, OracleMatcher, Subscription, eq, le
from repro.core.errors import DuplicateSubscriptionError, UnknownSubscriptionError
from repro.core.matcher import MatcherWrapper
from repro.core.threadsafe import ThreadSafeMatcher
from repro.io import dump_events, dump_subscriptions
from repro.matchers import MATCHER_FACTORIES, DynamicMatcher, make_matcher
from repro.obs import MetricsRegistry, Tracer
from repro.system import BatchServer, PubSubBroker, ShardedMatcher
from repro.testing.faults import FlakyMatcher, InjectedFault, KillableWorker, SlowMatcher
from repro.workload.scenarios import paper_workloads

from tests.conftest import shm_entries
from tests.properties.strategies import predicates


class Recording(OracleMatcher):
    """A leaf engine that counts what reaches it."""

    def __init__(self):
        super().__init__()
        self.calls = collections.Counter()

    def close(self):
        self.calls["close"] += 1

    def rebuild(self):
        self.calls["rebuild"] += 1

    def match(self, event):
        self.calls["match"] += 1
        return super().match(event)

    def match_batch(self, events):
        self.calls["match_batch"] += 1
        return [OracleMatcher.match(self, e) for e in events]


def _disarmed(inner, tmp_path):
    latch = tmp_path / "latch"
    latch.touch()  # the latch exists, so this construction stays disarmed
    worker = KillableWorker(inner, guard_pid=os.getpid(), latch_path=str(latch))
    assert not worker.armed
    return worker


#: name → build(leaves, tmp_path): *leaves* collects every Recording made.
COMPOSITIONS = {
    "thread-safe": lambda new, tmp: ThreadSafeMatcher(new()),
    "flaky": lambda new, tmp: FlakyMatcher(new(), failures=0),
    "slow": lambda new, tmp: SlowMatcher(new(), delay=0),
    "killable": lambda new, tmp: _disarmed(new(), tmp),
    "aggregating": lambda new, tmp: AggregatingMatcher(inner=new()),
    "sharded": lambda new, tmp: ShardedMatcher(shards=2, router="roundrobin", inner=new),
    "two-deep": lambda new, tmp: ThreadSafeMatcher(AggregatingMatcher(inner=new())),
}

#: Pairwise non-covering and distinct, so aggregation keeps one group each.
SUBS = [Subscription(f"s{i}", [eq("k", i % 4), eq("n", i)]) for i in range(8)]
EVENTS = [Event({"k": i % 4, "n": i}) for i in range(8)]


def descendants(matcher):
    for inner in matcher.inner_matchers():
        yield inner
        yield from descendants(inner)


@pytest.fixture(params=sorted(COMPOSITIONS))
def stack(request, tmp_path):
    leaves = []

    def new():
        leaves.append(Recording())
        return leaves[-1]

    matcher = COMPOSITIONS[request.param](new, tmp_path)
    matcher.add_batch(SUBS)
    yield matcher, leaves
    matcher.close()


class TestCompositionContract:
    def test_inner_matchers_names_every_leaf(self, stack):
        matcher, leaves = stack
        found = [m for m in descendants(matcher) if isinstance(m, Recording)]
        assert found == leaves

    def test_close_and_rebuild_reach_every_inner_once(self, stack):
        matcher, leaves = stack
        matcher.rebuild()
        matcher.close()
        for leaf in leaves:
            assert leaf.calls["rebuild"] == 1 and leaf.calls["close"] == 1

    def test_metrics_and_tracer_reach_every_inner(self, stack):
        matcher, _leaves = stack
        registry, tracer = MetricsRegistry(), Tracer()
        assert matcher.use_metrics(registry) is registry
        assert matcher.use_tracer(tracer) is tracer
        for m in [matcher, *descendants(matcher)]:
            assert m.metrics is registry and m.tracer is tracer

    def test_a_batch_arrives_as_one_match_batch(self, stack):
        matcher, leaves = stack
        rows = matcher.match_batch(EVENTS)
        assert [sorted(r) for r in rows] == [[f"s{i}"] for i in range(8)]
        for leaf in leaves:
            assert leaf.calls["match_batch"] == 1 and leaf.calls["match"] == 0
        assert sorted(matcher.match(EVENTS[3])) == ["s3"]

    def test_bookkeeping_agrees_with_the_inner(self, stack):
        matcher, leaves = stack
        assert len(matcher) == sum(map(len, leaves)) == len(SUBS)
        assert matcher.stats()["subscriptions"] == len(SUBS)
        assert sorted(matcher.iter_subscriptions(), key=lambda s: s.id) == SUBS
        for sub in SUBS:
            assert matcher.get(sub.id) == sub
        if isinstance(matcher, MatcherWrapper) and leaves[0] is matcher.inner:
            assert matcher.name == leaves[0].name
            assert matcher.get("s0") is leaves[0].get("s0")
        removed = matcher.remove("s0")
        assert removed == SUBS[0] and len(matcher) == sum(map(len, leaves)) == 7


#: The single-inner layers of ``COMPOSITIONS``, here over a sharded engine.
WRAPPERS = {
    "bare": lambda sharded: sharded,
    "thread-safe": ThreadSafeMatcher,
    "flaky": lambda sharded: FlakyMatcher(sharded, failures=0),
    "slow": lambda sharded: SlowMatcher(sharded, delay=0),
    "aggregating": lambda sharded: AggregatingMatcher(inner=sharded),
    "two-deep": lambda sharded: ThreadSafeMatcher(AggregatingMatcher(inner=sharded)),
}


class TestHealthSeesThroughWrappers:
    """``BatchServer.health()`` finds the shard fan-out by walking
    ``inner_matchers()``: an open breaker degrades the stack however many
    layers sit between the server and the ``ShardedMatcher``."""

    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    def test_an_open_shard_breaker_is_reported(self, wrapper):
        sharded = ShardedMatcher(shards=2, router="roundrobin", breaker=True)
        with BatchServer(WRAPPERS[wrapper](sharded)) as server:
            server.submit_subscriptions(SUBS)
            healthy = server.health()
            assert healthy["status"] == "ok"
            assert healthy["breakers"] == {"0": "closed", "1": "closed"}
            sharded.breaker(1).force_open()
            report = server.health()
        assert report["status"] == "degraded"
        assert report["breakers"] == {"0": "closed", "1": "open"}
        assert report["executor"] == {"executor": "thread", "workers": 2, "alive": 2}

    def test_an_unsharded_stack_reports_neither(self):
        with BatchServer(ThreadSafeMatcher(DynamicMatcher())) as server:
            report = server.health()
        assert (report["status"], report["breakers"], report["executor"]) == ("ok", None, None)


class TestTheDefectsThatMotivatedIt:
    def test_engine_families_appear_through_thread_safe(self):
        matcher = ThreadSafeMatcher(DynamicMatcher())
        registry = matcher.use_metrics()
        for sub in SUBS:
            matcher.add(sub)
        matcher.match_batch(EVENTS)
        events = registry.family("repro_events_total")
        assert events is not None
        assert events.labels(engine="dynamic", shard="").value == len(EVENTS)

    def test_broker_close_reaches_worker_processes_through_a_wrapper(self):
        before = shm_entries()
        sharded = ShardedMatcher(
            shards=2, inner="counting", executor="process", worker_timeout=60.0,
        )
        try:
            broker = PubSubBroker(matcher=ThreadSafeMatcher(sharded))
            broker.subscribe(SUBS[0])
            assert sharded._procpool.alive_count() == 2
            assert shm_entries() == before  # the arena has no name
            broker.close()
            assert sharded._procpool.alive_count() == 0
            assert sharded._procpool.arena._map.closed
        finally:
            sharded.close()

    def test_populate_runs_the_optimizer_under_aggregation(self):
        spec = paper_workloads(0.001)["W0"]
        static = matcher_for("static", spec)
        subs = [
            Subscription(f"s{i}", [eq("a", i % 3), eq("b", i % 5), le("c", i)])
            for i in range(30)
        ]
        cli._populate(AggregatingMatcher(inner=static), subs)
        assert static.plan is not None
        # ... and StaticMatcher.rebuild still hands its plan back, also
        # through a forwarding wrapper.
        assert ThreadSafeMatcher(static).rebuild() is static.plan

    def test_cli_static_aggregate_equals_the_unaggregated_run(self, tmp_path):
        subs = [
            Subscription(f"s{i}", [eq("a", i % 3), eq("b", i % 5), le("c", i % 7)])
            for i in range(60)
        ]
        events = [Event({"a": i % 3, "b": i % 5, "c": i % 9}) for i in range(30)]
        with open(tmp_path / "subs.jsonl", "w") as fp:
            dump_subscriptions(subs, fp)
        with open(tmp_path / "events.jsonl", "w") as fp:
            dump_events(events, fp)
        outputs = []
        for extra in ([], ["--aggregate"]):
            out = io.StringIO()
            argv = [
                "match",
                "--subscriptions", str(tmp_path / "subs.jsonl"),
                "--events", str(tmp_path / "events.jsonl"),
                "--engine", "static",
            ]
            assert cli.main(argv + extra, out=out) == 0
            outputs.append(out.getvalue())
        assert '"matched": ["s' in outputs[0]
        assert outputs[0] == outputs[1]


def _engine(name):
    if name == "static":
        return matcher_for("static", paper_workloads(0.001)["W0"])
    if name == "sharded":
        return make_matcher("sharded", shards=2)
    return make_matcher(name)


#: Every registered engine (``sharded`` and ``aggregating`` over
#: dynamic among them), and the wrappers a write batch crosses.
WRITE_STACKS = {
    **{name: lambda name=name: _engine(name) for name in MATCHER_FACTORIES},
    "thread-safe": lambda: ThreadSafeMatcher(DynamicMatcher()),
    "flaky": lambda: FlakyMatcher(DynamicMatcher(), failures=0),
    "aggregating(flaky add)": lambda: AggregatingMatcher(
        inner=FlakyMatcher(DynamicMatcher(), failures=0, operations=("add",))
    ),
}

#: Every (a, b, c) over 0..3, half of them carrying the fresh attribute z.
WRITE_EVENTS = [
    Event({"a": a, "b": b, "c": c, **({"z": a} if b % 2 else {})})
    for a, b, c in itertools.product(range(4), repeat=3)
]


def _observed(matcher, ordered=True):
    """What a write may change: stored ids (in ``iter_subscriptions``
    order, or as a set), ``len`` and the match rows; the invariants of
    every layer that checks its own are asserted on the way."""
    for m in [matcher, *descendants(matcher)]:
        if hasattr(m, "check_invariants"):
            m.check_invariants()
        if isinstance(m, AggregatingMatcher):
            m._forest.check_invariants()
    ids = [s.id for s in matcher.iter_subscriptions()]
    rows = [sorted(row, key=str) for row in matcher.match_batch(WRITE_EVENTS)]
    return (ids if ordered else sorted(ids), len(matcher), rows)


def _chunked(items, cuts):
    """*items* cut at the sorted positions *cuts* (empty chunks kept)."""
    bounds = [0, *sorted(min(c, len(items)) for c in cuts), len(items)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class TestOneWriteRule:
    """``Matcher.add_batch`` / ``remove_batch``: a batch under any
    chunking equals the one-at-a-time loop, and a batch with one bad
    item raises having changed nothing — for every engine and every
    layer a write crosses."""

    @pytest.mark.parametrize("stack", sorted(WRITE_STACKS))
    @settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_a_batch_is_the_loop_and_a_bad_batch_changes_nothing(self, stack, data):
        preds = st.lists(predicates(), min_size=1, max_size=3)
        subs = [
            Subscription(f"s{i}", p)
            for i, p in enumerate(data.draw(st.lists(preds, min_size=1, max_size=10)))
        ]
        cuts = st.lists(st.integers(0, len(subs)), max_size=3)
        loop, batched = WRITE_STACKS[stack](), WRITE_STACKS[stack]()
        try:
            for sub in subs:
                loop.add(sub)
            for chunk in _chunked(subs, data.draw(cuts)):
                batched.add_batch(chunk)
            assert _observed(batched) == _observed(loop)

            ids = [sub.id for sub in subs]
            gone = data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=len(ids)))
            removed = [loop.remove(sub_id) for sub_id in gone]
            chunks = _chunked(gone, data.draw(st.lists(st.integers(0, len(gone)), max_size=3)))
            assert [sub for chunk in chunks for sub in batched.remove_batch(chunk)] == removed
            assert _observed(batched) == _observed(loop)

            # A bad batch raises and changes nothing; a write undone may
            # move a subscription in ``iter_subscriptions`` order.
            live = [sub_id for sub_id in ids if sub_id not in gone]
            before = _observed(batched, ordered=False)
            n_fresh = data.draw(st.integers(1, 4))
            fresh = [Subscription(f"n{i}", [eq("z", i)]) for i in range(n_fresh)]
            at = data.draw(st.integers(0, len(fresh)))
            if live and data.draw(st.booleans()):  # a live id
                bad = Subscription(data.draw(st.sampled_from(live)), [eq("z", 9)])
            else:  # an id twice
                at = max(at, 1)
                bad = fresh[data.draw(st.integers(0, at - 1))]
            with pytest.raises(DuplicateSubscriptionError):
                batched.add_batch(fresh[:at] + [bad] + fresh[at:])
            assert _observed(batched, ordered=False) == before

            some = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
            at = data.draw(st.integers(0, len(some)))
            if some and data.draw(st.booleans()):  # an id twice
                at = max(at, 1)
                bad_id = some[data.draw(st.integers(0, at - 1))]
            else:  # an unknown id
                bad_id = "ghost"
            with pytest.raises(UnknownSubscriptionError):
                batched.remove_batch(some[:at] + [bad_id] + some[at:])
            assert _observed(batched, ordered=False) == before
        finally:
            loop.close()
            batched.close()

    @settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
    @given(
        population=st.lists(st.lists(predicates(), min_size=1, max_size=3), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_an_inner_fault_mid_batch_changes_nothing(self, population, data):
        """Aggregation over an inner whose ``add`` fails once: the batch's
        items before the fault are canonical duplicates (no inner write),
        the first fresh group faults, and the whole batch is undone."""
        inner = FlakyMatcher(DynamicMatcher(), failures=0, operations=("add",))
        agg = AggregatingMatcher(inner=inner)
        subs = [Subscription(f"s{i}", p) for i, p in enumerate(population)]
        agg.add_batch(subs)
        before = _observed(agg, ordered=False)
        dups = [
            Subscription(f"d{i}", data.draw(st.sampled_from(subs)).predicates)
            for i in range(data.draw(st.integers(0, 3)))
        ]
        fresh = [Subscription(f"n{i}", [eq("z", i)]) for i in range(data.draw(st.integers(1, 3)))]
        inner.rearm(1)
        with pytest.raises(InjectedFault):
            agg.add_batch(dups + fresh)
        assert inner.healed and inner.injected == 1
        assert _observed(agg, ordered=False) == before
        agg.add_batch(dups + fresh)  # the fault is spent: the retry goes through
        oracle = OracleMatcher()
        oracle.add_batch(subs + dups + fresh)
        assert _observed(agg, ordered=False)[1:] == _observed(oracle, ordered=False)[1:]


def _id_writes(owner):
    """The add and remove of a broker, the aggregation layer or an engine."""
    if owner == "broker":
        broker = PubSubBroker()
        return broker.subscribe, broker.unsubscribe
    matcher = AggregatingMatcher() if owner == "aggregating" else DynamicMatcher()
    return matcher.add, matcher.remove


class TestIdsAndEmptyBatches:
    @pytest.mark.parametrize("owner", ["broker", "aggregating", "dynamic"])
    def test_an_id_past_the_digit_limit_still_prints(self, owner):
        """``str(10**5000)`` raises: the error naming such an id must not."""
        huge = 10**5000
        add, remove = _id_writes(owner)
        with pytest.raises(UnknownSubscriptionError) as unknown:
            remove(huge)
        add(Subscription(huge, [eq("x", 1)]))
        with pytest.raises(DuplicateSubscriptionError) as duplicate:
            add(Subscription(huge, [eq("x", 2)]))
        for error in (unknown.value, duplicate.value):
            assert str(error) == f"<int of {huge.bit_length()} bits>"
            assert repr(error).endswith(f"(<int of {huge.bit_length()} bits>)")

    def test_an_empty_write_batch_spends_no_fault(self):
        flaky = FlakyMatcher(DynamicMatcher(), failures=1, operations=("add", "remove"))
        broker = PubSubBroker(matcher=flaky)
        flaky.add_batch([])
        assert flaky.remove_batch([]) == []
        assert broker.subscribe_batch([]) == [] and broker.unsubscribe_batch([]) == []
        assert flaky.injected == 0
        with pytest.raises(InjectedFault):
            broker.subscribe_batch([Subscription("a", [eq("x", 1)])])
        assert flaky.injected == 1 and len(broker.matcher) == 0
