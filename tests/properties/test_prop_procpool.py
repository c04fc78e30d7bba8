"""Process-executor properties: determinism under interleaving and splits.

For random interleavings of subscription churn, event batches, worker
kills and stats reads, the process executor must produce exactly what a
single-process scalar run of the same engine produces at every step
(the ordered-command-pipe determinism contract: mutations are buffered
and every read is the barrier, so after any read each worker holds
exactly its shard's mirror), and its batch results must be invariant
under batch splitting (the deterministic ascending-shard merge contract).
Replies are sparse hit handles: their wire form round-trips any hit lists into
ascending handle order, and through real workers every batch row comes
back in the shards' ascending handle order — also after a worker is
healed over a mirror whose numbering has holes.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import Event, Subscription, eq
from repro.core.handles import HandleTable
from repro.matchers import make_matcher
from repro.system.procpool import decode_results, encode_results
from repro.system.router import HashRouter
from repro.system.sharding import ShardedMatcher
from tests.properties.strategies import events, subscriptions
from tests.system.test_procpool_chaos import sigkill_and_wait

COMMON_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def norm(ids):
    return sorted(ids, key=repr)


def process_matcher(shards=2):
    return ShardedMatcher(
        shards=shards,
        router="hash",
        inner=lambda: make_matcher("counting"),
        executor="process",
        worker_timeout=60.0,
    )


def handle_order(proc):
    """Rank of every live id in a batch row: ascending shard, then
    ascending handle in the shard's mirror (the order
    ``iter_subscriptions`` walks)."""
    ids = [s.id for k in range(2) for s in proc.shard(k).iter_subscriptions()]
    return {sub_id: rank for rank, sub_id in enumerate(ids)}


#: Two subscriptions the hash router sends to one shard (shard 0 of 2),
#: so removing the first leaves a hole below the second's handle.
HOLE_IDS = [i for i in range(40) if HashRouter(2).shard_for(Subscription(i, [eq("x", 1)])) == 0][:2]


#: Nothing here has a float64-exact columnar form.
ODD_EVENT = Event({"a": "text", "b": float("nan"), "c": 2**53 + 1})


def assert_workers_hold_their_mirrors(proc):
    """``stats`` reads the worker, so it is a barrier (and heals a dead
    one): what the engine holds afterwards is the shard's mirror."""
    for k in range(2):
        assert proc.shard(k).stats()["subscriptions"] == len(proc.shard(k))


#: One interleaving step: subscribe (a fresh sub), unsubscribe (an index
#: into the already-added list), a batch (a list of events), SIGKILL one
#: shard's worker, or read every worker's stats.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), subscriptions()),
        st.tuples(st.just("remove"), st.integers(min_value=0, max_value=60)),
        st.tuples(st.just("batch"), st.lists(events(), min_size=0, max_size=6)),
        st.tuples(st.just("kill"), st.integers(min_value=0, max_value=1)),
        st.tuples(st.just("stats"), st.none()),
    ),
    min_size=1,
    max_size=25,
)


class TestInterleavingDeterminism:
    @COMMON_SETTINGS
    @given(plan=steps, odd=st.booleans())
    @example(
        # add, add, remove, kill, batch: the worker is healed over a
        # mirror whose handle 0 is free, and must decode handle 1.
        plan=[
            ("add", Subscription(HOLE_IDS[0], [eq("x", 1)])),
            ("add", Subscription(HOLE_IDS[1], [eq("x", 1)])),
            ("remove", 0),
            ("kill", 0),
            ("batch", [Event({"x": 1}), Event({"x": 2})]),
        ],
        odd=False,
    )
    def test_process_equals_scalar_at_every_step(self, plan, odd):
        """Apply one random churn/batch interleaving to the process
        executor and to a plain single-process engine; every batch's
        results must agree, and so must the final subscription set.
        With *odd*, every batch — a batch of one too — carries a string,
        a NaN and an int >= 2**53, so it leaves the columnar layout for
        the object-pickling pipe lane, counted as an ``oddpath`` fallback.
        Every row, a batch of one's included, is in ascending handle
        order."""
        scalar = make_matcher("counting")
        proc = process_matcher()
        odd_batches = 0
        try:
            live = []
            seen = set()
            for op, arg in plan:
                if op == "add":
                    if arg.id in seen:
                        continue
                    seen.add(arg.id)
                    live.append(arg)
                    scalar.add(arg)
                    proc.add(arg)
                elif op == "remove":
                    if not live:
                        continue
                    victim = live.pop(arg % len(live))
                    seen.discard(victim.id)
                    assert proc.remove(victim.id) == scalar.remove(victim.id)
                elif op == "kill":
                    if proc._procpool.alive(arg):  # else: killed, not yet healed
                        sigkill_and_wait(proc._procpool, arg)
                elif op == "stats":
                    assert_workers_hold_their_mirrors(proc)
                else:
                    if odd:
                        arg = arg + [ODD_EVENT]
                        # A batch of one included; no shard is probed
                        # (nothing published) while all are empty.
                        odd_batches += bool(live)
                    expected = [norm(scalar.match(e)) for e in arg]
                    rows = proc.match_batch(arg)
                    assert [norm(r) for r in rows] == expected
                    order = handle_order(proc)
                    assert all(r == sorted(r, key=order.__getitem__) for r in rows)
                    assert_workers_hold_their_mirrors(proc)
            fallbacks = proc.executor_health()["shm"]["fallbacks"]
            assert fallbacks == {"oddpath": odd_batches, "slot_wait": 0, "slot_full": 0}
            assert len(proc) == len(scalar)
            assert sorted(s.id for s in proc.iter_subscriptions()) == sorted(
                s.id for s in scalar.iter_subscriptions()
            )
        finally:
            proc.close()


#: Subscription ids are any hashable: ints, strings, tuples.
IDS = st.one_of(
    st.integers(-50, 50),
    st.text(max_size=3),
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
)


@st.composite
def tables_and_hit_lists(draw):
    """(handle table, per-row hit lists in arbitrary order): rows empty,
    partial or hitting every live id — over a table that may be empty
    and whose numbering has holes (ids dropped after they were put)."""
    ids = draw(st.lists(IDS, unique=True, max_size=24))
    dropped = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    table = HandleTable()
    for sub_id in ids:
        table.put(Subscription(sub_id, [eq("x", 1)]))
    for sub_id, drop in zip(ids, dropped):
        if drop:
            table.drop(sub_id)
    live = [sub_id for sub_id, drop in zip(ids, dropped) if not drop]
    row = st.just([])
    if live:
        row |= st.permutations(live) | st.lists(st.sampled_from(live), unique=True)
    return table, live, draw(st.lists(row, max_size=8))


class TestResultCodec:
    @settings(max_examples=200, deadline=None)
    @given(drawn=tables_and_hit_lists(), outsider=st.booleans())
    def test_hit_lists_round_trip_into_table_order(self, drawn, outsider):
        """``decode(encode(lists))`` is each row reordered to ascending
        handle order, whatever holes the numbering has, and an id with no
        handle (an engine inventing ids) is an error, not a reply."""
        table, live, lists = drawn
        handle_of = {sub_id: table.handle_of(sub_id) for sub_id in live}
        if outsider:
            with pytest.raises(KeyError):
                encode_results(lists + [["not in the table"]], handle_of)
            return
        payload = pickle.loads(pickle.dumps(encode_results(lists, handle_of)))
        tag, counts, handles = payload
        assert tag == "hits"
        assert counts.dtype == handles.dtype == np.int32
        assert counts.tolist() == [len(row) for row in lists]
        assert decode_results(payload, table) == [
            sorted(row, key=handle_of.__getitem__) for row in lists
        ]


@pytest.mark.slow
class TestBatchSplitInvariance:
    @COMMON_SETTINGS
    @given(
        subs=st.lists(subscriptions(), min_size=0, max_size=30),
        evs=st.lists(events(), min_size=1, max_size=12),
        cut=st.integers(min_value=0, max_value=12),
        shards=st.sampled_from([1, 2, 3]),
    )
    def test_split_batches_merge_identically(self, subs, evs, cut, shards):
        proc = process_matcher(shards=shards)
        try:
            seen = set()
            for s in subs:
                if s.id not in seen:
                    seen.add(s.id)
                    proc.add(s)
            whole = [norm(r) for r in proc.match_batch(evs)]
            cut = min(cut, len(evs))
            halves = proc.match_batch(evs[:cut]) + proc.match_batch(evs[cut:])
            assert [norm(r) for r in halves] == whole
            singles = [norm(proc.match(e)) for e in evs]
            assert singles == whole
        finally:
            proc.close()
