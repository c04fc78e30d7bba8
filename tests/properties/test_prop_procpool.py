"""Process-executor properties: determinism under interleaving and splits.

For random interleavings of subscription churn, event batches, worker
kills and stats reads, the process executor must produce exactly what a
single-process scalar run of the same engine produces at every step
(the ordered-command-pipe determinism contract: mutations are buffered
and every read is the barrier, so after any read each worker holds
exactly its shard's mirror), and its batch results must be invariant
under batch splitting (the deterministic ascending-shard merge contract).
Replies are sparse hit indices: the codec round-trips any hit lists into
table order, and through real workers every batch row comes back in the
shards' mirror-insertion order.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Event
from repro.matchers import make_matcher
from repro.system.procpool import decode_results, encode_results
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


def process_matcher(shards=2, codec="auto"):
    return ShardedMatcher(
        shards=shards,
        router="hash",
        inner=lambda: make_matcher("counting"),
        executor="process",
        worker_timeout=60.0,
        codec=codec,
    )


def mirror_order(proc):
    """Rank of every live id in a batch row: ascending shard, then the
    order the shard's mirror (and its worker's id table) took them in."""
    ids = [s.id for k in range(2) for s in proc.shard(k).iter_subscriptions()]
    return {sub_id: rank for rank, sub_id in enumerate(ids)}


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
    @given(plan=steps, codec=st.sampled_from(["auto", "shm"]), odd=st.booleans())
    def test_process_equals_scalar_at_every_step(self, plan, codec, odd):
        """Apply one random churn/batch interleaving to the process
        executor and to a plain single-process engine; every batch's
        results must agree, and so must the final subscription set.
        With *odd*, every batch — a batch of one too — carries a string,
        a NaN and an int >= 2**53, so it leaves the columnar layout for
        the object-pickling lane, counted as ``oddpath`` under ``shm``.
        Every row, a batch of one's included, is in mirror order."""
        scalar = make_matcher("counting")
        proc = process_matcher(codec=codec)
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
                    order = mirror_order(proc)
                    assert all(r == sorted(r, key=order.__getitem__) for r in rows)
                    assert_workers_hold_their_mirrors(proc)
            if codec == "shm":
                fallbacks = proc.executor_health()["shm"]["fallbacks"]
                assert fallbacks["oddpath"] == odd_batches
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
    """(id table, per-row hit lists in arbitrary order): rows empty,
    partial or hitting the whole table — over a table that may be empty."""
    table = draw(st.lists(IDS, unique=True, max_size=24))
    row = st.just([])
    if table:
        row |= st.permutations(table) | st.lists(st.sampled_from(table), unique=True)
    return table, draw(st.lists(row, max_size=8))


class TestResultCodec:
    @settings(max_examples=200, deadline=None)
    @given(drawn=tables_and_hit_lists(), outsider=st.booleans())
    def test_hit_lists_round_trip_into_table_order(self, drawn, outsider):
        """``decode(encode(lists))`` is each row reordered to table order
        — exactly what ``np.nonzero`` over the retired bit matrix gave —
        and an id outside the table ships the lists untouched."""
        table, lists = drawn
        index_of = {sub_id: i for i, sub_id in enumerate(table)}
        if outsider:
            lists = lists + [["not in the table"]]
        payload = pickle.loads(pickle.dumps(encode_results(lists, index_of)))
        if outsider:
            assert payload == ("lists", lists)
            assert decode_results(payload, table) == lists
            return
        tag, counts, cols = payload
        assert tag == "hits"
        assert counts.dtype == cols.dtype == np.int32
        assert counts.tolist() == [len(row) for row in lists]
        assert decode_results(payload, table) == [
            sorted(row, key=index_of.__getitem__) for row in lists
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
