"""Differential conformance: process executor vs. thread executor vs. oracle.

The process backend must be observationally identical to the thread
backend (which is itself pinned against the oracle): same matches on the
mixed-type workload for every registered two-phase engine, same behavior
on the edge batches (empty, size 1) and under mid-stream churn.  Anything
the transport mangles — string values, floats, NaN/inf, > 2^53 integers
on the pipe lane, the arena's columnar slots, the sparse hit-index
replies — shows up here as a differential mismatch.
"""

import itertools
import pickle
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.core import Event, Subscription, eq, ge, le
from repro.core.errors import DuplicateSubscriptionError, UnknownSubscriptionError
from repro.system.procpool import _APPLY_CHUNK, encode_events
from repro.system.sharding import ShardedMatcher
from repro.system.shm import ShmArena
from tests.conftest import shm_entries
from tests.matchers.test_batch_conformance import _random_workload, build, norm
from tests.system.test_procpool_chaos import sigkill_and_wait

#: Every registered two-phase backend (the oracle and the sharded
#: wrapper itself are excluded: one is the reference, one is the rig).
TWO_PHASE = ["counting", "propagation", "propagation-wp", "static", "dynamic"]

SHARDS = 3


def sharded(engine, executor, **kwargs):
    kwargs.setdefault("worker_timeout", 60.0)
    if executor == "thread":
        kwargs.pop("worker_timeout", None)
    return ShardedMatcher(
        shards=SHARDS,
        router="hash",
        inner=lambda: build(engine),
        executor=executor,
        **kwargs,
    )


def recv_bytes(pool):
    return pool.stats()["counters"]["pipe_bytes"]["recv"]


#: The pickled ``("ok", (epoch, ("hits", counts, cols)))`` reply around
#: two empty arrays: the framing every reply pays (≈ 200 B, mostly the
#: two arrays' reduce headers).
REPLY_FRAMING = len(
    ForkingPickler.dumps(("ok", (2**31, ("hits", np.zeros(0, np.int32), np.zeros(0, np.int32)))))
)


def sparse_reply_bound(rows, probes, hits):
    """The most the replies to one batch may put on the pipe: an int32
    count per row per probed shard, an int32 per hit, and per reply the
    framing (plus 16 B for the array shapes' wider ints) — O(hits),
    whatever the shard holds."""
    return 4 * (rows * probes + hits) + (REPLY_FRAMING + 16) * probes


def dense_reply_bytes(rows, shard_sizes):
    """What the retired bit-matrix replies cost: rows x ceil(subs / 64)
    words per shard, hits or no hits."""
    return sum(rows * -(-n // 64) * 8 for n in shard_sizes)


def populated(matcher, subs):
    for s in subs:
        matcher.add(s)
    rebuild = getattr(matcher, "rebuild", None)
    if callable(rebuild):
        rebuild()
    return matcher


@pytest.fixture(params=TWO_PHASE)
def engine(request):
    return request.param


@pytest.mark.watchdog(120)
class TestProcessMatchesThreadAndOracle:
    def test_mixed_type_workload_differential(self, engine):
        subs, events = _random_workload(seed=3)
        oracle = populated(build("oracle"), subs)
        expected = [norm(oracle.match(e)) for e in events]
        with sharded(engine, "process") as proc, sharded(engine, "thread") as thr:
            populated(proc, subs)
            populated(thr, subs)
            got_proc = [norm(ids) for ids in proc.match_batch(events)]
            got_thr = [norm(ids) for ids in thr.match_batch(events)]
        assert got_thr == expected
        assert got_proc == expected

    def test_odd_path_differential(self, engine):
        """The object-pickling pipe lane — where a batch with strings, NaN
        or ints >= 2**53 goes instead of the arena — changes nothing, and
        the batch is counted as one ``oddpath`` fallback."""
        subs, events = _random_workload(seed=11, n_subs=60, n_events=60)
        assert isinstance(encode_events(events), list)  # the batch is off the columnar layout
        oracle = populated(build("oracle"), subs)
        expected = [norm(oracle.match(e)) for e in events]
        with sharded(engine, "process") as proc:
            populated(proc, subs)
            got = [norm(ids) for ids in proc.match_batch(events)]
            shm = proc.executor_health()["shm"]
            assert shm["fallbacks"] == {"oddpath": 1, "slot_wait": 0, "slot_full": 0}
            assert shm["slots_in_flight"] == 0  # nothing claimed for the pipe lane
        assert got == expected

    def test_shm_numeric_batch_rides_the_arena(self, engine):
        """An all-numeric batch must actually transit shared memory: the
        arena takes its bytes, no fallback fires, and the pipe carries
        back no more than the sparse replies."""
        subs = [
            Subscription(f"n{i}", [ge("a", i % 7), le("b", 3.5 + i % 5)])
            for i in range(45)
        ]
        events = [Event({"a": i % 9, "b": i * 0.5, "c": -i}) for i in range(40)]
        oracle = populated(build("oracle"), subs)
        expected = [norm(oracle.match(e)) for e in events]
        with sharded(engine, "process") as proc:
            populated(proc, subs)
            before = recv_bytes(proc._procpool)
            got = [norm(ids) for ids in proc.match_batch(events)]
            replies = recv_bytes(proc._procpool) - before
            shm = proc._procpool.stats()["shm"]
            assert set(shm["bytes"]) == {"publish"} and shm["bytes"]["publish"] > 0
            assert all(n == 0 for n in shm["fallbacks"].values())
        assert got == expected
        hits = sum(len(ids) for ids in expected)
        assert 0 < replies <= sparse_reply_bound(len(events), SHARDS, hits)

    def test_arena_and_pipe_lane_interleave(self, engine):
        """Numeric batches ride the arena and an odd batch between them
        takes the pipe lane: the fallback leaves the slot ring as it was,
        so the next numeric batch is back in shared memory."""
        subs, odd = _random_workload(seed=11, n_subs=60, n_events=30)
        subs += [
            Subscription(f"n{i}", [ge("a", i % 7), le("b", 3.5 + i % 5)])
            for i in range(30)
        ]
        numeric = [Event({"a": i % 9, "b": i * 0.5, "c": -i}) for i in range(40)]
        oracle = populated(build("oracle"), subs)
        with sharded(engine, "process") as proc:
            populated(proc, subs)
            published = []
            for batch in (numeric, odd, numeric):
                got = [norm(ids) for ids in proc.match_batch(batch)]
                assert got == [norm(oracle.match(e)) for e in batch]
                shm = proc._procpool.stats()["shm"]
                published.append(shm["bytes"].get("publish", 0))
                assert shm["slots_in_flight"] == 0
            assert shm["fallbacks"] == {"oddpath": 1, "slot_wait": 0, "slot_full": 0}
        assert 0 < published[0] == published[1] < published[2]

    def test_empty_and_single_event_batches(self, engine):
        with sharded(engine, "process") as proc:
            populated(proc, [Subscription("s", [eq("x", 1), le("y", 5)])])
            assert proc.match_batch([]) == []
            assert [norm(r) for r in proc.match_batch([Event({"x": 1, "y": 3})])] == [
                ["s"]
            ]
            assert proc.match_batch([Event({"x": 1, "y": 9})]) == [[]]

    def test_mid_stream_churn_differential(self, engine):
        """subscribe/unsubscribe between batches reaches every worker in
        order; the process results track a freshly-built thread twin."""
        subs, events = _random_workload(seed=7, n_subs=80, n_events=40)
        half = len(subs) // 2
        with sharded(engine, "process") as proc, sharded(engine, "thread") as thr:
            populated(proc, subs[:half])
            populated(thr, subs[:half])
            assert [norm(r) for r in proc.match_batch(events)] == [
                norm(r) for r in thr.match_batch(events)
            ]
            # churn: add the second half, drop a third of the first.
            for s in subs[half:]:
                proc.add(s)
                thr.add(s)
            for s in subs[: half // 3]:
                proc.remove(s.id)
                thr.remove(s.id)
            rebuild = getattr(proc, "rebuild", None)
            if callable(rebuild):
                proc.rebuild()
                thr.rebuild()
            assert [norm(r) for r in proc.match_batch(events)] == [
                norm(r) for r in thr.match_batch(events)
            ]

    def test_match_batch_routes_through_process_batches(self, engine):
        with sharded(engine, "process") as proc:
            populated(proc, [Subscription("s", [eq("x", 1)])])
            events = [Event({"x": 1}), Event({"x": 2}), Event({"x": 1})]
            assert [norm(r) for r in proc.match_batch(events)] == [["s"], [], ["s"]]


@pytest.mark.watchdog(120)
class TestProcessExecutorSurface:
    def test_scalar_match_differential(self):
        subs, events = _random_workload(seed=5, n_subs=60, n_events=30)
        oracle = populated(build("oracle"), subs)
        with sharded("counting", "process") as proc:
            populated(proc, subs)
            for e in events:
                assert norm(proc.match(e)) == norm(oracle.match(e))

    def test_remove_returns_subscription_and_len_tracks(self):
        sub = Subscription("s", [eq("x", 1)])
        with sharded("counting", "process") as proc:
            proc.add(sub)
            assert len(proc) == 1
            assert proc.get("s") == sub
            removed = proc.remove("s")
            assert removed == sub
            assert len(proc) == 0

    def test_duplicate_add_and_unknown_remove_are_answered_from_the_mirror(self):
        """Neither costs a pipe message — at the sharded layer or at the
        shard proxy under it — and both raise what an engine raises."""
        sub = Subscription("s", [eq("x", 1)])
        with sharded("counting", "process") as proc:
            proc.add(sub)
            assert norm(proc.match(Event({"x": 1}))) == ["s"]  # a barrier
            (holder,) = [k for k in range(SHARDS) if len(proc.shard(k))]
            counters = proc.stats()["procpool"]["counters"]
            for target in (proc, proc.shard(holder)):
                with pytest.raises(DuplicateSubscriptionError):
                    target.add(sub)
                with pytest.raises(UnknownSubscriptionError):
                    target.remove("nobody")
            assert proc.stats()["procpool"]["counters"] == counters
            assert len(proc) == 1 and proc.shard(holder).epoch == 1

    def test_unpicklable_subscription_fails_the_add_that_carried_it(self):
        """Ops are pickled when buffered, not when the chunk is sent: the
        bad one never reaches the mirror or poisons its neighbours."""
        with sharded("counting", "process") as proc:
            shard = proc.shard(0)
            shard.add(Subscription("before", [eq("x", 1)]))
            with pytest.raises((pickle.PicklingError, AttributeError)):
                shard.add(Subscription(lambda: 0, [eq("x", 1)]))
            shard.add(Subscription("after", [eq("x", 1)]))
            assert len(shard) == 2 and shard.epoch == 2
            assert norm(shard.match(Event({"x": 1}))) == ["after", "before"]

    def test_a_cut_op_leaves_the_rest_of_its_chunk_readable(self):
        """A chunk is one pickle stream with one memo: a failed add is
        cut from it mid-chunk (a duplicate after its op was written, an
        unpicklable id during it), and the ops after the cut — different
        in shape, so a memo slip would decode the wrong objects — still
        reach the worker as the parent wrote them."""
        with sharded("counting", "process") as proc:
            shard = proc.shard(0)
            shard.add(Subscription("before", [eq("x", 1)]))
            with pytest.raises((pickle.PicklingError, AttributeError)):
                shard.add(Subscription(lambda: 0, [eq("x", 1)]))
            shard.add(Subscription(("t", 2), [le("y", 2.5), ge("z", 3)]))
            with pytest.raises(DuplicateSubscriptionError):
                shard.add(Subscription("before", [eq("x", 2)]))
            shard.add(Subscription("again", [eq("x", 1), le("y", 9)]))
            shard.remove("before")
            assert shard._buffered == 4 and shard.epoch == 4
            events = [Event({"x": 1, "y": 1, "z": 5}), Event({"y": 2, "z": 3})]
            assert shard.match_batch(events) == [[("t", 2), "again"], [("t", 2)]]
            assert shard.stats()["subscriptions"] == len(shard) == 2

    def test_iter_subscriptions_answers_from_parent_mirror(self):
        subs, _ = _random_workload(seed=2, n_subs=30, n_events=1)
        with sharded("counting", "process") as proc:
            populated(proc, subs)
            assert sorted(s.id for s in proc.iter_subscriptions()) == sorted(
                s.id for s in subs
            )

    def test_stats_and_health_report_process_executor(self):
        with sharded("counting", "process") as proc:
            proc.add(Subscription("s", [eq("x", 1)]))
            st = proc.stats()
            assert st["executor"] == "process"
            assert st["procpool"]["workers"] == SHARDS
            assert st["procpool"]["alive"] == SHARDS
            health = proc.executor_health()
            assert health["executor"] == "process"
            assert health["alive"] == health["workers"] == SHARDS

    def test_executor_health_always_carries_the_arena(self):
        """A process matcher built with no transport option reports its
        arena from the start — before any batch, and with no ``codec``."""
        with sharded("counting", "process") as proc:
            health = proc.executor_health()
            assert "codec" not in health
            shm = health["shm"]
            assert shm == proc.stats()["procpool"]["shm"]
            assert "segments" not in shm and shm["slots_in_flight"] == 0
            assert shm["bytes_total"] == shm["slots"] * shm["slot_bytes"] > 0
            assert shm["bytes"] == {"publish": 0}
            assert shm["fallbacks"] == {"oddpath": 0, "slot_wait": 0, "slot_full": 0}

    def test_every_pool_owns_an_arena_a_respawned_worker_reattaches(self):
        """No option turns the arena off, and a SIGKILLed worker's
        replacement inherits the same mapping at fork: the batch that
        heals it is read from a slot, with no fallback."""
        subs = [narrow_sub(i) for i in range(30)]
        events = [Event({"a": i % 9, "b": i * 0.5}) for i in range(16)]
        oracle = populated(build("oracle"), subs)
        expected = [norm(oracle.match(e)) for e in events]
        with sharded("counting", "process") as proc:
            pool = proc._procpool
            assert isinstance(pool.arena, ShmArena) and pool.arena.ring is not None
            populated(proc, subs)  # ends in a barrier on every shard
            assert all(len(proc.shard(k)) for k in range(SHARDS))
            arena = pool.arena
            sigkill_and_wait(pool, 0)
            assert [norm(r) for r in proc.match_batch(events)] == expected
            stats = pool.stats()
            assert stats["counters"]["respawns"] == 1 and pool.alive(0)
            assert pool.arena is arena
            assert stats["shm"]["bytes"]["publish"] > 0
            assert sum(stats["shm"]["fallbacks"].values()) == 0
            assert stats["shm"]["slots_in_flight"] == 0

    def test_mutate_telemetry_is_one_sample_per_apply_message(self):
        """``ipc_seconds{op="mutate"}`` counts messages and
        ``mutations_total`` counts ops, so ops per message is derivable;
        bytes are counted once per message."""
        subs = [Subscription(i, [eq("x", i % 7)]) for i in range(6 * _APPLY_CHUNK)]
        with sharded("counting", "process") as proc:
            registry = proc.use_metrics()
            for s in subs:
                proc.add(s)
            proc.rebuild()  # barrier: everything sent and acked
            messages = sum(-(-len(proc.shard(k)) // _APPLY_CHUNK) for k in range(SHARDS))
            mutate = registry.family("repro_procpool_ipc_seconds").labels(op="mutate")
            assert mutate.count == messages
            assert registry.family("repro_procpool_mutations_total").labels().value == len(subs)
            counters = proc.stats()["procpool"]["counters"]
            assert counters["mutations"] == len(subs)
            assert counters["ipc_requests"] == messages + SHARDS  # + the rebuilds
            sent = counters["pipe_bytes"]["send"]
            proc.remove(0)
            proc.rebuild()
            counters = proc.stats()["procpool"]["counters"]
            assert counters["mutations"] == len(subs) + 1
            # A one-op chunk is the op's own pickle stream.
            chunk = pickle.dumps((False, 0), pickle.HIGHEST_PROTOCOL)
            assert counters["pipe_bytes"]["send"] - sent == len(
                ForkingPickler.dumps(("apply", chunk))
            ) + SHARDS * len(ForkingPickler.dumps(("rebuild",)))

    def test_close_is_idempotent_and_stops_workers(self):
        proc = sharded("counting", "process")
        pool = proc._procpool
        assert pool.alive_count() == SHARDS
        proc.close()
        assert pool.alive_count() == 0
        proc.close()  # idempotent

    def test_every_worker_starts_before_any_handshake(self, monkeypatch):
        """A pool forks all its workers before it waits on the first
        one, so their matchers build side by side; when the second
        factory raises, its error reaches the caller and no started
        worker is left running, the third included."""
        import multiprocessing

        from repro.core import OracleMatcher
        from repro.system.procpool import ProcessPool

        started = []
        handshake = ProcessPool._handshake

        def spy(pool, index):
            started.append(sum(worker is not None for worker in pool._workers))
            return handshake(pool, index)

        monkeypatch.setattr(ProcessPool, "_handshake", spy)

        def failing():
            raise RuntimeError("factory 1 fails")

        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="factory 1 fails"):
            ProcessPool([OracleMatcher, failing, OracleMatcher])
        assert started[0] == 3  # all forked before the first wait
        assert set(multiprocessing.active_children()) == before

    def test_a_platform_without_fork_is_refused(self, monkeypatch):
        """Workers get the arena by inheriting it at fork; without
        ``fork`` the pool refuses before it maps or starts anything,
        and says which executor to use instead."""
        import multiprocessing

        from repro.core import OracleMatcher
        from repro.system.procpool import ProcessPool

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match='executor="thread"'):
            ShardedMatcher(shards=2, executor="process")
        with pytest.raises(RuntimeError, match="fork"):
            ProcessPool([OracleMatcher] * 2)
        assert set(multiprocessing.active_children()) == before

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            ShardedMatcher(shards=2, executor="fiber")

    @pytest.mark.parametrize("codec", ["auto", "pipe", None])
    def test_a_codec_other_than_shm_is_refused(self, codec):
        """``codec`` stays only as ``"shm"``; anything else raises before
        a worker or a segment is made."""
        before = shm_entries()
        with pytest.raises(ValueError, match="shm arena only"):
            ShardedMatcher(shards=2, executor="process", codec=codec)
        assert shm_entries() == before


def narrow_sub(i):
    return Subscription(f"n{i}", [ge("a", i % 7), le("b", 3.5 + i % 5)])


@pytest.mark.watchdog(120)
class TestPipeLaneIsTheArenasFallback:
    """Each reason a batch leaves the arena for the pipe, driven once:
    the answer is still the oracle's, the reason is counted exactly
    once, no slot stays claimed, and the next healthy batch rides the
    arena again.  Replies are not among the reasons: sparse hits ride
    the pipe at any shard size and any hit rate, with nothing to
    overflow."""

    EVENTS = [Event({"a": i % 9, "b": i * 0.5, "c": -i}) for i in range(24)]

    def rig(self, n_shard0=6, n_shard1=6, make_sub=narrow_sub):
        """A 2-shard process matcher holding exactly that many
        subscriptions per shard, its oracle, and the pool."""
        matcher = ShardedMatcher(
            shards=2, router="hash", inner="counting", executor="process",
            worker_timeout=60.0,
        )  # fmt: skip
        oracle = build("oracle")
        wanted = [n_shard0, n_shard1]
        for i in itertools.count():
            sub = make_sub(i)
            shard = matcher.router.shard_for(sub)
            if wanted[shard]:
                wanted[shard] -= 1
                matcher.add(sub)
                oracle.add(sub)
            if not any(wanted):
                break
        # A barrier on every shard: the load's buffered ops and their
        # acks are not the reply bytes the tests below measure.
        matcher.rebuild()
        return matcher, oracle, matcher._procpool

    def check(self, matcher, oracle, pool, events, reason, held=None):
        got = [norm(ids) for ids in matcher.match_batch(events)]
        if held is not None:
            pool.arena.ring.ack(held)
        expected = [norm(oracle.match(e)) for e in events]
        assert got == expected
        fallbacks = pool.stats()["shm"]["fallbacks"]
        assert fallbacks == {r: int(r == reason) for r in fallbacks}
        assert pool.arena.ring.in_flight() == 0
        return sum(len(ids) for ids in expected)

    def check_next_batch_rides_the_arena(self, matcher, oracle, pool, reason):
        published = pool.stats()["shm"]["bytes"]["publish"]
        self.check(matcher, oracle, pool, self.EVENTS[:8], reason)  # no new fallback
        assert pool.stats()["shm"]["bytes"]["publish"] > published

    def test_oddpath(self):
        matcher, oracle, pool = self.rig()
        with matcher:
            odd = self.EVENTS[:5] + [Event({"a": "text", "b": float("nan"), "c": 2**53 + 1})]
            self.check(matcher, oracle, pool, odd, "oddpath")
            self.check_next_batch_rides_the_arena(matcher, oracle, pool, "oddpath")

    def test_slot_full(self, monkeypatch):
        monkeypatch.setattr("repro.system.procpool._SHM_SLOT_BYTES", 512)
        matcher, oracle, pool = self.rig()
        with matcher:
            assert pool.arena.slot_bytes == 512
            self.check(matcher, oracle, pool, self.EVENTS, "slot_full")  # 24 x 3 x 8 B
            self.check_next_batch_rides_the_arena(matcher, oracle, pool, "slot_full")

    def test_slot_wait(self, monkeypatch):
        monkeypatch.setattr("repro.system.procpool._SHM_SLOTS", 1)
        matcher, oracle, pool = self.rig()
        with matcher:
            # A slow reader still holds the only slot.
            held = pool.arena.ring.acquire(1, timeout=1.0)
            assert held is not None
            monkeypatch.setattr("repro.system.procpool._SLOT_WAIT_SECONDS", 0.05)
            self.check(matcher, oracle, pool, self.EVENTS, "slot_wait", held=held)
            self.check_next_batch_rides_the_arena(matcher, oracle, pool, "slot_wait")

    def test_every_event_hits_all(self):
        """The densest reply there is — 70 + 5 subscriptions, each event
        satisfying all of them — costs what its hits cost, no more."""
        events = [Event({"a": 6 + i, "b": (i % 8) * 0.5, "c": -i}) for i in range(24)]
        matcher, oracle, pool = self.rig(n_shard0=70, n_shard1=5)
        with matcher:
            before = recv_bytes(pool)
            hits = self.check(matcher, oracle, pool, events, None)
            assert hits == len(events) * 75
            assert recv_bytes(pool) - before <= sparse_reply_bound(len(events), 2, hits)

    @pytest.mark.slow
    def test_large_population(self):
        """2 x 8.3k subscriptions x 1 024 rows: as a bit matrix that was
        1.06 MB per shard per batch — over the 1 MiB result region the
        arena used to have, so every probe fell back.  As sparse hits it
        is a few bytes per event and there is nothing to fall back from."""

        def wide_sub(i):
            return Subscription(f"w{i}", [eq("a", i % 2000), ge("b", i % 5)])

        events = [Event({"a": j % 2000, "b": j % 7, "c": j}) for j in range(1024)]
        matcher, oracle, pool = self.rig(8300, 8300, make_sub=wide_sub)
        with matcher:
            before = recv_bytes(pool)
            hits = self.check(matcher, oracle, pool, events, None)
            replies = recv_bytes(pool) - before
        assert 0 < hits and replies <= sparse_reply_bound(len(events), 2, hits)
        assert replies < dense_reply_bytes(len(events), [8300, 8300]) / 50
