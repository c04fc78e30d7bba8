"""Differential conformance: process executor vs. thread executor vs. oracle.

The process backend must be observationally identical to the thread
backend (which is itself pinned against the oracle): same matches on the
mixed-type workload for every registered two-phase engine, same behavior
on the edge batches (empty, size 1) and under mid-stream churn.  Anything the pipe transport mangles — string values,
floats, NaN/inf, > 2^53 integers, the packed result bit matrix — shows
up here as a differential mismatch.
"""

import pytest

from repro.core import Event, Subscription, eq, ge, le
from repro.system.procpool import CODECS, encode_events
from repro.system.sharding import ShardedMatcher
from tests.matchers.test_batch_conformance import _random_workload, build, norm

#: Every registered two-phase backend (the oracle and the sharded
#: wrapper itself are excluded: one is the reference, one is the rig).
TWO_PHASE = ["counting", "propagation", "propagation-wp", "static", "dynamic"]

SHARDS = 3


def sharded(engine, executor, **kwargs):
    kwargs.setdefault("worker_timeout", 60.0)
    if executor == "thread":
        kwargs.pop("worker_timeout", None)
        kwargs.pop("codec", None)
    return ShardedMatcher(
        shards=SHARDS,
        router="hash",
        inner=lambda: build(engine),
        executor=executor,
        **kwargs,
    )


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

    def test_pickle_codec_differential(self, engine):
        """The object-pickling lane — where a batch with strings, NaN or
        ints >= 2**53 goes under either codec — changes nothing."""
        subs, events = _random_workload(seed=11, n_subs=60, n_events=60)
        assert encode_events(events)[0] == "objs"  # the batch is off the columnar layout
        oracle = populated(build("oracle"), subs)
        expected = [norm(oracle.match(e)) for e in events]
        for codec in CODECS:
            with sharded(engine, "process", codec=codec) as proc:
                populated(proc, subs)
                got = [norm(ids) for ids in proc.match_batch(events)]
                if codec == "shm":
                    fallbacks = proc.executor_health()["shm"]["fallbacks"]
                    assert fallbacks["oddpath"] == 1
            assert got == expected, codec

    def test_shm_codec_differential(self, engine):
        """The zero-copy shared-memory transport changes nothing — the
        mixed-type workload forces both the arena path (numeric batches)
        and the pickle odd-path fallback (strings/NaN) through it."""
        subs, events = _random_workload(seed=11, n_subs=60, n_events=60)
        oracle = populated(build("oracle"), subs)
        expected = [norm(oracle.match(e)) for e in events]
        with sharded(engine, "process", codec="shm") as proc:
            populated(proc, subs)
            got = [norm(ids) for ids in proc.match_batch(events)]
            health = proc.executor_health()
            assert health["codec"] == "shm"
            assert health["shm"]["slots_in_flight"] == 0  # every slot acked
        assert got == expected

    def test_shm_numeric_batch_rides_the_arena(self, engine):
        """An all-numeric batch must actually transit shared memory:
        bytes flow in both arena directions and no fallback fires."""
        subs = [
            Subscription(f"n{i}", [ge("a", i % 7), le("b", 3.5 + i % 5)])
            for i in range(45)
        ]
        events = [Event({"a": i % 9, "b": i * 0.5, "c": -i}) for i in range(40)]
        oracle = populated(build("oracle"), subs)
        expected = [norm(oracle.match(e)) for e in events]
        with sharded(engine, "process", codec="shm") as proc:
            populated(proc, subs)
            got = [norm(ids) for ids in proc.match_batch(events)]
            shm = proc._procpool.stats()["shm"]
            assert shm["bytes"]["publish"] > 0
            assert shm["bytes"]["result"] > 0
            assert all(n == 0 for n in shm["fallbacks"].values())
        assert got == expected

    def test_numeric_only_workload_takes_columnar_path(self, engine):
        """All-numeric events ride the packed bit-matrix transport."""
        subs = [
            Subscription(f"n{i}", [ge("a", i % 7), le("b", 3.5 + i % 5)])
            for i in range(45)
        ]
        events = [Event({"a": i % 9, "b": i * 0.5, "c": -i}) for i in range(40)]
        oracle = populated(build("oracle"), subs)
        expected = [norm(oracle.match(e)) for e in events]
        with sharded(engine, "process") as proc:
            populated(proc, subs)
            got = [norm(ids) for ids in proc.match_batch(events)]
        assert got == expected

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

    def test_close_is_idempotent_and_stops_workers(self):
        proc = sharded("counting", "process")
        pool = proc._procpool
        assert pool.alive_count() == SHARDS
        proc.close()
        assert pool.alive_count() == 0
        proc.close()  # idempotent

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            ShardedMatcher(shards=2, executor="fiber")


@pytest.mark.watchdog(120)
class TestPipeLaneIsTheArenasFallback:
    """Each reason a batch leaves the arena for the pipe, driven once:
    the answer is still the oracle's, the reason is counted exactly
    once, no slot stays claimed, and the next healthy batch rides the
    arena again."""

    EVENTS = [Event({"a": i % 9, "b": i * 0.5, "c": -i}) for i in range(24)]

    def rig(self, n_shard0=6, n_shard1=6):
        """A 2-shard process/shm matcher holding exactly that many
        subscriptions per shard, its oracle, and the pool."""
        matcher = ShardedMatcher(
            shards=2, router="hash", inner="counting", executor="process",
            worker_timeout=60.0, codec="shm",
        )  # fmt: skip
        oracle = build("oracle")
        wanted = [n_shard0, n_shard1]
        for i in range(10_000):
            sub = Subscription(f"n{i}", [ge("a", i % 7), le("b", 3.5 + i % 5)])
            shard = matcher.router.shard_for(sub)
            if wanted[shard]:
                wanted[shard] -= 1
                matcher.add(sub)
                oracle.add(sub)
            if not any(wanted):
                break
        return matcher, oracle, matcher._procpool

    def check(self, matcher, oracle, pool, events, reason, held=None):
        got = [norm(ids) for ids in matcher.match_batch(events)]
        if held is not None:
            pool.arena.ring.ack(held)
        assert got == [norm(oracle.match(e)) for e in events]
        fallbacks = pool.stats()["shm"]["fallbacks"]
        assert fallbacks == {r: int(r == reason) for r in fallbacks}
        assert pool.arena.ring.in_flight() == 0

    def check_next_batch_rides_the_arena(self, matcher, oracle, pool, reason):
        before = pool.stats()["shm"]["bytes"]
        self.check(matcher, oracle, pool, self.EVENTS[:8], reason)  # no new fallback
        after = pool.stats()["shm"]["bytes"]
        assert after["publish"] > before["publish"] and after["result"] > before["result"]

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

    def test_result_full(self, monkeypatch):
        # 24 rows x 8 B: one result word per row (<= 64 subscriptions)
        # fits the region, two words do not.
        monkeypatch.setattr("repro.system.procpool._SHM_RESULT_BYTES", 32 + 24 * 8 + 64)
        matcher, oracle, pool = self.rig(n_shard0=70, n_shard1=5)
        with matcher:
            self.check(matcher, oracle, pool, self.EVENTS, "result_full")
            self.check_next_batch_rides_the_arena(matcher, oracle, pool, "result_full")
