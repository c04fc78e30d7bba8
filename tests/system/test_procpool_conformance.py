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
        """Forcing the object-transport fallback changes nothing."""
        subs, events = _random_workload(seed=11, n_subs=60, n_events=60)
        oracle = populated(build("oracle"), subs)
        expected = [norm(oracle.match(e)) for e in events]
        with sharded(engine, "process", codec="pickle") as proc:
            populated(proc, subs)
            got = [norm(ids) for ids in proc.match_batch(events)]
        assert got == expected

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
