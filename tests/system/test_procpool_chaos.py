"""Worker-death chaos for the process executor.

The acceptance contract: SIGKILL-ing a shard worker mid-batch must yield
a degraded ``PartialResults`` (never a hang, never wrong results), trip
that shard's breaker into quarantine, and — after the cool-down — let
the half-open probe respawn the worker, replay its subscriptions from
the parent mirror, and re-converge exactly with the oracle.

Deaths are injected with :class:`repro.testing.faults.KillableWorker`
(the worker kills *itself* at the Nth matching operation, after the
inner engine has matched but before the reply is sent — a genuine
mid-request loss), armed one-shot through a filesystem latch so the
respawned worker stays alive and the tests are deterministic.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core import Event, Subscription, eq
from repro.matchers import make_matcher
from repro.system.procpool import _APPLY_CHUNK
from repro.system.resilience import PartialResults, WorkerDiedError, WorkerStateError
from repro.system.sharding import ShardedMatcher
from repro.testing.faults import FlakyMatcher, InjectedFault, killable_worker

SHARDS = 2


def norm(ids):
    return sorted(ids, key=repr)


def workload(n_subs=40, n_events=12):
    subs = [Subscription(f"s{i}", [eq("x", i % 5)]) for i in range(n_subs)]
    events = [Event({"x": i % 5, "y": i}) for i in range(n_events)]
    return subs, events


def oracle_for(subs):
    oracle = make_matcher("oracle")
    for s in subs:
        oracle.add(s)
    return oracle


def chaos_matcher(tmp_path, die_at, breaker=True):
    """2 process shards; the first-spawned worker dies at op *die_at*."""
    factory = killable_worker(
        lambda: make_matcher("counting"),
        die_at=die_at,
        latch_path=str(tmp_path / "kill-latch"),
    )
    spec = {"failure_threshold": 1, "reset_timeout": 0.05} if breaker else None
    return ShardedMatcher(
        shards=SHARDS,
        router="hash",
        inner=factory,
        executor="process",
        breaker=spec,
        worker_timeout=30.0,
    )


def sigkill_and_wait(pool, index):
    """SIGKILL shard *index*'s worker from outside; return once it is gone."""
    os.kill(pool.worker_pid(index), signal.SIGKILL)
    deadline = time.monotonic() + 5.0
    while pool.alive(index) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not pool.alive(index)


def child_pids(pid):
    """Pids of *pid*'s child processes, read from ``/proc`` (None where
    the kernel does not list them)."""
    try:
        found = set()
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                found.update(int(child) for child in fh.read().split())
        return found
    except OSError:
        return None


def running(pid):
    """Is *pid* a process that has not exited (a zombie has)?"""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


_OWNER_SCRIPT = """
import json, time
from repro.core import OracleMatcher
from repro.system.procpool import ProcessPool

pool = ProcessPool([OracleMatcher] * 2)
print(json.dumps([pool.worker_pid(0), pool.worker_pid(1)]), flush=True)
time.sleep(600)
"""


@pytest.mark.watchdog(90)
class TestOwnerDeath:
    def test_a_sigkilled_owner_leaves_no_segment_and_no_tracker(self):
        """The arena is an anonymous mapping the workers inherit: while
        the pool lives its owner's only children are its workers (no
        resource-tracker process); after a SIGKILL of the owner every
        worker sees EOF on its pipe and exits — each closed the parent
        ends the fork copied in — so the mapping goes with the last of
        them, and ``/dev/shm`` never held a name."""
        named = set(os.listdir("/dev/shm"))
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        owner = subprocess.Popen(
            [sys.executable, "-c", _OWNER_SCRIPT], env=env, stdout=subprocess.PIPE, text=True
        )
        workers = set()
        try:
            workers = set(json.loads(owner.stdout.readline()))
            assert len(workers) == 2
            children = child_pids(owner.pid)
            if children is not None:
                assert children == workers
            assert set(os.listdir("/dev/shm")) <= named
            owner.kill()
            owner.wait(timeout=30)
            deadline = time.monotonic() + 30
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, workers))
            assert set(os.listdir("/dev/shm")) <= named
        finally:
            if owner.poll() is None:
                owner.kill()
                owner.wait()
            owner.stdout.close()
            for pid in filter(running, workers):  # no orphan outlives a failure
                os.kill(pid, signal.SIGKILL)


@pytest.mark.watchdog(60)
class TestWorkerDeathLifecycle:
    def test_sigkill_mid_match_degrades_quarantines_and_heals(self, tmp_path):
        subs, events = workload()
        oracle = oracle_for(subs)
        with chaos_matcher(tmp_path, die_at=3) as m:
            for s in subs:
                m.add(s)
            ev = events[0]
            expected = norm(oracle.match(ev))
            # ops 1 and 2: healthy, both shards answer.
            for _ in range(2):
                r = m.match(ev)
                assert not r.degraded and norm(r) == expected
            # op 3: the armed worker SIGKILLs itself mid-request.
            r = m.match(ev)
            assert isinstance(r, PartialResults)
            assert r.degraded and r.failed_shards
            dead = r.failed_shards[0]
            # healthy-shard results are still correct (a subset).
            assert set(norm(r)) <= set(expected)
            # while the breaker is open the shard is skipped, still degraded.
            r = m.match(ev)
            assert r.degraded and dead in r.failed_shards
            assert m.breaker_states()[dead] == "open"
            # cool-down, then the half-open probe respawns + replays.
            time.sleep(0.1)
            healed = m.match(ev)
            assert not healed.degraded
            assert norm(healed) == expected
            assert m.breaker_states()[dead] == "closed"
            assert m._procpool.stats()["counters"]["respawns"] == 1

    def test_sigkill_mid_batch_never_hangs_or_lies(self, tmp_path):
        """The batch path survives a mid-batch death (one batch is one
        probe per shard, so the first batch is the armed worker's op 1):
        every row is either complete or degraded — never silently
        wrong, never a hang (the watchdog enforces it)."""
        subs, events = workload(n_events=10)
        oracle = oracle_for(subs)
        expected = [norm(oracle.match(e)) for e in events]
        with chaos_matcher(tmp_path, die_at=1) as m:
            for s in subs:
                m.add(s)
            rows = m.match_batch(events)
            assert len(rows) == len(events)
            assert any(row.degraded for row in rows)
            for row, exp in zip(rows, expected):
                if row.degraded:
                    assert set(norm(row)) <= set(exp)
                else:
                    assert norm(row) == exp
            # after cool-down the whole batch matches the oracle again.
            time.sleep(0.1)
            rows = m.match_batch(events)
            assert all(not r.degraded for r in rows)
            assert [norm(r) for r in rows] == expected

    def test_respawned_worker_replays_subscriptions_exactly(self, tmp_path):
        """Post-heal, the respawned worker's subscription set equals the
        parent mirror — including churn applied before the death."""
        subs, events = workload()
        with chaos_matcher(tmp_path, die_at=1) as m:
            for s in subs:
                m.add(s)
            removed = [s.id for s in subs[::4]]
            for sub_id in removed:
                m.remove(sub_id)
            live = [s for s in subs if s.id not in set(removed)]
            oracle = oracle_for(live)
            expected = [norm(oracle.match(e)) for e in events]
            r = m.match(events[0])  # op 1: death
            assert r.degraded
            time.sleep(0.1)
            healed = m.match(events[0])
            assert not healed.degraded and norm(healed) == expected[0]
            got = [norm(row) for row in m.match_batch(events)]
            assert got == expected
            # the mirror-backed views never flinched.
            assert len(m) == len(live)
            assert sorted(s.id for s in m.iter_subscriptions()) == sorted(
                s.id for s in live
            )

    def test_health_reports_dead_worker_before_probe(self, tmp_path):
        subs, _ = workload()
        with chaos_matcher(tmp_path, die_at=1) as m:
            for s in subs:
                m.add(s)
            assert m.executor_health()["alive"] == SHARDS
            r = m.match(Event({"x": 0}))
            assert r.degraded
            health = m.executor_health()
            assert health["alive"] == SHARDS - 1
            assert health["workers"] == SHARDS


@pytest.mark.watchdog(60)
class TestWorkerDeathWithoutBreaker:
    def test_death_raises_then_next_call_self_heals(self, tmp_path):
        """Pre-quarantine contract: the in-flight call raises
        WorkerDiedError; the next call respawns, replays and answers."""
        subs, events = workload()
        oracle = oracle_for(subs)
        with chaos_matcher(tmp_path, die_at=2, breaker=False) as m:
            for s in subs:
                m.add(s)
            ev = events[0]
            assert norm(m.match(ev)) == norm(oracle.match(ev))  # op 1
            with pytest.raises(WorkerDiedError):
                m.match(ev)  # op 2: mid-request death propagates
            assert norm(m.match(ev)) == norm(oracle.match(ev))  # healed
            assert m._procpool.stats()["counters"]["respawns"] == 1

    def test_external_sigkill_between_requests_heals_silently(self, tmp_path):
        """A worker killed while idle never surfaces an error at all:
        the next call finds it dead *before* sending and self-heals."""
        subs, events = workload()
        oracle = oracle_for(subs)
        # die_at high enough that the injector never fires; we kill by pid.
        with chaos_matcher(tmp_path, die_at=10_000, breaker=False) as m:
            for s in subs:
                m.add(s)
            sigkill_and_wait(m._procpool, 0)
            got = [norm(r) for r in m.match_batch(events)]
            assert got == [norm(oracle.match(e)) for e in events]


def ipc_requests(pool):
    return pool.stats()["counters"]["ipc_requests"]


def rejecting_once(tmp_path):
    """A shard factory whose first-built engine rejects its first add;
    every later build (the other shard, the respawn) is healthy."""
    latch = str(tmp_path / "reject-latch")

    def factory():
        engine = make_matcher("counting")
        try:
            os.close(os.open(latch, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return engine
        return FlakyMatcher(engine, failures=1, operations=("add",))

    return factory


@pytest.mark.watchdog(60)
class TestWriteBehindUnderChaos:
    """Mutations are buffered and posted, so a worker can die holding
    less than the mirror: whatever it had, the next read heals from the
    mirror — nothing lost, nothing applied twice."""

    def plain(self, shards=SHARDS, inner=lambda: make_matcher("counting")):
        return ShardedMatcher(
            shards=shards, router="hash", inner=inner, executor="process",
            worker_timeout=30.0,
        )  # fmt: skip

    def assert_converged(self, m, live, events):
        oracle = oracle_for(live)
        got = [norm(r) for r in m.match_batch(events)]
        assert got == [norm(oracle.match(e)) for e in events]
        for k in range(m.shards):
            assert m.shard(k).stats()["subscriptions"] == len(m.shard(k))
        assert len(m) == len(live)

    def test_sigkill_with_ops_still_buffered(self):
        """Nothing has reached the workers yet (every shard is under
        one chunk and no read has happened) when one is killed."""
        subs, events = workload()
        with self.plain() as m:
            for s in subs:
                m.add(s)
            for s in subs[::4]:
                m.remove(s.id)
            pool = m._procpool
            assert ipc_requests(pool) == 0 and m.shard(0)._buffered > 0
            sigkill_and_wait(pool, 0)
            live = [s for i, s in enumerate(subs) if i % 4]
            self.assert_converged(m, live, events)
            assert pool.stats()["counters"]["respawns"] == 1

    def test_sigkill_with_an_apply_posted_and_unacked(self):
        """A full chunk went down the pipe, its ack was never collected,
        more ops sit in the buffer behind it — then the worker dies."""
        subs, events = workload(n_subs=5 * _APPLY_CHUNK)
        with self.plain() as m:
            for s in subs:
                m.add(s)
            for s in subs[::3]:
                m.remove(s.id)
            pool, shard = m._procpool, m.shard(0)
            assert shard._posted_epoch is not None and shard._buffered
            sigkill_and_wait(pool, 0)
            # churn while the worker is down: the mirror absorbs it.
            late = Subscription("late", [eq("x", 1)])
            m.add(late)
            live = [s for i, s in enumerate(subs) if i % 3] + [late]
            self.assert_converged(m, live, events)
            assert pool.stats()["counters"]["respawns"] == 1

    def test_heal_replays_in_chunks_not_per_subscription(self):
        """A 5 000-subscription shard is back after one apply message
        per chunk plus the read that triggered the heal."""
        n = 5_000
        subs = [Subscription(i, [eq("x", i % 50)]) for i in range(n)]
        events = [Event({"x": 7}), Event({"x": 51})]
        with self.plain(shards=1) as m:
            for s in subs:
                m.add(s)
            pool = m._procpool
            m.rebuild()  # barrier: the load is sent and acked
            loaded = ipc_requests(pool)
            assert loaded == -(-n // _APPLY_CHUNK) + 1
            assert pool.stats()["counters"]["mutations"] == n
            sigkill_and_wait(pool, 0)
            hit, miss = m.match_batch(events)
            assert len(hit) == n // 50 and miss == []
            assert ipc_requests(pool) - loaded <= -(-n // _APPLY_CHUNK) + 2
            assert pool.stats()["counters"]["mutations"] == 2 * n
            assert m.shard(0).stats()["subscriptions"] == n

    @pytest.mark.parametrize("n_subs", [40, 5 * _APPLY_CHUNK])
    def test_worker_rejecting_an_op_is_a_state_error_at_the_barrier(
        self, tmp_path, n_subs
    ):
        """The engine refuses an add the mirror accepted — while the op
        is still buffered (40), or inside a posted chunk whose ack a
        later ``add`` collects (5 chunks' worth).  No ``add`` raises;
        the next read does, and the one after it heals by replay."""
        subs, events = workload(n_subs=n_subs)
        with self.plain(inner=rejecting_once(tmp_path)) as m:
            for s in subs:
                m.add(s)
            pool = m._procpool
            with pytest.raises(WorkerStateError):
                m.match_batch(events)
            assert pool.alive_count() == SHARDS - 1
            self.assert_converged(m, subs, events)
            assert pool.stats()["counters"]["respawns"] == 1


@pytest.mark.watchdog(60)
class TestShmSlotLifecycleUnderChaos:
    """Worker death must never strand an event slot or leave anything
    in ``/dev/shm``."""

    def test_sigkill_while_holding_a_slot_frees_it(self, tmp_path):
        """The armed worker SIGKILLs itself *inside* a batch_shm request —
        after the slot was published to it, before the ack-bearing reply.
        The parent's finally-ack must free the slot anyway, and after the
        self-heal the same arena serves correct batches again."""
        subs, events = workload()
        oracle = oracle_for(subs)
        expected = [norm(oracle.match(e)) for e in events]
        named = set(os.listdir("/dev/shm"))
        with chaos_matcher(tmp_path, die_at=2, breaker=False) as m:
            for s in subs:
                m.add(s)
            pool = m._procpool
            arena = pool.arena
            assert [norm(r) for r in m.match_batch(events)] == expected  # op 1
            with pytest.raises(WorkerDiedError):
                m.match_batch(events)  # op 2: death while reading the slot
            # the dead reader's slot was acked in the finally — no strand.
            assert pool.arena.ring.in_flight() == 0
            # the respawned worker inherits the *same* mapping and
            # replays its subscriptions; results reconverge exactly.
            assert [norm(r) for r in m.match_batch(events)] == expected
            assert pool.stats()["counters"]["respawns"] == 1
            assert pool.arena is arena
            assert pool.arena.ring.in_flight() == 0
            # a live pool, a killed worker and its replacement name nothing.
            assert set(os.listdir("/dev/shm")) <= named

    @pytest.mark.parametrize("parallel", [False, True])
    def test_inner_exception_without_breakers_propagates_and_frees_the_slot(
        self, parallel
    ):
        """No breakers: an engine error inside both workers' first batch
        reaches the caller, after every probe has run — so every reader
        claim on the published slot is released, fan-out pool or not."""
        subs, events = workload()
        oracle = oracle_for(subs)
        with ShardedMatcher(
            shards=SHARDS,
            router="hash",
            inner=lambda: FlakyMatcher(make_matcher("counting"), failures=1),
            executor="process",
            parallel=parallel,
            worker_timeout=30.0,
        ) as m:
            for s in subs:
                m.add(s)
            pool = m._procpool
            with pytest.raises(InjectedFault):
                m.match_batch(events)
            assert pool.stats()["shm"]["bytes"]["publish"] > 0
            assert pool.arena.ring.in_flight() == 0
            got = [norm(r) for r in m.match_batch(events)]  # budgets spent
            assert got == [norm(oracle.match(e)) for e in events]
            assert pool.arena.ring.in_flight() == 0

    @pytest.mark.parametrize("reached", [0, 1])
    def test_interrupted_serial_fanout_returns_the_unreached_claims(self, reached):
        """An interrupt between two probes leaves reader claims nobody
        will ack; ``SlotRing.release`` returns whatever is still held —
        counting the probes that ran under-released by one when the
        interrupt landed before a probe had read the slot."""
        subs, events = workload()
        oracle = oracle_for(subs)
        with ShardedMatcher(
            shards=SHARDS, router="hash", inner="counting", executor="process",
            parallel=False, worker_timeout=30.0,
        ) as m:  # fmt: skip
            for s in subs:
                m.add(s)
            probe, calls = m._probe, []

            def interrupted(shard, *args):
                calls.append(shard)
                if len(calls) > reached:
                    raise KeyboardInterrupt
                return probe(shard, *args)

            m._probe = interrupted
            with pytest.raises(KeyboardInterrupt):
                m.match_batch(events)
            del m._probe
            assert m._procpool.arena.ring.in_flight() == 0
            got = [norm(r) for r in m.match_batch(events)]
            assert got == [norm(oracle.match(e)) for e in events]

    def test_external_sigkill_between_requests_heals_on_shm(self, tmp_path):
        """An idle-worker SIGKILL self-heals silently and the batch still
        rides the arena afterwards."""
        subs, events = workload()
        oracle = oracle_for(subs)
        with chaos_matcher(tmp_path, die_at=10_000, breaker=False) as m:
            for s in subs:
                m.add(s)
            sigkill_and_wait(m._procpool, 0)
            got = [norm(r) for r in m.match_batch(events)]
            assert got == [norm(oracle.match(e)) for e in events]
            stats = m._procpool.stats()
            assert stats["shm"]["bytes"]["publish"] > 0
            assert m._procpool.arena.ring.in_flight() == 0

    def test_breaker_mode_death_then_heal_restores_the_arena_path(self, tmp_path):
        """Breaker mode rides the arena like any other batch: a worker
        SIGKILLed while reading the slot costs its rows their
        completeness (never their soundness) and strands no slot; once
        healed, batches ride the arena again through the respawned
        worker."""
        subs, events = workload()
        oracle = oracle_for(subs)
        expected = [norm(oracle.match(e)) for e in events]
        with chaos_matcher(tmp_path, die_at=2) as m:
            for s in subs:
                m.add(s)
            pool = m._procpool

            def published():
                return pool.stats()["shm"]["bytes"]["publish"]

            rows = m.match_batch(events)  # op 1: healthy, over the arena
            assert [norm(r) for r in rows] == expected
            assert not any(r.degraded for r in rows)
            healthy_bytes = published()
            assert healthy_bytes > 0
            rows = m.match_batch(events)  # op 2: SIGKILL while reading the slot
            assert published() > healthy_bytes
            dead = m.breaker_states()
            assert list(dead.values()).count("open") == 1
            (sick,) = [s for s, state in dead.items() if state == "open"]
            for row, exp in zip(rows, expected):
                if row.degraded:
                    assert row.failed_shards == (sick,)
                    assert set(norm(row)) <= set(exp)
                else:
                    assert norm(row) == exp
            assert any(r.degraded for r in rows)
            assert pool.arena.ring.in_flight() == 0
            time.sleep(0.1)
            healed = m.match_batch(events)  # half-open probe respawns + replays
            assert not any(r.degraded for r in healed)
            assert [norm(r) for r in healed] == expected
            assert pool.arena.ring.in_flight() == 0
            assert sum(pool.stats()["shm"]["fallbacks"].values()) == 0


@pytest.mark.slow
@pytest.mark.watchdog(120)
class TestRepeatedChaos:
    def test_many_kill_heal_cycles_converge(self, tmp_path):
        """Kill → quarantine → heal, five times over, with churn between
        cycles; every healed state matches a fresh oracle."""
        subs, events = workload(n_subs=60, n_events=8)
        with ShardedMatcher(
            shards=SHARDS,
            router="hash",
            inner=lambda: make_matcher("counting"),
            executor="process",
            breaker={"failure_threshold": 1, "reset_timeout": 0.05},
            worker_timeout=30.0,
        ) as m:
            live = {}
            for s in subs:
                m.add(s)
                live[s.id] = s
            for cycle in range(5):
                victim = cycle % SHARDS
                sigkill_and_wait(m._procpool, victim)
                # churn while the worker is down (mirror absorbs it).
                extra = Subscription(f"c{cycle}", [eq("x", cycle % 5)])
                m.add(extra)
                live[extra.id] = extra
                drop = subs[cycle].id
                if drop in live:
                    m.remove(drop)
                    del live[drop]
                time.sleep(0.1)
                oracle = oracle_for(list(live.values()))
                rows = [m.match(e) for e in events]
                assert all(not r.degraded for r in rows)
                assert [norm(r) for r in rows] == [
                    norm(oracle.match(e)) for e in events
                ]
