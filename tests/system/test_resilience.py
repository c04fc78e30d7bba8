"""Chaos suite for the overload-safe serving layer.

Injected shard faults, slow matchers and overload bursts driven through
the public API: bounded queues shed instead of deadlocking, deadlines
expire queued work, the retrying client survives transient overload,
and a quarantined shard degrades results without corrupting them, then
heals through the breaker's half-open probe.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core import Event, OracleMatcher, Subscription, eq
from repro.matchers import DynamicMatcher
from repro.system import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BatchServer,
    CircuitBreaker,
    DeadlineExceededError,
    PartialResults,
    PubSubBroker,
    RetryBudgetExceededError,
    RetryPolicy,
    RetryingClient,
    ServerClosedError,
    ServerOverloadedError,
    ShardedMatcher,
    VirtualClock,
)
from repro.testing import FlakyMatcher, InjectedFault, SlowMatcher


class TestCircuitBreaker:
    def test_initially_closed_and_allowing(self):
        b = CircuitBreaker()
        assert b.state == BREAKER_CLOSED
        assert b.allow()

    def test_opens_after_consecutive_failures(self):
        clock = VirtualClock()
        b = CircuitBreaker(failure_threshold=3, reset_timeout=10.0, clock=clock)
        for _ in range(2):
            b.record_failure()
        assert b.state == BREAKER_CLOSED
        b.record_failure()
        assert b.state == BREAKER_OPEN
        assert not b.allow()

    def test_success_resets_consecutive_count(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == BREAKER_CLOSED

    def test_half_open_after_cooldown_then_close_on_probe_success(self):
        clock = VirtualClock()
        b = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
        b.record_failure()
        assert b.state == BREAKER_OPEN
        clock.advance(4.9)
        assert not b.allow()
        clock.advance(0.2)
        assert b.state == BREAKER_HALF_OPEN
        assert b.allow()
        b.record_success()
        assert b.state == BREAKER_CLOSED

    def test_half_open_probe_failure_reopens_and_restarts_cooldown(self):
        clock = VirtualClock()
        b = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
        b.record_failure()
        clock.advance(5.0)
        assert b.allow()  # the half-open probe
        b.record_failure()
        assert b.state == BREAKER_OPEN
        clock.advance(4.0)
        assert b.state == BREAKER_OPEN  # cool-down restarted at reopen
        clock.advance(1.1)
        assert b.state == BREAKER_HALF_OPEN

    def test_half_open_limits_concurrent_probes(self):
        clock = VirtualClock()
        b = CircuitBreaker(
            failure_threshold=1, reset_timeout=1.0, half_open_probes=2, clock=clock
        )
        b.record_failure()
        clock.advance(1.0)
        assert b.allow()
        assert b.allow()
        assert not b.allow()  # both probe slots in flight
        b.record_success()
        b.record_success()
        assert b.state == BREAKER_CLOSED

    def test_transition_callback_fires_once_per_change(self):
        clock = VirtualClock()
        seen = []
        b = CircuitBreaker(
            failure_threshold=1,
            reset_timeout=1.0,
            clock=clock,
            on_transition=lambda old, new: seen.append((old, new)),
        )
        b.record_failure()
        clock.advance(1.0)
        b.allow()
        b.record_success()
        assert seen == [
            (BREAKER_CLOSED, BREAKER_OPEN),
            (BREAKER_OPEN, BREAKER_HALF_OPEN),
            (BREAKER_HALF_OPEN, BREAKER_CLOSED),
        ]

    def test_force_open_and_reset(self):
        b = CircuitBreaker()
        b.force_open()
        assert not b.allow()
        b.reset()
        assert b.allow()

    def test_stats_shape(self):
        b = CircuitBreaker(failure_threshold=2)
        b.record_failure()
        stats = b.stats()
        assert stats["state"] == BREAKER_CLOSED
        assert stats["consecutive_failures"] == 1
        assert stats["counters"]["failures"] == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=-1)
        with pytest.raises(ValueError):
            CircuitBreaker(half_open_probes=0)


class _FlakyServer:
    """Submit surface that fails N times, then succeeds."""

    def __init__(self, failures, exc=ServerOverloadedError):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def submit_events(self, batch, **kwargs):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc("injected overload")
        return ("ok", batch)

    submit_subscriptions = submit_events
    submit_unsubscriptions = submit_events


class TestRetryingClient:
    def test_succeeds_within_budget(self):
        server = _FlakyServer(failures=3)
        sleeps = []
        client = RetryingClient(
            server,
            RetryPolicy(max_attempts=5, base_delay=0.01, rng=random.Random(7)),
            sleep=sleeps.append,
        )
        assert client.submit_events([1, 2])[0] == "ok"
        assert server.calls == 4
        assert len(sleeps) == 3
        assert client.counters == {"attempts": 4, "retries": 3, "exhausted": 0}

    def test_budget_exhaustion_raises_with_cause(self):
        server = _FlakyServer(failures=10)
        client = RetryingClient(
            server,
            RetryPolicy(max_attempts=3, base_delay=0.01, rng=random.Random(7)),
            sleep=lambda _d: None,
        )
        with pytest.raises(RetryBudgetExceededError) as info:
            client.submit_events([1])
        assert isinstance(info.value.__cause__, ServerOverloadedError)
        assert server.calls == 3
        assert client.counters["exhausted"] == 1

    def test_non_retryable_errors_pass_through_immediately(self):
        server = _FlakyServer(failures=10, exc=KeyError)
        client = RetryingClient(server, RetryPolicy(max_attempts=5))
        with pytest.raises(KeyError):
            client.submit_events([1])
        assert server.calls == 1

    def test_backoff_is_capped_and_positive(self):
        policy = RetryPolicy(
            max_attempts=30, base_delay=0.01, max_delay=0.5, rng=random.Random(3)
        )
        delays = list(policy.delays())
        assert len(delays) == 29
        assert all(0.01 <= d <= 0.5 for d in delays)
        assert max(delays) == 0.5  # the cap is reached and respected

    def test_wall_clock_budget(self):
        server = _FlakyServer(failures=100)
        fake_now = [0.0]

        def sleep(d):
            fake_now[0] += d

        client = RetryingClient(
            server,
            RetryPolicy(
                max_attempts=1000,
                base_delay=0.1,
                max_delay=0.1,
                budget_seconds=0.35,
                rng=random.Random(1),
            ),
            sleep=sleep,
            time_source=lambda: fake_now[0],
        )
        with pytest.raises(RetryBudgetExceededError):
            client.submit_events([1])
        assert fake_now[0] <= 0.35

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.5, max_delay=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(budget_seconds=-1)


def _gated_server(queue_limit, admission):
    """A server whose serving thread blocks on a gate we control."""
    gate = threading.Event()
    matcher = SlowMatcher(
        DynamicMatcher(),
        delay=1.0,  # any positive value; the sleep is the gate wait
        operations=("match",),
        sleep=lambda _d: gate.wait(timeout=10.0),
    )
    server = BatchServer(matcher, queue_limit=queue_limit, admission=admission)
    return server, gate


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return False


class TestBackpressure:
    def test_queue_limit_validation(self):
        with pytest.raises(ValueError):
            BatchServer(queue_limit=0)
        with pytest.raises(ValueError):
            BatchServer(admission="drop-everything")

    def test_reject_policy_sheds_when_full(self):
        server, gate = _gated_server(queue_limit=2, admission="reject")
        try:
            server.submit_subscriptions([Subscription("a", [eq("x", 1)])])
            replies = []

            def client():
                replies.append(server.submit_events([Event({"x": 1})]))

            threads = [threading.Thread(target=client)]
            threads[0].start()  # occupies the worker
            assert _wait_for(lambda: server.matcher.delayed >= 1)
            for _ in range(2):  # fill the queue
                t = threading.Thread(target=client)
                t.start()
                threads.append(t)
            assert _wait_for(lambda: server._requests.qsize() >= 2)
            with pytest.raises(ServerOverloadedError):
                server.submit_events([Event({"x": 1})])
            assert server.health()["shed"]["overload"] == 1
            gate.set()
            for t in threads:
                t.join(timeout=5.0)
            assert len(replies) == 3  # queued work was served, not lost
        finally:
            gate.set()
            server.close()

    def test_shed_oldest_policy_evicts_stalest_request(self):
        server, gate = _gated_server(queue_limit=1, admission="shed-oldest")
        try:
            server.submit_subscriptions([Subscription("a", [eq("x", 1)])])
            outcomes = {}

            def client(name):
                try:
                    outcomes[name] = server.submit_events([Event({"x": 1})])
                except Exception as exc:
                    outcomes[name] = exc

            first = threading.Thread(target=client, args=("occupant",))
            first.start()
            assert _wait_for(lambda: server.matcher.delayed >= 1)
            second = threading.Thread(target=client, args=("victim",))
            second.start()
            assert _wait_for(lambda: server._requests.qsize() >= 1)
            third = threading.Thread(target=client, args=("fresh",))
            third.start()
            # The victim is evicted in favour of the fresh request.
            second.join(timeout=5.0)
            assert isinstance(outcomes["victim"], ServerOverloadedError)
            gate.set()
            first.join(timeout=5.0)
            third.join(timeout=5.0)
            assert outcomes["occupant"].results == [["a"]]
            assert outcomes["fresh"].results == [["a"]]
            assert server.health()["shed"]["overload"] == 1
        finally:
            gate.set()
            server.close()

    def test_block_policy_waits_for_space(self):
        server, gate = _gated_server(queue_limit=1, admission="block")
        try:
            server.submit_subscriptions([Subscription("a", [eq("x", 1)])])
            replies = []
            threads = [
                threading.Thread(
                    target=lambda: replies.append(
                        server.submit_events([Event({"x": 1})])
                    ),
                )
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            # Nothing sheds: producers block until space opens up.
            time.sleep(0.05)
            gate.set()
            for t in threads:
                t.join(timeout=5.0)
            assert len(replies) == 4
            assert server.health()["shed"]["overload"] == 0
        finally:
            gate.set()
            server.close()


class TestDeadlines:
    def test_deadline_validation(self):
        with BatchServer() as server:
            with pytest.raises(ValueError):
                server.submit_events([Event({"x": 1})], deadline=0)

    def test_expired_queued_work_is_shed_not_matched(self):
        server, gate = _gated_server(queue_limit=None, admission="block")
        try:
            server.submit_subscriptions([Subscription("a", [eq("x", 1)])])
            outcomes = {}

            def occupant():
                outcomes["occupant"] = server.submit_events([Event({"x": 1})])

            def doomed():
                try:
                    outcomes["doomed"] = server.submit_events(
                        [Event({"x": 1})], deadline=0.02
                    )
                except Exception as exc:
                    outcomes["doomed"] = exc

            t1 = threading.Thread(target=occupant)
            t1.start()
            assert _wait_for(lambda: server.matcher.delayed >= 1)
            t2 = threading.Thread(target=doomed)
            t2.start()
            assert _wait_for(lambda: server._requests.qsize() >= 1)
            time.sleep(0.05)  # let the deadline lapse while queued
            before = server.stats()["counters"]["batches_publish"]
            gate.set()
            t1.join(timeout=5.0)
            t2.join(timeout=5.0)
            assert isinstance(outcomes["doomed"], DeadlineExceededError)
            assert server.health()["shed"]["deadline"] == 1
            # The expired batch was never matched.
            assert server.stats()["counters"]["batches_publish"] == before + 1
        finally:
            gate.set()
            server.close()

    def test_blocked_producer_gives_up_at_deadline(self):
        server, gate = _gated_server(queue_limit=1, admission="block")
        try:
            server.submit_subscriptions([Subscription("a", [eq("x", 1)])])
            done = []
            threads = [
                threading.Thread(
                    target=lambda: done.append(server.submit_events([Event({"x": 1})]))
                )
                for _ in range(2)  # occupy the worker and fill the queue
            ]
            for t in threads:
                t.start()
            assert _wait_for(lambda: server._requests.qsize() >= 1)
            with pytest.raises(DeadlineExceededError):
                server.submit_events([Event({"x": 1})], deadline=0.05)
            assert server.health()["shed"]["deadline"] == 1
            gate.set()
            for t in threads:
                t.join(timeout=5.0)
        finally:
            gate.set()
            server.close()


class _BrokenWorker(BatchServer):
    """A server whose worker loop has a bug (not a per-request failure)."""

    def _handle(self, request):
        raise RuntimeError("worker bug")


class TestLifecycle:
    def test_double_close_is_noop_and_submit_after_close_raises(self):
        server = BatchServer()
        server.close()
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit_events([Event({"x": 1})])
        with pytest.raises(ServerClosedError):
            server.submit_subscriptions([Subscription("a", [eq("x", 1)])])

    def test_close_drains_unserved_requests(self):
        # Stop the serving thread first so queued requests can never be
        # served, then verify close() answers them instead of leaving
        # callers blocked forever.
        server = BatchServer()
        server._requests.put(None)  # the serving thread exits as if closing
        assert _wait_for(lambda: not server._thread.is_alive())
        outcome = {}

        def client():
            try:
                outcome["reply"] = server.submit_events([Event({"x": 1})])
            except Exception as exc:
                outcome["reply"] = exc

        t = threading.Thread(target=client)
        t.start()
        assert _wait_for(lambda: server._requests.qsize() >= 1)
        server.close()
        t.join(timeout=5.0)
        assert isinstance(outcome["reply"], ServerClosedError)
        assert server.health()["shed"]["closed"] == 1

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_exit_propagates_worker_exceptions(self):
        server = _BrokenWorker()
        outcome = {}

        def client():
            try:
                outcome["reply"] = server.submit_events([Event({"x": 1})])
            except Exception as exc:
                outcome["reply"] = exc

        t = threading.Thread(target=client)
        t.start()
        t.join(timeout=5.0)
        # The caller is not left hanging: the bug is delivered to it.
        assert isinstance(outcome["reply"], RuntimeError)
        with pytest.raises(RuntimeError, match="worker bug"):
            server.__exit__(None, None, None)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_exit_does_not_mask_a_propagating_exception(self):
        server = _BrokenWorker()

        def client():
            try:
                server.submit_events([Event({"x": 1})])
            except Exception:
                pass

        t = threading.Thread(target=client)
        t.start()
        t.join(timeout=5.0)
        with pytest.raises(KeyError):  # the caller's error, not the worker's
            with server:
                raise KeyError("caller bug")


def _quarantine_matcher(clock, failures=0, shards=3):
    """ShardedMatcher with a FlakyMatcher inner on shard 0."""
    flaky_holder = []

    def inner():
        engine = DynamicMatcher()
        if not flaky_holder:
            engine = FlakyMatcher(engine, failures=failures)
            flaky_holder.append(engine)
        return engine

    matcher = ShardedMatcher(
        shards=shards,
        router="roundrobin",
        inner=inner,
        parallel=False,
        breaker={"failure_threshold": 2, "reset_timeout": 5.0, "clock": clock},
    )
    return matcher, flaky_holder[0]


class TestShardQuarantine:
    def test_healthy_breaker_mode_is_transparent(self):
        clock = VirtualClock()
        matcher, _flaky = _quarantine_matcher(clock)
        oracle = OracleMatcher()
        for i in range(12):
            sub = Subscription(f"s{i}", [eq("x", i % 3)])
            matcher.add(sub)
            oracle.add(sub)
        for v in range(3):
            got = matcher.match(Event({"x": v}))
            assert isinstance(got, PartialResults)
            assert not got.degraded
            assert sorted(got) == sorted(oracle.match(Event({"x": v})))
        matcher.close()

    def test_faulty_shard_degrades_then_quarantines_then_heals(self):
        clock = VirtualClock()
        matcher, flaky = _quarantine_matcher(clock)
        oracle = OracleMatcher()
        for i in range(12):
            sub = Subscription(f"s{i}", [eq("x", 1)])
            matcher.add(sub)
            oracle.add(sub)
        sick = set(matcher.shard_ids()[0])
        assert sick  # round-robin placed work on the sick shard
        event = Event({"x": 1})
        full = set(oracle.match(event))

        flaky.rearm(2)  # exactly enough to trip the breaker
        r1 = matcher.match(event)
        assert r1.degraded and r1.failed_shards == (0,)
        assert set(r1) == full - sick  # healthy shards stay correct
        r2 = matcher.match(event)
        assert r2.degraded
        assert matcher.breaker_states()[0] == BREAKER_OPEN

        # Quarantined: the sick shard is skipped without being probed.
        before = flaky.injected
        r3 = matcher.match(event)
        assert r3.degraded and set(r3) == full - sick
        assert flaky.injected == before

        # Cool-down elapses; the half-open probe succeeds (budget spent)
        # and the shard returns to full service.
        clock.advance(5.0)
        assert matcher.breaker_states()[0] == BREAKER_HALF_OPEN
        r4 = matcher.match(event)
        assert not r4.degraded
        assert set(r4) == full
        assert matcher.breaker_states()[0] == BREAKER_CLOSED
        matcher.close()

    def test_new_subscriptions_route_away_from_quarantined_shard(self):
        clock = VirtualClock()
        matcher, flaky = _quarantine_matcher(clock)
        for i in range(6):
            matcher.add(Subscription(f"s{i}", [eq("x", 1)]))
        flaky.rearm(2)
        event = Event({"x": 1})
        matcher.match(event)
        matcher.match(event)
        assert matcher.breaker_states()[0] == BREAKER_OPEN

        pop_before = list(matcher.stats()["per_shard_subscriptions"])
        added = [Subscription(f"q{i}", [eq("x", 1)]) for i in range(6)]
        for sub in added:
            matcher.add(sub)
        stats = matcher.stats()
        # Nothing landed on the quarantined shard; overflow bookkeeping
        # keeps every rerouted subscription findable.
        assert stats["per_shard_subscriptions"][0] == pop_before[0]
        assert sum(stats["overflow_per_shard"]) > 0
        got = matcher.match(event)
        assert set(s.id for s in added) <= set(got)
        assert stats["counters"]["rerouted_subscriptions"] > 0

        # Removal unwinds the overflow accounting.
        for sub in added:
            matcher.remove(sub.id)
        assert sum(matcher.stats()["overflow_per_shard"]) == 0
        matcher.close()

    def test_overflow_placement_stays_matchable_under_affinity_routing(self):
        # Affinity pruning must still probe shards holding overflow
        # placements, or rerouted subscriptions would silently unmatch.
        clock = VirtualClock()
        matcher = ShardedMatcher(
            shards=4,
            router="affinity",
            inner="dynamic",
            parallel=False,
            breaker={"failure_threshold": 1, "reset_timeout": 100.0, "clock": clock},
        )
        probe = Event({"k": "hot"})
        pathfinder = Subscription("pathfinder", [eq("k", "hot")])
        home = matcher.router.shard_for(pathfinder)  # records, then remove
        matcher.router.on_remove(pathfinder, home)
        matcher.breaker(home).force_open()
        matcher.add(pathfinder)
        assert matcher._shard_of["pathfinder"] != home
        got = matcher.match(probe)
        assert list(got) == ["pathfinder"]
        assert not got.degraded  # the sick shard holds nothing yet
        matcher.close()

    def test_slow_shard_counts_against_health(self):
        clock = VirtualClock()

        def inner():
            return SlowMatcher(DynamicMatcher(), delay=0.02, operations=("match",))

        matcher = ShardedMatcher(
            shards=2,
            router="roundrobin",
            inner=inner,
            parallel=False,
            breaker={"failure_threshold": 2, "reset_timeout": 60.0, "clock": clock},
            slow_match_seconds=0.001,
        )
        matcher.add(Subscription("a", [eq("x", 1)]))
        matcher.add(Subscription("b", [eq("x", 1)]))
        event = Event({"x": 1})
        r1 = matcher.match(event)
        # Slow answers are still used — correctness over latency...
        assert sorted(r1) == ["a", "b"]
        matcher.match(event)
        # ...but both shards' breakers have now tripped on slowness.
        assert matcher.breaker_states() == {0: BREAKER_OPEN, 1: BREAKER_OPEN}
        r3 = matcher.match(event)
        assert r3.degraded and list(r3) == []
        matcher.close()

    def test_breaker_metrics_exported(self):
        clock = VirtualClock()
        matcher, flaky = _quarantine_matcher(clock)
        registry = matcher.use_metrics()
        for i in range(6):
            matcher.add(Subscription(f"s{i}", [eq("x", 1)]))
        flaky.rearm(2)
        event = Event({"x": 1})
        matcher.match(event)
        matcher.match(event)
        state = registry.family("repro_breaker_state")
        assert state.labels(shard="0").value == 2  # open
        transitions = registry.family("repro_breaker_transitions_total")
        assert transitions.labels(shard="0", state="open").value == 1
        degraded = registry.family("repro_sharded_degraded_total")
        assert degraded.labels().value == 2
        matcher.close()

    def test_attaching_a_registry_does_not_move_a_breaker(self):
        clock = VirtualClock()
        matcher, _flaky = _quarantine_matcher(clock)
        breaker = matcher.breaker(0)
        breaker.force_open()
        clock.advance(10)  # past the 5 s cool-down: the next read would half-open it
        transitions = dict(breaker.counters)
        registry = matcher.use_metrics()
        assert breaker._state == BREAKER_OPEN and breaker.counters == transitions
        assert registry.family("repro_breaker_state").labels(shard="0").value == 2
        assert matcher.breaker_states()[0] == BREAKER_HALF_OPEN  # reading it does, as documented
        matcher.close()

    def test_one_failing_probe_degrades_its_whole_sub_batch_once(self):
        """The unit of failure is the probe: shard 0 failing one call of
        a 4-event batch costs all four rows that shard's ids, and its
        breaker exactly one failure."""
        clock = VirtualClock()
        matcher, flaky = _quarantine_matcher(clock)
        oracle = OracleMatcher()
        for i in range(12):
            sub = Subscription(f"s{i}", [eq("x", i % 2)])
            matcher.add(sub)
            oracle.add(sub)
        sick = set(matcher.shard_ids()[0])
        events = [Event({"x": i % 2}) for i in range(4)]
        full = [set(oracle.match(e)) for e in events]

        flaky.rearm(1)
        rows = matcher.match_batch(events)
        assert flaky.injected == 1
        for row, want in zip(rows, full):
            assert row.degraded and row.failed_shards == (0,)
            assert set(row) == want - sick
        assert matcher.breaker(0).stats()["counters"]["failures"] == 1
        assert matcher.breaker_states()[0] == BREAKER_CLOSED  # threshold is 2
        assert matcher.counters["degraded_events"] == 4

        flaky.rearm(1)
        matcher.match_batch(events)  # the second failed probe trips it
        assert matcher.breaker_states()[0] == BREAKER_OPEN
        rows = matcher.match_batch(events)  # quarantined: skipped, not probed
        assert flaky.injected == 2
        assert all(r.degraded and r.failed_shards == (0,) for r in rows)
        assert matcher.counters["quarantine_skips"] == 4

        # Half-open admits exactly one probe *batch*: one call, one verdict.
        clock.advance(5.0)
        assert matcher.breaker_states()[0] == BREAKER_HALF_OPEN
        before = dict(matcher.breaker(0).stats()["counters"])
        rows = matcher.match_batch(events)
        after = matcher.breaker(0).stats()["counters"]
        assert after["successes"] == before["successes"] + 1
        assert after["failures"] == before["failures"]
        assert [set(r) for r in rows] == full
        assert not any(r.degraded for r in rows)
        assert matcher.breaker_states()[0] == BREAKER_CLOSED
        matcher.close()

    def test_without_breakers_exceptions_still_propagate(self):
        matcher = ShardedMatcher(
            shards=2,
            router="roundrobin",
            inner=lambda: FlakyMatcher(DynamicMatcher(), failures=1),
            parallel=False,
        )
        matcher.add(Subscription("a", [eq("x", 1)]))
        with pytest.raises(InjectedFault):
            matcher.match(Event({"x": 1}))
        matcher.close()


class TestBrokerDegradedPublish:
    def test_publish_propagates_degraded_flag(self):
        from repro.system import PubSubBroker

        clock = VirtualClock()
        matcher, flaky = _quarantine_matcher(clock)
        broker = PubSubBroker(matcher=matcher)
        for i in range(6):
            broker.subscribe(Subscription(f"s{i}", [eq("x", 1)]))
        flaky.rearm(1)
        matched = broker.publish(Event({"x": 1}))
        assert getattr(matched, "degraded", False)
        assert matched.failed_shards == (0,)
        assert broker.counters["degraded_publishes"] == 1
        healthy = broker.publish(Event({"x": 1}))
        assert not getattr(healthy, "degraded", False)
        assert broker.counters["degraded_publishes"] == 1
        matcher.close()


class TestHealth:
    def test_health_reports_degraded_breakers_and_wal_lag(self, tmp_path):
        from repro.system import WriteAheadLog

        clock = VirtualClock()
        matcher, flaky = _quarantine_matcher(clock)
        wal = WriteAheadLog(tmp_path / "server.wal", fsync="never")
        server = BatchServer(PubSubBroker(matcher, clock=wal.clock, wal=wal))
        try:
            server.submit_subscriptions(
                [Subscription(f"s{i}", [eq("x", 1)]) for i in range(6)]
            )
            report = server.health()
            assert report["status"] == "ok"
            assert report["breakers"] == {"0": "closed", "1": "closed", "2": "closed"}
            assert report["wal"]["unsynced_appends"] == 0  # batch-boundary sync
            # The unit of failure is the probe (one call into one
            # shard), so tripping a threshold-2 breaker takes two batches.
            flaky.rearm(2)
            server.submit_events([Event({"x": 1}), Event({"x": 1})])
            assert server.health()["breakers"]["0"] == "closed"
            server.submit_events([Event({"x": 1}), Event({"x": 1})])
            report = server.health()
            assert report["status"] == "degraded"
            assert report["breakers"]["0"] == "open"
        finally:
            server.close()
            matcher.close()
            wal.close()

    def test_health_status_closed(self):
        server = BatchServer()
        server.close()
        assert server.health()["status"] == "closed"


@pytest.mark.slow
class TestOverloadBurstChaos:
    def test_burst_sheds_retrying_clients_recover_and_results_match(self):
        """A 10x overload burst: the bounded queue sheds rather than
        deadlocking, retrying clients succeed within their budgets, and
        after the storm the server still answers correctly."""
        matcher = SlowMatcher(DynamicMatcher(), delay=0.002, operations=("match",))
        oracle = OracleMatcher()
        server = BatchServer(matcher, queue_limit=4, admission="reject")
        try:
            subs = [Subscription(f"s{i}", [eq("x", i % 5)]) for i in range(25)]
            server.submit_subscriptions(subs)
            for sub in subs:
                oracle.add(sub)
            errors = []
            completed = [0] * 8

            def blaster(k):
                client = RetryingClient(
                    server,
                    RetryPolicy(
                        max_attempts=200,
                        base_delay=0.001,
                        max_delay=0.02,
                        rng=random.Random(k),
                    ),
                )
                try:
                    for i in range(5):
                        event = Event({"x": (k + i) % 5})
                        reply = client.submit_events([event])
                        assert sorted(reply.results[0]) == sorted(oracle.match(event))
                        completed[k] += 1
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [threading.Thread(target=blaster, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not errors
            assert completed == [5] * 8
            health = server.health()
            assert health["shed"]["overload"] > 0  # the burst really shed
            assert health["status"] == "ok"
        finally:
            server.close()
