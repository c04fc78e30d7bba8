"""Stateful property test: the broker against a transparent model."""

import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import Event, Subscription, ge
from repro.core.errors import DuplicateSubscriptionError, UnknownSubscriptionError
from repro.lang import parse_subscriptions
from repro.matchers import DynamicMatcher
from repro.system import (
    DeliveryManager,
    PartialResults,
    PubSubBroker,
    QueueNotifier,
    ShardedMatcher,
    VirtualClock,
    WriteAheadLog,
    read_wal,
    recover_files,
)
from repro.testing.faults import FlakyMatcher
from tests.properties.strategies import events, subscriptions


FORMULAS = st.builds(
    lambda a, x, b, y: f"{a} = {x} or ({b} = {y} and {a} >= {x})",
    st.sampled_from(["a", "b"]), st.integers(0, 8),
    st.sampled_from(["c", "d"]), st.integers(0, 8),
)


class _Formula:
    """A formula in the model: satisfied when any disjunct is."""

    def __init__(self, text):
        self.disjuncts = parse_subscriptions(text, "model")

    def is_satisfied_by(self, event):
        return any(d.is_satisfied_by(event) for d in self.disjuncts)


class BrokerMachine(RuleBasedStateMachine):
    """Broker vs a dict-of-subscriptions + list-of-events model.

    Checks, after every operation: publish returns exactly the model's
    satisfied live subscriptions and formulas; expiry removes exactly
    the timed-out ones; retro-matching on subscribe notifies exactly the
    valid stored events the subscription satisfies; a batch that may
    hold one bad item applies whole or not at all, and its log recovers
    to what the broker holds; the broker's own bookkeeping passes
    ``check_invariants``.
    """

    def __init__(self):
        super().__init__()
        self.clock = VirtualClock()
        self.inbox = QueueNotifier()
        self.tmp = tempfile.TemporaryDirectory()
        self.wal_path = os.path.join(self.tmp.name, "broker.wal")
        self.wal = WriteAheadLog(self.wal_path, fsync="never", clock=self.clock)
        self.broker = PubSubBroker(
            clock=self.clock, notifier=self.inbox, event_retention_ttl=50.0, wal=self.wal
        )
        self.model_subs = {}      # id -> (subscription, expires_at or None)
        self.model_events = []    # (event, expires_at)
        self.counter = 0

    def _live_subs(self):
        now = self.clock.now()
        return {
            sid: sub
            for sid, (sub, exp) in self.model_subs.items()
            if exp is None or exp > now
        }

    @rule(sub=subscriptions(), ttl=st.one_of(st.none(), st.integers(1, 100)))
    def subscribe(self, sub, ttl):
        self.counter += 1
        sid = f"m{self.counter}"
        sub = type(sub)(sid, sub.predicates)
        now = self.clock.now()
        self.inbox.drain()
        self.broker.subscribe(sub, ttl=ttl)
        self.model_subs[sid] = (sub, now + ttl if ttl else None)
        # retro notifications must match the model's valid events
        assert [n.event for n in self.inbox.drain()] == self._retro_expected(sub, now)

    @rule(text=FORMULAS, ttl=st.one_of(st.none(), st.integers(1, 100)))
    def subscribe_formula(self, text, ttl):
        self.counter += 1
        fid = f"f{self.counter}"
        now = self.clock.now()
        self.inbox.drain()
        self.broker.subscribe_formula(text, fid, ttl=ttl)
        formula = _Formula(text)
        self.model_subs[fid] = (formula, now + ttl if ttl else None)
        assert [n.event for n in self.inbox.drain()] == self._retro_expected(formula, now)

    @rule(event=events())
    def publish(self, event):
        now = self.clock.now()
        matched = set(self.broker.publish(event))
        expected = {
            sid
            for sid, sub in self._live_subs().items()
            if sub.is_satisfied_by(event)
        }
        assert matched == expected
        self.model_events.append((event, now + 50.0))
        self.inbox.drain()

    @rule(delta=st.integers(1, 40))
    def advance_time(self, delta):
        self.clock.advance(delta)

    @rule(data=st.data())
    def unsubscribe(self, data):
        live = sorted(self._live_subs())
        if not live:
            return
        sid = data.draw(st.sampled_from(live))
        self.broker.unsubscribe(sid)
        del self.model_subs[sid]

    def _retro_expected(self, sub, now):
        return [e for e, exp in self.model_events if exp > now and sub.is_satisfied_by(e)]

    def _live_ids(self):
        return {s.id for s in self.broker.matcher.iter_subscriptions()}

    def _assert_recovers_to_live(self):
        fresh = PubSubBroker(clock=VirtualClock(self.clock.now()), notifier=QueueNotifier())
        recover_files(fresh, wal_path=self.wal_path)
        assert {s.id for s in fresh.matcher.iter_subscriptions()} == self._live_ids()

    @rule(
        subs=st.lists(subscriptions(), min_size=1, max_size=4),
        ttl=st.one_of(st.none(), st.integers(1, 100)),
        bad=st.sampled_from([None, None, "taken", "twice"]),
        data=st.data(),
    )
    def subscribe_batch(self, subs, ttl, bad, data):
        batch = []
        for sub in subs:
            self.counter += 1
            batch.append(type(sub)(f"m{self.counter}", sub.predicates))
        live = sorted(sid for sid in self._live_subs() if sid.startswith("m"))
        if bad == "taken" and live:
            batch.insert(data.draw(st.integers(0, len(batch))), type(subs[0])(
                data.draw(st.sampled_from(live)), subs[0].predicates
            ))
        elif bad == "twice":
            batch.append(batch[data.draw(st.integers(0, len(batch) - 1))])
        else:
            bad = None
        now = self.clock.now()
        self.broker.purge_expired()
        self.inbox.drain()
        before = self._live_ids()
        if bad:
            with pytest.raises(DuplicateSubscriptionError):
                self.broker.subscribe_batch(batch, ttl=ttl)
            assert self._live_ids() == before
            assert self.inbox.drain() == []
            self._assert_recovers_to_live()
            return
        assert self.broker.subscribe_batch(batch, ttl=ttl) == [sub.id for sub in batch]
        expected = []
        for sub in batch:
            self.model_subs[sub.id] = (sub, now + ttl if ttl else None)
            expected += [(sub.id, e) for e in self._retro_expected(sub, now)]
        assert [(n.sub_id, n.event) for n in self.inbox.drain()] == expected

    @rule(data=st.data(), bad=st.booleans())
    def unsubscribe_batch(self, data, bad):
        live = sorted(self._live_subs())
        ids = data.draw(st.lists(st.sampled_from(live), unique=True)) if live else []
        if bad:
            ids.insert(data.draw(st.integers(0, len(ids))), "nobody")
            before = self._live_ids()
            with pytest.raises(UnknownSubscriptionError):
                self.broker.unsubscribe_batch(ids)
            assert self._live_ids() == before
            self._assert_recovers_to_live()
            return
        self.broker.unsubscribe_batch(ids)
        for sid in ids:
            del self.model_subs[sid]

    def teardown(self):
        self.wal.close()
        self.tmp.cleanup()

    @invariant()
    def counts_agree(self):
        self.broker.purge_expired()
        assert self.broker.subscription_count == sum(
            len(sub.disjuncts) if isinstance(sub, _Formula) else 1
            for sub in self._live_subs().values()
        )

    @invariant()
    def bookkeeping_agrees(self):
        self.broker.check_invariants()


TestBroker = BrokerMachine.TestCase
TestBroker.settings = settings(max_examples=20, stateful_step_count=30, deadline=None)


# ----------------------------------------------------------------------
# publish_batch(events) == [publish(e) for e in events]
# ----------------------------------------------------------------------
class _Twin:
    """One fully-loaded broker: formulas, TTLs, retention, a WAL, auto-ack
    delivery channels next to a queue notifier, and a breaker-guarded
    sharded engine whose shard 0 fails its first *flaky_failures* probes."""

    def __init__(self, tmp, name, plain, formulas, retention, flaky_failures):
        self.clock = VirtualClock()
        self.inbox = QueueNotifier()
        self.pushed = []
        first = []

        def inner():
            engine = DynamicMatcher()
            if not first:
                engine = self.flaky = FlakyMatcher(engine, failures=flaky_failures)
                first.append(engine)
            return engine

        self.matcher = ShardedMatcher(
            shards=2,
            router="roundrobin",
            inner=inner,
            parallel=False,
            breaker={"failure_threshold": 2, "reset_timeout": 4.0, "clock": self.clock},
        )
        self.wal = WriteAheadLog(os.path.join(tmp, name), fsync="never", clock=self.clock)
        self.manager = DeliveryManager(clock=self.clock)
        self.broker = PubSubBroker(
            matcher=self.matcher,
            clock=self.clock,
            notifier=self.inbox,
            event_retention_ttl=retention,
            wal=self.wal,
            delivery=self.manager,
        )
        for i, (sub, ttl) in enumerate(plain):
            sid = self.broker.subscribe(Subscription(f"p{i}", sub.predicates), ttl=ttl)
            if i % 2:
                self._channel(sid)
        for j, (text, ttl) in enumerate(formulas):
            sid = self.broker.subscribe_formula(text, sub_id=f"f{j}", ttl=ttl)
            if j % 2 == 0:
                self._channel(sid)

    def _channel(self, sub_id):
        self.manager.register(
            sub_id,
            sink=lambda n: self.pushed.append((n.sub_id, n.event, n.seq)),
            auto_ack=True,
        )

    def observe(self, results):
        """Everything a publish leaves behind, in order."""
        return (
            [(type(r), list(r), r.degraded, r.failed_shards) for r in results],
            [(n.sub_id, n.event, n.timestamp) for n in self.inbox.drain()],
            self.pushed[:],
            dict(self.broker.counters),
            self.manager.inflight,
        )

    def close(self):
        self.matcher.close()
        self.wal.close()
        with open(self.wal.path, encoding="utf-8") as fp:
            return read_wal(fp)[0]


TTLS = st.one_of(st.none(), st.sampled_from([3, 6]))


def _delivered_equals_matched(twin, observed, batch, pushed_before):
    """Whatever a twin matched — complete or degraded — it delivered,
    once, through the push channel or the notifier."""
    rows, notes, pushed = observed[0], observed[1], observed[2]
    matched = [(sid, e) for (_k, ids, _d, _f), e in zip(rows, batch) for sid in ids]
    delivered = [(sid, e) for sid, e, _ts in notes]
    delivered += [(sid, e) for sid, e, _seq in pushed[pushed_before:]]
    assert sorted(delivered, key=repr) == sorted(matched, key=repr)
    assert twin.manager.inflight == 0


@settings(max_examples=30, deadline=None)
@given(
    plain=st.lists(st.tuples(subscriptions(), TTLS), max_size=10),
    formulas=st.lists(st.tuples(FORMULAS, TTLS), max_size=4),
    steps=st.lists(
        st.tuples(st.sampled_from([0, 1, 3]), st.lists(events(), min_size=1, max_size=6)),
        min_size=1,
        max_size=5,
    ),
    retention=st.sampled_from([None, 5.0]),
    flaky_failures=st.integers(0, 5),
)
@example(  # "late" arrives while shard 0 is quarantined: it lives on shard 1
    plain=[],
    formulas=[("a = 0 or (c = 0 and a >= 0)", None)],
    steps=[
        (0, [Event({"a": 0}), Event({"a": 0})]),
        (3, [Event({"a": 0})]),
        (1, [Event({"a": 0})]),
    ],
    retention=None,
    flaky_failures=2,
)
def test_publish_batch_equals_the_per_event_loop(
    plain, formulas, steps, retention, flaky_failures
):
    """Twin brokers, one fed whole batches, one fed event by event.

    With a healthy engine they stay indistinguishable: results (the
    quarantining engine's per-event ``PartialResults``), notifier and
    push-channel output order, counters, in-flight leases and the WAL,
    record for record — across TTL expiry landing exactly on a batch
    boundary, formula collapse and retention with a late retro-matched
    subscriber.

    With a flaky shard the unit of failure is the probe — one call into
    one shard — so a failing call costs the batched twin a whole
    sub-batch and the looped twin one event, and the two legitimately
    degrade different rows.  What must still hold, against a third,
    never-failing twin as the oracle: a complete row equals the
    oracle's, a degraded row is a subset of it, each twin delivers
    exactly what it matched, and once the faults are spent and the
    cool-down has passed the same batch is complete and equal on both.

    "Equals" is list equality — ids concatenate in ascending shard
    order — except while a twin's matcher holds overflow: a
    subscription added while its home shard was quarantined lives on
    another shard and merges from there, so such a twin's complete rows
    carry the oracle's ids in another order (``docs/resilience.md``).
    """
    with tempfile.TemporaryDirectory() as tmp:
        args = (plain, formulas, retention)
        batched = _Twin(tmp, "batch.wal", *args, flaky_failures)
        looped = _Twin(tmp, "loop.wal", *args, flaky_failures)
        oracle = _Twin(tmp, "oracle.wal", *args, 0)
        twins = (batched, looped, oracle)

        def publish_all(batch):
            return (
                batched.observe(batched.broker.publish_batch(batch)),
                looped.observe([looped.broker.publish(e) for e in batch]),
                oracle.observe(oracle.broker.publish_batch(batch)),
            )

        try:
            for k, (advance, batch) in enumerate(steps):
                for twin in twins:
                    twin.clock.advance(advance)
                    if k == 1:  # retro-matches whatever step 0 retained
                        twin.broker.subscribe(Subscription("late", [ge("a", 0)]), ttl=3)
                retro = [
                    [(n.sub_id, n.event, n.timestamp) for n in twin.inbox.drain()]
                    for twin in twins
                ]
                assert retro[0] == retro[1] == retro[2]
                pushed_before = [len(twin.pushed) for twin in twins]
                got, want, truth = publish_all(batch)
                if not flaky_failures:
                    assert got == want == truth
                for twin, seen, before in zip(twins, (got, want, truth), pushed_before):
                    _delivered_equals_matched(twin, seen, batch, before)
                    displaced = any(twin.matcher.stats()["overflow_per_shard"])
                    for (kind, ids, degraded, failed_shards), full in zip(seen[0], truth[0]):
                        assert kind is PartialResults
                        assert degraded == bool(failed_shards)
                        if degraded:
                            assert set(ids) <= set(full[1])
                        elif displaced:
                            assert sorted(ids) == sorted(full[1])
                        else:
                            assert ids == full[1]
            if flaky_failures:
                for twin in twins:
                    twin.flaky.rearm(0)
                    twin.clock.advance(4.0)  # the breaker's reset_timeout
                got, want, truth = publish_all(steps[-1][1])
                assert got[0] == want[0] == truth[0]
                assert not any(degraded for _k, _ids, degraded, _f in got[0])
        finally:
            records = [twin.close() for twin in twins]
        if not flaky_failures:
            assert records[0] == records[1] == records[2]
