"""Aggregated state through the durability layer.

The aggregation layer persists nothing of its own: the broker journals
the *raw* subscriptions, so the log, compacted or not, records them and WAL
replay re-adds them through ``AggregatingMatcher.add``, which
deterministically rebuilds the refcounts and the covering forest.  These tests pin that round trip —
including refcounts, frontier size, and differential equality with the
oracle after recovery — plus broker composition on the live path.
"""

import pytest

from repro.aggregation import AggregatingMatcher
from repro.core import Event, Subscription, eq, le
from repro.core.oracle import OracleMatcher
from repro.system import (
    PubSubBroker,
    QueueNotifier,
    VirtualClock,
    WriteAheadLog,
    recover_files,
)
from repro.workload import WorkloadGenerator, w0


def sub(sid, *preds):
    return Subscription(sid, list(preds))


def norm(ids):
    return sorted(ids, key=str)


def agg_broker(clock, wal=None):
    return PubSubBroker(
        matcher=AggregatingMatcher(),
        clock=clock,
        notifier=QueueNotifier(),
        wal=wal,
    )


class TestBrokerComposition:
    def test_publish_expands_through_broker(self):
        broker = agg_broker(VirtualClock())
        broker.subscribe(sub("a", le("p", 100)))
        broker.subscribe(sub("b", le("p", 50)))
        broker.subscribe(sub("c", le("p", 50)))
        assert norm(broker.publish(Event({"p": 10}))) == ["a", "b", "c"]
        assert norm(broker.publish(Event({"p": 70}))) == ["a"]
        broker.unsubscribe("a")
        assert norm(broker.publish(Event({"p": 10}))) == ["b", "c"]
        assert broker.publish(Event({"p": 70})) == []


class TestRecoveryRoundTrip:
    def test_wal_replay_rebuilds_refcounts_and_forest(self, tmp_path):
        wal_path = tmp_path / "agg.wal"
        clock = VirtualClock()
        src = agg_broker(clock, wal=WriteAheadLog(wal_path, fsync="always", clock=clock))
        src.subscribe(sub("dup1", eq("x", 1)))
        src.subscribe(sub("dup2", eq("x", 1)))
        src.subscribe(sub("broad", le("p", 100)))
        src.subscribe(sub("narrow", le("p", 50)))
        src.subscribe(sub("never", eq("y", 1), eq("y", 2)))
        src.unsubscribe("dup1")
        before = src.matcher.stats()
        src.wal.close()

        clock2 = VirtualClock()
        dst = agg_broker(clock2)
        recover_files(dst, wal_path=wal_path)
        after = dst.matcher.stats()
        assert after["subscriptions"] == 4
        assert after["frontier_size"] == before["frontier_size"] == 2
        assert after["groups"] == before["groups"]
        assert after["unsatisfiable_groups"] == 1
        # Refcounts: the surviving duplicate still answers alone.
        assert dst.publish(Event({"x": 1})) == ["dup2"]
        assert norm(dst.publish(Event({"p": 30}))) == ["broad", "narrow"]
        assert dst.publish(Event({"p": 70})) == ["broad"]

    def test_snapshot_plus_wal_tail_differential(self, tmp_path):
        gen = WorkloadGenerator(w0(n_subscriptions=300, seed=21))
        subs = list(gen.subscriptions())
        # Duplicate-heavy population: every third subscription has an
        # exact clone under a different subscriber id.
        subs += [
            Subscription(f"{s.id}-dup", s.predicates) for s in subs[::3]
        ]
        events = list(gen.events(20))
        wal_path = tmp_path / "agg.wal"
        clock = VirtualClock()
        src = agg_broker(clock, wal=WriteAheadLog(wal_path, fsync="always", clock=clock))
        oracle = OracleMatcher()
        for s in subs[:200]:
            src.subscribe(s)
            oracle.add(s)
        src.wal.compact()
        # Post-compaction churn is the log's tail.
        for s in subs[200:]:
            src.subscribe(s)
            oracle.add(s)
        for s in subs[::5]:
            src.unsubscribe(s.id)
            oracle.remove(s.id)
        src.wal.close()

        dst = agg_broker(VirtualClock())
        recover_files(dst, wal_path=wal_path)
        assert len(dst.matcher) == len(oracle)
        # The recovered frontier must still be an aggregation: the
        # W0 population has heavy canonical-key collisions.
        assert dst.matcher.frontier_size < len(dst.matcher)
        for e in events:
            assert norm(dst.publish(e)) == norm(oracle.match(e))

    def test_recovered_churn_still_promotes(self, tmp_path):
        """Covering state rebuilt by replay behaves under further churn."""
        wal_path = tmp_path / "agg.wal"
        clock = VirtualClock()
        src = agg_broker(clock, wal=WriteAheadLog(wal_path, fsync="always", clock=clock))
        src.subscribe(sub("broad", le("p", 100)))
        src.subscribe(sub("narrow", le("p", 50)))
        src.wal.close()

        dst = agg_broker(VirtualClock())
        recover_files(dst, wal_path=wal_path)
        dst.unsubscribe("broad")
        assert dst.matcher.frontier_size == 1
        assert dst.publish(Event({"p": 30})) == ["narrow"]
        assert dst.publish(Event({"p": 70})) == []
