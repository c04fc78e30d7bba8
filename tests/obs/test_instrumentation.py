"""Engines actually record into an attached registry/tracer.

Covers the two-phase instrumentation (counts agree with the engines'
own bookkeeping counters), the static/dynamic engine extras, the
sharded fan-out families, and the batch server's queue/latency metrics.
"""

from __future__ import annotations

import random

import pytest

from repro.matchers import DynamicMatcher, StaticMatcher
from repro.obs import MetricsRegistry, Tracer
from repro.system.server import BatchServer
from repro.system.sharding import ShardedMatcher

from tests.conftest import make_event, make_subscription


def _workload(n_subs=40, n_events=15, seed=3):
    rng = random.Random(seed)
    subs = [make_subscription(rng, f"s{i}") for i in range(n_subs)]
    events = [make_event(rng) for _ in range(n_events)]
    return subs, events


def _child_value(registry, name, **labels):
    return registry.family(name).labels(**labels).value


class TestTwoPhaseMetrics:
    def test_registry_mirrors_engine_counters(self):
        subs, events = _workload()
        matcher = DynamicMatcher()
        registry = matcher.use_metrics()
        for sub in subs:
            matcher.add(sub)
        for event in events:
            matcher.match(event)
        labels = {"engine": "dynamic", "shard": ""}
        assert _child_value(registry, "repro_events_total", **labels) == len(events)
        assert (
            _child_value(registry, "repro_predicates_satisfied_total", **labels)
            == matcher.counters["predicates_satisfied"]
        )
        assert (
            _child_value(registry, "repro_subscription_checks_total", **labels)
            == matcher.counters["subscription_checks"]
        )
        assert _child_value(registry, "repro_subscriptions", **labels) == len(subs)

    def test_subscriptions_gauge_tracks_removal(self):
        subs, _ = _workload()
        matcher = DynamicMatcher()
        registry = matcher.use_metrics()
        for sub in subs:
            matcher.add(sub)
        matcher.remove(subs[0].id)
        assert (
            _child_value(
                registry, "repro_subscriptions", engine="dynamic", shard=""
            )
            == len(subs) - 1
        )

    def test_phase_histograms_record_per_event(self):
        subs, events = _workload()
        matcher = DynamicMatcher()
        registry = matcher.use_metrics()
        for sub in subs:
            matcher.add(sub)
        for event in events:
            matcher.match(event)
        fam = registry.family("repro_match_phase_seconds")
        for phase in ("predicate", "subscription"):
            child = fam.labels(engine="dynamic", shard="", phase=phase)
            assert child.count == len(events)
            assert child.sum > 0.0

    def test_match_results_unchanged_by_instrumentation(self):
        subs, events = _workload()
        plain = DynamicMatcher()
        instrumented = DynamicMatcher()
        instrumented.use_metrics()
        instrumented.use_tracer(Tracer())
        for sub in subs:
            plain.add(sub)
            instrumented.add(sub)
        for event in events:
            assert sorted(plain.match(event), key=str) == sorted(
                instrumented.match(event), key=str
            )


class TestRegistryReadsTheOwner:
    """A registry attached to a component that already holds state reads
    that state: gauges and mirrored counters are read from their owner
    when exported, as lifetime values, not copied in at the next
    mutation."""

    @pytest.mark.parametrize("engine", ["dynamic", "counting"])
    def test_subscriptions_gauge_attached_after_loading(self, engine):
        from repro.matchers import make_matcher

        subs, events = _workload(n_subs=10)
        matcher = make_matcher(engine)
        for sub in subs:
            matcher.add(sub)
        matcher.match_batch(events)
        registry = matcher.use_metrics()
        labels = {"engine": engine, "shard": ""}
        assert _child_value(registry, "repro_subscriptions", **labels) == len(matcher) == 10
        assert _child_value(registry, "repro_events_total", **labels) == len(events)

    def test_wal_lag_gauge_attached_after_appends(self, tmp_path):
        from repro.system.wal import WriteAheadLog

        wal = WriteAheadLog(tmp_path / "w.wal", fsync="never")
        for _ in range(5):
            wal.append_anchor()
        registry = MetricsRegistry()
        wal.use_metrics(registry)
        lag = registry.family("repro_wal_unsynced_appends").labels()
        assert lag.value == wal.stats()["unsynced_appends"] == 5
        wal.sync()
        assert lag.value == 0
        wal.close()

    def test_plan_gauge_attached_after_rebuild(self):
        from repro.bench.harness import uniform_statistics_for
        from repro.workload.scenarios import paper_workloads

        matcher = StaticMatcher(statistics=uniform_statistics_for(paper_workloads(0.001)["W0"]))
        for sub in _workload()[0]:
            matcher.add(sub)
        plan = matcher.rebuild()
        registry = matcher.use_metrics()
        labels = {"engine": "static", "shard": ""}
        assert _child_value(registry, "repro_static_plan_schemas", **labels) == len(
            plan.schemas
        ) > 0

    def test_attaching_twice_counts_once(self):
        subs, events = _workload()
        matcher = DynamicMatcher()
        registry = MetricsRegistry()
        matcher.use_metrics(registry)
        for sub in subs:
            matcher.add(sub)
        matcher.use_metrics(registry)
        for event in events:
            matcher.match(event)
        labels = {"engine": "dynamic", "shard": ""}
        assert _child_value(registry, "repro_events_total", **labels) == len(events)
        assert (
            _child_value(registry, "repro_subscription_checks_total", **labels)
            == matcher.counters["subscription_checks"]
        )
        assert _child_value(registry, "repro_subscriptions", **labels) == len(subs)
        maintenance = registry.family("repro_dynamic_maintenance_total")
        assert {k[-1]: c.value for k, c in maintenance.children()} == matcher.maintenance

    def test_two_owners_on_one_child_sum(self):
        subs, events = _workload()
        first, second = DynamicMatcher(), DynamicMatcher()
        registry = MetricsRegistry()
        for matcher in (first, second):
            matcher.use_metrics(registry)
        for sub in subs:
            first.add(sub)
        for sub in subs[:5]:
            second.add(sub)
        for event in events:
            first.match(event)
        second.match(events[0])
        labels = {"engine": "dynamic", "shard": ""}
        assert _child_value(registry, "repro_subscriptions", **labels) == len(subs) + 5
        assert _child_value(registry, "repro_events_total", **labels) == len(events) + 1


class TestTracerSpans:
    def test_match_span_fields(self):
        subs, events = _workload()
        matcher = DynamicMatcher()
        tracer = matcher.use_tracer(Tracer())
        for sub in subs:
            matcher.add(sub)
        matched = matcher.match(events[0])
        span = tracer.last()
        assert span is not None and span.name == "match"
        assert span.fields["engine"] == "dynamic"
        assert span.fields["matched"] == len(matched)
        assert span.fields["predicate_ns"] >= 0
        assert span.fields["subscription_ns"] >= 0
        assert span.fields["subscriptions_checked"] >= len(matched)
        assert span.fields["clusters_visited"] >= 0

    def test_table_children_enumerate_probes(self):
        subs, events = _workload()
        matcher = DynamicMatcher()
        tracer = matcher.use_tracer(Tracer())
        for sub in subs:
            matcher.add(sub)
        matcher.match(events[0])
        span = tracer.last()
        probed = [c for c in span.children if c.name in ("table", "universal")]
        # The universal list is not a schema table: only "table" children count.
        tables = [c for c in probed if c.name == "table"]
        assert len(tables) == span.fields["tables_probed"]
        assert (
            sum(c.fields.get("clusters", 0) for c in probed)
            >= span.fields["clusters_visited"]
        )


    @pytest.mark.parametrize(
        "engine", ["dynamic", "static", "counting", "propagation"]
    )
    def test_traced_batch_runs_the_kernel_with_one_span(self, engine):
        # A tracer is no reason to leave the batch path: one kernel run,
        # one ``match_batch`` span carrying the per-event fields summed.
        from repro.bench.harness import matcher_for
        from repro.workload.scenarios import paper_workloads

        spec = paper_workloads(0.001)["W0"]
        subs, events = _workload(n_subs=60, n_events=64)
        plain, traced = matcher_for(engine, spec), matcher_for(engine, spec)
        registry = traced.use_metrics()
        tracer = traced.use_tracer(Tracer(capacity=128))
        for sub in subs:
            plain.add(sub)
            traced.add(sub)
        rows = traced.match_batch(events)
        assert rows == plain.match_batch(events)
        labels = {"engine": traced.name, "shard": ""}
        assert _child_value(registry, "repro_batch_batches_total", **labels) == 1
        fallback = registry.family("repro_batch_fallback_total")
        assert [c.value for _labels, c in fallback.children()] == [0]
        spans = tracer.spans()
        assert [s.name for s in spans] == ["match_batch"]
        fields = spans[0].fields
        assert fields["engine"] == traced.name and fields["events"] == 64
        assert fields["matched"] == sum(map(len, rows))
        assert fields["bits_set"] >= 0 and fields["subscriptions_checked"] >= 0
        assert fields["predicate_ns"] >= 0 and fields["subscription_ns"] >= 0


class TestStaticExtras:
    def test_rebuild_counter_and_plan_gauge(self):
        from repro.bench.harness import uniform_statistics_for
        from repro.workload.scenarios import paper_workloads

        spec = paper_workloads(0.001)["W0"]
        matcher = StaticMatcher(statistics=uniform_statistics_for(spec))
        registry = matcher.use_metrics()
        subs, _ = _workload()
        for sub in subs:
            matcher.add(sub)
        matcher.rebuild()
        matcher.rebuild()
        labels = {"engine": "static", "shard": ""}
        assert _child_value(registry, "repro_static_rebuilds_total", **labels) == 2
        assert _child_value(registry, "repro_static_plan_schemas", **labels) > 0


class TestDynamicExtras:
    def test_maintenance_counters_mirror_dict(self):
        subs, events = _workload(n_subs=80, n_events=30)
        matcher = DynamicMatcher()
        registry = matcher.use_metrics()
        for sub in subs:
            matcher.add(sub)
        for event in events:
            matcher.match(event)
        fam = registry.family("repro_dynamic_maintenance_total")
        mirrored = {
            labels[-1]: child.value for labels, child in fam.children()
        }
        for kind, value in matcher.maintenance.items():
            assert mirrored.get(kind, 0) == value

    def test_threshold_crossing_counters_exist(self):
        subs, events = _workload(n_subs=80, n_events=30)
        matcher = DynamicMatcher()
        registry = matcher.use_metrics()
        for sub in subs:
            matcher.add(sub)
        for event in events:
            matcher.match(event)
        fam = registry.family("repro_dynamic_threshold_crossings_total")
        thresholds = {labels[-1] for labels, _ in fam.children()}
        assert thresholds == {"bm_max", "b_create", "b_delete"}


class TestShardedMetrics:
    def test_fanout_families_and_shard_labels(self):
        subs, events = _workload()
        sm = ShardedMatcher(shards=3, router="roundrobin", inner="dynamic")
        registry = sm.use_metrics()
        for sub in subs:
            sm.add(sub)
        for event in events:
            sm.match(event)
        assert registry.family("repro_sharded_events_total").labels().value == len(
            events
        )
        visits = registry.family("repro_sharded_shard_visits_total")
        per_shard = {labels[0]: child.value for labels, child in visits.children()}
        # Round-robin never prunes: every shard sees every event.
        assert per_shard == {"0": float(len(events)), "1": float(len(events)),
                             "2": float(len(events))} or per_shard == {
            "0": len(events), "1": len(events), "2": len(events)}
        # Inner engines report into the same registry, one series per shard.
        inner_events = registry.family("repro_events_total")
        shards_seen = {labels[1] for labels, _ in inner_events.children()}
        assert shards_seen == {"0", "1", "2"}

    def test_counters_property_matches_registry(self):
        subs, events = _workload()
        sm = ShardedMatcher(shards=2, router="affinity", inner="dynamic")
        for sub in subs:
            sm.add(sub)
        for event in events:
            sm.match(event)
        counters = sm.counters
        assert counters["events"] == len(events)
        assert counters["shard_visits"] + counters["shards_skipped"] == 2 * len(
            events
        )
        assert set(counters) == {
            "events",
            "shard_visits",
            "shards_skipped",
            "fanout_seconds",
            "merge_seconds",
            "degraded_events",
            "quarantine_skips",
            "rerouted_subscriptions",
        }

    def test_fanout_span_children(self):
        subs, events = _workload()
        sm = ShardedMatcher(shards=3, router="roundrobin", inner="dynamic")
        tracer = sm.use_tracer(Tracer())
        for sub in subs:
            sm.add(sub)
        matched = sm.match(events[0])
        fanouts = [s for s in tracer.spans() if s.name == "fanout"]
        assert len(fanouts) == 1
        span = fanouts[0]
        assert span.fields["matched"] == len(matched)
        shard_children = [c for c in span.children if c.name == "shard"]
        assert len(shard_children) == span.fields["candidates"]


class TestServerMetrics:
    def test_batch_families_and_queue_gauge(self):
        rng = random.Random(5)
        registry = MetricsRegistry()
        with BatchServer(DynamicMatcher(), metrics=registry) as server:
            server.submit_subscriptions(
                [make_subscription(rng, f"s{i}") for i in range(12)]
            )
            server.submit_events([make_event(rng) for _ in range(6)])
            server.submit_events([make_event(rng) for _ in range(4)])
        batches = registry.family("repro_server_batches_total")
        assert batches.labels(kind="subscribe").value == 1
        assert batches.labels(kind="publish").value == 2
        items = registry.family("repro_server_items_total")
        assert items.labels(kind="publish").value == 10
        seconds = registry.family("repro_server_batch_seconds")
        assert seconds.labels(kind="publish").count == 2
        # Everything drained: the queue-depth gauge ends at zero.
        assert registry.family("repro_server_queue_depth").labels().value == 0
