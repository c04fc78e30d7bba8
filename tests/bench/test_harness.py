"""The benchmark harness utilities."""

import pytest

from repro.bench import (
    bench_snapshot_path,
    configured_scale,
    format_table,
    format_value,
    load_subscriptions,
    matcher_for,
    measure_batch_matching,
    measure_matching,
    measure_phases,
    uniform_statistics_for,
)
from repro.bench.memory import bytes_per_subscription, deep_sizeof, matcher_memory_bytes
from repro.core import Event, Subscription, eq
from repro.matchers import CountingMatcher, StaticMatcher
from repro.workload import WorkloadGenerator, w0


class TestScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert configured_scale(0.5) == 0.5

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.125")
        assert configured_scale() == 0.125

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "banana")
        with pytest.raises(ValueError):
            configured_scale()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            configured_scale()


class TestMatcherFactory:
    @pytest.mark.parametrize(
        "name", ["counting", "propagation", "propagation-wp", "static", "dynamic"]
    )
    def test_builds_each_algorithm(self, name):
        m = matcher_for(name, w0())
        assert m.name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            matcher_for("quantum", w0())

    def test_uniform_statistics_for_spec(self):
        stats = uniform_statistics_for(w0())
        assert stats.pair_prob("attr00", 1) == pytest.approx(1 / 35)


class TestMeasurement:
    def _population(self):
        gen = WorkloadGenerator(w0(n_subscriptions=50))
        return list(gen.subscriptions()), list(gen.events(10))

    def test_load_subscriptions(self):
        subs, _ = self._population()
        res = load_subscriptions(CountingMatcher(), subs)
        assert res.subscriptions == 50 and res.seconds > 0
        assert res.per_second > 0

    def test_load_calls_rebuild_for_static(self):
        subs, _ = self._population()
        m = StaticMatcher(uniform_statistics_for(w0()))
        load_subscriptions(m, subs)
        assert m.plan is not None

    def test_measure_matching(self):
        subs, events = self._population()
        m = CountingMatcher()
        load_subscriptions(m, subs)
        res = measure_matching(m, events)
        assert res.events == 10
        assert res.events_per_second > 0
        assert res.ms_per_event > 0

    def test_measure_phases_sum_reasonable(self):
        subs, events = self._population()
        m = matcher_for("dynamic", w0())
        load_subscriptions(m, subs)
        split = measure_phases(m, events)
        assert split.events == 10
        assert split.predicate_ms >= 0 and split.subscription_ms >= 0

    def test_phase_split_matches_full_result(self):
        subs, events = self._population()
        m1 = matcher_for("propagation", w0())
        load_subscriptions(m1, subs)
        expected = [sorted(m1.match(e), key=str) for e in events]
        # measure_phases must not corrupt state
        measure_phases(m1, events)
        assert [sorted(m1.match(e), key=str) for e in events] == expected

    def test_bench_snapshot_path_sanitizes(self):
        assert bench_snapshot_path("fig3a") == "./BENCH_FIG3A.json"
        assert bench_snapshot_path("phase-split").endswith("BENCH_PHASE_SPLIT.json")
        with pytest.raises(ValueError):
            bench_snapshot_path("***")


class TestBatchLane:
    def _population(self, n_subs=3000, n_events=512):
        gen = WorkloadGenerator(w0(n_subscriptions=n_subs))
        return list(gen.subscriptions()), list(gen.events(n_events))

    def test_measure_batch_matching_same_totals(self):
        subs, events = self._population(n_subs=300, n_events=60)
        m = matcher_for("propagation", w0())
        load_subscriptions(m, subs)
        scalar = measure_matching(m, events)
        for batch_size in (1, 7, 60, 256):
            batched = measure_batch_matching(m, events, batch_size)
            assert batched.events == scalar.events
            assert batched.total_matches == scalar.total_matches

    def test_measure_batch_matching_rejects_bad_size(self):
        with pytest.raises(ValueError):
            measure_batch_matching(CountingMatcher(), [], 0)

    def test_batch256_at_least_batch1_throughput(self):
        """The amortization claim, cheaply: one 256-event kernel call
        must not be slower than 256 one-event kernel calls."""
        subs, events = self._population()
        m = matcher_for("propagation", w0())
        load_subscriptions(m, subs)
        measure_batch_matching(m, events, 256)  # warm the compiled kernel
        single = max(
            measure_batch_matching(m, events, 1).events_per_second for _ in range(3)
        )
        batched = max(
            measure_batch_matching(m, events, 256).events_per_second
            for _ in range(3)
        )
        assert batched >= single, (
            f"batch-256 throughput {batched:.0f} ev/s fell below "
            f"batch-1 throughput {single:.0f} ev/s"
        )

    def test_batch_lane_snapshot_validates(self, tmp_path):
        import json

        from repro.obs import write_json_snapshot
        from repro.obs.check import validate_file

        subs, events = self._population(n_subs=400, n_events=128)
        m = matcher_for("propagation", w0())
        registry = m.use_metrics()
        load_subscriptions(m, subs)
        res = measure_batch_matching(m, events, 64)
        path = bench_snapshot_path("batch-lane-test", directory=str(tmp_path))
        write_json_snapshot(
            registry,
            path,
            context={"batch_size": 64, "results": {"total": res.total_matches}},
        )
        assert validate_file(path, "schemas/metrics_snapshot.schema.json") == []
        snap = json.loads(open(path).read())
        names = {metric["name"] for metric in snap["metrics"]}
        assert "repro_batch_batches_total" in names
        assert "repro_batch_events_total" in names
        assert "repro_batch_kernel_seconds" in names


class TestMemory:
    def test_deep_sizeof_counts_shared_once(self):
        shared = [1, 2, 3]
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof([shared])

    def test_deep_sizeof_numpy(self):
        import numpy as np

        a = np.zeros(1000, dtype=np.int32)
        assert deep_sizeof(a) >= 4000

    def test_matcher_memory_grows_with_population(self):
        small, big = CountingMatcher(), CountingMatcher()
        gen = WorkloadGenerator(w0(n_subscriptions=200))
        subs = list(gen.subscriptions())
        load_subscriptions(small, subs[:20])
        load_subscriptions(big, subs)
        assert matcher_memory_bytes(big) > matcher_memory_bytes(small)

    def test_bytes_per_subscription(self):
        m = CountingMatcher()
        assert bytes_per_subscription(m) == 0.0
        m.add(Subscription("s", [eq("x", 1)]))
        assert bytes_per_subscription(m) > 0


class TestReporting:
    def test_format_value(self):
        assert format_value(1234567) == "1,234,567"
        assert format_value(0.1234) == "0.123"
        assert format_value(12.34) == "12.3"
        assert format_value(1234.5) == "1,234"
        assert format_value("x") == "x"
        assert format_value(0.0) == "0"

    def test_format_table_alignment(self):
        text = format_table(["name", "v"], [["a", 1], ["bb", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(l) == len(lines[2]) for l in lines[2:])

    def test_print_table_uses_out(self):
        captured = []
        from repro.bench import print_table

        print_table(["a"], [[1]], out=captured.append)
        assert len(captured) == 1 and "1" in captured[0]
