"""The metrics registry: instruments, families, snapshots, no-op mode."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    NOOP_REGISTRY,
    NoopRegistry,
    exponential_buckets,
)
from repro.obs.registry import Counter, Gauge, Histogram


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10)
        g.inc(2.5)
        g.dec(0.5)
        assert g.value == 12.0


class TestReaders:
    def test_a_reader_is_asked_when_the_value_is_read(self):
        owner = {"n": 0}
        child = MetricsRegistry().gauge("g").read(owner, lambda: owner["n"])
        owner["n"] = 7
        assert child.value == 7

    def test_rebinding_an_owner_replaces_its_reader_and_owners_add_up(self):
        family = MetricsRegistry().counter("c", "", ("k",))
        first, second = object(), object()
        family.read(first, lambda: 1, k="x")
        family.read(first, lambda: 10, k="x")
        child = family.read(second, lambda: 100, k="x")
        child.inc(1000)
        assert child.value == 1110
        assert family.labels(k="y").value == 0

    def test_the_noop_registry_binds_nothing(self):
        child = NOOP_REGISTRY.counter("c").read(object(), lambda: 1 / 0)
        assert child.value == 0


class TestHistogramBuckets:
    def test_exponential_buckets_shape(self):
        bounds = exponential_buckets(1.0, 2.0, 4)
        assert bounds == (1.0, 2.0, 4.0, 8.0)

    def test_exponential_buckets_validation(self):
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 2.0, 0)

    def test_default_buckets_span_microseconds_to_seconds(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_BUCKETS[-1] > 1.0

    def test_value_exactly_on_boundary_counts_in_that_bucket(self):
        # Prometheus buckets are `le` (inclusive upper bound).
        h = Histogram([1.0, 2.0, 4.0])
        h.observe(2.0)
        assert h.counts == [0, 1, 0, 0]
        assert dict(h.cumulative())[2.0] == 1

    def test_zero_lands_in_first_bucket(self):
        h = Histogram([1.0, 2.0])
        h.observe(0.0)
        assert h.counts[0] == 1

    def test_inf_lands_in_overflow_bucket(self):
        h = Histogram([1.0, 2.0])
        h.observe(math.inf)
        assert h.counts[-1] == 1
        cumulative = h.cumulative()
        assert cumulative[-1] == (math.inf, 1)

    def test_value_above_largest_bound_overflows(self):
        h = Histogram([1.0, 2.0])
        h.observe(100.0)
        assert h.counts == [0, 0, 1]

    def test_explicit_trailing_inf_bound_is_collapsed(self):
        h = Histogram([1.0, math.inf])
        assert h.bounds == (1.0,)
        h.observe(5.0)
        assert h.counts == [0, 1]

    def test_cumulative_is_monotone_and_ends_at_total(self):
        h = Histogram([1.0, 2.0, 4.0])
        for v in (0.5, 1.0, 3.0, 9.0, 2.0):
            h.observe(v)
        cumulative = h.cumulative()
        counts = [c for _, c in cumulative]
        assert counts == sorted(counts)
        assert cumulative[-1][1] == h.count == 5
        assert h.sum == pytest.approx(15.5)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram([2.0, 1.0])


class TestFamily:
    def test_same_labels_return_same_child(self):
        reg = MetricsRegistry()
        fam = reg.counter("f_total", "help.", ("engine",))
        assert fam.labels(engine="x") is fam.labels(engine="x")
        assert fam.labels(engine="x") is not fam.labels(engine="y")

    def test_label_names_enforced(self):
        reg = MetricsRegistry()
        fam = reg.counter("f_total", "help.", ("engine",))
        with pytest.raises(ValueError):
            fam.labels(shard="0")
        with pytest.raises(ValueError):
            fam.labels(engine="x", shard="0")

    def test_label_values_coerced_to_str(self):
        reg = MetricsRegistry()
        fam = reg.gauge("g", "help.", ("shard",))
        assert fam.labels(shard=3) is fam.labels(shard="3")

    def test_unlabeled_family_has_one_child(self):
        reg = MetricsRegistry()
        c = reg.counter("plain_total", "help.").labels()
        c.inc()
        (labels, child), = reg.family("plain_total").children()
        assert labels == ()
        assert child.value == 1


class TestRegistry:
    def test_register_idempotent(self):
        reg = MetricsRegistry()
        first = reg.counter("c_total", "help.", ("engine",))
        again = reg.counter("c_total", "different help ignored.", ("engine",))
        assert first is again

    def test_register_conflicting_kind_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "help.")
        with pytest.raises(ValueError):
            reg.gauge("x_total", "help.")

    def test_register_conflicting_labels_raises(self):
        reg = MetricsRegistry()
        reg.counter("y_total", "help.", ("engine",))
        with pytest.raises(ValueError):
            reg.counter("y_total", "help.", ("engine", "shard"))

    def test_snapshot_is_strict_json(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "help.").labels().inc(3)
        h = reg.histogram("b_seconds", "help.", ("phase",))
        h.labels(phase="predicate").observe(0.5)
        snap = reg.snapshot()
        text = json.dumps(snap, allow_nan=False)
        assert json.loads(text) == snap
        assert snap["version"] == 1
        names = {m["name"] for m in snap["metrics"]}
        assert names == {"a_total", "b_seconds"}

    def test_snapshot_histogram_buckets_cumulative(self):
        reg = MetricsRegistry()
        fam = reg.histogram("h", "help.")
        child = fam.labels()
        child.observe(2e-6)
        child.observe(123.0)
        (metric,) = reg.snapshot()["metrics"]
        (sample,) = metric["samples"]
        assert sample["count"] == 2
        assert sample["buckets"][-1]["le"] == "+Inf"
        assert sample["buckets"][-1]["count"] == 2


class TestNoopRegistry:
    def test_disabled_and_inert(self):
        reg = NoopRegistry()
        assert not reg.enabled
        c = reg.counter("anything", "help.", ("engine",)).labels(engine="x")
        c.inc(100)
        assert c.value == 0
        h = reg.histogram("h", "help.").labels()
        h.observe(1.0)
        assert h.count == 0 and h.sum == 0.0

    def test_singleton_snapshot_is_valid_and_empty(self):
        snap = NOOP_REGISTRY.snapshot()
        assert snap["version"] == 1
        assert snap["metrics"] == []
