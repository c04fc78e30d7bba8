"""Shape assertions for the paper's qualitative claims, at test scale.

These use *counted work* (subscription checks, cache-simulator cycles)
rather than wall-clock, so they are stable on any machine.  Wall-clock
reproductions of the figures live in benchmarks/.
"""

import pytest

from repro.bench.harness import load_subscriptions, matcher_for
from repro.bench.experiments.common import materialize
from repro.cache import compare_layouts
from repro.workload.scenarios import w0


@pytest.fixture(scope="module")
def w0_run():
    """20k W0 subscriptions matched by every Figure 3 algorithm."""
    spec = w0(seed=0)
    subs, events = materialize(spec, 20000, 30)
    engines = {}
    for name in ("counting", "propagation", "propagation-wp", "dynamic"):
        m = matcher_for(name, spec)
        load_subscriptions(m, subs)
        for e in events:
            m.match(e)
        engines[name] = m
    return engines


def checks_per_event(matcher):
    c = matcher.counters
    return c["subscription_checks"] / max(1, c["events"])


class TestFigure3aShape:
    """counting ≫ propagation ≫ dynamic in subscriptions touched."""

    def test_counting_touches_most(self, w0_run):
        assert checks_per_event(w0_run["counting"]) > 2 * checks_per_event(
            w0_run["propagation"]
        )

    def test_dynamic_touches_least(self, w0_run):
        assert checks_per_event(w0_run["dynamic"]) < 0.5 * checks_per_event(
            w0_run["propagation"]
        )

    def test_dynamic_created_multi_attribute_tables(self, w0_run):
        schemas = w0_run["dynamic"].config.schemas()
        assert any(len(s) > 1 for s in schemas)

    def test_propagation_variants_touch_identically(self, w0_run):
        # Identical clustering, different kernel: same subscriptions checked.
        assert checks_per_event(w0_run["propagation-wp"]) == checks_per_event(
            w0_run["propagation"]
        )


class TestFigure3aFlatness:
    def test_dynamic_checks_stay_flat_as_population_grows(self):
        spec = w0(seed=1)
        per_event = []
        for n in (2000, 8000):
            subs, events = materialize(spec, n, 20)
            m = matcher_for("dynamic", spec)
            load_subscriptions(m, subs)
            for e in events:
                m.match(e)
            per_event.append(checks_per_event(m))
        # 4× the subscriptions must NOT mean 4× the checks.
        assert per_event[1] < 2.5 * per_event[0]

    def test_propagation_checks_grow_linearly(self):
        spec = w0(seed=1)
        per_event = []
        for n in (2000, 8000):
            subs, events = materialize(spec, n, 20)
            m = matcher_for("propagation", spec)
            load_subscriptions(m, subs)
            for e in events:
                m.match(e)
            per_event.append(checks_per_event(m))
        assert per_event[1] > 3.0 * per_event[0]


class TestCacheShapes:
    """Section 2's claims on the simulator substrate."""

    @pytest.fixture(scope="class")
    def ablation(self):
        return compare_layouts(size=3, count=2048, selectivity=0.25, seed=7)

    def test_prefetch_buys_about_1_5x(self, ablation):
        speedup = ablation["columnar"].cycles / ablation["columnar+prefetch"].cycles
        assert 1.2 < speedup < 2.5

    def test_columnar_beats_rowwise_with_and_without_prefetch(self, ablation):
        assert ablation["columnar"].cycles < ablation["rowwise"].cycles
        assert (
            ablation["columnar+prefetch"].cycles
            < ablation["rowwise+prefetch"].cycles
        )


class TestMemoryShape:
    """Figure 3(c): propagation ≤ counting < dynamic."""

    def test_ordering(self):
        from repro.bench.memory import matcher_memory_bytes

        spec = w0(seed=2)
        subs, _ = materialize(spec, 3000, 0)
        sizes = {}
        for name in ("counting", "propagation", "dynamic"):
            m = matcher_for(name, spec)
            load_subscriptions(m, subs)
            sizes[name] = matcher_memory_bytes(m)
        assert sizes["propagation"] < sizes["dynamic"]


class TestTriggerShape:
    """Section 1.2: per-event trigger cost grows with |S|."""

    def test_linear_growth(self):
        from repro.sqltrigger import TriggerMatcher

        import time

        spec = w0(seed=3)
        per_event = []
        for n in (200, 1600):
            subs, events = materialize(spec, n, 15)
            t = TriggerMatcher(columns=spec.attribute_names)
            load_subscriptions(t, subs)
            # The fastest of several passes over the same events: one
            # pass is short enough for a scheduler hiccup to decide it.
            runs = []
            for _ in range(5):
                start = time.perf_counter()
                for e in events:
                    t.match(e)
                runs.append((time.perf_counter() - start) / len(events))
            per_event.append(min(runs))
        # 8× the triggers should cost several times more per event; the
        # loose factor absorbs scheduler noise under a loaded test run.
        assert per_event[1] > 3.0 * per_event[0]
