"""ν/μ estimators: closed-form and online."""

import pytest

from repro.clustering import EventStatistics, UniformStatistics, nu_of_predicates
from repro.core import Event, eq


class TestUniformStatistics:
    def test_pair_prob_is_attrprob_over_domain(self):
        s = UniformStatistics(domains={"a": 100}, default_domain=35)
        assert s.pair_prob("a", 1) == pytest.approx(1 / 100)
        assert s.pair_prob("other", 1) == pytest.approx(1 / 35)

    def test_attr_prob_defaults_to_one(self):
        s = UniformStatistics()
        assert s.attr_prob("anything") == 1.0

    def test_attr_prob_override(self):
        s = UniformStatistics(attr_probs={"rare": 0.25})
        assert s.attr_prob("rare") == 0.25
        assert s.mu_of_schema(["rare", "common"]) == pytest.approx(0.25)

    def test_nu_of_pairs_multiplies(self):
        s = UniformStatistics(default_domain=10)
        assert s.nu_of_pairs([("a", 1), ("b", 2)]) == pytest.approx(0.01)

    def test_expected_nu_schema(self):
        s = UniformStatistics(default_domain=10)
        assert s.expected_nu_schema(("a", "b")) == pytest.approx(0.01)

    def test_nu_of_predicates_helper(self):
        s = UniformStatistics(default_domain=10)
        assert nu_of_predicates(s, [eq("a", 1), eq("b", 2)]) == pytest.approx(0.01)

    def test_version_is_constant(self):
        s = UniformStatistics({"a": 10})
        before = s.version
        s.pair_prob("a", 1), s.expected_nu_schema(("a",))
        assert s.version == before

    def test_example31_values(self):
        # Example 3.1's setting: 100 values per attribute, always present.
        s = UniformStatistics(domains={"A": 100, "B": 100, "C": 100})
        assert s.expected_nu_schema(("A",)) == pytest.approx(0.01)
        assert s.expected_nu_schema(("A", "B")) == pytest.approx(0.0001)


class TestEventStatisticsPriors:
    def test_prior_before_observations(self):
        s = EventStatistics(prior_domain=35)
        assert s.attr_prob("a") == pytest.approx(1.0)
        assert s.pair_prob("a", 1) == pytest.approx(1 / 35, rel=0.01)

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            EventStatistics(decay=0.0)
        with pytest.raises(ValueError):
            EventStatistics(decay=1.5)


class TestEventStatisticsLearning:
    def test_attr_prob_tracks_presence(self):
        s = EventStatistics(prior_weight=1.0)
        for _ in range(100):
            s.observe(Event({"always": 1}))
        assert s.attr_prob("always") == pytest.approx(1.0, abs=0.02)
        assert s.attr_prob("never") == pytest.approx(0.01, abs=0.02)

    def test_pair_prob_tracks_distribution(self):
        s = EventStatistics(prior_weight=1.0, prior_domain=2)
        for i in range(200):
            s.observe(Event({"a": i % 2}))  # 50/50 over two values
        assert s.pair_prob("a", 0) == pytest.approx(0.5, abs=0.1)

    def test_skew_raises_expected_nu(self):
        uniform = EventStatistics(prior_weight=1.0, prior_domain=35)
        skewed = EventStatistics(prior_weight=1.0, prior_domain=35)
        for i in range(400):
            uniform.observe(Event({"a": i % 35}))
            skewed.observe(Event({"a": i % 2}))
        assert skewed.expected_nu_schema(("a",)) > 5 * uniform.expected_nu_schema(("a",))

    def test_decay_forgets_old_traffic(self):
        s = EventStatistics(prior_weight=0.5, decay=0.5, decay_every=50)
        for _ in range(200):
            s.observe(Event({"a": 1}))
        for _ in range(600):
            s.observe(Event({"a": 2}))
        assert s.pair_prob("a", 2) > 5 * s.pair_prob("a", 1)

    def test_event_weight_decays(self):
        s = EventStatistics(decay=0.5, decay_every=10)
        for _ in range(10):
            s.observe(Event({"a": 1}))
        assert s.event_weight == pytest.approx(5.0)
        assert s.events_observed == 10

    def test_version_moves_on_observe_and_on_decay(self):
        s = EventStatistics(decay=0.5, decay_every=10**9)
        seen = [s.version]
        s.observe(Event({"a": 1}))
        seen.append(s.version)
        s.pair_prob("a", 1), s.expected_nu_schema(("a",))  # reads do not move it
        assert s.version == seen[-1]
        s._apply_decay()
        seen.append(s.version)
        assert len(set(seen)) == 3

    def test_value_distribution_normalized(self):
        s = EventStatistics()
        for i in range(10):
            s.observe(Event({"a": i % 2}))
        dist = s.value_distribution("a")
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist[0] == pytest.approx(0.5)

    def test_value_distribution_empty(self):
        assert EventStatistics().value_distribution("missing") == {}

    def test_mu_of_schema_composes(self):
        s = EventStatistics(prior_weight=1.0)
        for _ in range(50):
            s.observe(Event({"a": 1, "b": 2}))
        assert s.mu_of_schema(("a", "b")) == pytest.approx(1.0, abs=0.05)

    def test_estimates_bounded_by_one(self):
        s = EventStatistics(prior_weight=1.0, prior_domain=1)
        for _ in range(50):
            s.observe(Event({"a": 7}))
        assert 0.0 <= s.pair_prob("a", 7) <= 1.0
        assert 0.0 <= s.expected_nu_schema(("a",)) <= 1.0
