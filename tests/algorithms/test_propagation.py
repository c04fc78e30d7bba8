"""Propagation matchers: access-predicate clustering."""

import pytest

from repro.algorithms import ClusterList, PrefetchPropagationMatcher, PropagationMatcher
from repro.core import Event, Subscription, eq, ge, le


class TestAccessSelection:
    def test_default_uses_first_equality(self):
        m = PropagationMatcher()
        m.add(Subscription("s", [le("p", 10), eq("movie", "gd"), eq("city", "nyc")]))
        sizes = m.cluster_list_sizes()
        assert sizes == {("movie", "gd"): 1}

    def test_custom_selector(self):
        m = PropagationMatcher(access_selector=lambda sub, eqs: eqs[-1])
        m.add(Subscription("s", [eq("movie", "gd"), eq("city", "nyc")]))
        assert m.cluster_list_sizes() == {("city", "nyc"): 1}

    def test_no_equality_goes_universal(self):
        m = PropagationMatcher()
        m.add(Subscription("s", [le("p", 10), ge("p", 5)]))
        assert m.cluster_list_sizes() == {}
        assert m.stats()["universal_members"] == 1


class TestMatching:
    @pytest.fixture(params=[PropagationMatcher, PrefetchPropagationMatcher])
    def matcher(self, request):
        m = request.param()
        m.add(Subscription("cheap", [eq("movie", "gd"), le("price", 10)]))
        m.add(Subscription("any", [eq("movie", "gd")]))
        m.add(Subscription("pricey", [eq("movie", "gd"), ge("price", 50)]))
        m.add(Subscription("rangeonly", [le("price", 10)]))  # universal
        return m

    def test_match(self, matcher):
        got = matcher.match(Event({"movie": "gd", "price": 8}))
        assert sorted(got) == ["any", "cheap", "rangeonly"]

    def test_access_predicate_gates_checking(self, matcher):
        # Event without the access value: clustered subs not even checked.
        got = matcher.match(Event({"movie": "other", "price": 8}))
        assert got == ["rangeonly"]

    def test_universal_list_checked_every_event(self, matcher):
        assert matcher.match(Event({"price": 3})) == ["rangeonly"]
        assert matcher.match(Event({"price": 30})) == []

    def test_removal(self, matcher):
        matcher.remove("any")
        matcher.remove("rangeonly")
        got = matcher.match(Event({"movie": "gd", "price": 8}))
        assert got == ["cheap"]

    def test_cluster_list_pruned_on_removal(self):
        m = PropagationMatcher()
        m.add(Subscription("s", [eq("x", 1)]))
        m.remove("s")
        assert m.cluster_list_sizes() == {}

    def test_access_predicate_bits_not_rechecked(self, matcher):
        # "any" has only its access predicate: residual size 0 cluster.
        matcher.match(Event({"movie": "gd"}))
        sizes = matcher.cluster_list_sizes()
        assert sizes[("movie", "gd")] == 3

    def test_stats_names(self):
        assert PropagationMatcher().stats()["name"] == "propagation"
        wp = PrefetchPropagationMatcher()
        assert wp.stats()["name"] == "propagation-wp"
        assert wp.stats()["vectorized"] is True


class TestSharedPredicates:
    def test_same_predicate_same_bit_across_subs(self):
        m = PropagationMatcher()
        m.add(Subscription("a", [eq("x", 1), le("y", 5)]))
        m.add(Subscription("b", [eq("x", 1), le("y", 5)]))
        assert len(m.registry) == 2  # deduplicated
        got = m.match(Event({"x": 1, "y": 3}))
        assert sorted(got) == ["a", "b"]

    def test_bits_freed_after_last_reference(self):
        m = PropagationMatcher()
        m.add(Subscription("a", [eq("x", 1)]))
        m.add(Subscription("b", [eq("x", 1)]))
        m.remove("a")
        assert len(m.registry) == 1
        m.remove("b")
        assert len(m.registry) == 0


class TestHomes:
    """``handle → (Cluster, column)`` is all the engine keeps about placement."""

    def test_the_home_holds_the_id_and_hangs_off_its_access_list(self):
        m = PropagationMatcher()
        m.add(Subscription("s", [eq("a", 1), le("p", 5)]))
        m.add(Subscription("u", [le("p", 5)]))
        s, u = m._subs.handle_of("s"), m._subs.handle_of("u")
        home = m._home[s]
        assert s in home.handles()
        assert home.owner is m._lists[("a", 1)]
        assert home.owner.key == eq("a", 1) and home.size == 1
        assert m._home[u].owner is m._universal
        m.check_invariants()
        homes = m._home._cluster
        homes[s], homes[u] = homes[u], homes[s]
        with pytest.raises(AssertionError, match="home drift"):
            m.check_invariants()

    def test_remove_prunes_the_emptied_list_through_the_home(self):
        m = PropagationMatcher()
        m.add(Subscription("s", [eq("a", 1)]))
        m.add(Subscription("u", [le("p", 5)]))
        m.remove("s")
        m.remove("u")
        assert not any(m._home._cluster) and not m._lists
        m.check_invariants()

    def test_an_empty_list_names_a_key_without_a_repr(self):
        m = PropagationMatcher()
        m._lists[("a", 10**5000)] = ClusterList(eq("a", 10**5000))
        with pytest.raises(AssertionError, match="empty cluster list retained for <tuple>"):
            m.check_invariants()

    def test_a_residual_drift_names_an_id_without_a_repr(self):
        huge = 10**5000
        m = PropagationMatcher()
        m.add(Subscription(huge, [eq("a", 1), le("p", 5)]))
        m.check_invariants()
        m._home[m._subs.handle_of(huge)].size += 1
        with pytest.raises(AssertionError, match=r"residual size drift for <int of \d+ bits>"):
            m.check_invariants()
