"""Placement plumbing shared by the clustered matchers."""

import pytest

from repro.clustering import UniformStatistics
from repro.core import Event, Subscription, eq, le
from repro.core.errors import ClusteringError
from repro.matchers import DynamicMatcher, StaticMatcher
from repro.matchers.clustered import ClusteredMatcher


def matcher():
    return ClusteredMatcher(UniformStatistics(default_domain=10))


class TestPlacement:
    def test_no_tables_means_universal(self):
        m = matcher()
        m.add(Subscription("s", [eq("a", 1)]))
        # base class never creates tables on its own
        assert m.stats()["universal_members"] == 1

    def test_placement_of(self):
        m = matcher()
        m.config.ensure_table(("a",))
        m.add(Subscription("s", [eq("a", 1), le("p", 5)]))
        schema, key, size = m.placement_of("s")
        assert schema == ("a",) and key == (1,) and size == 1

    def test_move_subscription(self):
        m = matcher()
        m.config.ensure_table(("a",))
        m.config.ensure_table(("a", "b"))
        m.add(Subscription("s", [eq("a", 1), eq("b", 2), le("p", 5)]))
        before_schema, _k, _s = m.placement_of("s")
        target = ("a",) if before_schema != ("a",) else ("a", "b")
        m.move_subscription("s", target)
        schema, _key, size = m.placement_of("s")
        assert schema == target
        # moving must not change match results
        assert m.match(Event({"a": 1, "b": 2, "p": 3})) == ["s"]

    def test_move_to_universal(self):
        m = matcher()
        m.config.ensure_table(("a",))
        m.add(Subscription("s", [eq("a", 1)]))
        m.move_subscription("s", None)
        assert m.stats()["universal_members"] == 1
        assert m.match(Event({"a": 1})) == ["s"]

    def test_residual_excludes_access_bits(self):
        m = matcher()
        m.config.ensure_table(("a", "b"))
        m.add(Subscription("s", [eq("a", 1), eq("b", 2), le("p", 5)]))
        _schema, _key, size = m.placement_of("s")
        assert size == 1  # only the range predicate remains

    def test_equality_residuals_before_inequalities(self):
        m = matcher()
        m.config.ensure_table(("a",))
        m.add(Subscription("s", [le("p", 5), eq("a", 1), eq("b", 2)]))
        # residual is [eq(b), le(p)] — the eq bit must come first
        table = m.config.table(("a",))
        lst = table.entry((1,))
        cluster = next(iter(lst.clusters()))
        refs = cluster.refs_matrix[:, 0]
        eq_bit = m.registry.slot(eq("b", 2))
        le_bit = m.registry.slot(le("p", 5))
        assert refs.tolist() == [eq_bit, le_bit]

    def test_table_sizes(self):
        m = matcher()
        m.config.ensure_table(("a",))
        m.add(Subscription("s1", [eq("a", 1)]))
        m.add(Subscription("s2", [eq("a", 2)]))
        assert m.table_sizes() == {("a",): 2}

    def test_displaced_table_missing_raises(self):
        m = matcher()
        m.config.ensure_table(("a",))
        m.add(Subscription("s", [eq("a", 1)]))
        m.config.drop_table(("a",))
        with pytest.raises(ClusteringError):
            m.remove("s")

    def test_failed_place_rolls_back_predicates(self):
        class Exploding(StaticMatcher):
            def _place(self, handle, sub, slots):
                raise RuntimeError("boom")

        m = Exploding(UniformStatistics())
        with pytest.raises(RuntimeError):
            m.add(Subscription("s", [eq("a", 1)]))
        assert len(m.registry) == 0 and len(m) == 0
        m.check_invariants()


    @pytest.mark.parametrize("engine", ["clustered", "dynamic"])
    def test_a_refused_move_leaves_the_subscription_in_place(self, engine):
        """The new key is derived before the subscription leaves its
        home: a schema it lacks an equality predicate for changes
        nothing — the subscription still matches, checks clean and
        can be removed."""
        m = matcher() if engine == "clustered" else DynamicMatcher(UniformStatistics())
        m.add(Subscription("s", [eq("a", 1)]))
        m.config.ensure_table(("b",))
        before = m.placement_of("s")
        with pytest.raises(ClusteringError, match=r"lacks equality predicates on \['b'\]"):
            m.move_subscription("s", ("b",))
        assert m.placement_of("s") == before
        assert m.match(Event({"a": 1})) == ["s"]
        m.check_invariants()
        m.remove("s")
        m.check_invariants()


#: An id with no ``repr`` (past Python's int digit limit).
HUGE = 10**5000
UNNAMED = r"<int of \d+ bits>"


class TestMessagesNameAnyId:
    def test_a_refused_move(self):
        m = matcher()
        m.add(Subscription(HUGE, [eq("a", 1)]))
        with pytest.raises(ClusteringError, match=f"subscription {UNNAMED} lacks"):
            m.move_subscription(HUGE, ("b",))

    def test_a_residual_drift(self):
        m = matcher()
        m.config.ensure_table(("a",))
        m.add(Subscription(HUGE, [eq("a", 1), le("p", 5)]))
        m.check_invariants()
        m._home[m._subs.handle_of(HUGE)].size += 1
        with pytest.raises(AssertionError, match=f"residual drift for {UNNAMED}"):
            m.check_invariants()


class TestHomes:
    """``handle → (Cluster, column)`` is all an engine keeps about placement."""

    def loaded(self):
        m = matcher()
        m.config.ensure_table(("a",))
        m.add(Subscription("s", [eq("a", 1), le("p", 5)]))
        m.add(Subscription("t", [eq("a", 2)]))
        m.add(Subscription("u", [le("p", 5)]))
        return m

    def test_the_home_holds_the_id_and_hangs_off_its_table_entry(self):
        m = self.loaded()
        for sid, schema, key in (("s", ("a",), (1,)), ("t", ("a",), (2,))):
            handle = m._subs.handle_of(sid)
            home = m._home[handle]
            assert handle in home.handles()
            assert home.owner is m.config.table(schema).entry(key)
            assert m.placement_of(sid) == (schema, key, home.size)
        assert m._home[m._subs.handle_of("u")].owner is m._universal
        assert m.placement_of("u") == (None, (), 1)
        m.check_invariants()

    def test_check_invariants_catches_a_home_the_entry_does_not_reach(self):
        m = self.loaded()
        s, t = m._subs.handle_of("s"), m._subs.handle_of("t")
        homes = m._home._cluster
        homes[s], homes[t] = homes[t], homes[s]
        with pytest.raises(AssertionError, match="home drift"):
            m.check_invariants()

    def test_check_invariants_catches_an_entry_filed_under_another_key(self):
        m = self.loaded()
        entries = m.config.table(("a",))._entries
        entries[(1,)], entries[(2,)] = entries[(2,)], entries[(1,)]
        with pytest.raises(AssertionError, match="another key"):
            m.check_invariants()

    def test_remove_leaves_no_home_behind(self):
        m = self.loaded()
        for sid in ("s", "t", "u"):
            m.remove(sid)
        assert not any(m._home._cluster) and m.table_sizes() == {("a",): 0}
        m.check_invariants()
