"""Subscription covering (subsumption)."""

import pytest

from repro.aggregation.forest import CoveringForest
from repro.core import InvalidSubscriptionError, Subscription, eq, ge, gt, le, lt, ne
from repro.core.covering import AttributeIndex, _by_attribute, covers
from repro.core.simplify import simplify_predicates


def sub(sid, *preds):
    return Subscription(sid, list(preds))


class TestCovers:
    def test_reflexive(self):
        s = sub("a", eq("x", 1), le("y", 5))
        assert covers(s, s)

    def test_looser_bound_covers_tighter(self):
        assert covers(sub("b", le("p", 100)), sub("n", le("p", 50)))
        assert not covers(sub("b", le("p", 50)), sub("n", le("p", 100)))

    def test_fewer_attributes_covers_more(self):
        broad = sub("b", eq("movie", "gd"))
        narrow = sub("n", eq("movie", "gd"), le("price", 10))
        assert covers(broad, narrow)
        assert not covers(narrow, broad)

    def test_range_covers_equality_point(self):
        assert covers(sub("b", le("p", 10)), sub("n", eq("p", 7)))
        assert not covers(sub("b", le("p", 10)), sub("n", eq("p", 11)))

    def test_interval_containment(self):
        broad = sub("b", ge("p", 0), le("p", 100))
        narrow = sub("n", ge("p", 10), le("p", 20))
        assert covers(broad, narrow)
        assert not covers(narrow, broad)

    def test_strictness_at_boundary(self):
        assert covers(sub("b", le("p", 10)), sub("n", lt("p", 10)))
        assert not covers(sub("b", lt("p", 10)), sub("n", le("p", 10)))

    def test_ne_covered_by_disjoint_range(self):
        assert covers(sub("b", ne("p", 5)), sub("n", gt("p", 5)))
        assert not covers(sub("b", ne("p", 5)), sub("n", gt("p", 4)))

    def test_different_attributes_incomparable(self):
        assert not covers(sub("b", eq("x", 1)), sub("n", eq("y", 1)))

    def test_unsatisfiable_narrow_vacuously_covered(self):
        impossible = sub("n", eq("x", 1), eq("x", 2))
        assert covers(sub("b", eq("zzz", 9)), impossible)

    def test_unsatisfiable_broad_covers_nothing_satisfiable(self):
        impossible = sub("b", eq("x", 1), eq("x", 2))
        assert not covers(impossible, sub("n", eq("x", 1)))

    def test_redundant_predicates_do_not_confuse(self):
        broad = sub("b", le("p", 100), le("p", 90))
        narrow = sub("n", le("p", 95), le("p", 80))
        assert covers(broad, narrow)

    def test_semantic_soundness_sampled(self, rng):
        """If covers() says yes, no sampled event may contradict it."""
        from tests.conftest import make_event, make_subscription

        pairs = 0
        for i in range(150):
            a = make_subscription(rng, f"a{i}", max_preds=3)
            b = make_subscription(rng, f"b{i}", max_preds=3)
            if covers(a, b):
                pairs += 1
                for _ in range(30):
                    e = make_event(rng)
                    if b.is_satisfied_by(e):
                        assert a.is_satisfied_by(e), (a, b, e)


def forest_of(*subs):
    """A covering forest holding *subs*, inserted in order."""
    forest = CoveringForest()
    for s in subs:
        forest.insert(s.id, _by_attribute(simplify_predicates(s.predicates)))
    return forest


class TestRemoveLifecycle:
    """Removing a coverer reports what it left uncovered.

    The covering forest (the one covering structure) keeps the minimal
    forwarding set as its frontier; ``remove`` returns the orphans it
    had to promote onto it, so a routing layer learns which covered
    subscriptions a departure exposed.
    """

    def test_removing_coverer_reports_uncovered(self):
        forest = forest_of(sub("broad", le("p", 100)), sub("narrow", le("p", 50)))
        assert forest.remove("broad") == (["narrow"], [])
        assert forest.frontier() == ["narrow"]

    def test_backup_coverer_keeps_sub_covered(self):
        forest = forest_of(
            sub("broad1", le("p", 100)),
            sub("broad2", le("p", 90)),
            sub("narrow", le("p", 50)),
        )
        # narrow re-homes under broad2; broad2 itself (covered only by
        # the departing broad1) is what surfaces.
        assert forest.remove("broad1") == (["broad2"], [])
        assert forest.parent("narrow") == "broad2"
        assert forest.remove("broad2") == (["narrow"], [])

    def test_removing_covered_sub_uncovers_nothing(self):
        forest = forest_of(sub("broad", le("p", 100)), sub("narrow", le("p", 50)))
        assert forest.remove("narrow") == ([], [])

    def test_removing_unrelated_sub_uncovers_nothing(self):
        forest = forest_of(sub("a", eq("x", 1)), sub("b", eq("y", 1)))
        assert forest.remove("a") == ([], [])

    def test_multiple_newly_uncovered(self):
        forest = forest_of(
            sub("broad", le("p", 100)), sub("n1", le("p", 50)), sub("n2", eq("q", 1))
        )
        assert forest.remove("broad") == (["n1"], [])  # n2 was never covered
        forest.insert("wide", _by_attribute(simplify_predicates([le("p", 80), ge("p", 0)])))
        assert forest.remove("n1") == ([], [])  # wide is incomparable, nothing exposed

    def test_unsatisfiable_subs_never_reported_uncovered(self):
        never = sub("never", eq("p", 1), eq("p", 2))
        assert covers(sub("broad", le("p", 100)), never)  # vacuously, forever
        # It has no canonical form, so it never joins the forest.
        with pytest.raises(InvalidSubscriptionError):
            simplify_predicates(never.predicates)
        assert forest_of(sub("broad", le("p", 100))).remove("broad") == ([], [])

    def test_add_remove_symmetry(self):
        """What an insert demotes, removing the coverer promotes back."""
        forest = forest_of(sub("n1", le("p", 50)), sub("n2", le("p", 40)))
        parent, demoted = forest.insert("broad", _by_attribute(simplify_predicates([le("p", 100)])))
        assert parent is None and demoted == ["n1"]  # n2 rides along under it
        assert forest.parent("n2") == "broad"
        # n2 stays covered by n1 (p<=50 covers p<=40); only n1 surfaces.
        assert forest.remove("broad") == (["n1"], [])
        assert forest.parent("n2") == "n1"


class TestAttributeIndex:
    def test_subset_and_superset_candidates(self):
        ai = AttributeIndex()
        ai.add("xy", ["x", "y"])
        ai.add("x", ["x"])
        ai.add("xyz", ["x", "y", "z"])
        assert sorted(ai.subset_candidates(["x", "y"])) == ["x", "xy"]
        assert sorted(ai.superset_candidates(["x", "y"])) == ["xy", "xyz"]
        assert sorted(ai.subset_candidates(["x"])) == ["x"]
        assert sorted(ai.superset_candidates(["z"])) == ["xyz"]

    def test_remove_purges_postings(self):
        ai = AttributeIndex()
        ai.add("a", ["x", "y"])
        ai.remove("a")
        assert len(ai) == 0 and "a" not in ai
        assert ai.subset_candidates(["x", "y"]) == []
        assert ai.superset_candidates(["x"]) == []

    def test_duplicate_key_rejected(self):
        ai = AttributeIndex()
        ai.add("a", ["x"])
        with pytest.raises(KeyError):
            ai.add("a", ["y"])

    def test_empty_signature_rejected(self):
        ai = AttributeIndex()
        with pytest.raises(ValueError):
            ai.add("a", [])
