"""Covering-forest invariants: placement, demotion, promotion."""

import pytest

from repro.aggregation.forest import CoveringForest
from repro.core.covering import _by_attribute, covers
from repro.core import Subscription, eq, le
from repro.core.simplify import simplify_predicates


def attrs_of(*preds):
    return _by_attribute(simplify_predicates(list(preds)))


class TestInsert:
    def test_first_group_joins_frontier(self):
        f = CoveringForest()
        parent, demoted = f.insert(0, attrs_of(eq("x", 1)))
        assert parent is None and demoted == []
        assert f.is_frontier(0) and f.frontier_size == 1

    def test_covered_newcomer_attaches(self):
        f = CoveringForest()
        f.insert(0, attrs_of(le("p", 100)))
        parent, demoted = f.insert(1, attrs_of(le("p", 50)))
        assert parent == 0 and demoted == []
        assert not f.is_frontier(1) and f.parent(1) == 0
        assert f.children(0) == (1,)
        assert f.frontier_size == 1

    def test_broad_newcomer_demotes_frontier(self):
        f = CoveringForest()
        f.insert(0, attrs_of(le("p", 50)))
        parent, demoted = f.insert(1, attrs_of(le("p", 100)))
        assert parent is None and demoted == [0]
        assert f.is_frontier(1) and not f.is_frontier(0)
        assert f.children(1) == (0,)
        assert f.frontier_size == 1

    def test_demotion_reparents_grandchildren(self):
        f = CoveringForest()
        f.insert(0, attrs_of(le("p", 50)))
        f.insert(1, attrs_of(le("p", 30)))  # child of 0
        f.insert(2, attrs_of(le("p", 100)))  # demotes 0; 1 re-parents to 2
        assert f.parent(0) == 2 and f.parent(1) == 2
        assert set(f.children(2)) == {0, 1}
        assert f.frontier_size == 1  # flat: depth never exceeds 2

    def test_incomparable_groups_coexist_on_frontier(self):
        f = CoveringForest()
        f.insert(0, attrs_of(eq("x", 1)))
        f.insert(1, attrs_of(eq("y", 1)))
        assert f.frontier_size == 2

    def test_duplicate_gid_rejected(self):
        f = CoveringForest()
        f.insert(0, attrs_of(eq("x", 1)))
        with pytest.raises(KeyError):
            f.insert(0, attrs_of(eq("x", 2)))


class TestRemove:
    def test_remove_covered_group_touches_nothing(self):
        f = CoveringForest()
        f.insert(0, attrs_of(le("p", 100)))
        f.insert(1, attrs_of(le("p", 50)))
        promoted, demoted = f.remove(1)
        assert promoted == [] and demoted == []
        assert f.frontier_size == 1 and 1 not in f

    def test_remove_root_promotes_orphan(self):
        f = CoveringForest()
        f.insert(0, attrs_of(le("p", 100)))
        f.insert(1, attrs_of(le("p", 50)))
        promoted, demoted = f.remove(0)
        assert promoted == [1] and demoted == []
        assert f.is_frontier(1) and f.frontier_size == 1

    def test_remove_root_rehomes_under_other_coverer(self):
        f = CoveringForest()
        f.insert(0, attrs_of(le("p", 100)))
        f.insert(1, attrs_of(le("p", 90)))  # covered by 0
        f.insert(2, attrs_of(le("p", 50)))  # covered by 0
        promoted, demoted = f.remove(0)
        # 1 promotes first (deterministic order), then 2 attaches under it.
        assert promoted == [1] and demoted == []
        assert f.parent(2) == 1

    def test_promotion_cascade_nets_out(self):
        # Root covers both orphans; the wider orphan promotes and the
        # narrower one attaches beneath it, whichever order they are
        # processed in — net: exactly one promotion, nothing demoted
        # that was promoted in the same removal.
        f = CoveringForest()
        f.insert(0, attrs_of(le("p", 100)))
        f.insert(1, attrs_of(le("p", 10)))
        f.insert(2, attrs_of(le("p", 90)))
        promoted, demoted = f.remove(0)
        assert set(promoted) and not (set(promoted) & set(demoted))
        assert f.frontier_size == 1
        root = promoted[-1] if len(promoted) == 1 else None
        # Whatever the processing order, the surviving frontier root
        # semantically covers the attached child.
        roots = f.frontier()
        assert len(roots) == 1
        child = [g for g in (1, 2) if g != roots[0]][0]
        assert f.parent(child) == roots[0]

    def test_parent_always_semantically_covers_child(self):
        # Build a chain, force re-parenting, and verify the semantic
        # (not merely provable) invariant with covers() directly.
        specs = {
            0: [le("p", 50)],
            1: [le("p", 30)],
            2: [le("p", 100)],
            3: [le("p", 80)],
        }
        f = CoveringForest()
        for gid, preds in specs.items():
            f.insert(gid, attrs_of(*preds))
        f.remove(2)  # the broadest root dies; everyone re-homes
        f.check_invariants()  # the direct edges stay provable, too
        for gid in (0, 1, 3):
            parent = f.parent(gid)
            if parent is not None:
                broad = Subscription(parent, specs[parent])
                narrow = Subscription(gid, specs[gid])
                assert covers(broad, narrow), (parent, gid)
