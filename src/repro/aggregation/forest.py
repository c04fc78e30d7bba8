"""The incremental covering forest over canonical subscription groups.

A two-level forest: *frontier* groups (roots, covered by no other live
group) and *covered* groups, each attached to exactly one frontier
parent that provably covers it (:func:`repro.core.covering.covers` over
the groups' canonical predicate forms).  Only frontier groups need to
reach the inner matcher; a frontier hit is expanded by testing its
covered children against the event.

Invariants (:meth:`CoveringForest.check_invariants` asserts them):

* every covered group's parent is a frontier group (depth ≤ 2 — the
  forest is flat by construction, which keeps expansion a single loop
  over the hit group's children);
* every parent *provably* covers each of its children.  Attachment
  always follows a provable ``covers`` edge; re-parenting on demotion
  or root removal follows chains of provable edges, and the
  per-attribute implication behind them is transitive, so the direct
  parent→child edge stays provable.  This is the no-miss guarantee:
  any event matching a covered group also matches its frontier parent,
  so the inner matcher's frontier hits reach every group that could
  match;
* frontier groups are mutually non-covering *for provable coverings
  discovered on insert*: a newcomer that provably covers frontier
  members demotes them under itself.

Candidate discovery goes through
:class:`~repro.core.covering.AttributeIndex` over the frontier only
(a coverer's attribute set must be a subset of the coveree's), so
insertion and removal cost scales with the candidate postings, not the
group population — the reason this can run on every subscribe in front
of a million-subscriber matcher.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.covering import AttributeIndex, covers_simplified
from repro.core.types import Predicate

AttrMap = Dict[str, List[Predicate]]
#: A group's place: ``(covering frontier gid, [])`` or ``(None, the
#: frontier gids it covers)``.
Placement = Tuple[Optional[Any], List[Any]]


class CoveringForest:
    """Flat covering forest over group ids with attribute-pruned upkeep."""

    def __init__(self) -> None:
        self._by_attr: Dict[Any, AttrMap] = {}
        #: gid -> parent gid (frontier groups map to None).
        self._parent: Dict[Any, Optional[Any]] = {}
        #: frontier gid -> covered child gids.
        self._children: Dict[Any, Set[Any]] = {}
        self._frontier = AttributeIndex()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_frontier(self, gid: Any) -> bool:
        return self._parent[gid] is None

    def parent(self, gid: Any) -> Optional[Any]:
        return self._parent[gid]

    def children(self, gid: Any) -> Tuple[Any, ...]:
        return tuple(self._children.get(gid, ()))

    def frontier(self) -> List[Any]:
        return [gid for gid, parent in self._parent.items() if parent is None]

    @property
    def frontier_size(self) -> int:
        return len(self._frontier)

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, gid: Any) -> bool:
        return gid in self._parent

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def placement(self, by_attr: AttrMap) -> Placement:
        """What :meth:`insert` of a group with *by_attr* would return,
        changing nothing, so a caller can act on it first.

        Deterministic: candidates are examined in sorted order so churn
        histories rebuild identically (WAL replay, process respawn).
        """
        for cand in sorted(self._frontier.subset_candidates(by_attr), key=str):
            if covers_simplified(self._by_attr[cand], by_attr):
                return cand, []
        covered = self._frontier.superset_candidates(by_attr)
        return None, sorted(
            (c for c in covered if covers_simplified(by_attr, self._by_attr[c])), key=str
        )

    def insert(self, gid: Any, by_attr: AttrMap, placement: Optional[Placement] = None) -> Placement:
        """Place a new group; returns ``(parent, demoted)``.

        ``parent`` is the covering frontier gid the group was attached
        under, or ``None`` if the group joined the frontier itself —
        in which case ``demoted`` lists the frontier gids the newcomer
        covers, now re-attached (with their children) under it.  A
        *placement* is :meth:`placement`'s answer, taken since nothing
        changed.
        """
        if gid in self._parent:
            raise KeyError(f"duplicate group {gid!r}")
        parent, demoted = self.placement(by_attr) if placement is None else placement
        self._by_attr[gid] = by_attr
        if parent is not None:
            self._attach(gid, parent)
        else:
            self._promote(gid, demoted)
        return parent, demoted

    def remove(self, gid: Any) -> Tuple[List[Any], List[Any]]:
        """Delete a group; returns ``(promoted, demoted)``.

        Removing a covered group touches nothing else.  Removing a
        frontier group orphans its children: each is re-attached under
        another covering frontier group when one exists, otherwise
        *promoted* to the frontier — and a promotion may in turn
        *demote* frontier groups the promoted one covers.  Both lists
        are net of each other (a gid promoted and then demoted within
        the same removal appears in neither), so callers can mirror
        them 1:1 onto the inner matcher as adds/removes of canonical
        subscriptions.
        """
        parent = self._parent.pop(gid)
        self._by_attr.pop(gid)
        if parent is not None:
            self._children[parent].discard(gid)
            return [], []
        self._frontier.remove(gid)
        orphans = sorted(self._children.pop(gid), key=str)
        promoted: List[Any] = []
        demoted: List[Any] = []
        for orphan in orphans:
            coverer, covered = self.placement(self._by_attr[orphan])
            if coverer is not None:
                self._attach(orphan, coverer)
            else:
                self._promote(orphan, covered)
                demoted.extend(covered)
                promoted.append(orphan)
        promoted_set, demoted_set = set(promoted), set(demoted)
        return (
            [p for p in promoted if p not in demoted_set],
            [d for d in demoted if d not in promoted_set],
        )

    def restore(self, gid: Any, by_attr: AttrMap, children: Set[Any]) -> None:
        """Undo :meth:`remove` of the frontier group *gid*: put it back
        with its former *children* under it.  Exact, as frontier groups
        never cover one another: a removal moves only its orphans."""
        for child in children:
            parent = self._parent[child]
            if parent is None:
                self._frontier.remove(child)
                del self._children[child]
            elif parent not in children:
                self._children[parent].discard(child)
            self._parent[child] = gid
        self._by_attr[gid] = by_attr
        self._parent[gid] = None
        self._children[gid] = set(children)
        self._frontier.add(gid, by_attr)

    def check_invariants(self) -> None:
        """Raise AssertionError unless parents and children are inverse
        maps, the frontier index holds exactly the parentless groups and
        every parent provably covers each child.  For tests — O(groups)."""
        assert self._by_attr.keys() == self._parent.keys(), "a group without its form"
        roots = {gid for gid, parent in self._parent.items() if parent is None}
        assert self._children.keys() == roots, "children filed under a covered group"
        edges = [(child, gid) for gid, kids in self._children.items() for child in kids]
        assert len(edges) == len(self._parent) - len(roots) and dict(edges) == {
            g: p for g, p in self._parent.items() if p is not None
        }, "parent and children maps are not inverses"
        assert len(self._frontier) == len(roots) and all(g in self._frontier for g in roots)
        for child, parent in edges:
            assert covers_simplified(self._by_attr[parent], self._by_attr[child]), (child, parent)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _attach(self, gid: Any, parent: Any) -> None:
        """Hang *gid* under the frontier group *parent*."""
        self._parent[gid] = parent
        self._children[parent].add(gid)

    def _promote(self, gid: Any, covered: List[Any]) -> None:
        """Make *gid* a frontier group and demote under it the frontier
        groups it *covered* (from :meth:`placement`)."""
        self._parent[gid] = None
        self._children[gid] = set()
        self._frontier.add(gid, self._by_attr[gid])
        for d in covered:
            self._demote(d, gid)

    def _demote(self, gid: Any, new_parent: Any) -> None:
        """Move frontier *gid* (and its children) under *new_parent*."""
        self._frontier.remove(gid)
        for child in self._children.pop(gid):
            self._attach(child, new_parent)
        self._attach(gid, new_parent)
