"""The test-network matching technique (paper Section 5, related work).

The second family of matching algorithms the paper discusses compiles
subscriptions into a *test network* à la A-TREAT / Gryphon: internal
nodes test one predicate, edges lead to follow-up tests, and leaves
hold subscription references.  An event enters at the root and flows
down every edge whose test it satisfies; subscriptions at reached
leaves match.

We implement the single-leaf variant (Aguilera et al., used in
Gryphon): each subscription appears at exactly one leaf, so an event
generally follows several paths.  Nodes branch on one attribute at a
time, in a canonical (sorted-attribute) order; each node has:

* result edges keyed by equality value (hash jump),
* a list of (range/≠ predicate, child) edges, tested sequentially,
* a "don't care" edge for subscriptions without a predicate on the
  attribute — which an event must *always* follow, the main source of
  path fan-out.

The paper's critique of this family — poor locality, larger memory,
expensive maintenance under churn — is what
``benchmarks/bench_testnetwork.py`` quantifies against the clustered
algorithms.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.errors import DuplicateSubscriptionError, UnknownSubscriptionError
from repro.core.matcher import Matcher
from repro.core.types import Event, Operator, Predicate, Subscription, Value


class _Node:
    """One test node: branches on `attribute`, or a leaf when None."""

    __slots__ = ("attribute", "eq_edges", "test_edges", "dont_care", "subs")

    def __init__(self, attribute: Optional[str]) -> None:
        self.attribute = attribute
        # equality value -> child (single hash probe).
        self.eq_edges: Dict[Value, "_Node"] = {}
        # sequentially-tested (predicate, child) pairs for non-eq tests.
        self.test_edges: List[Tuple[Predicate, "_Node"]] = []
        # child for subscriptions with no predicate on this attribute.
        self.dont_care: Optional["_Node"] = None
        # subscriptions terminating here (leaf payload).
        self.subs: Set[Any] = set()

    def is_empty(self) -> bool:
        return (
            not self.subs
            and not self.eq_edges
            and not self.test_edges
            and self.dont_care is None
        )


class TreeMatcher(Matcher):
    """Single-leaf test-network matcher (Gryphon-style baseline)."""

    name = "test-network"

    def __init__(self) -> None:
        self._root = _Node(attribute=None)
        self._subs: Dict[Any, Subscription] = {}
        #: Attributes in canonical test order (grows as new ones appear).
        self._attr_order: List[str] = []
        self._attr_rank: Dict[str, int] = {}
        #: Instrumentation: nodes visited during matching.
        self.nodes_visited = 0

    # ------------------------------------------------------------------
    # canonical attribute order
    # ------------------------------------------------------------------
    def _rank(self, attribute: str) -> int:
        rank = self._attr_rank.get(attribute)
        if rank is None:
            # New attributes append to the order; existing subscriptions
            # simply don't test them (their paths fall through via
            # don't-care edges added lazily at insert time).
            rank = len(self._attr_order)
            self._attr_order.append(attribute)
            self._attr_rank[attribute] = rank
        return rank

    def _ordered_predicates(self, sub: Subscription) -> List[Predicate]:
        for p in sub.predicates:
            self._rank(p.attribute)
        return sorted(
            sub.predicates,
            key=lambda p: (self._attr_rank[p.attribute], p.operator.value, str(p.value)),
        )

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def add(self, subscription: Subscription) -> None:
        if subscription.id in self._subs:
            raise DuplicateSubscriptionError(subscription.id)
        preds = self._ordered_predicates(subscription)
        node = self._root
        for pred in preds:
            node = self._descend_for_insert(node, pred)
        node.subs.add(subscription.id)
        self._subs[subscription.id] = subscription

    def _descend_for_insert(self, node: _Node, pred: Predicate) -> _Node:
        """Walk/extend the network so *node* tests pred's attribute."""
        target_rank = self._attr_rank[pred.attribute]
        while True:
            if node.attribute is None:
                # Leaf reached early: specialize it to test this attribute.
                node.attribute = pred.attribute
                break
            node_rank = self._attr_rank[node.attribute]
            if node_rank == target_rank:
                break
            if node_rank > target_rank:
                # The network tests a *later* attribute here (built by a
                # subscription that skips this one).  Splice a node for
                # the earlier attribute in place: the old node's entire
                # content moves to the don't-care child, which every
                # event follows unconditionally, so existing paths keep
                # their semantics.
                clone = _Node(node.attribute)
                clone.eq_edges = node.eq_edges
                clone.test_edges = node.test_edges
                clone.dont_care = node.dont_care
                clone.subs = node.subs
                node.attribute = pred.attribute
                node.eq_edges = {}
                node.test_edges = []
                node.dont_care = clone
                node.subs = set()
                break
            # Node tests an earlier attribute the subscription doesn't
            # constrain: follow (or create) the don't-care edge.
            if node.dont_care is None:
                node.dont_care = _Node(attribute=None)
            node = node.dont_care
            if node.attribute is None:
                node.attribute = pred.attribute
                break
        # Now node.attribute == pred.attribute; pick the outgoing edge.
        if pred.operator is Operator.EQ:
            child = node.eq_edges.get(pred.value)
            if child is None:
                child = node.eq_edges[pred.value] = _Node(attribute=None)
            return child
        for existing, child in node.test_edges:
            if existing == pred:
                return child
        child = _Node(attribute=None)
        node.test_edges.append((pred, child))
        return child

    # ------------------------------------------------------------------
    # removal (the expensive maintenance the paper criticizes)
    # ------------------------------------------------------------------
    def remove(self, sub_id: Any) -> Subscription:
        sub = self._subs.get(sub_id)
        if sub is None:
            raise UnknownSubscriptionError(sub_id)
        preds = self._ordered_predicates(sub)
        self._remove_path(self._root, preds, 0, sub_id)
        del self._subs[sub_id]
        return sub

    def _remove_path(
        self, node: _Node, preds: List[Predicate], i: int, sub_id: Any
    ) -> bool:
        """Recursively remove; returns True if *node* became empty."""
        if i == len(preds):
            # Splices may have pushed the terminal payload down a chain of
            # don't-care nodes (clone.subs = node.subs); search the chain.
            self._discard_terminal(node, sub_id)
            return node.is_empty()
        pred = preds[i]
        if node.attribute != pred.attribute:
            # Don't-care hop over an attribute this subscription skips.
            child = node.dont_care
            if child is not None and self._remove_path(child, preds, i, sub_id):
                node.dont_care = None
            return node.is_empty()
        if pred.operator is Operator.EQ:
            child = node.eq_edges.get(pred.value)
            if child is not None and self._remove_path(child, preds, i + 1, sub_id):
                del node.eq_edges[pred.value]
        else:
            for k, (existing, child) in enumerate(node.test_edges):
                if existing == pred:
                    if self._remove_path(child, preds, i + 1, sub_id):
                        node.test_edges.pop(k)
                    break
        return node.is_empty()

    def _discard_terminal(self, node: _Node, sub_id: Any) -> None:
        """Discard a terminal membership along the don't-care chain."""
        if sub_id in node.subs:
            node.subs.discard(sub_id)
            return
        child = node.dont_care
        if child is not None:
            self._discard_terminal(child, sub_id)
            if child.is_empty():
                node.dont_care = None

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def match(self, event: Event) -> List[Any]:
        out: List[Any] = []
        stack = [self._root]
        shape, values = event.shape, event.values
        visited = 0
        while stack:
            node = stack.pop()
            visited += 1
            if node.subs:
                out.extend(node.subs)
            attribute = node.attribute
            if attribute is None:
                continue
            # The don't-care edge is followed unconditionally: events may
            # satisfy subscriptions that skip this attribute.
            if node.dont_care is not None:
                stack.append(node.dont_care)
            pos = shape.position(attribute)
            if pos is None:
                continue
            value = values[pos]
            child = node.eq_edges.get(value)
            if child is not None:
                stack.append(child)
            for pred, tchild in node.test_edges:
                if pred.matches(value):
                    stack.append(tchild)
        self.nodes_visited += visited
        return out

    def get(self, sub_id: Any) -> Subscription:
        sub = self._subs.get(sub_id)
        if sub is None:
            raise UnknownSubscriptionError(sub_id)
        return sub

    def iter_subscriptions(self) -> List[Subscription]:
        return list(self._subs.values())

    def __len__(self) -> int:
        return len(self._subs)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Total nodes in the network (the space the paper criticizes)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.eq_edges.values())
            stack.extend(child for _p, child in node.test_edges)
            if node.dont_care is not None:
                stack.append(node.dont_care)
        return count

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base["nodes"] = self.node_count()
        base["nodes_visited"] = self.nodes_visited
        return base
