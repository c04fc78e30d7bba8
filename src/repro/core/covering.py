"""Subscription covering (subsumption): ``s1 covers s2`` iff every event
satisfying ``s2`` also satisfies ``s1``.

Covering is the workhorse of content-based *routing* (a broker need not
forward a subscription upstream if a covering one is already
registered) and of portfolio dedup.  The paper doesn't need it for a
single matcher, but any deployment of one grows it immediately; it is a
natural closure of :meth:`Predicate.covers`.

Soundness over completeness: :func:`covers` only answers True when the
implication is provable per attribute (conjunctions decompose
attribute-wise because distinct attributes are independent); incomplete
cases (e.g. ``!=`` nets over finite domains) answer False.

Two building blocks here serve the aggregation layer's covering forest
(:class:`repro.aggregation.forest.CoveringForest`, the one covering
structure), which runs covering checks on every subscribe/unsubscribe
and therefore cannot afford an O(n) pairwise scan:

* :class:`AttributeIndex` — per-attribute postings over attribute
  *signatures*.  A coverer's attribute set must be a subset of the
  covered subscription's (missing attributes admit arbitrary values),
  so candidate coverers/coverees are found by postings intersection
  instead of scanning the whole set.
* :func:`covers_simplified` — the per-attribute implication check over
  predicates that are *already* simplified, so indexes that store
  canonical forms don't re-simplify on every pairwise probe.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Set

from repro.core.errors import InvalidSubscriptionError, id_repr
from repro.core.simplify import simplify_predicates
from repro.core.types import Predicate, Subscription


def _by_attribute(preds: Iterable[Predicate]) -> Dict[str, List[Predicate]]:
    out: Dict[str, List[Predicate]] = {}
    for p in preds:
        out.setdefault(p.attribute, []).append(p)
    return out


def _attribute_covers(broad: List[Predicate], narrow: List[Predicate]) -> bool:
    """Does the conjunction *broad* (one attribute) cover *narrow*?

    Every broad predicate must be implied by the narrow conjunction.
    We prove `narrow ⊨ b` when some single narrow predicate implies b
    (`b.covers(n)`), which after per-attribute simplification (bounds
    merged) is complete for bound-vs-bound and equality cases.
    """
    for b in broad:
        if not any(b.covers(n) for n in narrow):
            return False
    return True


def covers_simplified(
    broad_attrs: Dict[str, List[Predicate]],
    narrow_attrs: Dict[str, List[Predicate]],
) -> bool:
    """:func:`covers` over *already simplified* attribute maps.

    Both arguments are ``_by_attribute``-shaped maps of satisfiable,
    simplified predicate conjunctions (see
    :func:`repro.core.simplify.simplify_predicates`).  Callers that
    cache canonical forms (the aggregation forest) use this to skip
    re-simplification on every candidate probe.
    """
    for attribute, b_preds in broad_attrs.items():
        n_preds = narrow_attrs.get(attribute)
        if n_preds is None:
            return False  # narrow admits events without this attribute
        if not _attribute_covers(b_preds, n_preds):
            return False
    return True


def covers(broad: Subscription, narrow: Subscription) -> bool:
    """True when *broad* provably matches every event *narrow* matches.

    A subscription can only be covered by one whose attribute set is a
    subset of its own (missing attributes admit arbitrary values).
    Unsatisfiable *narrow* subscriptions are covered by everything
    (vacuous truth).
    """
    try:
        narrow_preds = simplify_predicates(narrow.predicates)
    except InvalidSubscriptionError:
        return True  # narrow can never match anything
    try:
        broad_preds = simplify_predicates(broad.predicates)
    except InvalidSubscriptionError:
        return False  # broad never matches, narrow (satisfiable) does
    return covers_simplified(_by_attribute(broad_preds), _by_attribute(narrow_preds))


class AttributeIndex:
    """Per-attribute postings over keyed attribute signatures.

    Supports the two candidate queries covering maintenance needs:

    * :meth:`subset_candidates` — keys whose attribute set is a subset
      of the probe's (the only possible *coverers* of a subscription
      with those attributes);
    * :meth:`superset_candidates` — keys whose attribute set is a
      superset of the probe's (the only possible *coverees*).

    Both are postings intersections, so cost scales with the postings
    touched rather than the population.
    """

    def __init__(self) -> None:
        self._attrs_of: Dict[Any, FrozenSet[str]] = {}
        self._postings: Dict[str, Set[Any]] = {}

    def add(self, key: Any, attributes: Iterable[str]) -> None:
        if key in self._attrs_of:
            raise KeyError(f"duplicate key {id_repr(key)}")
        attrs = frozenset(attributes)
        if not attrs:
            raise ValueError("empty attribute signature")
        self._attrs_of[key] = attrs
        for a in attrs:
            self._postings.setdefault(a, set()).add(key)

    def remove(self, key: Any) -> None:
        attrs = self._attrs_of.pop(key)
        for a in attrs:
            bucket = self._postings[a]
            bucket.discard(key)
            if not bucket:
                del self._postings[a]

    def subset_candidates(self, attributes: Iterable[str]) -> List[Any]:
        """Keys whose attribute set ⊆ *attributes* (candidate coverers)."""
        attrs = frozenset(attributes)
        counts: Dict[Any, int] = {}
        for a in attrs:
            for key in self._postings.get(a, ()):
                counts[key] = counts.get(key, 0) + 1
        return [
            key
            for key, n in counts.items()
            if n == len(self._attrs_of[key])
        ]

    def superset_candidates(self, attributes: Iterable[str]) -> List[Any]:
        """Keys whose attribute set ⊇ *attributes* (candidate coverees)."""
        attrs = list(attributes)
        if not attrs:
            return list(self._attrs_of)
        out = set(self._postings.get(attrs[0], ()))
        for a in attrs[1:]:
            if not out:
                break
            out &= self._postings.get(a, set())
        return list(out)

    def __contains__(self, key: Any) -> bool:
        return key in self._attrs_of

    def __len__(self) -> int:
        return len(self._attrs_of)
