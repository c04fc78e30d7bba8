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

Two building blocks here serve the aggregation layer
(:mod:`repro.aggregation`), which runs covering checks on every
subscribe/unsubscribe and therefore cannot afford the O(n) pairwise
scan :class:`CoverageIndex` started with:

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

from typing import Any, Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.core.errors import InvalidSubscriptionError
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
            raise KeyError(f"duplicate key {key!r}")
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


class CoverageIndex:
    """Tracks a set of subscriptions with covering relations.

    ``add`` reports whether the newcomer is *redundant* (covered by a
    live subscription) and which live subscriptions it covers; ``remove``
    reports which live subscriptions the departure left *uncovered* —
    everything a routing layer needs to decide what to forward upstream
    and what to cancel or re-announce.  Candidate pairs are pruned
    through an :class:`AttributeIndex` (a coverer's attributes must be a
    subset of the coveree's), so cost tracks the candidate set rather
    than the population.

    Unsatisfiable subscriptions are vacuously covered by everything and
    can never become uncovered; they are tracked but never reported by
    ``remove``.
    """

    def __init__(self) -> None:
        self._subs: Dict[Any, Subscription] = {}
        self._simplified: Dict[Any, Dict[str, List[Predicate]]] = {}
        self._unsat: Set[Any] = set()
        self._attr_index = AttributeIndex()

    def add(self, sub: Subscription) -> Tuple[bool, List[Any]]:
        """Insert; returns ``(is_redundant, ids_now_covered_by_sub)``."""
        if sub.id in self._subs:
            raise InvalidSubscriptionError(f"duplicate id {sub.id!r}")
        try:
            simplified = _by_attribute(simplify_predicates(sub.predicates))
        except InvalidSubscriptionError:
            simplified = None
        if simplified is None:
            # Unsatisfiable: covered by anything live, covers only the
            # other unsatisfiable entries (vacuously).
            redundant = bool(self._subs)
            newly_covered = sorted(self._unsat, key=str)
            self._subs[sub.id] = sub
            self._unsat.add(sub.id)
            return redundant, newly_covered
        redundant = any(
            self._covers_ids_simplified(cand, simplified)
            for cand in self._attr_index.subset_candidates(simplified)
        )
        newly_covered = [
            sid
            for sid in self._attr_index.superset_candidates(simplified)
            if covers_simplified(simplified, self._simplified[sid])
        ]
        newly_covered.extend(self._unsat)  # vacuously covered by anything
        self._subs[sub.id] = sub
        self._simplified[sub.id] = simplified
        self._attr_index.add(sub.id, simplified)
        return redundant, newly_covered

    def _covers_ids_simplified(
        self, broad_id: Any, narrow_attrs: Dict[str, List[Predicate]]
    ) -> bool:
        return covers_simplified(self._simplified[broad_id], narrow_attrs)

    def remove(self, sub_id: Any) -> Tuple[Subscription, List[Any]]:
        """Remove by id (KeyError when absent).

        Returns ``(subscription, newly_uncovered_ids)``: the live
        subscriptions that were covered by the departing one and are
        covered by no remaining one — the mirror of ``add``'s
        ``newly_covered``, closing the lifecycle so routing layers can
        re-announce what the departure exposed.
        """
        sub = self._subs.pop(sub_id)
        if sub_id in self._unsat:
            # Covered only other unsatisfiable entries, which remain
            # vacuously covered (they can never match anything).
            self._unsat.discard(sub_id)
            return sub, []
        simplified = self._simplified.pop(sub_id)
        self._attr_index.remove(sub_id)
        newly_uncovered = []
        for sid in self._attr_index.superset_candidates(simplified):
            if sid in self._unsat:
                continue
            if not covers_simplified(simplified, self._simplified[sid]):
                continue  # was never covered by the departing sub
            still_covered = any(
                self._covers_ids_simplified(cand, self._simplified[sid])
                for cand in self._attr_index.subset_candidates(self._simplified[sid])
                if cand != sid
            )
            if not still_covered:
                newly_uncovered.append(sid)
        return sub, newly_uncovered

    def covering_set(self) -> List[Subscription]:
        """A minimal forwarding set: subscriptions not covered by others.

        Mutually-covering (equivalent) subscriptions keep their first
        member (insertion order).
        """
        kept: List[Subscription] = []
        for sub in self._subs.values():
            if not any(covers(k, sub) for k in kept):
                kept = [k for k in kept if not covers(sub, k)]
                kept.append(sub)
        return kept

    def __len__(self) -> int:
        return len(self._subs)

    def __contains__(self, sub_id: Any) -> bool:
        return sub_id in self._subs
