"""The aggregating wrapper: dedup + covering forest in front of any engine.

:class:`AggregatingMatcher` canonicalizes every incoming subscription
(:func:`repro.aggregation.canonical.canonicalize`), reference-counts
exact duplicates under their canonical key, and keeps the groups in an
incremental :class:`~repro.aggregation.forest.CoveringForest` so the
inner matcher only ever sees one canonical subscription per *frontier*
group.  ``match`` runs the inner engine over that frontier and expands
each hit back to subscriber ids:

* the hit group's own ids unconditionally (the canonical subscription
  *is* their predicate semantics);
* each covered child group's ids after testing the child's canonical
  predicates against the event — covering is one-directional, so a
  frontier hit only proves the child *may* match.

The wrapper composes like any backend: it registers in
:data:`repro.matchers.MATCHER_FACTORIES` as ``"aggregating"``, accepts
any registered engine (or ready instance) as ``inner=`` — including
``"sharded"``, and conversely serves as a sharded inner — and plugs
into :class:`~repro.system.broker.PubSubBroker` unchanged.  Durability
is recovery-for-free: ``iter_subscriptions`` returns the *raw*
subscriptions, so snapshots and WAL replay re-add them through ``add``,
which deterministically rebuilds the refcounts and the forest.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Union

from repro.aggregation.canonical import CanonicalKey, canonicalize
from repro.aggregation.forest import CoveringForest
from repro.core.covering import _by_attribute
from repro.core.errors import DuplicateSubscriptionError, UnknownSubscriptionError
from repro.core.matcher import Matcher
from repro.core.types import Event, Subscription
from repro.obs.registry import MetricsRegistry
from repro.system.resilience import PartialResults

#: How the inner engine may be specified: a ready instance, a zero-arg
#: factory, or a registered algorithm name.
InnerSpec = Union[str, Matcher, Callable[[], Matcher]]


def _resolve_inner(inner: InnerSpec) -> Matcher:
    if isinstance(inner, Matcher):
        return inner
    if callable(inner):
        return inner()
    # Imported lazily: repro.matchers registers "aggregating" from here.
    from repro.matchers import make_matcher

    return make_matcher(inner)


class _Group:
    """One canonical predicate set and the subscriber ids behind it."""

    __slots__ = ("gid", "key", "canon_sub", "by_attr", "ids")

    def __init__(self, gid, key, canon_sub, by_attr) -> None:
        self.gid = gid
        self.key = key
        #: Canonical Subscription carried by the inner matcher when this
        #: group is on the frontier (None for unsatisfiable groups).
        self.canon_sub = canon_sub
        self.by_attr = by_attr
        #: Ordered set of raw subscriber ids (dict keys, insertion order).
        self.ids: Dict[Any, None] = {}


class AggregatingMatcher(Matcher):
    """Dedup + covering-forest aggregation over any inner matcher."""

    name = "aggregating"

    def __init__(self, inner: InnerSpec = "dynamic") -> None:
        self.inner = _resolve_inner(inner)
        self._subs: Dict[Any, Subscription] = {}
        self._group_of: Dict[Any, _Group] = {}
        self._groups: Dict[CanonicalKey, _Group] = {}
        self._by_gid: Dict[Any, _Group] = {}
        self._forest = CoveringForest()
        self._next_gid = 0
        self._unsat_groups = 0
        # The aggregation layer records a handful of samples per
        # operation, so (like the sharded fan-out) it carries a live
        # registry by default; the inner engine stays no-op until
        # use_metrics propagates a shared registry down.
        self.metrics = MetricsRegistry()
        self._bind_metrics()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _bind_metrics(self) -> None:
        m = self.metrics
        m.gauge(
            "repro_agg_frontier_size",
            "Frontier groups — the matcher-visible |S| after aggregation.",
        ).read(self, lambda: self._forest.frontier_size)
        m.gauge(
            "repro_agg_subscribers",
            "Raw subscriber ids behind the aggregation layer.",
        ).read(self, lambda: len(self._subs))
        self._m_duplicates = m.counter(
            "repro_agg_duplicates_total",
            "Subscriptions absorbed into an existing canonical group.",
        ).labels()
        self._m_covered = m.counter(
            "repro_agg_covered_total",
            "Group attachments below the frontier (covered inserts and "
            "demotions of frontier groups under a broader newcomer).",
        ).labels()
        self._m_expansions = m.counter(
            "repro_agg_expansions_total",
            "Subscriber ids emitted by fan-out expansion of frontier hits.",
        ).labels()

    def inner_matchers(self) -> Sequence[Matcher]:
        return (self.inner,)

    @property
    def counters(self) -> Dict[str, Any]:
        """Cumulative aggregation counters (read from the registry)."""
        return {
            "duplicates": self._m_duplicates.value,
            "covered": self._m_covered.value,
            "expansions": self._m_expansions.value,
        }

    # ------------------------------------------------------------------
    # the Matcher surface
    # ------------------------------------------------------------------
    def add(self, subscription: Subscription) -> None:
        if subscription.id in self._subs:
            raise DuplicateSubscriptionError(subscription.id)
        key, simplified = canonicalize(subscription.predicates)
        group = self._groups.get(key)
        if group is None:
            group = self._new_group(key, simplified)
        else:
            self._m_duplicates.inc()
        group.ids[subscription.id] = None
        self._subs[subscription.id] = subscription
        self._group_of[subscription.id] = group

    def _new_group(self, key: CanonicalKey, simplified) -> _Group:
        """File a new group; a raising inner write leaves no trace."""
        gid = self._next_gid
        if simplified is None:
            # Unsatisfiable: stored (it occupies an id, it can be
            # removed) but never shown to the forest or the inner
            # matcher — it can never match an event.
            group = _Group(gid, key, None, None)
            self._unsat_groups += 1
        else:
            group = _Group(gid, key, Subscription(gid, simplified), _by_attribute(simplified))
            placement = parent, demoted = self._forest.placement(group.by_attr)
            if parent is None:
                self._move_frontier([self._by_gid[d].canon_sub for d in demoted], [group.canon_sub])
            self._forest.insert(gid, group.by_attr, placement)
            self._m_covered.inc(1 if parent is not None else len(demoted))
        self._next_gid += 1
        self._groups[key] = group
        self._by_gid[gid] = group
        return group

    def remove(self, sub_id: Any) -> Subscription:
        group = self._group_of.get(sub_id)
        if group is None:
            raise UnknownSubscriptionError(sub_id)
        if len(group.ids) == 1:
            self._dissolve_group(group)
        del group.ids[sub_id]
        del self._group_of[sub_id]
        return self._subs.pop(sub_id)

    def _dissolve_group(self, group: _Group) -> None:
        """Drop a group; a raising inner write leaves no trace."""
        gid, forest = group.gid, self._forest
        if group.by_attr is None:
            self._unsat_groups -= 1
        elif not forest.is_frontier(gid):
            forest.remove(gid)  # covered: the inner matcher never held it
        else:
            children = set(forest.children(gid))
            promoted, demoted = forest.remove(gid)
            try:
                self._move_frontier(
                    [group.canon_sub, *(self._by_gid[d].canon_sub for d in demoted)],
                    [self._by_gid[p].canon_sub for p in promoted],
                )
            except BaseException:
                forest.restore(gid, group.by_attr, children)
                raise
            self._m_covered.inc(len(demoted))
        del self._groups[group.key]
        del self._by_gid[gid]

    def _move_frontier(self, leaving: List[Subscription], joining: List[Subscription]) -> None:
        """One frontier delta on the inner matcher, whole or not at all:
        *leaving* goes as one batch, then (the ids are distinct) *joining*
        comes as one; if that raises, the ones that left come back."""
        left = self.inner.remove_batch([sub.id for sub in leaving])
        try:
            self.inner.add_batch(joining)
        except BaseException:
            self.inner.add_batch(left)
            raise

    def match(self, event: Event) -> List[Any]:
        return self._expand(self.inner.match(event), event)

    def match_batch(self, events: Sequence[Event]) -> List[List[Any]]:
        hits = self.inner.match_batch(events)
        return [self._expand(h, e) for h, e in zip(hits, events)]

    def _expand(self, hits: List[Any], event: Event) -> List[Any]:
        """Frontier hits (inner group ids) → raw subscriber ids.

        The hit group's ids are emitted unconditionally; covered
        children are tested against the event first (covering is
        one-directional — the parent matching does not imply the child
        does).  Degradation flags from a resilient inner engine
        (:class:`PartialResults`) survive the expansion.
        """
        out: List[Any] = []
        for gid in hits:
            group = self._by_gid[gid]
            out.extend(group.ids)
            for cid in self._forest.children(gid):
                child = self._by_gid[cid]
                if child.canon_sub.is_satisfied_by(event):
                    out.extend(child.ids)
        self._m_expansions.inc(len(out))
        if isinstance(hits, PartialResults):
            return PartialResults(
                out, degraded=hits.degraded, failed_shards=hits.failed_shards
            )
        return out

    # ------------------------------------------------------------------
    # bookkeeping surfaces
    # ------------------------------------------------------------------
    def get(self, sub_id: Any) -> Subscription:
        """Look up a stored raw subscription by id."""
        try:
            return self._subs[sub_id]
        except KeyError:
            raise UnknownSubscriptionError(sub_id) from None

    def iter_subscriptions(self) -> List[Subscription]:
        """The *raw* subscriptions, so durability round-trips rebuild
        the aggregation state by re-adding them through :meth:`add`."""
        return list(self._subs.values())

    def __len__(self) -> int:
        return len(self._subs)

    @property
    def frontier_size(self) -> int:
        """Matcher-visible |S|: groups the inner engine carries."""
        return self._forest.frontier_size

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base["counters"] = self.counters
        base["frontier_size"] = self._forest.frontier_size
        base["groups"] = len(self._groups)
        base["covered_groups"] = (
            len(self._groups) - self._unsat_groups - self._forest.frontier_size
        )
        base["unsatisfiable_groups"] = self._unsat_groups
        base["inner"] = self.inner.stats()
        return base
