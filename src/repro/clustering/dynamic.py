"""Support types for the dynamic clustering algorithm (paper Section 4).

The maintenance algorithm is parameterized by three thresholds — *BMmax*
(cluster benefit margin triggering redistribution), *Bcreate* (potential
hash-table benefit triggering creation) and *Bdelete* (existing table
benefit below which it is dropped) — plus housekeeping knobs this module
bundles in :class:`DynamicParams`.

:class:`PotentialTableTracker` is the paper's ``PH`` bookkeeping: for
each *potential* (not yet created) hash-table schema it accumulates the
benefit ``B(H)`` (≈ number of subscriptions that would move there) and
the set of candidate cluster entries holding those subscriptions, with
per-subscription marks so a subscription is counted at most once.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.clustering.hashconfig import Key, Schema

#: Identity of one cluster-list entry: (table schema, probe key).
EntryId = Tuple[Schema, Key]


@dataclasses.dataclass(frozen=True)
class DynamicParams:
    """Thresholds and housekeeping knobs of the maintenance algorithm.

    Attributes
    ----------
    bm_max:
        *BMmax* — redistribute a cluster entry when its benefit margin
        ``ν(p)·|entry|`` (expected subscription checks per event caused
        by the entry) exceeds this.
    b_create:
        *Bcreate* — create a potential hash table once its accumulated
        benefit (subscriptions that would move) reaches this.
    b_delete:
        *Bdelete* — drop a (non-singleton) table whose benefit ``≈ |H|``
        falls below this, redistributing its members.
    maintenance_interval:
        run the periodic sweep every this many operations (inserts,
        deletes and events all count — "updated periodically after a
        certain number of subscription changes and/or incoming events").
    max_schema_size:
        largest access-predicate schema ever considered.
    min_improvement:
        a move or potential table must cut the subscription's ν by at
        least this factor (new ν ≤ min_improvement · current ν) to count;
        guards against thrashing between near-equal tables.  Applied as a
        log-bucket gap (``round(-ln(min_improvement))``), so the default
        0.15 demands ≈ two factor-e steps — above per-value estimator
        noise, far below the singleton→pair improvement (≈ e^3.5).
    growth_factor:
        an entry already processed is reconsidered only after its benefit
        margin grows by this factor (amortizes repeated handling of an
        entry whose residents cannot improve yet).
    """

    bm_max: float = 4.0
    b_create: int = 64
    b_delete: int = 4
    maintenance_interval: int = 2048
    max_schema_size: int = 3
    min_improvement: float = 0.15
    growth_factor: float = 1.5

    def __post_init__(self) -> None:
        if self.bm_max <= 0:
            raise ValueError("bm_max must be positive")
        if self.b_create < 1 or self.b_delete < 0:
            raise ValueError("creation/deletion thresholds must be non-negative")
        if not 0.0 < self.min_improvement <= 1.0:
            raise ValueError("min_improvement must be in (0, 1]")
        if self.growth_factor < 1.0:
            raise ValueError("growth_factor must be >= 1")


class PotentialTableTracker:
    """Benefit accounting for not-yet-created hash tables."""

    __slots__ = ("_benefit", "_candidates", "_marked", "on_ready")

    def __init__(self) -> None:
        self._benefit: Dict[Schema, int] = {}
        self._candidates: Dict[Schema, Set[EntryId]] = {}
        self._marked: Set[Any] = set()
        #: Observability hook: called once per schema each time
        #: :meth:`ready` reports it past the creation threshold (the
        #: dynamic matcher wires this to a *Bcreate*-crossing counter).
        self.on_ready: Optional[Callable[[Schema], None]] = None

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def is_marked(self, sub_id: Any) -> bool:
        """Has this subscription already contributed benefit?"""
        return sub_id in self._marked

    def note(self, sub_id: Any, schemas: Iterable[Schema], entry: EntryId) -> None:
        """Count one unmarked subscription toward each potential schema."""
        if sub_id in self._marked:
            return
        noted = False
        for schema in schemas:
            self._benefit[schema] = self._benefit.get(schema, 0) + 1
            self._candidates.setdefault(schema, set()).add(entry)
            noted = True
        if noted:
            self._marked.add(sub_id)

    def unmark(self, sub_id: Any) -> None:
        """Forget a subscription's mark (after it moved or was removed)."""
        self._marked.discard(sub_id)

    def reset_votes(self, eq_attributes: frozenset) -> None:
        """Paper's ``B(H) = 1`` on moving a marked subscription.

        A marked subscription that found a home in an *existing* table
        no longer justifies the potential tables it voted for; its votes
        cannot be subtracted individually (we don't record per-sub
        ballots), so — following the paper's pseudocode — every potential
        schema it could have voted for is knocked back to 1.
        """
        for schema in self._benefit:
            if eq_attributes.issuperset(schema):
                self._benefit[schema] = 1

    # ------------------------------------------------------------------
    # harvesting
    # ------------------------------------------------------------------
    def ready(self, b_create: int) -> List[Schema]:
        """Potential schemas whose benefit reached *b_create* (best first)."""
        ready = [s for s, b in self._benefit.items() if b >= b_create]
        ready.sort(key=lambda s: (-self._benefit[s], s))
        if self.on_ready is not None:
            for schema in ready:
                self.on_ready(schema)
        return ready

    def candidates_of(self, schema: Schema) -> Tuple[EntryId, ...]:
        """Candidate cluster entries recorded for *schema*."""
        return tuple(sorted(self._candidates.get(schema, ())))

    def benefit_of(self, schema: Schema) -> int:
        """Accumulated benefit of a potential schema."""
        return self._benefit.get(schema, 0)

    def clear_schema(self, schema: Schema) -> None:
        """Drop a potential schema's accounting (after creation)."""
        self._benefit.pop(schema, None)
        self._candidates.pop(schema, None)

    def reset(self) -> None:
        """Forget everything (used when the whole config is rebuilt)."""
        self._benefit.clear()
        self._candidates.clear()
        self._marked.clear()

    @property
    def potential_count(self) -> int:
        """Number of tracked potential schemas."""
        return len(self._benefit)

    def __repr__(self) -> str:
        top = sorted(self._benefit.items(), key=lambda kv: -kv[1])[:3]
        return f"PotentialTableTracker(potentials={len(self._benefit)}, top={top})"
