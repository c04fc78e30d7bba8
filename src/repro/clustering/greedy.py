"""The static greedy clustering optimizer (paper Section 3.2).

Starts from the "natural" clustering — one singleton schema per attribute
that carries equality predicates (those hash structures exist anyway for
the predicate phase) — then repeatedly adds the candidate multi-attribute
schema with the highest positive *benefit per unit space*, until the
space bound is hit or no candidate helps.

The search works on :class:`SignatureGroup` aggregates (subscriptions
sharing equality-attribute set and size), so each benefit evaluation is
O(#groups), giving the paper's ``|S| · |GA(S)|²`` worst case instead of
per-subscription enumeration.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.clustering.hashconfig import Schema, normalize_schema
from repro.clustering.cost import CostModel, SignatureGroup, group_signatures
from repro.clustering.statistics import Statistics, UniformStatistics
from repro.core.types import Subscription


def candidate_schemas(
    eq_attribute_sets: Iterable[frozenset],
    max_schema_size: int = 3,
) -> List[Schema]:
    """``GA(S)``: attribute groups derivable from the subscriptions.

    All non-empty subsets (up to *max_schema_size*) of every occurring
    equality-attribute set.  Bounded by ``2^|A|`` as in the paper; the
    size cap keeps hash keys small, matching the paper's observation that
    maximal conjunctions are not automatically best.
    """
    seen = set()
    out: List[Schema] = []
    for attrs in eq_attribute_sets:
        names = sorted(attrs)
        for k in range(1, min(len(names), max_schema_size) + 1):
            for combo in itertools.combinations(names, k):
                if combo not in seen:
                    seen.add(combo)
                    out.append(combo)
    out.sort()
    return out


@dataclasses.dataclass
class ClusteringPlan:
    """Output of the optimizer: chosen schemas plus assignment metadata."""

    schemas: Tuple[Schema, ...]
    #: group -> chosen schema (the best(S, A) witness).
    assignment: Dict[Tuple[frozenset, int], Schema]
    #: estimated per-event matching cost under the plan.
    matching_cost: float
    #: estimated space cost (bytes-equivalent units).
    space_cost: float
    #: statistics provider used when the plan was computed.
    stats: Statistics

    def choose_schema(self, sub: Subscription) -> Optional[Schema]:
        """Best plan schema for one subscription (None if no equality preds).

        Prefers the group assignment computed during optimization; falls
        back to the cheapest eligible schema for signatures unseen at
        planning time.
        """
        eq_attrs = sub.equality_attributes
        if not eq_attrs:
            return None
        key = (eq_attrs, sub.size)
        schema = self.assignment.get(key)
        if schema is not None:
            return schema
        eligible = [s for s in self.schemas if eq_attrs.issuperset(s)]
        if not eligible:
            return None
        return min(
            eligible,
            key=lambda s: (self.stats.expected_nu_schema(s) * (sub.size - len(s) + 1), s),
        )


class GreedyClusteringOptimizer:
    """Computes a locally-optimal hashing-configuration schema set."""

    def __init__(
        self,
        stats: Statistics,
        cost_model: Optional[CostModel] = None,
        max_space: float = math.inf,
        max_schema_size: int = 3,
        domains: Optional[Mapping[str, int]] = None,
        default_domain: int = 35,
    ) -> None:
        self.stats = stats
        self.cost = cost_model if cost_model is not None else CostModel(stats)
        self.max_space = max_space
        self.max_schema_size = max_schema_size
        if domains is None and isinstance(stats, UniformStatistics):
            domains = {}
            default_domain = stats.domain("__default__")
        self.domains = dict(domains or {})
        self.default_domain = default_domain

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def optimize(self, subscriptions: Iterable[Subscription]) -> ClusteringPlan:
        """Run the greedy loop of Section 3.2 over *subscriptions*."""
        signatures = group_signatures(
            (s.equality_attributes, s.size) for s in subscriptions if s.equality_attributes
        )
        groups = list(signatures.values())
        if not groups:
            return ClusteringPlan((), {}, 0.0, 0.0, self.stats)

        singletons: List[Schema] = sorted(
            {(a,) for g in groups for a in g.eq_attributes}
        )
        candidates = candidate_schemas(
            (g.eq_attributes for g in groups), self.max_schema_size
        )
        chosen: List[Schema] = list(singletons)
        chosen_set = set(chosen)

        # Current best assignment: group -> (schema, per-event check cost).
        best: Dict[SignatureGroup, Tuple[Schema, float]] = {}
        for g in groups:
            schema, cost = self._best_for_group(g, chosen)
            best[g] = (schema, cost)

        space = self._space(best)
        while space < self.max_space:
            pick = self._pick_candidate(groups, best, candidates, chosen_set, space)
            if pick is None:
                break
            schema, improved = pick
            chosen.append(schema)
            chosen_set.add(schema)
            for g, new_cost in improved.items():
                best[g] = (schema, new_cost)
            space = self._space(best)

        assignment = {
            (g.eq_attributes, g.total_predicates): best[g][0] for g in groups
        }
        matching = sum(self.cost.table_overhead(s) for s in chosen) + sum(
            c for (_s, c) in best.values()
        )
        return ClusteringPlan(
            schemas=tuple(sorted(chosen)),
            assignment=assignment,
            matching_cost=matching,
            space_cost=space,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _best_for_group(
        self, group: SignatureGroup, schemas: Iterable[Schema]
    ) -> Tuple[Schema, float]:
        """Cheapest eligible schema for one group (ties break lexically)."""
        best_schema: Optional[Schema] = None
        best_cost = math.inf
        for schema in schemas:
            if not group.eq_attributes.issuperset(schema):
                continue
            c = self.cost.expected_group_check_cost(group, schema)
            if c < best_cost or (c == best_cost and (best_schema is None or schema < best_schema)):
                best_schema, best_cost = schema, c
        if best_schema is None:
            raise AssertionError("group has no eligible singleton schema")
        return best_schema, best_cost

    def _space(self, best: Mapping[SignatureGroup, Tuple[Schema, float]]) -> float:
        assignment = {g: s for g, (s, _c) in best.items()}
        subs_per_schema: Dict[Schema, int] = {}
        for g, schema in assignment.items():
            subs_per_schema[schema] = subs_per_schema.get(schema, 0) + g.count
        entries = {
            schema: self.cost.estimate_entries(
                schema, n, self.domains, self.default_domain
            )
            for schema, n in subs_per_schema.items()
        }
        return self.cost.space_cost(assignment, entries)

    def _pick_candidate(
        self,
        groups: List[SignatureGroup],
        best: Dict[SignatureGroup, Tuple[Schema, float]],
        candidates: List[Schema],
        chosen_set: set,
        current_space: float,
    ) -> Optional[Tuple[Schema, Dict[SignatureGroup, float]]]:
        """Candidate with max positive benefit per unit space, if any."""
        best_pick: Optional[Tuple[Schema, Dict[SignatureGroup, float]]] = None
        best_ratio = 0.0
        for schema in candidates:
            if schema in chosen_set:
                continue
            improved: Dict[SignatureGroup, float] = {}
            check_benefit = 0.0
            for g in groups:
                if not g.eq_attributes.issuperset(schema):
                    continue
                new_cost = self.cost.expected_group_check_cost(g, schema)
                cur_cost = best[g][1]
                if new_cost < cur_cost:
                    improved[g] = new_cost
                    check_benefit += cur_cost - new_cost
            if not improved:
                continue
            benefit = check_benefit - self.cost.table_overhead(schema)
            if benefit <= 0:
                continue
            trial = dict(best)
            for g, c in improved.items():
                trial[g] = (schema, c)
            delta_space = max(0.0, self._space(trial) - current_space)
            ratio = math.inf if delta_space == 0 else benefit / delta_space
            if ratio > best_ratio:
                best_ratio = ratio
                best_pick = (schema, improved)
        if best_pick is None:
            return None
        # Respect the bound: refuse a pick that would blow the budget.
        schema, improved = best_pick
        trial = dict(best)
        for g, c in improved.items():
            trial[g] = (schema, c)
        if self._space(trial) > self.max_space:
            return None
        return best_pick
