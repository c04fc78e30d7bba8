"""Exhaustive clustering optimization — the §3.2 baseline the greedy
algorithm replaces.

The paper rejects exhaustive search because it examines
``2^(|S|·P̄)`` clustering instances; over *signature groups* (which is
how both our greedy and this module reason) the space collapses to
``2^|GA(S)|`` hashing-configuration schemas × one best assignment each,
which is tractable for small attribute universes.  That makes a ground
truth against which the greedy's local optimum can be measured — the
validation the paper leaves implicit.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.clustering.hashconfig import Schema
from repro.clustering.cost import CostModel, SignatureGroup, group_signatures
from repro.clustering.greedy import ClusteringPlan, candidate_schemas
from repro.clustering.statistics import Statistics, UniformStatistics
from repro.core.types import Subscription


class ExhaustiveClusteringOptimizer:
    """True-optimum search over hashing-configuration schemas.

    Complexity is ``2^(|GA| - |singletons|) · |groups| · |GA|``: every
    subset of the non-singleton candidates is tried on top of the
    mandatory singletons (which exist anyway for the predicate phase).
    Guard rails refuse absurd instances.
    """

    def __init__(
        self,
        stats: Statistics,
        cost_model: Optional[CostModel] = None,
        max_space: float = math.inf,
        max_schema_size: int = 3,
        max_candidates: int = 16,
        domains: Optional[Mapping[str, int]] = None,
        default_domain: int = 35,
    ) -> None:
        self.stats = stats
        self.cost = cost_model if cost_model is not None else CostModel(stats)
        self.max_space = max_space
        self.max_schema_size = max_schema_size
        self.max_candidates = max_candidates
        if domains is None and isinstance(stats, UniformStatistics):
            domains = {}
        self.domains = dict(domains or {})
        self.default_domain = default_domain

    def optimize(self, subscriptions: Iterable[Subscription]) -> ClusteringPlan:
        """Enumerate every configuration; return the cheapest feasible one."""
        signatures = group_signatures(
            (s.equality_attributes, s.size)
            for s in subscriptions
            if s.equality_attributes
        )
        groups = list(signatures.values())
        if not groups:
            return ClusteringPlan((), {}, 0.0, 0.0, self.stats)
        singletons: List[Schema] = sorted({(a,) for g in groups for a in g.eq_attributes})
        multis = [
            s
            for s in candidate_schemas(
                (g.eq_attributes for g in groups), self.max_schema_size
            )
            if len(s) > 1
        ]
        if len(multis) > self.max_candidates:
            raise ValueError(
                f"{len(multis)} candidate schemas exceed the exhaustive "
                f"bound of {self.max_candidates}; use the greedy optimizer"
            )
        best_plan: Optional[Tuple[float, List[Schema], Dict[SignatureGroup, Schema]]] = None
        for k in range(len(multis) + 1):
            for extra in itertools.combinations(multis, k):
                schemas = singletons + list(extra)
                assignment = {
                    g: self._best_for_group(g, schemas) for g in groups
                }
                matching = self.cost.matching_cost(
                    schemas, {g: s for g, (s, _c) in assignment.items()}
                )
                # The singleton-only configuration (k == 0) is always
                # admissible — those structures exist for the predicate
                # phase regardless (same convention as the greedy's A0);
                # the space bound constrains only *additional* tables.
                if k > 0 and self._space(assignment) > self.max_space:
                    continue
                if best_plan is None or matching < best_plan[0]:
                    best_plan = (
                        matching,
                        schemas,
                        {g: s for g, (s, _c) in assignment.items()},
                    )
        assert best_plan is not None
        matching, schemas, assignment = best_plan
        return ClusteringPlan(
            schemas=tuple(sorted(schemas)),
            assignment={
                (g.eq_attributes, g.total_predicates): s
                for g, s in assignment.items()
            },
            matching_cost=matching,
            space_cost=self._space(
                {g: (s, 0.0) for g, s in assignment.items()}
            ),
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    # internals (mirror the greedy's evaluation exactly)
    # ------------------------------------------------------------------
    def _best_for_group(
        self, group: SignatureGroup, schemas: List[Schema]
    ) -> Tuple[Schema, float]:
        best: Optional[Tuple[Schema, float]] = None
        for schema in schemas:
            if not group.eq_attributes.issuperset(schema):
                continue
            c = self.cost.expected_group_check_cost(group, schema)
            if best is None or c < best[1] or (c == best[1] and schema < best[0]):
                best = (schema, c)
        assert best is not None
        return best

    def _space(self, assignment: Dict[SignatureGroup, Tuple[Schema, float]]) -> float:
        plain = {g: s for g, (s, _c) in assignment.items()}
        subs_per_schema: Dict[Schema, int] = {}
        for g, schema in plain.items():
            subs_per_schema[schema] = subs_per_schema.get(schema, 0) + g.count
        entries = {
            schema: self.cost.estimate_entries(
                schema, n, self.domains, self.default_domain
            )
            for schema, n in subs_per_schema.items()
        }
        return self.cost.space_cost(plain, entries)
