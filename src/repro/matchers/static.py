"""The static algorithm: greedy cost-based clustering (paper Section 3).

Usage pattern matching the paper's evaluation:

1. construct with a statistics provider;
2. ``add_all(subscriptions)`` — before a plan exists, subscriptions land
   under singleton schemas (the "natural" clustering);
3. ``rebuild()`` — run the greedy optimizer over the current
   subscriptions and repack everything under the chosen schemas.

``rebuild()`` is the expensive from-scratch reorganization that gives the
static algorithm its high loading time in Figure 3(d); subsequent
``add``/``remove`` calls keep using the frozen plan.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from repro.clustering.hashconfig import Schema
from repro.clustering.cost import CostModel
from repro.clustering.greedy import ClusteringPlan, GreedyClusteringOptimizer
from repro.clustering.statistics import Statistics
from repro.core.types import Subscription
from repro.indexes.ordered import IndexKind
from repro.matchers.clustered import ClusteredMatcher


class StaticMatcher(ClusteredMatcher):
    """Greedy-optimized clustering, frozen between ``rebuild()`` calls."""

    name = "static"

    def __init__(
        self,
        statistics: Statistics,
        cost_model: Optional[CostModel] = None,
        max_space: float = math.inf,
        max_schema_size: int = 3,
        domains: Optional[Mapping[str, int]] = None,
        index_kind: IndexKind = IndexKind.SORTED_ARRAY,
        vectorized: bool = True,
    ) -> None:
        super().__init__(statistics, index_kind, vectorized)
        self._optimizer = GreedyClusteringOptimizer(
            statistics,
            cost_model=cost_model,
            max_space=max_space,
            max_schema_size=max_schema_size,
            domains=domains,
        )
        self.plan: Optional[ClusteringPlan] = None

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _bind_metrics(self) -> None:
        super()._bind_metrics()
        labels = {"engine": self.name, "shard": self.metrics_shard}
        names = ("engine", "shard")
        self._m_rebuilds = self.metrics.counter(
            "repro_static_rebuilds_total",
            "From-scratch greedy reorganizations (the Figure 3(d) loading cost).",
            names,
        ).labels(**labels)
        self.metrics.gauge(
            "repro_static_plan_schemas",
            "Hash-table schemas chosen by the current greedy plan.",
            names,
        ).read(self, lambda: 0 if self.plan is None else len(self.plan.schemas), **labels)

    # ------------------------------------------------------------------
    # schema choice
    # ------------------------------------------------------------------
    def _choose_schema(self, sub: Subscription) -> Optional[Schema]:
        eq_attrs = sub.equality_attributes
        if not eq_attrs:
            return None
        if self.plan is not None:
            schema = self.plan.choose_schema(sub)
            if schema is not None:
                return schema
        # Pre-plan (or plan-ineligible): natural clustering — the cheapest
        # singleton schema by expected ν, creating its table on demand.
        best_attr = min(
            eq_attrs,
            key=lambda a: (self.statistics.expected_nu_schema((a,)), a),
        )
        schema = (best_attr,)
        self.config.ensure_table(schema)
        return schema

    # ------------------------------------------------------------------
    # optimization
    # ------------------------------------------------------------------
    def rebuild(self) -> ClusteringPlan:
        """Run the greedy optimizer and repack every subscription.

        Returns the resulting plan (also stored on :attr:`plan`).
        """
        subs = self.iter_subscriptions()
        plan = self._optimizer.optimize(subs)
        self.plan = plan
        # Pre-create the plan's tables, then repack.
        for schema in plan.schemas:
            self.config.ensure_table(schema)
        for sub in subs:
            target = self._choose_schema(sub)
            if target != self.placement_of(sub.id)[0]:
                self.move_subscription(sub.id, target)
        self._drop_empty_tables()
        if self.metrics.enabled:
            self._m_rebuilds.inc()
        return plan

    def _drop_empty_tables(self) -> None:
        for schema in list(self.config.schemas()):
            table = self.config.table(schema)
            if table is not None and len(table) == 0:
                keep = self.plan is not None and schema in self.plan.schemas
                if not keep:
                    self.config.drop_table(schema)

    def stats(self) -> Dict[str, object]:
        base = super().stats()
        if self.plan is not None:
            base["plan_schemas"] = ["/".join(s) for s in self.plan.schemas]
            base["plan_matching_cost"] = self.plan.matching_cost
        return base
