"""Closed-form clustering-cost analysis (the math behind Example 3.1).

Models a population of subscription *groups* (each group: an
equality-attribute set and a count), a clustering-instance schema set,
and the paper's uniform-distribution assumptions, and computes hash-table
populations, per-cluster sizes, and the per-event lookup/check cost for
an event mentioning a given attribute set.

Reproduces Example 3.1:  7 M subscriptions over {A, B, C}, 100 values
per attribute.  For clustering ``C1`` (singletons) every table serves
2.333 M subscriptions and each cluster holds 23,333; an A∧B event costs
2 lookups + 46,666 checks.  For ``C2`` (singletons + AB + BC) the
populations are 1.5/1/1.5/1.5/1.5 M and an A∧B event costs 3 lookups +
25,150 checks.

.. note::
   The paper prints the AB/BC cluster size as 1,500 and the C2 check
   count as 26,500; with the stated 100-value domains the pair tables
   have 100² entries, so the arithmetically consistent values are 150
   and 25,150 (the paper's figure appears to divide by 1,000).  The
   qualitative conclusion — C2 beats C1 — is unchanged, and this module
   computes the consistent values.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.clustering.hashconfig import Schema, normalize_schema


@dataclasses.dataclass(frozen=True)
class GroupSpec:
    """One population of subscriptions with equality attrs *attributes*."""

    attributes: frozenset
    count: float

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("group needs at least one attribute")
        if self.count < 0:
            raise ValueError("count must be non-negative")


class AnalyticClustering:
    """Expected populations and costs of one clustering instance.

    Placement policy (the one Example 3.1 narrates): each group is
    distributed uniformly over its eligible schemas of *maximal length*
    — "Subscriptions with AC might be uniformly distributed between A
    and C, and subscriptions with ABC … between AB and BC".
    """

    def __init__(
        self,
        groups: Iterable[GroupSpec],
        schemas: Iterable[Sequence[str]],
        domains: Mapping[str, int],
        default_domain: int = 100,
    ) -> None:
        self.groups = tuple(groups)
        self.schemas: Tuple[Schema, ...] = tuple(
            normalize_schema(s) for s in schemas
        )
        if len(set(self.schemas)) != len(self.schemas):
            raise ValueError("duplicate schemas")
        self.domains = dict(domains)
        self.default_domain = default_domain
        self._populations = self._distribute()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _eligible(self, group: GroupSpec) -> Tuple[Schema, ...]:
        return tuple(
            s for s in self.schemas if group.attributes.issuperset(s)
        )

    def _distribute(self) -> Dict[Schema, float]:
        pops: Dict[Schema, float] = {s: 0.0 for s in self.schemas}
        for group in self.groups:
            eligible = self._eligible(group)
            if not eligible:
                raise ValueError(
                    f"group {sorted(group.attributes)} has no eligible schema"
                )
            longest = max(len(s) for s in eligible)
            targets = [s for s in eligible if len(s) == longest]
            share = group.count / len(targets)
            for s in targets:
                pops[s] += share
        return pops

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    def table_population(self, schema: Sequence[str]) -> float:
        """Subscriptions stored under *schema* (the paper's |H|)."""
        return self._populations[normalize_schema(schema)]

    def combinations(self, schema: Sequence[str]) -> float:
        """Distinct access-predicate value combinations of *schema*."""
        combos = 1.0
        for attr in normalize_schema(schema):
            combos *= self.domains.get(attr, self.default_domain)
        return combos

    def cluster_size(self, schema: Sequence[str]) -> float:
        """Expected subscriptions per hash entry (one cluster list)."""
        return self.table_population(schema) / self.combinations(schema)

    # ------------------------------------------------------------------
    # per-event costs
    # ------------------------------------------------------------------
    def event_cost(self, event_attributes: Iterable[str]) -> Tuple[int, float]:
        """(hash lookups, expected subscription checks) for an event.

        An event mentioning attribute set ``E`` probes every table whose
        schema ⊆ E; each probe lands in one expected cluster.
        """
        attrs = frozenset(event_attributes)
        lookups = 0
        checks = 0.0
        for schema in self.schemas:
            if attrs.issuperset(schema):
                lookups += 1
                checks += self.cluster_size(schema)
        return lookups, checks


def example_31() -> Dict[str, AnalyticClustering]:
    """The exact setup of Example 3.1: both clustering instances."""
    names = ("A", "B", "C")
    groups = []
    subsets = [
        frozenset(s)
        for s in (
            {"A"},
            {"B"},
            {"C"},
            {"A", "B"},
            {"A", "C"},
            {"B", "C"},
            {"A", "B", "C"},
        )
    ]
    for attrs in subsets:
        groups.append(GroupSpec(attrs, 1_000_000))
    domains = {n: 100 for n in names}
    c1 = AnalyticClustering(groups, [("A",), ("B",), ("C",)], domains)
    # Example 3.1's C2 routes AC to {A, C} and ABC to {AB, BC}; with
    # maximal-length placement that is exactly singletons + AB + BC.
    c2 = AnalyticClustering(
        groups, [("A",), ("B",), ("C",), ("A", "B"), ("B", "C")], domains
    )
    return {"C1": c1, "C2": c2}
