"""The cost model of Section 3: matching cost and space cost.

Implements the simplified matching-cost formula (3.2)::

    matching(S, C, H) =  K_r · |H|
                       + Σ_{H}  μ(H) · (C_h + K_h · |H.A|)
                       + Σ_{s}  ν(C(s).p) · checking(C(s).p, s)

with ``checking(p, s)`` linear in the number of residual predicates, and
the space formula::

    space(S, C, H) = Σ_H (i_space + h_space · entries(H))
                   + K_space · Σ_s |residual refs of s|

The constants are dimensionless "work units"; the paper calibrates them
implicitly through its implementation, we expose them as a dataclass so
ablation benchmarks can sweep them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Mapping, Tuple

from repro.clustering.hashconfig import Schema
from repro.clustering.statistics import Statistics


@dataclasses.dataclass(frozen=True)
class CostConstants:
    """Calibration constants of the cost formulas.

    Attributes
    ----------
    k_retrieve:
        ``K_r`` — per-table cost of finding the relevant indexes.
    c_hash:
        ``C_h`` — fixed cost of one hash-function evaluation.
    k_hash:
        ``K_h`` — per-schema-attribute cost of the hash function.
    c_check:
        fixed cost of touching one subscription column.
    k_check:
        per-residual-predicate cost of checking one subscription.
    i_space:
        bytes to create one empty hash table.
    h_space:
        bytes per hash-table entry (access predicate).
    k_space:
        bytes per stored residual bit reference.
    id_space:
        bytes per stored subscription id (the subscription line).
    """

    k_retrieve: float = 1.0
    c_hash: float = 2.0
    k_hash: float = 1.0
    c_check: float = 1.0
    k_check: float = 1.0
    i_space: float = 512.0
    h_space: float = 48.0
    k_space: float = 4.0
    id_space: float = 8.0


#: Aggregate description of one *signature group*: all subscriptions that
#: share (equality-attribute set, residual predicate profile).  The greedy
#: optimizer works on these groups rather than on individual
#: subscriptions, which is what gives it the paper's |S|·|GA|² bound.
@dataclasses.dataclass(frozen=True)
class SignatureGroup:
    """Subscriptions sharing equality attributes and total size."""

    eq_attributes: frozenset
    total_predicates: int
    count: int

    def residual(self, schema_len: int) -> int:
        """Residual predicates left after a schema of that length."""
        return self.total_predicates - schema_len


class CostModel:
    """Evaluates formulas 3.1/3.2 and the space formula."""

    def __init__(
        self,
        stats: Statistics,
        constants: CostConstants = CostConstants(),
    ) -> None:
        self.stats = stats
        self.constants = constants

    # ------------------------------------------------------------------
    # per-component costs
    # ------------------------------------------------------------------
    def table_overhead(self, schema: Schema) -> float:
        """Per-event cost contributed by one table's existence:
        retrieval plus μ-weighted hashing."""
        c = self.constants
        mu = self.stats.mu_of_schema(schema)
        return c.k_retrieve + mu * (c.c_hash + c.k_hash * len(schema))

    def check_cost(self, residual_predicates: int) -> float:
        """Cost of checking one subscription with that many residual bits."""
        c = self.constants
        return c.c_check + c.k_check * residual_predicates

    def expected_group_check_cost(self, group: SignatureGroup, schema: Schema) -> float:
        """Per-event expected checking cost of placing *group* under *schema*.

        ν(p)·checking(p, s) summed over the group, with ν averaged over
        the value distribution (the optimizer plans before knowing each
        subscription's constants).
        """
        nu = self.stats.expected_nu_schema(schema)
        return group.count * nu * self.check_cost(group.residual(len(schema)))

    # ------------------------------------------------------------------
    # whole-clustering costs
    # ------------------------------------------------------------------
    def matching_cost(
        self,
        schemas: Iterable[Schema],
        assignment: Mapping[SignatureGroup, Schema],
    ) -> float:
        """Formula 3.2 for a set of tables plus a group→schema assignment."""
        total = sum(self.table_overhead(s) for s in schemas)
        for group, schema in assignment.items():
            total += self.expected_group_check_cost(group, schema)
        return total

    def space_cost(
        self,
        assignment: Mapping[SignatureGroup, Schema],
        entries_per_schema: Mapping[Schema, float],
    ) -> float:
        """Space formula: table + entry overhead + cluster storage."""
        c = self.constants
        schemas = set(assignment.values()) | set(entries_per_schema)
        total = c.i_space * len(schemas)
        for schema, entries in entries_per_schema.items():
            total += c.h_space * entries
        for group, schema in assignment.items():
            residual = group.residual(len(schema))
            total += group.count * (c.k_space * residual + c.id_space)
        return total

    # ------------------------------------------------------------------
    # entry estimation
    # ------------------------------------------------------------------
    def estimate_entries(
        self,
        schema: Schema,
        subscriptions: int,
        domains: Mapping[str, int],
        default_domain: int = 35,
    ) -> float:
        """Expected number of distinct hash entries for *schema*.

        Bounded above by both the subscription count and the product of
        the attribute domains (balls-into-bins expectation).
        """
        combos = 1.0
        for attribute in schema:
            combos *= max(1, domains.get(attribute, default_domain))
            if combos > 1e12:
                break
        if combos >= 1e12 or subscriptions <= 0:
            return float(subscriptions)
        # Expected occupied bins with n balls into m bins.
        m = combos
        n = float(subscriptions)
        return m * (1.0 - (1.0 - 1.0 / m) ** n)


def group_signatures(
    eq_sets_and_sizes: Iterable[Tuple[frozenset, int]],
) -> Dict[Tuple[frozenset, int], SignatureGroup]:
    """Aggregate (A(s), size) observations into SignatureGroups."""
    counts: Dict[Tuple[frozenset, int], int] = {}
    for eq_attrs, size in eq_sets_and_sizes:
        key = (eq_attrs, size)
        counts[key] = counts.get(key, 0) + 1
    return {
        key: SignatureGroup(eq_attributes=key[0], total_predicates=key[1], count=n)
        for key, n in counts.items()
    }
