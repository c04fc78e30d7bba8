"""Cost-based clustering: statistics, cost model, greedy and dynamic."""

from repro.clustering.cost import (
    CostConstants,
    CostModel,
    SignatureGroup,
    group_signatures,
)
from repro.clustering.dynamic import DynamicParams, PotentialTableTracker
from repro.clustering.exhaustive import ExhaustiveClusteringOptimizer
from repro.clustering.greedy import (
    ClusteringPlan,
    GreedyClusteringOptimizer,
    candidate_schemas,
)
from repro.clustering.hashconfig import (
    HashingConfiguration,
    Key,
    MultiAttrHashTable,
    Schema,
    key_for_schema,
    normalize_schema,
)
from repro.clustering.statistics import (
    EventStatistics,
    Statistics,
    UniformStatistics,
    nu_of_predicates,
)

__all__ = [
    "ClusteringPlan",
    "CostConstants",
    "CostModel",
    "DynamicParams",
    "EventStatistics",
    "ExhaustiveClusteringOptimizer",
    "GreedyClusteringOptimizer",
    "HashingConfiguration",
    "Key",
    "MultiAttrHashTable",
    "PotentialTableTracker",
    "Schema",
    "SignatureGroup",
    "Statistics",
    "UniformStatistics",
    "candidate_schemas",
    "group_signatures",
    "key_for_schema",
    "normalize_schema",
    "nu_of_predicates",
]
