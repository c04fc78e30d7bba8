"""Core data model: predicates, subscriptions, events, bit vector, registry."""

from repro.core.bitvector import BitVector
from repro.core.errors import (
    ClusteringError,
    DuplicateSubscriptionError,
    ExpiredError,
    InvalidEventError,
    InvalidPredicateError,
    InvalidSubscriptionError,
    InvalidWorkloadError,
    ParseError,
    ReproError,
    UnknownSubscriptionError,
)
from repro.core.matcher import Matcher, MatcherWrapper
from repro.core.oracle import OracleMatcher
from repro.core.registry import PredicateRegistry
from repro.core.simplify import simplify, simplify_predicates
from repro.core.types import (
    Event,
    Operator,
    Predicate,
    Subscription,
    Value,
    eq,
    ge,
    gt,
    le,
    lt,
    ne,
)

__all__ = [
    "BitVector",
    "ClusteringError",
    "DuplicateSubscriptionError",
    "Event",
    "ExpiredError",
    "InvalidEventError",
    "InvalidPredicateError",
    "InvalidSubscriptionError",
    "InvalidWorkloadError",
    "Matcher",
    "MatcherWrapper",
    "Operator",
    "OracleMatcher",
    "ParseError",
    "Predicate",
    "PredicateRegistry",
    "ReproError",
    "Subscription",
    "UnknownSubscriptionError",
    "Value",
    "eq",
    "ge",
    "gt",
    "le",
    "lt",
    "ne",
    "simplify",
    "simplify_predicates",
]
