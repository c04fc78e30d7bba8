"""Match explanation: what the two-phase engine did for one event.

``explain(matcher, event)`` replays the match with instrumentation and
returns a structured :class:`MatchExplanation` — which predicates were
satisfied, how many subscriptions each phase-2 structure checked, and
the final match set.  Intended for debugging subscriptions ("why didn't
mine fire?") and for teaching the algorithm.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple

from repro.algorithms.base import TwoPhaseMatcher
from repro.core.errors import id_repr
from repro.core.types import Event, Predicate, Subscription


@dataclasses.dataclass
class MatchExplanation:
    """Structured trace of one event's matching."""

    event: Event
    #: Every satisfied distinct predicate, with its bit slot.
    satisfied_predicates: List[Tuple[Predicate, int]]
    #: Total distinct predicates live in the engine.
    total_predicates: int
    #: Subscriptions the phase-2 walk actually checked.
    subscriptions_checked: int
    #: The final match set.
    matched: List[Any]

    @property
    def selectivity(self) -> float:
        """Fraction of distinct predicates the event satisfied."""
        if not self.total_predicates:
            return 0.0
        return len(self.satisfied_predicates) / self.total_predicates

    def describe(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"event: {self.event}",
            f"phase 1: {len(self.satisfied_predicates)} of "
            f"{self.total_predicates} distinct predicates satisfied "
            f"({self.selectivity:.1%})",
        ]
        for pred, bit in sorted(
            self.satisfied_predicates, key=lambda pb: (pb[0].attribute, id_repr(pb[0].value))
        ):
            lines.append(f"  bit {bit}: {pred.attribute} {pred.operator.value} {id_repr(pred.value)}")
        lines.append(f"phase 2: {self.subscriptions_checked} subscriptions checked")
        lines.append(f"matched: [{', '.join(sorted(map(id_repr, self.matched)))}]")
        return "\n".join(lines)


def explain(matcher: TwoPhaseMatcher, event: Event) -> MatchExplanation:
    """Replay *event* through a two-phase matcher with instrumentation.

    The matcher's state is left exactly as a normal :meth:`match` call
    would leave it (counters advance by one event).
    """
    if not isinstance(matcher, TwoPhaseMatcher):
        raise TypeError(
            "explain() requires a two-phase matcher "
            f"(got {type(matcher).__name__})"
        )
    before_checks = matcher.counters["subscription_checks"]
    matched = matcher.match(event)
    checks = matcher.counters["subscription_checks"] - before_checks
    satisfied = [
        (matcher.registry.predicate(bit), bit) for bit in matcher.bits.set_indexes()
    ]
    return MatchExplanation(
        event=event,
        satisfied_predicates=satisfied,
        total_predicates=len(matcher.registry),
        subscriptions_checked=checks,
        matched=matched,
    )


def why_not(matcher: TwoPhaseMatcher, sub_id: Any, event: Event) -> List[Predicate]:
    """The predicates of *sub_id* that *event* fails (empty = it matches).

    The standard answer to "why didn't my subscription fire?".
    """
    sub: Subscription = matcher.get(sub_id)
    failing = []
    for pred in sub.predicates:
        value = event.get(pred.attribute)
        if (value is None and not event.has(pred.attribute)) or not pred.matches(value):
            failing.append(pred)
    return failing
