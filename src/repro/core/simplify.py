"""Subscription canonicalization: drop redundant predicates, detect
contradictions, and put conjunctions into a minimal normal form.

A subscription with fewer (but equivalent) predicates is strictly
cheaper to match: fewer interned bits, smaller residual columns, and a
higher chance of landing in a small-size cluster.  The paper assumes
well-formed inputs; a production front door should canonicalize:

* several range predicates per attribute collapse into the tightest
  lower/upper bound pair;
* an equality predicate absorbs every other predicate it satisfies on
  the same attribute (``x = 5 and x <= 9`` → ``x = 5``);
* ``!=`` predicates implied by the surviving range are dropped
  (``x != 3 and x > 7`` → ``x > 7``);
* contradictions (``x = 1 and x = 2``, empty ranges, ``=``/``!=``
  clashes) are reported rather than silently stored.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.errors import InvalidSubscriptionError, id_repr
from repro.core.types import Operator, Predicate, Subscription, Value


@dataclasses.dataclass
class _Range:
    """Open/closed interval accumulated from range predicates."""

    lo: Optional[float] = None
    lo_strict: bool = False
    hi: Optional[float] = None
    hi_strict: bool = False

    def add(self, op: Operator, value: Value) -> None:
        if op is Operator.GT:
            if self.lo is None or value >= self.lo:
                self.lo, self.lo_strict = value, True
        elif op is Operator.GE:
            if self.lo is None or value > self.lo:
                self.lo, self.lo_strict = value, False
        elif op is Operator.LT:
            if self.hi is None or value <= self.hi:
                self.hi, self.hi_strict = value, True
        elif op is Operator.LE:
            if self.hi is None or value < self.hi:
                self.hi, self.hi_strict = value, False

    def is_empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_strict or self.hi_strict)

    def contains(self, value: Value) -> bool:
        if self.lo is not None:
            if value < self.lo or (self.lo_strict and value == self.lo):
                return False
        if self.hi is not None:
            if value > self.hi or (self.hi_strict and value == self.hi):
                return False
        return True

    def excludes(self, value: Value) -> bool:
        """Is *value* provably outside the interval?"""
        return not self.contains(value)

    def predicates(self, attribute: str) -> List[Predicate]:
        out = []
        if self.lo is not None:
            op = Operator.GT if self.lo_strict else Operator.GE
            out.append(Predicate(attribute, op, self.lo))
        if self.hi is not None:
            op = Operator.LT if self.hi_strict else Operator.LE
            out.append(Predicate(attribute, op, self.hi))
        return out


def simplify_predicates(predicates: Tuple[Predicate, ...]) -> List[Predicate]:
    """Minimal equivalent predicate list (raises on contradiction).

    Raises :class:`InvalidSubscriptionError` when the conjunction is
    provably unsatisfiable.
    """
    by_attr: Dict[str, List[Predicate]] = {}
    order: List[str] = []
    for p in predicates:
        if p.attribute not in by_attr:
            order.append(p.attribute)
        by_attr.setdefault(p.attribute, []).append(p)

    out: List[Predicate] = []
    for attribute in order:
        out.extend(_simplify_attribute(attribute, by_attr[attribute]))
    return out


def _simplify_attribute(attribute: str, preds: List[Predicate]) -> List[Predicate]:
    equalities = [p for p in preds if p.operator is Operator.EQ]
    inequalities = [p for p in preds if p.operator is Operator.NE]
    ranges = [p for p in preds if p.operator.is_range]

    if equalities:
        values = {p.value for p in equalities}
        if len(values) > 1:
            first, second = sorted(map(id_repr, values))[:2]
            raise InvalidSubscriptionError(
                f"contradiction: {attribute} equals both {first} and {second}"
            )
        eq = equalities[0]
        for other in inequalities + ranges:
            if not other.matches(eq.value):
                raise InvalidSubscriptionError(
                    f"contradiction on {attribute!r}: "
                    f"{id_repr(eq.value)} fails {other.operator.value} {id_repr(other.value)}"
                )
        return [eq]

    # Strings only reach here through != (ranges reject strings).
    string_nes = [p for p in inequalities if isinstance(p.value, str)]
    numeric_nes = [p for p in inequalities if not isinstance(p.value, str)]

    interval = _Range()
    for p in ranges:
        interval.add(p.operator, p.value)
    if interval.is_empty():
        raise InvalidSubscriptionError(
            f"contradiction: empty range on {attribute!r}"
        )
    survivors = interval.predicates(attribute)
    # != predicates already excluded by the interval are redundant.
    kept_nes = [
        p
        for p in numeric_nes
        if interval.contains(p.value)
    ]
    # Dedup while preserving order.
    seen = set()
    out: List[Predicate] = []
    for p in survivors + kept_nes + string_nes:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def simplify(subscription: Subscription) -> Subscription:
    """Return an equivalent subscription with redundant predicates removed.

    The id is preserved; raises :class:`InvalidSubscriptionError` if the
    subscription can never match any event.
    """
    slim = simplify_predicates(subscription.predicates)
    return Subscription(subscription.id, slim)
