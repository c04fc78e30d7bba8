"""Adapter exposing the trigger strawman through the Matcher interface.

Lets the benchmark harness drive the Section 1.2 baseline exactly like
the real algorithms: ``add`` creates a trigger, ``match`` inserts the
event and reports which triggers fired.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.errors import UnknownSubscriptionError
from repro.core.matcher import Matcher
from repro.core.types import Event, Subscription
from repro.sqltrigger.minidb import UniversalTable


class TriggerMatcher(Matcher):
    """One SQL-style trigger per subscription over a universal table."""

    name = "sql-trigger"

    def __init__(self, columns: Optional[Sequence[str]] = None) -> None:
        self._columns = list(columns) if columns else []
        self._table = UniversalTable(self._columns)
        self._subs: Dict[Any, Subscription] = {}
        self._id_of_trigger: Dict[str, Any] = {}

    def _ensure_columns(self, attributes) -> None:
        """Grow the universal table schema as new attributes appear."""
        new = [a for a in attributes if a not in self._table.columns]
        if not new:
            return
        merged = list(self._table.columns) + sorted(new)
        rebuilt = UniversalTable(merged)
        for sub in self._subs.values():
            rebuilt.create_trigger(f"T_{sub.id}", sub.predicates)
        self._table = rebuilt

    def add(self, subscription: Subscription) -> None:
        self._ensure_columns(subscription.attributes)
        name = f"T_{subscription.id}"
        self._table.create_trigger(name, subscription.predicates)
        self._subs[subscription.id] = subscription
        self._id_of_trigger[name] = subscription.id

    def remove(self, sub_id: Any) -> Subscription:
        self._table.drop_trigger(f"T_{sub_id}")
        self._id_of_trigger.pop(f"T_{sub_id}", None)
        return self._subs.pop(sub_id)

    def match(self, event: Event) -> List[Any]:
        self._ensure_columns(event.schema)
        fired = self._table.insert_event(event)
        return [self._id_of_trigger[name] for name in fired]

    def get(self, sub_id: Any) -> Subscription:
        try:
            return self._subs[sub_id]
        except KeyError:
            raise UnknownSubscriptionError(sub_id) from None

    def iter_subscriptions(self) -> List[Subscription]:
        return list(self._subs.values())

    def __len__(self) -> int:
        return len(self._subs)
