"""One numbering of subscriptions: dense int handles.

The paper keeps a cluster's *subscription line* beside its bit refs
(Sections 2.2, 3).  Ours holds the small ints a :class:`HandleTable`
hands out; clusters, counting's association arrays and the process
shards' replies speak handles, and the caller's id appears only where
:meth:`HandleTable.ids` gathers them back.

The id index keeps a freed id's entry, marked free, so re-adding the
id writes that entry in place.  CPython's dict keeps a deleted key's
insertion slot until it rebuilds the table at three times its used
entries, so a ``del`` per drop would make add/remove churn over a
steady population double the index: at 50k ids, 2^17 → 2^18 slots.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.errors import DuplicateSubscriptionError, UnknownSubscriptionError
from repro.core.types import Subscription


#: The index is rebuilt from the live ids once free entries are more
#: than this share of it.  Free entries count toward CPython's 3× growth
#: rule; at a quarter, replays of fresh-id churn over 20k–90k live ids
#: never grew the index past what a ``del`` per drop reaches (at 50k it
#: stays at 2^17 slots, the ``del`` layout at 2^18).
FREE_SHARE = 0.25


class HandleTable:
    """Live subscriptions numbered ``0 … capacity − 1``.

    ``put`` hands out the most recently freed handle, else the next
    unused one, so the numbering is a pure function of the put/drop
    sequence.  ``_handle`` maps a live id to its handle and a freed id
    to None.
    """

    __slots__ = ("_handle", "_subs", "_free")

    def __init__(self) -> None:
        self._handle: Dict[Any, Optional[int]] = {}
        self._subs: List[Optional[Subscription]] = []  # None on a free handle
        self._free: List[int] = []

    @property
    def capacity(self) -> int:
        """One past the highest handle ever handed out."""
        return len(self._subs)

    @property
    def next_handle(self) -> int:
        """The handle the next :meth:`put` will hand out."""
        return self._free[-1] if self._free else len(self._subs)

    def put(self, sub: Subscription) -> int:
        """Number *sub*; raises if its id is already live."""
        sub_id = sub.id
        if self._handle.get(sub_id) is not None:
            raise DuplicateSubscriptionError(sub_id)
        if self._free:
            handle = self._free.pop()
            self._subs[handle] = sub
        else:
            handle = len(self._subs)
            self._subs.append(sub)
        self._handle[sub_id] = handle  # a freed id's entry is written in place
        return handle

    def drop(self, sub_id: Any) -> Tuple[int, Subscription]:
        """Free *sub_id*'s handle; returns ``(handle, subscription)``."""
        handle = self.handle_of(sub_id)
        index = self._handle
        index[sub_id] = None
        sub, self._subs[handle] = self._subs[handle], None
        self._free.append(handle)
        if len(index) - len(self) > FREE_SHARE * len(index):
            self._handle = {i: h for i, h in index.items() if h is not None}
        return handle, sub

    def handle_of(self, sub_id: Any) -> int:
        """The live handle of *sub_id*."""
        handle = self._handle.get(sub_id)
        if handle is None:
            raise UnknownSubscriptionError(sub_id)
        return handle

    def get(self, handle: int) -> Subscription:
        """The subscription a live *handle* numbers."""
        return self._subs[handle]

    def ids(self, handles: Iterable[int]) -> List[Any]:
        """The ids of live *handles*, in order: the one way out."""
        subs = self._subs
        return [subs[handle].id for handle in handles]

    def items(self) -> Iterator[Tuple[int, Subscription]]:
        """``(handle, subscription)`` pairs in ascending handle order."""
        return ((handle, sub) for handle, sub in enumerate(self._subs) if sub is not None)

    def __contains__(self, sub_id: Any) -> bool:
        return self._handle.get(sub_id) is not None

    def __len__(self) -> int:
        return len(self._subs) - len(self._free)

    def check_invariants(self) -> None:
        """Handle ↔ id is a bijection; the free list and the live handles
        are disjoint and together cover ``range(capacity)``; the index's
        free entries are within :data:`FREE_SHARE` of it."""
        live = dict(self.items())
        index = {i: h for i, h in self._handle.items() if h is not None}
        assert {sub.id: h for h, sub in live.items()} == index, "handle ↔ id drift"
        free_entries = len(self._handle) - len(index)
        assert free_entries <= FREE_SHARE * len(self._handle), "free entries past their share"
        free = set(self._free)
        assert len(free) == len(self._free), "a handle freed twice"
        assert not free & live.keys(), "a live handle on the free list"
        assert free | live.keys() == set(range(self.capacity)), "a handle neither live nor free"
