"""One numbering of subscriptions: dense int handles.

The paper keeps a cluster's *subscription line* beside its bit refs
(Sections 2.2, 3).  Ours holds the small ints a :class:`HandleTable`
hands out; clusters, counting's association arrays and the process
shards' replies speak handles, and the caller's id appears only where
:meth:`HandleTable.ids` gathers them back.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.errors import DuplicateSubscriptionError, UnknownSubscriptionError
from repro.core.types import Subscription


class HandleTable:
    """Live subscriptions numbered ``0 … capacity − 1``.

    ``put`` hands out the most recently freed handle, else the next
    unused one, so the numbering is a pure function of the put/drop
    sequence.
    """

    __slots__ = ("_handle", "_subs", "_free")

    def __init__(self) -> None:
        self._handle: Dict[Any, int] = {}
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
        if sub_id in self._handle:
            raise DuplicateSubscriptionError(sub_id)
        if self._free:
            handle = self._free.pop()
            self._subs[handle] = sub
        else:
            handle = len(self._subs)
            self._subs.append(sub)
        self._handle[sub_id] = handle
        return handle

    def drop(self, sub_id: Any) -> Tuple[int, Subscription]:
        """Free *sub_id*'s handle; returns ``(handle, subscription)``."""
        handle = self.handle_of(sub_id)
        del self._handle[sub_id]
        sub, self._subs[handle] = self._subs[handle], None
        self._free.append(handle)
        return handle, sub

    def handle_of(self, sub_id: Any) -> int:
        """The live handle of *sub_id*."""
        try:
            return self._handle[sub_id]
        except KeyError:
            raise UnknownSubscriptionError(sub_id) from None

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
        return sub_id in self._handle

    def __len__(self) -> int:
        return len(self._handle)

    def check_invariants(self) -> None:
        """Handle ↔ id is a bijection; the free list and the live handles
        are disjoint and together cover ``range(capacity)``."""
        live = dict(self.items())
        assert {sub.id: h for h, sub in live.items()} == self._handle, "handle ↔ id drift"
        free = set(self._free)
        assert len(free) == len(self._free), "a handle freed twice"
        assert not free & live.keys(), "a live handle on the free list"
        assert free | live.keys() == set(range(self.capacity)), "a handle neither live nor free"
