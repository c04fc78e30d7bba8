"""Validity-windowed event retention with a retro-matching index.

The paper's system "stores both valid subscriptions and valid events";
retained events let a *new subscription* be evaluated against what was
recently published (the complementary half of the matching problem).
Expiry is a lazy min-heap: each operation first pops events whose
interval ended.

Retro-matching uses an inverted index over the events' concrete
``(attribute, value)`` pairs: a new subscription with equality
predicates probes its rarest pair and verifies only those candidates —
the mirror image of the forward path's access-predicate idea.
Subscriptions without equality predicates fall back to a scan.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Collection, Dict, List, Sequence, Set, Tuple

from repro.core.types import Event, Subscription, Value

#: Inverted-index key: one concrete event pair.
Pair = Tuple[str, Value]


class EventStore:
    """Ordered store of events with per-event expiry and a pair index."""

    def __init__(self) -> None:
        # (expires_at, seq) heap + seq -> (event, expires_at) map.
        self._heap: List[Tuple[float, int]] = []
        self._live: Dict[int, Tuple[Event, float]] = {}
        self._seq = itertools.count()
        # (attribute, value) -> seqs of live events carrying that pair.
        self._by_pair: Dict[Pair, Set[int]] = {}

    def add(self, event: Event, expires_at: float) -> int:
        """Retain *event* until *expires_at*; returns its sequence number."""
        seq = next(self._seq)
        self._live[seq] = (event, expires_at)
        heapq.heappush(self._heap, (expires_at, seq))
        for pair in event.items():
            self._by_pair.setdefault(pair, set()).add(seq)
        return seq

    def _forget(self, seq: int) -> bool:
        entry = self._live.pop(seq, None)
        if entry is None:
            return False
        event, _expires = entry
        for pair in event.items():
            bucket = self._by_pair.get(pair)
            if bucket is not None:
                bucket.discard(seq)
                if not bucket:
                    del self._by_pair[pair]
        return True

    def purge(self, now: float) -> int:
        """Drop everything expired at *now*; returns how many."""
        dropped = 0
        heap = self._heap
        while heap and heap[0][0] <= now:
            _exp, seq = heapq.heappop(heap)
            if self._forget(seq):
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # retro-matching
    # ------------------------------------------------------------------
    def retro_match(self, subscriptions: Sequence[Subscription], now: float) -> List[Event]:
        """Valid events satisfying any of *subscriptions* — one plain
        subscription, or a formula's disjuncts — each once, in
        publication order.

        Each subscription's equality predicates narrow its candidates
        through the pair index (probing the rarest pair); the survivors
        get a full check.
        """
        live, hits = self._live, set()
        for sub in subscriptions:
            candidates: Collection[int] = live.keys()
            for pred in sub.equality_predicates():
                bucket = self._by_pair.get((pred.attribute, pred.value))
                if not bucket:
                    candidates = ()
                    break
                if len(bucket) < len(candidates):
                    candidates = bucket
            for seq in candidates:
                if seq not in hits:
                    event, expires_at = live[seq]
                    if expires_at > now and sub.is_satisfied_by(event):
                        hits.add(seq)
        return [live[seq][0] for seq in sorted(hits)]

    def __len__(self) -> int:
        return len(self._live)

    def __repr__(self) -> str:
        return f"EventStore(live={len(self._live)}, pairs={len(self._by_pair)})"
