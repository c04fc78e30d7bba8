"""The counting algorithm baseline (paper Section 5, NEONet-style).

After the predicate phase, the association table maps every satisfied
predicate bit to the subscriptions containing it; a per-subscription hit
counter is incremented per satisfied predicate, and a subscription
matches when its counter reaches its predicate count.

This faithfully reproduces why counting loses in the paper's Figure 3(a):
*every* subscription containing *any* satisfied predicate is touched,
whereas the clustered algorithms touch only subscriptions whose access
predicate is satisfied.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import TwoPhaseMatcher
from repro.core.types import Event, Subscription
from repro.indexes.ordered import IndexKind

#: Cell budget of one batch-kernel chunk.  A chunk's satisfied bits
#: expand to one (row, member) cell per satisfied association entry, and
#: those reduce into an int64 (rows x handles) counts matrix; a chunk
#: takes as many truth rows as keep both under this many cells (a row
#: that alone exceeds it is a chunk of its own), so the kernel's scratch
#: stays a few hundred KiB however large the batch.
_CHUNK_CELLS = 1 << 13


class CountingMatcher(TwoPhaseMatcher):
    """Association table + hit counters."""

    name = "counting"

    #: The counting phase 2 is pure counter arithmetic over the truth
    #: matrix — it reads only the batch length, so the columnar path
    #: never needs to materialize Event objects.
    phase2_needs_events = False

    def __init__(self, index_kind: IndexKind = IndexKind.SORTED_ARRAY) -> None:
        super().__init__(index_kind)
        # bit -> handles of the subscriptions containing it: a list, one
        # pointer per entry where a set costs five (a removal scans it).
        self._subs_of_bit: Dict[int, List[int]] = {}
        # handle -> number of (distinct) predicates, the match threshold;
        # -1 (never reached) on a free handle.
        self._threshold = np.full(8, -1, dtype=np.int16)
        # Flattened association arrays for the batch kernel; invalidated
        # on every placement change (refcount-only churn changes the
        # association too, so the registry epoch alone is not enough).
        self._assoc: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _place(self, handle: int, sub: Subscription, bits: List[int]) -> None:
        for bit in bits:
            self._subs_of_bit.setdefault(bit, []).append(handle)
        if handle == len(self._threshold):  # handles are dense
            self._threshold = np.concatenate([self._threshold, np.full(handle, -1, np.int16)])
        self._threshold[handle] = sub.size
        self._assoc = None

    def _displace(self, handle: int, sub: Subscription) -> None:
        for pred in sub.predicates:
            bit = self.registry.slot(pred)
            members = self._subs_of_bit[bit]
            members.remove(handle)
            if not members:
                del self._subs_of_bit[bit]
        self._threshold[handle] = -1
        self._assoc = None

    # ------------------------------------------------------------------
    # phase 2
    # ------------------------------------------------------------------
    def _match_phase2(self, event: Event) -> List[int]:
        hits: Dict[int, int] = {}
        subs_of_bit = self._subs_of_bit
        touched = 0
        for bit in self.bits.set_indexes():
            members = subs_of_bit.get(bit)
            if not members:
                continue
            touched += len(members)
            for handle in members:
                hits[handle] = hits.get(handle, 0) + 1
        self.counters["subscription_checks"] += touched
        handles = np.fromiter(hits, dtype=np.intp, count=len(hits))
        counts = np.fromiter(hits.values(), dtype=np.int16, count=len(hits))
        # Ascending handle order, like a row of the batch kernel.
        return np.sort(handles[counts == self._threshold[handles]]).tolist()

    def _assoc_arrays(self) -> Optional[Tuple]:
        """Columnar association table for the batch kernel.

        A subscription's column is its handle.  The live bits' member
        handles lie back to back in one array, each bit's segment
        addressed by (offset, count), so the kernel turns a chunk's
        satisfied entries into index arithmetic: its work stays
        proportional to *satisfied* association entries — the same cost
        model as the scalar walk, vectorized across the batch rows.
        Free handles are dead columns: their threshold is never reached.
        """
        if self._assoc is None and len(self._subs):
            members = self._subs_of_bit.values()
            entry_counts = np.array([len(m) for m in members], dtype=np.intp)
            self._assoc = (
                self._threshold[: self._subs.capacity],
                np.array(list(self._subs_of_bit), dtype=np.intp),
                np.fromiter(chain.from_iterable(members), dtype=np.intp),
                entry_counts,
                np.cumsum(entry_counts) - entry_counts,
            )
        return self._assoc

    def _match_phase2_batch(
        self, events: Sequence[Event], truth: np.ndarray
    ) -> List[List[int]]:
        """Hit counters over row chunks of *truth*, one ``np.bincount``
        per chunk.

        Every satisfied (row, bit) pair of a chunk expands — by pure
        index arithmetic over the flattened association segments — to
        the linearized ``row * n_subs + member_column`` cells it
        increments; one bincount then reduces them all at once, with no
        Python-level loop over live bits.  Chunks are sized to
        :data:`_CHUNK_CELLS` from the cells per row the previous chunk
        expanded to; the first one assumes a row satisfies every bit (a
        row cannot expand past the whole table).
        """
        n = len(events)
        out: List[List[int]] = [[] for _ in range(n)]
        assoc = self._assoc_arrays()
        if assoc is None:
            return out
        thresholds, bit_arr, entry_cols, entry_counts, entry_offsets = assoc
        n_subs = len(thresholds)
        touched = 0
        # What one row costs: its counts-matrix row, or its cells if more.
        row_cells = max(n_subs, len(entry_cols))
        s = 0
        while s < n:
            rows = min(max(1, _CHUNK_CELLS // row_cells), n - s)
            r_idx, b_idx = np.nonzero(truth[s : s + rows, bit_arr])
            lens = entry_counts[b_idx]
            cells = int(lens.sum())
            touched += cells
            row_cells = max(n_subs, -(-cells // rows))
            if cells:
                # Pair k's member columns live at entry_cols[offset_k :
                # offset_k + lens_k]; `seq` walks those segments back to
                # back.
                starts = np.cumsum(lens) - lens
                seq = np.arange(cells, dtype=np.intp) + np.repeat(
                    entry_offsets[b_idx] - starts, lens
                )
                flat = np.repeat(r_idx, lens) * n_subs + entry_cols[seq]
                counts = np.bincount(flat, minlength=rows * n_subs).reshape(rows, n_subs)
                hit_rows, handles = np.nonzero(counts == thresholds)
                for r, handle in zip(hit_rows.tolist(), handles.tolist()):
                    out[s + r].append(handle)
            s += rows
        self.counters["subscription_checks"] += touched
        return out

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base["association_entries"] = sum(len(m) for m in self._subs_of_bit.values())
        return base

    def check_invariants(self) -> None:
        super().check_invariants()
        expected_thresholds = np.full(len(self._threshold), -1, dtype=np.int16)
        # The association table must list exactly each handle under each
        # of its predicates' bits, once.
        expected: Dict[int, List[int]] = {}
        for handle, sub in self._subs.items():
            expected_thresholds[handle] = sub.size
            for pred in sub.predicates:
                expected.setdefault(self.registry.slot(pred), []).append(handle)
        assert (self._threshold == expected_thresholds).all(), "threshold drift"
        actual = {bit: sorted(m) for bit, m in self._subs_of_bit.items()}
        assert actual == expected, "association table drift"
