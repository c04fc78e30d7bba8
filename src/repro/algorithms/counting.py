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

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.algorithms.base import TwoPhaseMatcher
from repro.core.types import Event, Predicate, Subscription
from repro.indexes.ordered import IndexKind

#: Cell cap for one (events × subscriptions) hit-counter chunk.
_GATHER_CELLS = 1 << 22

#: Cell cap per bincount chunk.  Tighter than ``_GATHER_CELLS`` because
#: ``np.bincount`` materializes an int64 counts matrix (4× the scatter
#: path's int16): past ~8 MB the reduction turns memory-bound and the
#: win over the scatter loop evaporates.
_BINCOUNT_CELLS = 1 << 20

#: Auto-gate for the bincount counting kernel: batches with at least
#: this many rows amortize its setup (flattened index arithmetic) over
#: enough association entries to beat the per-bit scatter loop, whose
#: Python-level iteration count grows with *live bits*, not rows.
_BINCOUNT_MIN_EVENTS = 32


class CountingMatcher(TwoPhaseMatcher):
    """Association table + hit counters."""

    name = "counting"

    #: The counting phase 2 is pure counter arithmetic over the truth
    #: matrix — it reads only the batch length, so the columnar path
    #: never needs to materialize Event objects.
    phase2_needs_events = False

    def __init__(self, index_kind: IndexKind = IndexKind.SORTED_ARRAY) -> None:
        super().__init__(index_kind)
        # bit -> set of sub ids containing that predicate.
        self._subs_of_bit: Dict[int, Set[Any]] = {}
        # sub id -> number of (distinct) predicates, the match threshold.
        self._threshold: Dict[Any, int] = {}
        # Flattened association arrays for the batch kernel; invalidated
        # on every placement change (refcount-only churn changes the
        # association too, so the registry epoch alone is not enough).
        self._assoc: Optional[Tuple] = None

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _place(self, sub: Subscription, slots: Dict[Predicate, int]) -> None:
        for bit in slots.values():
            self._subs_of_bit.setdefault(bit, set()).add(sub.id)
        self._threshold[sub.id] = sub.size
        self._assoc = None

    def _displace(self, sub: Subscription) -> None:
        for pred in sub.predicates:
            bit = self.registry.slot(pred)
            members = self._subs_of_bit.get(bit)
            if members is not None:
                members.discard(sub.id)
                if not members:
                    del self._subs_of_bit[bit]
        del self._threshold[sub.id]
        self._assoc = None

    # ------------------------------------------------------------------
    # phase 2
    # ------------------------------------------------------------------
    def _match_phase2(self, event: Event) -> List[Any]:
        hits: Dict[Any, int] = {}
        subs_of_bit = self._subs_of_bit
        touched = 0
        for bit in self.bits.set_indexes():
            members = subs_of_bit.get(bit)
            if not members:
                continue
            touched += len(members)
            for sid in members:
                hits[sid] = hits.get(sid, 0) + 1
        self.counters["subscription_checks"] += touched
        threshold = self._threshold
        return [sid for sid, n in hits.items() if n == threshold[sid]]

    def _assoc_arrays(self) -> Optional[Tuple]:
        """Columnar association table for the batch kernel.

        Subscriptions get dense column indexes; each live bit carries
        the column array of its members, so the kernel's work stays
        proportional to *satisfied* association entries — the same cost
        model as the scalar walk, vectorized across the batch rows.
        """
        assoc = self._assoc
        if assoc is None:
            sub_ids = list(self._threshold)
            if not sub_ids:
                return None
            col_of = {sid: i for i, sid in enumerate(sub_ids)}
            thresholds = np.array(
                [self._threshold[s] for s in sub_ids], dtype=np.int16
            )
            bit_list = list(self._subs_of_bit)
            members_list = [
                np.array(
                    sorted(col_of[sid] for sid in self._subs_of_bit[b]),
                    dtype=np.intp,
                )
                for b in bit_list
            ]
            # Flattened form for the bincount kernel: one contiguous
            # member-column array, with each bit's segment addressed by
            # (offset, count) — so the whole chunk's satisfied entries
            # become index arithmetic instead of a per-bit Python loop.
            bit_arr = np.array(bit_list, dtype=np.intp)
            entry_counts = np.array(
                [len(m) for m in members_list], dtype=np.intp
            )
            entry_offsets = np.cumsum(entry_counts) - entry_counts
            entry_cols = (
                np.concatenate(members_list)
                if members_list
                else np.zeros(0, dtype=np.intp)
            )
            assoc = self._assoc = (
                sub_ids,
                thresholds,
                bit_list,
                members_list,
                bit_arr,
                entry_cols,
                entry_counts,
                entry_offsets,
            )
        return assoc

    @staticmethod
    def _counts_scatter(chunk: np.ndarray, assoc: Tuple) -> Tuple[np.ndarray, int]:
        """Hit counters via one fancy-indexed scatter per live bit."""
        sub_ids, _thresholds, bit_list, members_list = assoc[:4]
        counts = np.zeros((chunk.shape[0], len(sub_ids)), dtype=np.int16)
        touched = 0
        for bit, members in zip(bit_list, members_list):
            rows_b = np.nonzero(chunk[:, bit])[0]
            if not len(rows_b):
                continue
            touched += len(rows_b) * len(members)
            counts[np.ix_(rows_b, members)] += 1
        return counts, touched

    @staticmethod
    def _counts_bincount(chunk: np.ndarray, assoc: Tuple) -> Tuple[np.ndarray, int]:
        """Hit counters via one ``np.bincount`` over flattened cells.

        Every satisfied (row, bit) pair expands — by pure index
        arithmetic over the flattened association segments — to the
        linearized ``row * n_subs + member_column`` cells it increments;
        one bincount then reduces them all at once.  Work remains
        proportional to satisfied association entries, like the scatter
        path, but without a Python-level loop over live bits.
        """
        sub_ids = assoc[0]
        bit_arr, entry_cols, entry_counts, entry_offsets = assoc[4:]
        n_subs = len(sub_ids)
        rows = chunk.shape[0]
        r_idx, b_idx = np.nonzero(chunk[:, bit_arr])
        if not len(r_idx):
            return np.zeros((rows, n_subs), dtype=np.int64), 0
        lens = entry_counts[b_idx]
        total = int(lens.sum())
        if not total:  # pragma: no cover - empty member lists are pruned
            return np.zeros((rows, n_subs), dtype=np.int64), 0
        # For each satisfied pair k, its member columns live at
        # entry_cols[offset_k : offset_k + lens_k]; `seq` enumerates all
        # those segments back to back.
        starts = np.cumsum(lens) - lens
        seq = np.arange(total, dtype=np.intp) + np.repeat(
            entry_offsets[b_idx] - starts, lens
        )
        flat = np.repeat(r_idx, lens) * n_subs + entry_cols[seq]
        counts = np.bincount(flat, minlength=rows * n_subs).reshape(rows, n_subs)
        return counts, total

    def _match_phase2_batch(
        self, events: Sequence[Event], truth: np.ndarray
    ) -> List[List[Any]]:
        n = len(events)
        out: List[List[Any]] = [[] for _ in range(n)]
        assoc = self._assoc_arrays()
        if assoc is None:
            return out
        sub_ids, thresholds = assoc[0], assoc[1]
        # Batch size is the only selector; both kernels produce identical
        # results (the conformance suite straddles the gate).
        use_bincount = n >= _BINCOUNT_MIN_EVENTS
        kernel = self._counts_bincount if use_bincount else self._counts_scatter
        touched = 0
        # Event-chunked so the hit-counter matrix stays cache-friendly.
        cells = _BINCOUNT_CELLS if use_bincount else _GATHER_CELLS
        step = max(1, cells // max(1, len(sub_ids)))
        for s in range(0, n, step):
            counts, t = kernel(truth[s : s + step], assoc)
            touched += t
            for r, c in zip(*np.nonzero(counts == thresholds)):
                out[s + r].append(sub_ids[c])
        self.counters["subscription_checks"] += touched
        return out

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base["association_entries"] = sum(len(m) for m in self._subs_of_bit.values())
        return base

    def check_invariants(self) -> None:
        super().check_invariants()
        assert set(self._threshold) == set(self._subs), "threshold key drift"
        for sid, threshold in self._threshold.items():
            assert threshold == self._subs[sid].size
        # The association table must list exactly each sub under each of
        # its predicates' bits.
        expected: Dict[int, set] = {}
        for sid, sub in self._subs.items():
            for pred in sub.predicates:
                expected.setdefault(self.registry.slot(pred), set()).add(sid)
        actual = {bit: set(m) for bit, m in self._subs_of_bit.items() if m}
        assert actual == expected, "association table drift"
