"""Global predicate registry: de-duplication, bit allocation, refcounts.

The paper keeps one bit-vector entry per *distinct* predicate occurring in
any subscription ("Indexes are updated only if s contains a new predicate
that is not already in the system", Section 2.3).  The registry owns that
mapping:

* :meth:`intern` returns the bit index of a predicate, allocating a new
  bit (and index entry) only on first sight, and bumps a reference count;
* :meth:`release` drops a reference and frees the bit when it reaches 0,
  pushing the slot onto a free list so long-running brokers with heavy
  subscription churn don't leak bit-vector slots.

The registry is deliberately unaware of indexes; callers observe the
``added``/``removed`` return flags and maintain their index structures.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.bitvector import BitVector
from repro.core.types import Predicate


class PredicateRegistry:
    """Maps distinct predicates to bit-vector slots with refcounting."""

    __slots__ = ("bits", "_slot_of", "_pred_of", "_refcount", "_free", "_epoch")

    def __init__(self, bitvector: Optional[BitVector] = None) -> None:
        self.bits = bitvector if bitvector is not None else BitVector()
        self._slot_of: Dict[Predicate, int] = {}
        #: Indexed by slot: the predicate (None on a free slot) and its
        #: live references (0 on a free slot).
        self._pred_of: List[Optional[Predicate]] = []
        self._refcount: List[int] = []
        self._free: List[int] = []
        self._epoch = 0

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def intern(self, predicate: Predicate) -> Tuple[int, bool]:
        """Return ``(bit, added)`` for *predicate*, creating a bit if new.

        ``added`` is True exactly when the predicate was not present, in
        which case the caller must insert it into the attribute indexes.
        """
        bits, fresh = self.intern_all((predicate,))
        return bits[0], bool(fresh)

    def intern_all(self, predicates: Sequence[Predicate]) -> Tuple[List[int], List[int]]:
        """Intern every predicate in one pass (one hash each).

        Returns the bits, aligned with *predicates*, and the positions
        of the predicates that were new: the caller must insert those
        into the attribute indexes.
        """
        slot_of, pred_of, refcount = self._slot_of, self._pred_of, self._refcount
        bits: List[int] = []
        fresh: List[int] = []
        for predicate in predicates:
            slot = slot_of.get(predicate)
            if slot is None:
                fresh.append(len(bits))
                slot = self._free.pop() if self._free else self.bits.allocate()
                slot_of[predicate] = slot
                if slot >= len(refcount):
                    grow = slot + 1 - len(refcount)
                    pred_of.extend([None] * grow)
                    refcount.extend([0] * grow)
                pred_of[slot] = predicate
                refcount[slot] = 1
                self._epoch += 1
            else:
                refcount[slot] += 1
            bits.append(slot)
        return bits, fresh

    def release(self, predicate: Predicate) -> Tuple[int, bool]:
        """Drop one reference; return ``(bit, removed)``.

        ``removed`` is True when the last reference went away, in which
        case the caller must delete the predicate from its indexes.
        """
        slot = self._slot_of.get(predicate)
        if slot is None:
            raise KeyError(f"predicate not interned: {predicate!r}")
        self._refcount[slot] -= 1
        if self._refcount[slot] > 0:
            return slot, False
        del self._slot_of[predicate]
        self._pred_of[slot] = None
        self._free.append(slot)
        self._epoch += 1
        return slot, True

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Structural version: bumps whenever the predicate ↔ slot mapping
        changes (a distinct predicate appears or vanishes) — exactly when
        some predicate index is written and drops its compiled form.
        Refcount-only churn does not move it."""
        return self._epoch

    def slot(self, predicate: Predicate) -> Optional[int]:
        """Bit index of *predicate*, or None if not interned."""
        return self._slot_of.get(predicate)

    def predicate(self, slot: int) -> Predicate:
        """Inverse lookup (raises KeyError for free slots)."""
        predicate = self._pred_of[slot] if 0 <= slot < len(self._pred_of) else None
        if predicate is None:
            raise KeyError(slot)
        return predicate

    def refcount(self, predicate: Predicate) -> int:
        """Number of live references (0 when absent)."""
        slot = self._slot_of.get(predicate)
        return 0 if slot is None else self._refcount[slot]

    def __contains__(self, predicate: Predicate) -> bool:
        return predicate in self._slot_of

    def __len__(self) -> int:
        """Number of distinct live predicates."""
        return len(self._slot_of)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self._slot_of)

    def items(self) -> Iterator[Tuple[Predicate, int]]:
        """Iterate ``(predicate, bit)`` pairs."""
        return iter(self._slot_of.items())

    def __repr__(self) -> str:
        return f"PredicateRegistry(live={len(self._slot_of)}, free={len(self._free)})"

    def check_invariants(self) -> None:
        """Slot ↔ predicate is a bijection; a free slot holds no
        predicate and no reference, a live one at least one reference;
        no slot is free twice; the bit vector covers every slot.  For
        tests — O(slots)."""
        pred_of, refcount, free = self._pred_of, self._refcount, self._free
        assert len(pred_of) == len(refcount), "slot lists out of step"
        assert len(pred_of) <= self.bits.size, "a slot past the bit vector"
        live = {slot: pred for slot, pred in enumerate(pred_of) if pred is not None}
        assert len(live) == len(self._slot_of) and all(
            self._slot_of.get(pred) == slot for slot, pred in live.items()
        ), "slot ↔ predicate drift"
        free_set = set(free)
        assert len(free_set) == len(free), "a slot freed twice"
        assert free_set | live.keys() == set(range(len(pred_of))), "a slot neither live nor free"
        assert not free_set & live.keys(), "a free slot holds a predicate"
        assert not any(refcount[slot] for slot in free), "a free slot has references"
        assert all(refcount[slot] >= 1 for slot in live), "a live slot without references"
