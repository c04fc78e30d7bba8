"""The packed (events × predicates) bit matrix of the batch kernel.

The batched predicate phase produces one truth row per event over the
registry's bit-vector slots.  For the kernel itself the boolean matrix
is the working form (numpy gathers need addressable cells, exactly like
the scalar :class:`~repro.core.bitvector.BitVector` stores a byte per
predicate); the *packed* uint64 form is the storage/wire format — 64
predicates per word, little-endian bit order within each word, rows
padded to whole words.  ``pack → unpack`` is an exact round trip for
any shape, including widths that are not a multiple of 64; the
property suite (``tests/properties/test_prop_batch.py``) pins that.
"""

from __future__ import annotations

import numpy as np

#: Bits per packed word.
WORD_BITS = 64

#: Bytes per packed word.
_WORD_BYTES = WORD_BITS // 8


def packed_words(n_slots: int) -> int:
    """Words per packed row for *n_slots* predicate slots."""
    if n_slots < 0:
        raise ValueError(f"slot count must be >= 0, got {n_slots}")
    return (n_slots + WORD_BITS - 1) // WORD_BITS


def pack_bits(truth: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(events, slots)`` matrix into uint64 words.

    Bit ``s`` of event ``e`` lands in word ``s // 64`` at in-word
    position ``s % 64`` (little-endian), so ``row >> (s % 64) & 1``
    reads one predicate.  Rows are padded with zero bits to a whole
    number of words.
    """
    truth = np.ascontiguousarray(truth, dtype=bool)
    if truth.ndim != 2:
        raise ValueError(f"expected a 2-D truth matrix, got shape {truth.shape}")
    n_events, n_slots = truth.shape
    words = packed_words(n_slots)
    if words == 0:
        return np.zeros((n_events, 0), dtype=np.uint64)
    # packbits gives one byte per 8 columns; pad to the word boundary so
    # the uint64 view lines up.
    packed8 = np.packbits(truth, axis=1, bitorder="little")
    padded = np.zeros((n_events, words * _WORD_BYTES), dtype=np.uint8)
    padded[:, : packed8.shape[1]] = packed8
    return padded.view("<u8")


def unpack_bits(packed: np.ndarray, n_slots: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: recover the boolean truth matrix."""
    packed = np.ascontiguousarray(packed, dtype="<u8")
    if packed.ndim != 2:
        raise ValueError(f"expected a 2-D packed matrix, got shape {packed.shape}")
    if packed.shape[1] != packed_words(n_slots):
        raise ValueError(
            f"{packed.shape[1]} words cannot hold exactly {n_slots} slots "
            f"(expected {packed_words(n_slots)})"
        )
    n_events = packed.shape[0]
    if n_slots == 0 or n_events == 0:
        return np.zeros((n_events, n_slots), dtype=bool)
    as_bytes = packed.view(np.uint8).reshape(n_events, -1)
    bits = np.unpackbits(as_bytes, axis=1, count=n_slots, bitorder="little")
    return bits.astype(bool)
