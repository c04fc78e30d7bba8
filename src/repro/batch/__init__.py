"""Vectorized batch matching (the paper's UNFOLD/LOOKAHEAD idea, batched).

The scalar engines process one event at a time: the predicate phase
probes per-attribute indexes, the subscription phase walks candidate
clusters.  At Python speed the per-event interpreter overhead dominates
— batch size 1→256 bought only ~1.3–1.5× through the server path
before this kernel.  This package moves the hot loop
into numpy, operating on *batches* of events:

* :mod:`repro.batch.bitmatrix` — the packed ``(events × predicates)``
  uint64 bit matrix produced by the batched predicate phase, plus the
  pack/unpack round-trip helpers pinned by the property suite;
* :mod:`repro.batch.evaluator` — the compiled predicate-phase kernel:
  every deduplicated predicate is evaluated against all events of the
  batch in one vectorized op per (attribute, operator) group.

The subscription phase lives with the engines themselves
(``Cluster.match_rows`` and the ``_match_phase2_batch`` overrides):
bitwise-AND reductions over the columnar cluster ref arrays, grouped by
probe key so each cluster is visited once per batch.

See ``docs/batching.md`` for the kernel design and the exact fallback
rules.
"""

from repro.batch.bitmatrix import (
    WORD_BITS,
    packed_words,
    pack_bits,
    unpack_bits,
)
from repro.batch.evaluator import BatchPredicateEvaluator

__all__ = [
    "BatchPredicateEvaluator",
    "WORD_BITS",
    "pack_bits",
    "packed_words",
    "unpack_bits",
]
