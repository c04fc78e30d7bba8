"""Shared skeleton of all two-phase matchers.

Owns the predicate registry, the bit vector and the phase-1 index set;
subclasses implement only subscription placement (phase-2 storage) and
the candidate-cluster walk.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.batch.columns import ColumnarBatch
from repro.batch.evaluator import BatchPredicateEvaluator
from repro.core.bitvector import BitVector
from repro.core.handles import HandleTable
from repro.core.matcher import Matcher
from repro.core.registry import PredicateRegistry
from repro.core.types import Event, Predicate, Subscription
from repro.indexes.composite import PredicateIndexSet
from repro.indexes.ordered import IndexKind
from repro.obs.tracer import Span


class TwoPhaseMatcher(Matcher):
    """Base for matchers that run predicate phase then subscription phase."""

    name = "two-phase"

    #: Root span of the in-flight traced match; phase-2 implementations
    #: attach per-structure children to it when not None.
    _active_span: Optional[Span] = None

    #: Whether ``_match_phase2_batch`` reads event *contents* (cluster
    #: probes over attribute pairs) or only the batch length.  Engines
    #: whose phase 2 is purely truth-matrix-driven set this False so the
    #: columnar path never materializes Event objects at all.
    phase2_needs_events = True

    def __init__(self, index_kind: IndexKind = IndexKind.SORTED_ARRAY) -> None:
        self.registry = PredicateRegistry()
        self.bits: BitVector = self.registry.bits
        self.indexes = PredicateIndexSet(index_kind)
        #: The one numbering: a handle per subscription, the caller's id
        #: only at the match boundary.
        self._subs = HandleTable()
        #: Cumulative instrumentation counters (events, predicate evals, reads).
        self.counters: Dict[str, int] = {
            "events": 0,
            "predicates_satisfied": 0,
            "subscription_checks": 0,
        }
        # Phase 1 of the batch kernel, run off the same indexes.
        self._kernel = BatchPredicateEvaluator(self.indexes)
        # Reusable phase-1 truth buffer: one allocation serves every
        # batch of the same slot width instead of a fresh matrix each
        # call (the process workers run one batch per request, so this
        # is the allocation the shm result path would otherwise add).
        self._truth_scratch: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # predicate interning
    # ------------------------------------------------------------------
    def _release_predicates(self, sub: Subscription) -> None:
        """Release every predicate of *sub*; un-index the dead ones."""
        for pred in sub.predicates:
            _bit, removed = self.registry.release(pred)
            if removed:
                self.indexes.remove(pred)

    # ------------------------------------------------------------------
    # Matcher surface
    # ------------------------------------------------------------------
    def add(self, subscription: Subscription) -> None:
        self._insert(subscription)

    def _insert(self, subscription: Subscription) -> Any:
        """Number, intern and place *subscription*, whole or not at all;
        returns what :meth:`_place` returned (the home, for engines that
        cluster)."""
        handle = self._subs.put(subscription)
        # Intern every predicate in one pass; index the newly-seen ones.
        predicates = subscription.predicates
        bits, fresh = self.registry.intern_all(predicates)
        for i in fresh:
            self.indexes.insert(predicates[i], bits[i])
        try:
            return self._place(handle, subscription, bits)
        except Exception:
            self._release_predicates(subscription)
            self._subs.drop(subscription.id)
            raise

    def remove(self, sub_id: Any) -> Subscription:
        handle = self._subs.handle_of(sub_id)
        sub = self._subs.get(handle)
        self._displace(handle, sub)
        self._release_predicates(sub)
        self._subs.drop(sub_id)
        return sub

    def match(self, event: Event) -> List[Any]:
        """The paper's scalar algorithm — one body, observed or not.

        The clock is read unconditionally (three reads are cheaper
        than keeping an untimed second copy of this body in step); only
        the recording is guarded: phase timings go to the registry
        when one is attached (its counts read :attr:`counters`), and a
        tracer gets a per-event span tree (phase-2 implementations hang
        children off :attr:`_active_span`).
        """
        t0 = time.perf_counter_ns()
        self.bits.reset()
        satisfied = self.indexes.evaluate(event, self.bits)
        t1 = time.perf_counter_ns()
        self.counters["events"] += 1
        self.counters["predicates_satisfied"] += satisfied
        span: Optional[Span] = None
        if self.tracer.enabled:
            span = self.tracer.start("match", engine=self.name)
            self._active_span = span
        before = self.counters["subscription_checks"]
        try:
            matched = self._subs.ids(self._match_phase2(event))
        finally:
            self._active_span = None
        t2 = time.perf_counter_ns()
        checks = self.counters["subscription_checks"] - before
        if self.metrics.enabled:
            self._m_predicate_seconds.observe((t1 - t0) / 1e9)
            self._m_subscription_seconds.observe((t2 - t1) / 1e9)
        if span is not None:
            span.add(
                predicate_ns=t1 - t0,
                subscription_ns=t2 - t1,
                bits_set=satisfied,
                subscriptions_checked=checks,
                matched=len(matched),
            )
            self.tracer.finish(span)
        return matched

    # ------------------------------------------------------------------
    # the vectorized batch path
    # ------------------------------------------------------------------
    def match_batch(self, events: Sequence[Event]) -> List[List[Any]]:
        """The vectorized kernel, over an event list or a ``ColumnarBatch``.

        Phase 1 takes either form (:meth:`BatchPredicateEvaluator.evaluate`
        reads a columnar batch's matrices without building Event
        objects).  Phase 2 materializes them only when the engine's
        cluster walk reads event contents (:attr:`phase2_needs_events`)
        — otherwise the batch itself stands in (it has ``len``).
        """
        if not isinstance(events, ColumnarBatch):
            events = list(events)
        if not len(events):
            return []
        if len(events) == 1:
            # One event is the paper's scalar algorithm (the kernel's
            # fixed per-batch cost buys nothing) — the only reason a
            # batch leaves the kernel.
            if self.metrics.enabled:
                self._mb_fallback.inc()
            return [self.match(e) for e in events]
        t0 = time.perf_counter_ns()
        truth = self._kernel.evaluate(events, self.bits.size, out=self._scratch(len(events)))
        if self.phase2_needs_events and isinstance(events, ColumnarBatch):
            events = events.to_events()
        return self._finish_batch(events, truth, t0)

    def _scratch(self, n: int) -> np.ndarray:
        """The reusable phase-1 truth buffer, grown to ≥ *n* rows."""
        scratch = self._truth_scratch
        if (
            scratch is None
            or scratch.shape[0] < n
            or scratch.shape[1] != self.bits.size
        ):
            scratch = self._truth_scratch = np.zeros(
                (max(n, scratch.shape[0] if scratch is not None else 0),
                 self.bits.size),
                dtype=bool,
            )
        return scratch

    def _finish_batch(
        self, events: Sequence[Event], truth: np.ndarray, t0: int
    ) -> List[List[Any]]:
        """Counters, phase 2 and batch metrics shared by both entries."""
        n = len(events)
        satisfied = int(truth.sum())
        t1 = time.perf_counter_ns()
        self.counters["events"] += n
        self.counters["predicates_satisfied"] += satisfied
        before = self.counters["subscription_checks"]
        ids = self._subs.ids
        out = [ids(row) for row in self._match_phase2_batch(events, truth)]
        t2 = time.perf_counter_ns()
        checks = self.counters["subscription_checks"] - before
        if self.tracer.enabled:
            # One span per batch: the per-event span's fields, summed.
            self.tracer.finish(
                self.tracer.start(
                    "match_batch",
                    engine=self.name,
                    events=n,
                    predicate_ns=t1 - t0,
                    subscription_ns=t2 - t1,
                    bits_set=satisfied,
                    subscriptions_checked=checks,
                    matched=sum(map(len, out)),
                )
            )
        if self.metrics.enabled:
            self._mb_batches.inc()
            self._mb_events.inc(n)
            self._mb_predicate_seconds.observe((t1 - t0) / 1e9)
            self._mb_subscription_seconds.observe((t2 - t1) / 1e9)
        return out

    def _bind_metrics(self) -> None:
        m = self.metrics
        labels = {"engine": self.name, "shard": self.metrics_shard}
        names = ("engine", "shard")
        for key, name, help in (
            ("events", "repro_events_total", "Events matched."),
            ("predicates_satisfied", "repro_predicates_satisfied_total",
             "Distinct predicates the predicate phase set bits for."),
            ("subscription_checks", "repro_subscription_checks_total",
             "Subscriptions the subscription phase read (the paper's unit of phase-2 work)."),
        ):  # fmt: skip
            m.counter(name, help, names).read(self, lambda k=key: self.counters[k], **labels)
        m.gauge("repro_subscriptions", "Live subscriptions.", names).read(
            self, lambda: len(self._subs), **labels
        )
        phases = m.histogram(
            "repro_match_phase_seconds",
            "Per-event latency split by matching phase.",
            ("engine", "shard", "phase"),
        )
        self._m_predicate_seconds = phases.labels(phase="predicate", **labels)
        self._m_subscription_seconds = phases.labels(phase="subscription", **labels)
        self._mb_batches = m.counter(
            "repro_batch_batches_total",
            "Batches matched through the vectorized kernel.",
            names,
        ).labels(**labels)
        self._mb_events = m.counter(
            "repro_batch_events_total",
            "Events matched through the vectorized kernel.",
            names,
        ).labels(**labels)
        fallback = m.counter(
            "repro_batch_fallback_total",
            "Batches that took the per-event scalar path, by reason.",
            ("engine", "shard", "reason"),
        )
        self._mb_fallback = fallback.labels(reason="single", **labels)
        batch_phases = m.histogram(
            "repro_batch_kernel_seconds",
            "Per-batch kernel latency split by matching phase.",
            ("engine", "shard", "phase"),
        )
        self._mb_predicate_seconds = batch_phases.labels(phase="predicate", **labels)
        self._mb_subscription_seconds = batch_phases.labels(phase="subscription", **labels)

    def get(self, sub_id: Any) -> Subscription:
        """Look up a stored subscription by id."""
        return self._subs.get(self._subs.handle_of(sub_id))

    def __contains__(self, sub_id: Any) -> bool:
        return sub_id in self._subs

    def iter_subscriptions(self) -> List[Subscription]:
        """Live subscriptions in ascending handle order."""
        return [sub for _handle, sub in self._subs.items()]

    def __len__(self) -> int:
        return len(self._subs)

    def stats(self) -> Dict[str, Any]:
        base = super().stats()
        base.update(
            distinct_predicates=len(self.registry),
            bitvector_slots=self.bits.size,
            counters=dict(self.counters),
        )
        return base

    # ------------------------------------------------------------------
    # subclass responsibilities
    # ------------------------------------------------------------------
    def _place(self, handle: int, sub: Subscription, bits: List[int]) -> Any:
        """Store *sub* under *handle* in phase-2 structures; *bits* are
        its predicates' bits (already interned), aligned with
        ``sub.predicates``."""
        raise NotImplementedError

    def _displace(self, handle: int, sub: Subscription) -> None:
        """Remove *sub* (under *handle*) from phase-2 structures."""
        raise NotImplementedError

    def _match_phase2(self, event: Event) -> List[int]:
        """Walk candidate clusters; the bit vector is already populated.
        Returns the matched handles."""
        raise NotImplementedError

    def _match_phase2_batch(
        self, events: Sequence[Event], truth: np.ndarray
    ) -> List[List[int]]:
        """Batched subscription phase: one handle list per row of *truth*."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # debugging
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if internal bookkeeping is inconsistent.

        Intended for tests and debugging — O(subscriptions × predicates).
        Subclasses extend with their phase-2 structure checks.
        """
        self._subs.check_invariants()
        self.registry.check_invariants()
        # Registry refcounts must equal live predicate usage exactly.
        usage: Dict[Predicate, int] = {}
        for _handle, sub in self._subs.items():
            for pred in sub.predicates:
                usage[pred] = usage.get(pred, 0) + 1
        assert set(self.registry) == set(usage), "registry tracks wrong predicates"
        for pred, count in usage.items():
            assert self.registry.refcount(pred) == count, f"refcount drift: {pred!r}"
        # Every live predicate must be indexed under its bit.
        indexed = {
            (attr, op, value): bit
            for attr, op, value, bit in self.indexes.entries()
        }
        assert len(indexed) == len(usage), "index entry count drift"
        for pred in usage:
            key = (pred.attribute, pred.operator, pred.value)
            assert indexed.get(key) == self.registry.slot(pred), (
                f"index/registry slot mismatch for {pred!r}"
            )
