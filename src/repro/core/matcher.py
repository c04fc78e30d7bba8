"""The matcher contract shared by every engine and every layer over one.

All five algorithms from the paper's evaluation (counting, propagation,
propagation-with-prefetch, static, dynamic) plus the brute-force oracle
and the SQL-trigger strawman implement :class:`Matcher`, so the
benchmark harness, the broker and the tests can treat them uniformly.

It is also the composition contract: a layer names the matchers it
holds in :meth:`Matcher.inner_matchers`, and ``use_metrics`` /
``use_tracer`` / ``close`` / ``rebuild`` walk them (no-ops at a leaf).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.types import Event, Subscription
from repro.obs.registry import Instrumented, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer


class Matcher(Instrumented, abc.ABC):
    """Abstract subscription matcher.

    Implementations must tolerate interleaved ``add`` / ``remove`` /
    ``match`` calls: the paper's target deployment is a broker at
    *equilibrium* where 50 insertions and 50 deletions happen per second
    while events stream through.
    """

    #: Short machine-readable name used by benchmarks and reports.
    name: str = "abstract"

    #: Whether concurrent callers may share this instance without locking.
    #: The paper's engines are single-threaded; only wrappers that add
    #: their own locking (ThreadSafeMatcher, ShardedMatcher) flip this.
    thread_safe: bool = False

    #: Trace sink; disabled by default (see :meth:`use_tracer`).
    tracer: Tracer = NULL_TRACER

    #: Value of the ``shard`` label on this engine's metric families;
    #: the sharded fan-out stamps each inner engine with its index so
    #: per-shard series stay distinct (and race-free) in one registry.
    metrics_shard: str = ""

    @abc.abstractmethod
    def add(self, subscription: Subscription) -> None:
        """Insert a subscription.

        Raises :class:`~repro.core.errors.DuplicateSubscriptionError` if
        the id is already present.
        """

    @abc.abstractmethod
    def remove(self, sub_id: Any) -> Subscription:
        """Remove and return the subscription with *sub_id*.

        Raises :class:`~repro.core.errors.UnknownSubscriptionError` if
        absent.
        """

    @abc.abstractmethod
    def match(self, event: Event) -> List[Any]:
        """Return the ids of all subscriptions satisfied by *event*."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of live subscriptions."""

    def iter_subscriptions(self) -> List[Subscription]:
        """Snapshot of the stored subscriptions (a stable list, not a view).

        The durability layer (``repro.system.wal``'s compaction) persists
        broker state through this surface, so every engine and wrapper
        must implement it; returning a fresh list keeps callers safe from
        concurrent mutation in locking wrappers.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not expose its subscriptions"
        )

    # ------------------------------------------------------------------
    # conveniences shared by all matchers
    # ------------------------------------------------------------------
    def add_all(self, subscriptions: Iterable[Subscription]) -> int:
        """Insert many subscriptions; returns how many were inserted."""
        n = 0
        for sub in subscriptions:
            self.add(sub)
            n += 1
        return n

    def match_batch(self, events: Sequence[Event]) -> List[List[Any]]:
        """Match *events* as one batch; returns one id-list per event.

        Contract (pinned by ``tests/matchers/test_batch_conformance.py``
        and ``tests/properties/test_prop_batch.py``): the result is
        per-event equivalent to calling :meth:`match` on each event in
        order — same matched ids per event, though the *within-event*
        ordering of ids may differ — and is invariant under batch
        splitting.  The default implementation is the per-event loop;
        two-phase engines override it with the vectorized kernel
        (``repro.batch``), and wrappers forward it so batches reach the
        kernel through locks, shards and fault injectors.

        *events* may also be a ``repro.batch.columns.ColumnarBatch``
        (what a process-executor worker holds): it has a length and
        iterates as its events.  Counting reads it end to end (phase 1
        off the matrices, phase 2 off the truth matrix); the clustered
        engines run phase 1 off the matrices and build events for their
        phase-2 probe keys; dynamic builds them up front, for
        ``EventStatistics.observe``; every other implementation — this
        default included — iterates, which builds the events.
        """
        return [self.match(e) for e in events]

    # ------------------------------------------------------------------
    # composition: these four reach every inner matcher
    # ------------------------------------------------------------------
    def inner_matchers(self) -> Sequence["Matcher"]:
        """The matchers this one is composed of (none for an engine)."""
        return ()

    def use_metrics(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Attach a registry (a fresh one if None) here and on every
        inner matcher; returns it."""
        registry = super().use_metrics(registry)
        for inner in self.inner_matchers():
            inner.use_metrics(registry)
        return registry

    def use_tracer(self, tracer: Optional[Tracer] = None) -> Tracer:
        """Attach a span tracer (a fresh one if None); returns it."""
        tracer = Tracer() if tracer is None else tracer
        self.tracer = tracer
        for inner in self.inner_matchers():
            inner.use_tracer(tracer)
        return tracer

    def close(self) -> None:
        """Release resources (idempotent); an engine holds none."""
        for inner in self.inner_matchers():
            inner.close()

    def rebuild(self) -> Any:
        """Run the build step, if any (``static`` returns its plan)."""
        for inner in self.inner_matchers():
            inner.rebuild()

    def stats(self) -> Dict[str, Any]:
        """Implementation-specific statistics (sizes, counters).

        Contract (pinned by ``tests/obs/test_stats_contract.py``): the
        returned dict is JSON-serializable with stable keys and always
        carries ``name`` (str), ``subscriptions`` (int) and ``counters``
        (flat str → number dict); subclasses extend it.
        """
        return {"name": self.name, "subscriptions": len(self), "counters": {}}


class MatcherWrapper(Matcher):
    """Forwards the whole matcher surface to one inner matcher.

    Every forwarded call goes through :meth:`_around` — the single hook
    a subclass overrides to hold a lock, inject a fault or count: *op*
    names the operation (a batch is one ``"match"``), *call* is the
    inner bound method.
    """

    def __init__(self, inner: Matcher) -> None:
        self.inner = inner

    def inner_matchers(self) -> Sequence[Matcher]:
        return (self.inner,)

    def _around(self, op: str, call: Callable[..., Any], *args: Any) -> Any:
        return call(*args)

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.inner.name

    def add(self, subscription: Subscription) -> None:
        self._around("add", self.inner.add, subscription)

    def remove(self, sub_id: Any) -> Subscription:
        return self._around("remove", self.inner.remove, sub_id)

    def match(self, event: Event) -> List[Any]:
        return self._around("match", self.inner.match, event)

    def match_batch(self, events: Sequence[Event]) -> List[List[Any]]:
        return self._around("match", self.inner.match_batch, events)

    def get(self, sub_id: Any) -> Subscription:
        return self._around("get", self.inner.get, sub_id)  # type: ignore[attr-defined]

    def iter_subscriptions(self) -> List[Subscription]:
        return self._around("iter_subscriptions", self.inner.iter_subscriptions)

    def __len__(self) -> int:
        return self._around("len", self.inner.__len__)

    def stats(self) -> Dict[str, Any]:
        return self._around("stats", self.inner.stats)

    def rebuild(self) -> Any:
        # Through the hook (a lock must be held); hands the plan back.
        return self._around("rebuild", self.inner.rebuild)
