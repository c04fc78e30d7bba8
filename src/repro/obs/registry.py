"""Dependency-free metrics primitives: counters, gauges, histograms.

The registry is the one place every layer's operational metrics are
read from (matchers, sharding, server, benchmarks).
Three instrument kinds are provided, deliberately mirroring the
Prometheus data model so the text exporter in :mod:`repro.obs.export`
is a straight serialization:

* :class:`Counter` — monotonically increasing value;
* :class:`Gauge` — value that can go up and down (queue depths);
* :class:`Histogram` — observations bucketed under fixed log-scale
  upper bounds (cumulative ``le`` semantics: a value exactly on a
  boundary counts into that boundary's bucket).

Instruments are grouped into labeled :class:`Family` objects
(``registry.counter(name, help, labelnames)``); hot paths hold the
*child* returned by :meth:`Family.labels` so recording is one attribute
update.  A number its owner keeps anyway (a size, a lifetime count) is
not recorded at all: :meth:`Family.read` binds a reader for it instead.
The default registry on every matcher is :data:`NOOP_REGISTRY`
— a singleton whose instruments do nothing — so instrumentation costs
one ``enabled`` check until a real registry is attached with
``matcher.use_metrics()``.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` log-scale bucket bounds: start, start·factor, …

    The standard way to build histogram bounds spanning several orders
    of magnitude with a fixed number of buckets.
    """
    if start <= 0:
        raise ValueError(f"bucket start must be positive, got {start}")
    if factor <= 1.0:
        raise ValueError(f"bucket factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"bucket count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


#: Default latency bounds: 1 µs … ~4.3 s in factor-4 steps (log scale).
DEFAULT_BUCKETS = exponential_buckets(1e-6, 4.0, 12)


class _Child:
    """A counter or gauge child: what was pushed plus what its readers
    (:meth:`Family.read`) say, one per owner, read when the value is."""

    __slots__ = ("_pushed", "_readers")

    def __init__(self) -> None:
        self._pushed: float = 0
        self._readers: Dict[int, Callable[[], float]] = {}

    @property
    def value(self) -> float:
        """The pushed value plus every bound reader's, read now."""
        # A tuple copy: another thread may bind an owner meanwhile.
        return self._pushed + sum(read() for read in tuple(self._readers.values()))


class Counter(_Child):
    """A monotonically increasing value (one labeled child)."""

    __slots__ = ()
    kind = "counter"

    def inc(self, n: float = 1) -> None:
        """Add *n* (must be >= 0) to the counter."""
        if n < 0:
            raise ValueError(f"counters only go up, got inc({n})")
        self._pushed += n


class Gauge(_Child):
    """A value that can move both ways (one labeled child)."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value."""
        self._pushed = value

    def inc(self, n: float = 1) -> None:
        """Add *n* to the gauge."""
        self._pushed += n

    def dec(self, n: float = 1) -> None:
        """Subtract *n* from the gauge."""
        self._pushed -= n


class Histogram:
    """Observations under fixed cumulative-``le`` bucket bounds.

    ``bounds`` are the finite upper bounds in ascending order; an
    implicit ``+Inf`` bucket catches everything above the last bound.
    A value exactly equal to a bound is counted in that bound's bucket
    (Prometheus ``le`` semantics).
    """

    __slots__ = ("bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"bucket bounds must be strictly ascending: {bounds}")
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]  # +Inf is implicit
            if not bounds:
                raise ValueError("histogram needs at least one finite bound")
        self.bounds = bounds
        #: Per-bucket (non-cumulative) counts; last slot is the +Inf bucket.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out


class Family:
    """One named metric with a fixed label schema and many children."""

    __slots__ = ("kind", "name", "help", "labelnames", "_children", "_buckets")

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._buckets = buckets

    def labels(self, **labels: Any) -> Any:
        """The child instrument for one label-value combination.

        Label values are coerced to ``str``.  Children are created on
        first use and live for the registry's lifetime.  Call with no
        arguments for an unlabeled family.
        """
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self._buckets or DEFAULT_BUCKETS)
            self._children[key] = child
        return child

    def read(self, owner: Any, read: Callable[[], float], **labels: Any) -> Any:
        """Bind *read* as *owner*'s part of one counter or gauge child,
        called whenever the child's value is read; returns the child.

        Nothing then runs at mutation time and nothing can drift.  Binding
        the same owner again replaces its reader; owners on one child add
        up.  The registry holds the reader and its owner: counts never drop.
        """
        child = self.labels(**labels)
        child._readers[id(owner)] = read
        return child

    def children(self) -> Iterator[Tuple[Tuple[str, ...], Any]]:
        """Iterate ``(label_values, child)`` pairs in insertion order."""
        return iter(self._children.items())

    def __len__(self) -> int:
        return len(self._children)


def _json_number(value: float) -> Any:
    """A strictly-JSON-safe rendering of a possibly non-finite number."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value.is_integer():
            return int(value)
    return value


class MetricsRegistry:
    """A set of metric families, addressable by name.

    Creation methods are idempotent: asking twice for the same name
    returns the existing family, so independent components can share
    one family as long as kind and label schema agree.
    """

    #: Hot paths test this before doing any measurement work.
    enabled = True

    def __init__(self) -> None:
        self._families: Dict[str, Family] = {}

    # ------------------------------------------------------------------
    # family creation
    # ------------------------------------------------------------------
    def _register(
        self,
        kind: str,
        name: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> Family:
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"with labels {existing.labelnames}"
                )
            return existing
        family = Family(kind, name, help, labelnames, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Family:
        """Get or create a counter family."""
        return self._register("counter", name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Family:
        """Get or create a gauge family."""
        return self._register("gauge", name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Family:
        """Get or create a histogram family (default log-scale buckets)."""
        return self._register("histogram", name, help, labelnames, buckets)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def family(self, name: str) -> Optional[Family]:
        """Look up a family by metric name."""
        return self._families.get(name)

    def families(self) -> List[Family]:
        """All families in registration order."""
        return list(self._families.values())

    def __len__(self) -> int:
        return len(self._families)

    def __iter__(self) -> Iterator[Family]:
        return iter(self._families.values())

    def snapshot(self) -> Dict[str, Any]:
        """Strictly-JSON-serializable dump of every family.

        This is the schema checked in at ``schemas/metrics_snapshot.schema.json``
        and consumed by ``repro stats --metrics-out`` and the bench
        harness.  Histogram buckets are cumulative (``le`` semantics);
        non-finite numbers are rendered as the strings ``"+Inf"`` /
        ``"-Inf"`` / ``"NaN"`` because strict JSON has no spelling for
        them.
        """
        metrics: List[Dict[str, Any]] = []
        for family in self._families.values():
            samples: List[Dict[str, Any]] = []
            for values, child in family.children():
                labels = dict(zip(family.labelnames, values))
                if family.kind == "histogram":
                    samples.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": _json_number(child.sum),
                            "buckets": [
                                {"le": _json_number(bound), "count": n}
                                for bound, n in child.cumulative()
                            ],
                        }
                    )
                else:
                    samples.append(
                        {"labels": labels, "value": _json_number(child.value)}
                    )
            metrics.append(
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "labelnames": list(family.labelnames),
                    "samples": samples,
                }
            )
        return {"version": 1, "metrics": metrics}


class _NoopInstrument:
    """Accepts the full instrument surface and does nothing."""

    __slots__ = ()
    value = 0
    sum = 0.0
    count = 0

    def labels(self, **labels: Any) -> "_NoopInstrument":
        """Return self: every label combination is the same no-op."""
        return self

    def inc(self, n: float = 1) -> None:
        """Discard the increment."""

    def dec(self, n: float = 1) -> None:
        """Discard the decrement."""

    def set(self, value: float) -> None:
        """Discard the value."""

    def read(self, owner: Any, read: Callable[[], float], **labels: Any) -> "_NoopInstrument":
        """Bind nothing: a no-op registry never asks."""
        return self

    def observe(self, value: float) -> None:
        """Discard the observation."""


#: Shared do-nothing instrument (family and child in one object).
NOOP_INSTRUMENT = _NoopInstrument()


class NoopRegistry(MetricsRegistry):
    """The zero-cost default: every family is the shared no-op."""

    enabled = False

    def _register(self, kind, name, help, labelnames, buckets=None):  # type: ignore[override]
        return NOOP_INSTRUMENT

    def snapshot(self) -> Dict[str, Any]:
        """An empty—but schema-valid—snapshot."""
        return {"version": 1, "metrics": []}


#: Singleton default for every matcher; attach a real registry with
#: ``matcher.use_metrics()`` to start recording.
NOOP_REGISTRY = NoopRegistry()


class Instrumented:
    """A component that records into :attr:`metrics`, its instrument
    children (and readers) bound in :meth:`_bind_metrics`.  The no-op
    default costs one ``enabled`` check on a hot path until
    :meth:`use_metrics` attaches a real registry."""

    metrics: MetricsRegistry = NOOP_REGISTRY

    def use_metrics(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """Attach a (shared) registry, a fresh one if None; returns it."""
        self.metrics = MetricsRegistry() if registry is None else registry
        self._bind_metrics()
        return self.metrics

    def _bind_metrics(self) -> None:
        """Hook: (re)create instrument children on :attr:`metrics`."""
