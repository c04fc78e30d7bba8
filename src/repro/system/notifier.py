"""Notification delivery: what happens after a match.

The paper's system "sends the event to the owners of subscriptions
satisfied by those events"; here delivery is in-process and pluggable so
examples can print, tests can collect, and benchmarks can discard.

Everything in this module is *at-most-once*: a sink that raises, a
bounded queue that overflows, or a crashed consumer loses the
notification (with accounting, never silently).  The acked,
redelivering, dead-lettering layer lives in
:mod:`repro.system.delivery`; these sinks double as its push-mode
transports.
"""

from __future__ import annotations

import abc
import dataclasses
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Union

from repro.core.errors import ReproError
from repro.core.types import Event
from repro.obs.registry import Instrumented, MetricsRegistry


@dataclasses.dataclass(frozen=True)
class Notification:
    """One delivery: *event* matched the subscription with *sub_id*.

    ``seq`` is the per-subscriber delivery sequence number assigned by
    the at-least-once layer (:mod:`repro.system.delivery`) — the token a
    consumer acks with.  Fire-and-forget paths leave it ``None``.
    """

    sub_id: Any
    event: Event
    timestamp: float
    seq: Optional[int] = None


class FanoutDeliveryError(ReproError, RuntimeError):
    """One or more sinks of a :class:`FanoutNotifier` raised.

    Carries every per-sink failure (``errors``: list of ``(sink,
    exception)`` pairs) after the surviving sinks all received the
    notification — fan-out isolates sink failures instead of letting
    the first one starve the rest.
    """

    def __init__(self, notification: Notification, errors: List[Any]) -> None:
        self.notification = notification
        self.errors = errors
        detail = "; ".join(
            f"{type(sink).__name__}: {exc!r}" for sink, exc in errors
        )
        super().__init__(
            f"{len(errors)} sink(s) failed delivering to {notification.sub_id!r}: "
            f"{detail}"
        )


class Notifier(abc.ABC):
    """Delivery sink for notifications."""

    @abc.abstractmethod
    def deliver(self, notification: Notification) -> None:
        """Handle one notification."""


#: What a sink may be: a :class:`Notifier` or a plain callable.
Sink = Union[Notifier, Callable[[Notification], None]]


def _as_callable(sink: Optional[Sink]) -> Optional[Callable[[Notification], None]]:
    """``sink.deliver`` or *sink* itself: either form, no adapter class."""
    if sink is None:
        return None
    deliver = getattr(sink, "deliver", None)
    if callable(deliver):
        return deliver
    if callable(sink):
        return sink
    raise TypeError(f"sink must be a Notifier or callable, got {sink!r}")


class NullNotifier(Notifier):
    """Discards everything (benchmark mode)."""

    def deliver(self, notification: Notification) -> None:
        pass


class QueueNotifier(Instrumented, Notifier):
    """Collects notifications in order for later draining.

    With ``maxlen`` the queue is bounded and keeps the *newest*
    notifications: delivering to a full queue evicts the oldest.  Every
    eviction is counted (``dropped``, :meth:`stats`, and the
    ``repro_notifier_dropped_total`` metric) — a bounded sink may shed,
    but never silently.
    """

    def __init__(
        self, maxlen: int = 0, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.maxlen = maxlen or None
        self._queue: Deque[Notification] = deque(maxlen=self.maxlen)
        #: Notifications evicted by maxlen overflow since construction.
        self.dropped = 0
        self.use_metrics(metrics)

    def _bind_metrics(self) -> None:
        self._m_dropped = self.metrics.counter(
            "repro_notifier_dropped_total",
            "Notifications evicted by a bounded QueueNotifier (maxlen overflow).",
        ).labels()

    def deliver(self, notification: Notification) -> None:
        if self.maxlen is not None and len(self._queue) == self.maxlen:
            # deque(maxlen=...) would evict silently; do it by hand so
            # the loss is observable.
            self._queue.popleft()
            self.dropped += 1
            self._m_dropped.inc()
        self._queue.append(notification)

    def drain(self) -> List[Notification]:
        """Pop and return everything queued so far."""
        out = list(self._queue)
        self._queue.clear()
        return out

    def __len__(self) -> int:
        return len(self._queue)

    def stats(self) -> Dict[str, Any]:
        """Unified stats shape (same contract as the matchers)."""
        return {
            "name": "queue-notifier",
            "queued": len(self._queue),
            "maxlen": self.maxlen,
            "counters": {"dropped": self.dropped},
        }


class FanoutNotifier(Notifier):
    """Forwards each notification to several sinks.

    Per-sink failures are isolated: every healthy sink still receives
    the notification, then the collected failures are re-raised as one
    :class:`FanoutDeliveryError` (so a flaky logging sink cannot starve
    the real consumer next to it, and the caller still sees the
    failure).
    """

    def __init__(self, sinks: Iterable[Notifier]) -> None:
        self._sinks = list(sinks)

    def deliver(self, notification: Notification) -> None:
        errors: List[Any] = []
        for sink in self._sinks:
            try:
                sink.deliver(notification)
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                errors.append((sink, exc))
        if errors:
            raise FanoutDeliveryError(notification, errors)
