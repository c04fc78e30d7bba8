"""A locking wrapper that makes any matcher safe for concurrent use.

The matching engines are single-threaded by design (as in the paper);
deployments that feed one matcher from several threads can wrap it::

    matcher = ThreadSafeMatcher(DynamicMatcher())

Every forwarded operation holds one reentrant lock — coarse-grained but
correct; matching is short, so contention is the queueing you would
otherwise build yourself.  Metrics, tracer, ``rebuild`` and ``close``
reach the wrapped engine through the :class:`MatcherWrapper` contract.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict

from repro.core.matcher import Matcher, MatcherWrapper


class ThreadSafeMatcher(MatcherWrapper):
    """Serializes all access to a wrapped matcher with an RLock."""

    def __init__(self, inner: Matcher) -> None:
        super().__init__(inner)
        self._lock = threading.RLock()

    def _around(self, op: str, call: Callable[..., Any], *args: Any) -> Any:
        with self._lock:
            return call(*args)

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["thread_safe"] = True
        return stats
