"""Benchmark-owned timing proxies: spans around each layer's public calls.

Nothing in ``src/`` is instrumented.  The harness builds every layer
object itself (matcher, WAL, delivery manager, notifier, broker,
server), wraps it in a :class:`Traced` proxy and hands the proxy to the
next layer up, so each public call across a layer boundary is timed
from outside.  Spans stay in memory until the run ends.

A span is ``(id, name, start, end, parent, batch_id, calls, busy)``.
``busy`` equals ``end - start`` for an ordinary span.  Leaf calls made
once or more per event (WAL appends: ~9 per event; the scalar ``match``;
``pump``) are folded into one span per ``(name, parent)`` per batch with
``calls`` > 1 and ``busy`` the summed call time: a tuple per call would
cost more time and memory than the calls themselves.

Self time of a span = its ``busy`` minus the ``busy`` of its direct
children (:func:`layer_times`).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], int, int, float]


class Recorder:
    """In-memory span store with per-thread parent tracking."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.batch_id = -1
        self._next_id = 0
        self._local = threading.local()
        self._main_stack: List[int] = []
        self._local.stack = self._main_stack
        # (name, parent) -> [calls, busy, first_start]
        self._leaves: Dict[Tuple[str, Optional[int]], List[float]] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn* recorded as one span per call.

        Its parent is the innermost open span on the calling thread —
        or, for a thread with none (a server worker serving the one
        outstanding batch), on the blocked client thread, whose open
        call is its cause.
        """
        local, main, spans, clock = self._local, self._main_stack, self.spans, time.perf_counter

        def call(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            outer = stack or main
            parent = outer[-1] if outer else None
            span_id = self._next_id
            self._next_id = span_id + 1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, self.batch_id, 1, end - start))

        return call

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """*fn* folded into one span per (name, parent) per batch.

        For calls with no traced calls beneath them that happen once or
        more per event; kept to the bone, since eleven of them wrap one
        ``broker_full`` event.  A call that raises is not booked.
        """
        local, main, leaves = self._local, self._main_stack, self._leaves
        clock = time.perf_counter

        def call(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = fn(*args, **kwargs)
            took = clock() - start
            outer = getattr(local, "stack", None) or main
            key = (name, outer[-1] if outer else None)
            try:
                acc = leaves[key]
                acc[0] += 1
                acc[1] += took
            except KeyError:
                leaves[key] = [1, took, start]
            return result

        return call

    def flush_leaves(self) -> None:
        """Turn the batch's folded leaf calls into spans (call per batch);
        a folded span runs from its first call to now."""
        now = time.perf_counter()
        for (name, parent), (calls, busy, start) in self._leaves.items():
            self.spans.append((self._next_id, name, start, now, parent, self.batch_id, calls, busy))
            self._next_id += 1
        self._leaves.clear()

    def write(self, path: str, context: Dict[str, Any]) -> None:
        """Dump every span as JSON (columns named once, rows as lists)."""
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(
                {
                    "context": context,
                    "columns": [
                        "id", "name", "start", "end", "parent", "batch_id", "calls", "busy",
                    ],
                    "spans": self.spans,
                },
                fp,
            )


class Traced:
    """Forwarding proxy that times the named public methods of *target*.

    Everything else (attributes, ``stats()``, ``close()``) falls through
    to the target, so the layer above cannot tell the difference.
    """

    def __init__(
        self,
        target: Any,
        recorder: Recorder,
        layer: str,
        methods: Iterable[str],
        leaves: Optional[Mapping[str, str]] = None,
    ) -> None:
        """*methods* get one span per call, named ``layer.method``;
        *leaves* maps a method to the ``layer.<name>`` it is folded under."""
        self._target = target
        for method in methods:
            setattr(self, method, recorder.wrap(f"{layer}.{method}", getattr(target, method)))
        for method, name in (leaves or {}).items():
            setattr(self, method, recorder.wrap_leaf(f"{layer}.{name}", getattr(target, method)))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)

    def __len__(self) -> int:
        return len(self._target)


def layer_times(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``busy`` seconds and ``self`` seconds."""
    spans = list(spans)
    child_busy: Dict[int, float] = {}
    for _id, _name, _start, _end, parent, _batch, _calls, busy in spans:
        if parent is not None:
            child_busy[parent] = child_busy.get(parent, 0.0) + busy
    out: Dict[str, Dict[str, float]] = {}
    for span_id, name, _start, _end, _parent, _batch, calls, busy in spans:
        row = out.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0})
        row["calls"] += calls
        row["busy"] += busy
        row["self"] += busy - child_busy.get(span_id, 0.0)
    return out
