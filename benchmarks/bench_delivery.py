"""Acked delivery vs. the fire-and-forget notifier hot path.

The at-least-once layer (:mod:`repro.system.delivery`) adds per-match
work to ``broker.publish``: sequence allocation, lease bookkeeping in
the channel's in-flight window, and the ack settlement.  This bench
pins that overhead on the publish hot path — same broker, same
subscription population, same event stream — in two lanes:

* **fire-and-forget** — matches fan out through a plain
  :class:`~repro.system.notifier.QueueNotifier` (the seed behavior:
  zero delivery state, zero guarantees);
* **acked** — every subscriber owns an ``auto_ack`` push channel on a
  :class:`~repro.system.delivery.DeliveryManager` (no WAL: that cost
  is durability's, priced by ``make durability-smoke``), so each match
  runs the full lease → send → settle cycle.

Both lanes' per-subscriber delivery counts are asserted identical,
and non-empty, before any time is compared.  The headline, asserted by
``test_acked_delivery_overhead``: the acked lane stays within **1.5×**
of fire-and-forget wall-clock.
"""

import random
import gc
import statistics
import time

from benchmarks.conftest import scaled
from repro.core import Event, Subscription, eq
from repro.system import DeliveryManager, PubSubBroker, QueueNotifier, VirtualClock

N_TOPICS = 20
SUBS_PER_TOPIC = 5
REPS = 7
OVERHEAD_BOUND = 1.5


def _workload(n_events):
    rng = random.Random(42)
    subs = [
        Subscription(f"s{t}_{i}", [eq("topic", f"t{t}")])
        for t in range(N_TOPICS)
        for i in range(SUBS_PER_TOPIC)
    ]
    events = [
        Event({"topic": f"t{rng.randrange(N_TOPICS)}", "n": i})
        for i in range(n_events)
    ]
    return subs, events


def _count_by_sub(notifications):
    counts = {}
    for notification in notifications:
        counts[notification.sub_id] = counts.get(notification.sub_id, 0) + 1
    return counts


def _build_fire_and_forget(subs):
    broker = PubSubBroker(clock=VirtualClock(), notifier=QueueNotifier())
    for sub in subs:
        broker.subscribe(sub, notify_retained=False)

    def run(events):
        """One timed rep; returns (seconds, delivered-per-sub)."""
        broker.notifier.drain()
        start = time.perf_counter()
        for event in events:
            broker.publish(event)
        elapsed = time.perf_counter() - start
        return elapsed, _count_by_sub(broker.notifier.drain())

    return broker, run


def _build_acked(subs):
    clock = VirtualClock()
    manager = DeliveryManager(clock=clock)
    broker = PubSubBroker(clock=clock, notifier=QueueNotifier(), delivery=manager)
    # Mirror the fire-and-forget lane's accounting: the timed window
    # only appends (there: the notifier's deque, here: this list); the
    # per-subscriber counting happens outside it, on the drained batch.
    received = []
    sink = received.append
    for sub in subs:
        broker.subscribe(sub, notify_retained=False)
        manager.register(sub.id, sink=sink, auto_ack=True)

    def run(events):
        received.clear()
        start = time.perf_counter()
        for event in events:
            broker.publish(event)
        elapsed = time.perf_counter() - start
        assert manager.inflight == 0, "auto-ack lane left deliveries in flight"
        return elapsed, _count_by_sub(received)

    return manager, run


def test_acked_delivery_overhead():
    """The robustness headline: at-least-once ≤ 1.5× fire-and-forget."""
    n_events = scaled(20_000, minimum=4_000)
    subs, events = _workload(n_events)
    _, run_ff = _build_fire_and_forget(subs)
    manager, run_acked = _build_acked(subs)
    # Interleave the lanes rep-by-rep so machine drift hits both
    # equally, and compare medians (robust to a one-off stall in
    # either lane, unlike best-of which rewards a single lucky rep).
    ff_times, acked_times = [], []
    ff_delivered = acked_delivered = None
    gc.disable()
    try:
        for _ in range(REPS):
            elapsed, ff_delivered = run_ff(events)
            ff_times.append(elapsed)
            elapsed, acked_delivered = run_acked(events)
            acked_times.append(elapsed)
    finally:
        gc.enable()
    assert ff_delivered == acked_delivered, "acked lane diverged from fire-and-forget"
    ff_median = statistics.median(ff_times)
    acked_median = statistics.median(acked_times)
    overhead = acked_median / ff_median
    # Both lanes must have delivered and settled something, or the
    # differential above and the ratio below hold vacuously.
    assert sum(ff_delivered.values()) >= 1, "the workload matched nothing"
    assert manager.stats()["counters"]["acks"] >= 1, "the acked lane acked nothing"
    assert overhead <= OVERHEAD_BOUND, (
        f"acked publish lane took {acked_median:.3f}s vs "
        f"fire-and-forget {ff_median:.3f}s "
        f"(overhead {overhead:.2f}x > {OVERHEAD_BOUND}x)"
    )
