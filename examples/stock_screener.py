"""Stock screener: DNF formulas, persistence, and engine statistics.

Run:  python examples/stock_screener.py

Traders register *formulas* (the paper's conclusion: the prototype
supports disjunctive-normal-form conditions); the broker expands them
to conjunctions internally but notifies each trader at most once per
tick.  The subscription portfolio round-trips through JSON so a broker
restart can reload it.
"""

import io
import random

from repro.io import dump_subscriptions, load_subscriptions
from repro.lang import parse_event
from repro.system import PubSubBroker, QueueNotifier

SCREENS = {
    "value-hunter": "sector = energy and (pe <= 8 or dividend >= 6)",
    "momentum": "sector = tech and change >= 3 and volume >= 500",
    "bargain-or-blue-chip": "(pe <= 5) or (rating = 'AAA' and pe <= 15)",
    "not-overheated": "sector = tech and not (pe >= 40)",
}

TICKS = [
    "symbol=XOM, sector=energy, pe=7, dividend=4, change=1, volume=900, rating=AA",
    "symbol=NVD, sector=tech, pe=55, dividend=0, change=5, volume=800, rating=AA",
    "symbol=IBM, sector=tech, pe=18, dividend=5, change=4, volume=600, rating=AAA",
    "symbol=KO,  sector=staples, pe=14, dividend=3, change=0, volume=300, rating=AAA",
    "symbol=F,   sector=auto, pe=4, dividend=5, change=-1, volume=200, rating=BB",
]


def main() -> None:
    inbox = QueueNotifier()
    broker = PubSubBroker(notifier=inbox)

    for trader, formula in SCREENS.items():
        broker.subscribe_formula(formula, trader)
        print(f"registered {trader}: {formula}")

    print("\n-- market ticks --")
    for tick in TICKS:
        event = parse_event(tick)
        matched = broker.publish(event)
        print(f"{event.get('symbol'):>4}: alerts -> {sorted(matched)}")

    # Persist the *expanded* subscription portfolio and reload it into a
    # fresh broker (ids carry the logical owner as a prefix).
    buf = io.StringIO()
    n = dump_subscriptions(
        sorted(broker.matcher.iter_subscriptions(), key=lambda sub: str(sub.id)),
        buf,
    )
    print(f"\npersisted {n} conjunctions "
          f"({len(SCREENS)} formulas after DNF expansion)")

    buf.seek(0)
    restored = PubSubBroker(notifier=QueueNotifier())
    for sub in load_subscriptions(buf):
        restored.subscribe(sub)
    event = parse_event(TICKS[2])
    again = {str(sid).split("~")[0] for sid in restored.publish(event)}
    print(f"after reload, IBM tick alerts -> {sorted(again)}")

    print("\nmatcher statistics:")
    stats = broker.matcher.stats()
    print(f"  distinct predicates: {stats['distinct_predicates']}")
    print(f"  tables: {stats['tables']}")


if __name__ == "__main__":
    main()
