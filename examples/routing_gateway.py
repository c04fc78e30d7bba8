"""Routing gateway: subscription covering as an upstream filter.

Run:  python examples/routing_gateway.py

An edge broker aggregates local subscriptions and forwards a *minimal
covering set* to its upstream peer (the classic content-based-routing
optimization): a subscription need not travel upstream if a broader one
already did.  The covering forest keeps that set as its frontier.
Locally, every subscriber is still matched exactly.
"""

from repro import DynamicMatcher, Subscription, eq, ge, le
from repro.aggregation.forest import CoveringForest
from repro.core.covering import _by_attribute, covers
from repro.core.simplify import simplify_predicates
from repro.lang import parse_event

LOCAL_SUBSCRIPTIONS = [
    Subscription("alice", [eq("sport", "cycling"), le("price", 50)]),
    Subscription("bob", [eq("sport", "cycling"), le("price", 20)]),      # ⊂ alice
    Subscription("carol", [eq("sport", "cycling")]),                      # ⊃ alice, bob
    Subscription("dave", [eq("sport", "running"), ge("distance", 10)]),
    Subscription("erin", [eq("sport", "running"), ge("distance", 21)]),   # ⊂ dave
]


def main() -> None:
    local = DynamicMatcher()
    upstream_filter = CoveringForest()
    by_id = {sub.id: sub for sub in LOCAL_SUBSCRIPTIONS}

    print("local subscriptions arriving at the edge broker:")
    for sub in LOCAL_SUBSCRIPTIONS:
        local.add(sub)
        parent, demoted = upstream_filter.insert(
            sub.id, _by_attribute(simplify_predicates(sub.predicates))
        )
        if parent is not None:
            note = f"suppressed upstream (covered by {parent})"
        else:
            note = "forwarded upstream"
        if demoted:
            note += f"; supersedes {demoted} upstream"
        print(f"  {sub.id:6s} {note}")

    forwarding = [by_id[gid] for gid in upstream_filter.frontier()]
    print(f"\nminimal upstream forwarding set "
          f"({len(forwarding)} of {len(LOCAL_SUBSCRIPTIONS)}):")
    for sub in forwarding:
        print(f"  {sub}")
    # Sanity: the forwarding set covers everything local.
    assert all(
        any(covers(f, s) for f in forwarding) for s in LOCAL_SUBSCRIPTIONS
    )

    print("\nevents flowing down from upstream are matched exactly locally:")
    for text in (
        "sport=cycling, price=15, brand=bianchi",
        "sport=cycling, price=45, brand=colnago",
        "sport=running, distance=25, city=berlin",
        "sport=running, distance=12, city=paris",
    ):
        event = parse_event(text)
        print(f"  {text:45s} -> {sorted(local.match(event))}")


if __name__ == "__main__":
    main()
