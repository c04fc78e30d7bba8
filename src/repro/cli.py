"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``match``
    Load JSON-lines subscriptions and events, run a matching engine,
    print the per-event match lists (``--metrics-out`` additionally
    writes a JSON metrics snapshot).
``stats``
    Run the same workload with full instrumentation and print the
    collected metrics as Prometheus text (or ``--format json``).
``explain``
    Replay one event with instrumentation: which predicates fired,
    what phase 2 checked, and (``--trace``) the per-event span tree.
``generate``
    Emit a synthetic workload (subscriptions or events) from a named
    paper scenario (W0–W6), as JSON lines.
``bench``
    Run one of the paper-figure experiment drivers.
``health``
    Replay a workload through a bounded :class:`BatchServer` and print
    the server's health report (queue depth, shed counts, breaker
    states, WAL lag) as JSON — the operational view of
    ``docs/resilience.md``.
``snapshot``
    Load JSON-lines subscriptions into a broker journaling to a fresh
    write-ahead log, then compact it (a snapshot *is* a compacted log:
    the file ``recover --wal`` reads and a broker can go on appending to).
``recover``
    Rebuild a broker from a write-ahead log, print the recovery report
    as JSON, optionally dump the recovered subscription set as JSON
    lines.
``deliveries``
    Fold a write-ahead log's ``deliver``/``settle`` records into the
    per-subscriber at-least-once state (unacked in-flight counts,
    oldest outstanding sequence, dead-letter totals) and print it as
    JSON — the operational view of ``docs/delivery.md``.
``dlq``
    List the dead-lettered notifications a write-ahead log records
    (who, which sequence, why, after how many attempts), as JSON.
``demo``
    The quickstart scenario, end to end.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__
from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import matcher_for
from repro.io import (
    dump_events,
    dump_subscriptions,
    load_events,
    load_subscriptions,
)
from repro.obs import MetricsRegistry, json_snapshot, prometheus_text, write_json_snapshot
from repro.system.resilience import ADMISSION_POLICIES, DeadlineExceededError, ServerOverloadedError
from repro.system.router import ROUTERS
from repro.system.sharding import EXECUTORS, ShardedMatcher
from repro.workload.generator import WorkloadGenerator
from repro.workload.scenarios import paper_workloads

#: Engines selectable on the command line.
ENGINES = ("oracle", "counting", "propagation", "propagation-wp", "static", "dynamic")

#: Engines ``explain`` understands (two-phase internals required).
TWO_PHASE_ENGINES = tuple(e for e in ENGINES if e != "oracle")


def _add_engine_flags(
    sub: argparse.ArgumentParser,
    engines=ENGINES,
    executor: bool = True,
    aggregate: bool = True,
) -> None:
    """The flags :func:`_build_matcher` reads, shared by
    match/stats/explain/health.  A command without a flag group gets
    that group's defaults, so the namespace always carries all of them."""
    sub.add_argument("--subscriptions", required=True, help="JSON-lines file")
    sub.add_argument("--events", required=True, help="JSON-lines file")
    sub.add_argument("--engine", choices=engines, default="dynamic")
    sub.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="partition subscriptions over N engine instances (default 1)",
    )
    sub.add_argument(
        "--router",
        choices=sorted(ROUTERS),
        default="affinity",
        help="shard placement/pruning policy (with --shards > 1)",
    )
    sub.set_defaults(breaker=None)  # `health` turns shard quarantine on
    if executor:
        sub.add_argument(
            "--executor",
            choices=EXECUTORS,
            default="thread",
            help="shard execution backend (with --shards > 1): 'process' runs "
            "one worker process per shard for real multi-core matching",
        )
        sub.add_argument(
            "--worker-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="kill a worker whose reply exceeds this many seconds "
            "(with --executor process; default: wait forever)",
        )
    else:
        sub.set_defaults(executor="thread", worker_timeout=None)
    if aggregate:
        sub.add_argument(
            "--aggregate",
            action="store_true",
            help="front the engine with the subscription-aggregation layer "
            "(dedup + covering forest; see docs/aggregation.md)",
        )
    else:
        sub.set_defaults(aggregate=False)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Very fast publish/subscribe matching (SIGMOD 2001 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    match = commands.add_parser("match", help="match events against subscriptions")
    _add_engine_flags(match)
    match.add_argument(
        "--batch-size",
        type=int,
        default=1,
        metavar="N",
        help="feed events through match_batch in chunks of N "
        "(default 1 = per-event matching)",
    )
    match.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="also write a JSON metrics snapshot to FILE",
    )

    stats = commands.add_parser(
        "stats", help="run a workload instrumented and print the metrics"
    )
    _add_engine_flags(stats)
    stats.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="stdout format (default: Prometheus text exposition)",
    )
    stats.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="also write a JSON metrics snapshot to FILE",
    )

    explain = commands.add_parser(
        "explain", help="explain one event's match against the subscription set"
    )
    _add_engine_flags(explain, engines=TWO_PHASE_ENGINES, executor=False, aggregate=False)
    explain.add_argument(
        "--event-index",
        type=int,
        default=0,
        metavar="I",
        help="which event in the file to explain (default 0)",
    )
    explain.add_argument(
        "--trace",
        action="store_true",
        help="also print the recorded per-event span tree",
    )

    health = commands.add_parser(
        "health", help="replay a workload through a bounded server, report health"
    )
    _add_engine_flags(health, aggregate=False)
    health.set_defaults(breaker=True)
    health.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        metavar="N",
        help="bound the request queue at N batches (default: unbounded)",
    )
    health.add_argument(
        "--admission",
        choices=ADMISSION_POLICIES,
        default="block",
        help="full-queue policy with --queue-limit (default: block)",
    )
    health.add_argument(
        "--batch-size",
        type=int,
        default=50,
        metavar="N",
        help="events per submitted batch (default 50)",
    )
    health.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-batch deadline; expired batches are shed, not matched",
    )

    gen = commands.add_parser("generate", help="emit a synthetic workload")
    gen.add_argument("--workload", choices=sorted(paper_workloads(0.001)), default="W0")
    gen.add_argument("--kind", choices=("subscriptions", "events"), required=True)
    gen.add_argument("--count", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)

    bench = commands.add_parser("bench", help="run a paper-figure experiment")
    bench.add_argument("experiment", choices=sorted(EXPERIMENTS))

    snapshot = commands.add_parser(
        "snapshot", help="write a subscription set as a compacted write-ahead log"
    )
    snapshot.add_argument("--subscriptions", required=True, help="JSON-lines file")
    snapshot.add_argument("--out", required=True, help="log file to write")
    snapshot.add_argument(
        "--ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="validity window for every subscription (default: immortal)",
    )

    recover = commands.add_parser("recover", help="rebuild broker state from a WAL")
    recover.add_argument("--wal", required=True, help="write-ahead log file")
    recover.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also dump the recovered subscriptions as JSON lines to FILE",
    )

    deliveries = commands.add_parser(
        "deliveries", help="per-subscriber at-least-once delivery state from a WAL"
    )
    deliveries.add_argument("--wal", required=True, help="write-ahead log file")

    dlq = commands.add_parser(
        "dlq", help="list dead-lettered notifications recorded in a WAL"
    )
    dlq.add_argument("--wal", required=True, help="write-ahead log file")
    dlq.add_argument(
        "--sub", default=None, help="only this subscriber's dead letters"
    )
    dlq.add_argument(
        "--limit", type=int, default=None, metavar="N", help="print at most N entries"
    )

    commands.add_parser("demo", help="run the quickstart demo")
    return parser


def _load_workload(args: argparse.Namespace):
    """Read the subscription and event files named on the command line."""
    with open(args.subscriptions) as fp:
        subs = load_subscriptions(fp)
    with open(args.events) as fp:
        events = load_events(fp)
    return subs, events


def _build_matcher(args: argparse.Namespace):
    """Construct the engine the flags describe (sharded when --shards > 1,
    fronted by the aggregation layer under --aggregate)."""
    spec = paper_workloads(0.001)["W0"]
    if args.shards > 1:
        matcher = ShardedMatcher(
            shards=args.shards,
            router=args.router,
            inner=lambda: matcher_for(args.engine, spec),
            breaker=args.breaker,
            executor=args.executor,
            worker_timeout=args.worker_timeout,
        )
    else:
        matcher = matcher_for(args.engine, spec)
    if args.aggregate:
        from repro.aggregation import AggregatingMatcher

        matcher = AggregatingMatcher(inner=matcher)
    return matcher


def _populate(matcher, subs) -> None:
    """Insert the subscriptions and run any build step the engine has."""
    matcher.add_batch(subs)
    matcher.rebuild()


def _snapshot_context(args: argparse.Namespace, events: int) -> dict:
    """Workload provenance embedded in JSON snapshots."""
    return {
        "command": args.command,
        "engine": args.engine,
        "shards": args.shards,
        "executor": args.executor,
        "worker_timeout": args.worker_timeout,
        "aggregate": args.aggregate,
        "events": events,
    }


def _cmd_match(args: argparse.Namespace, out) -> int:
    if args.batch_size < 1:
        raise SystemExit("--batch-size must be >= 1")
    subs, events = _load_workload(args)
    matcher = _build_matcher(args)
    registry = matcher.use_metrics() if args.metrics_out else None
    _populate(matcher, subs)
    results = (
        ids
        for start in range(0, len(events), args.batch_size)
        for ids in matcher.match_batch(events[start : start + args.batch_size])
    )
    for event, ids in zip(events, results):
        matched = sorted(ids, key=str)
        out.write(json.dumps({"event": dict(event.items()), "matched": matched}))
        out.write("\n")
    if registry is not None:
        write_json_snapshot(
            registry, args.metrics_out, context=_snapshot_context(args, len(events))
        )
    matcher.close()  # worker processes under --executor process
    return 0


def _cmd_stats(args: argparse.Namespace, out) -> int:
    subs, events = _load_workload(args)
    matcher = _build_matcher(args)
    registry = matcher.use_metrics()
    _populate(matcher, subs)
    for event in events:
        matcher.match(event)
    context = _snapshot_context(args, len(events))
    if args.format == "json":
        json.dump(json_snapshot(registry, context=context), out, indent=2)
        out.write("\n")
    else:
        out.write(prometheus_text(registry))
    if args.metrics_out:
        write_json_snapshot(registry, args.metrics_out, context=context)
    matcher.close()  # worker processes under --executor process
    return 0


def _cmd_explain(args: argparse.Namespace, out) -> int:
    from repro.core.explain import explain
    from repro.obs import Tracer

    subs, events = _load_workload(args)
    if not events:
        out.write("no events in the input file\n")
        return 1
    if not 0 <= args.event_index < len(events):
        out.write(
            f"--event-index {args.event_index} out of range "
            f"(file has {len(events)} events)\n"
        )
        return 1
    event = events[args.event_index]
    matcher = _build_matcher(args)
    tracer = matcher.use_tracer(Tracer()) if args.trace else None
    _populate(matcher, subs)
    if args.shards > 1:
        matched = sorted(matcher.match(event), key=str)
        out.write(f"event:   {event}\n")
        out.write(f"matched: {matched}\n")
    else:
        out.write(explain(matcher, event).describe())
        out.write("\n")
    if tracer is not None:
        span = tracer.last()
        out.write("trace:\n")
        if span is None:
            out.write("  (no span recorded)\n")
        else:
            out.write(span.format(indent=2))
            out.write("\n")
    return 0


def _cmd_health(args: argparse.Namespace, out) -> int:
    from repro.system.server import BatchServer

    subs, events = _load_workload(args)
    matcher = _build_matcher(args)
    client_errors = {"overload": 0, "deadline": 0}
    with BatchServer(
        matcher, queue_limit=args.queue_limit, admission=args.admission
    ) as server:
        server.submit_subscriptions(subs)
        matcher.rebuild()
        size = max(1, args.batch_size)
        for start in range(0, len(events), size):
            try:
                server.submit_events(
                    events[start : start + size], deadline=args.deadline
                )
            except ServerOverloadedError:
                client_errors["overload"] += 1
            except DeadlineExceededError:
                client_errors["deadline"] += 1
        report = server.health()
    matcher.close()
    report["client_errors"] = client_errors
    out.write(json.dumps(report, sort_keys=True) + "\n")
    return 0


def _cmd_generate(args: argparse.Namespace, out) -> int:
    spec = paper_workloads(1.0)[args.workload].with_seed(args.seed)
    gen = WorkloadGenerator(spec)
    if args.kind == "subscriptions":
        dump_subscriptions(gen.subscriptions(args.count), out)
    else:
        dump_events(gen.events(args.count), out)
    return 0


def _cmd_bench(args: argparse.Namespace, out) -> int:
    driver = EXPERIMENTS[args.experiment]
    driver.run(out=lambda line: out.write(line + "\n"))
    return 0


def _cmd_snapshot(args: argparse.Namespace, out) -> int:
    from repro.system import PubSubBroker, WriteAheadLog

    with open(args.subscriptions) as fp:
        subs = load_subscriptions(fp)
    open(args.out, "w").close()  # overwritten, never appended to
    with WriteAheadLog(args.out) as wal:
        PubSubBroker(wal=wal).subscribe_batch(subs, ttl=args.ttl)
        count = wal.compact()
    out.write(json.dumps({"subscriptions": count, "out": args.out}) + "\n")
    return 0


def _cmd_recover(args: argparse.Namespace, out) -> int:
    from repro.system import PubSubBroker, recover_files

    broker = PubSubBroker()
    report = recover_files(broker, wal_path=args.wal)
    out.write(json.dumps(report.as_dict(), sort_keys=True) + "\n")
    if args.out:
        with open(args.out, "w") as fp:
            subs = sorted(broker.matcher.iter_subscriptions(), key=lambda s: str(s.id))
            dump_subscriptions(subs, fp)
    return 0


def _read_ledger(wal_path: str):
    """The delivery ledger recovery folds one WAL into."""
    from repro.system import WalReader
    from repro.system.recovery import fold_log

    with open(wal_path, "rb") as fp:
        return fold_log(WalReader(fp)).ledger


def _cmd_deliveries(args: argparse.Namespace, out) -> int:
    ledger = _read_ledger(args.wal)
    out.write(json.dumps(ledger.summary(), sort_keys=True) + "\n")
    return 0


def _cmd_dlq(args: argparse.Namespace, out) -> int:
    ledger = _read_ledger(args.wal)
    dead = ledger.dead
    if args.sub is not None:
        dead = [d for d in dead if str(d["sub"]) == args.sub]
    total = len(dead)
    if args.limit is not None:
        dead = dead[: args.limit]
    out.write(json.dumps({"dead_letters": dead, "total": total}, sort_keys=True) + "\n")
    return 0


def _cmd_demo(_args: argparse.Namespace, out) -> int:
    from repro import DynamicMatcher, Event, Subscription, eq, le

    matcher = DynamicMatcher()
    matcher.add(
        Subscription("s1", [eq("movie", "groundhog day"), le("price", 10)])
    )
    event = Event({"movie": "groundhog day", "price": 8, "theater": "odeon"})
    out.write(f"subscription: s1 = movie = 'groundhog day' and price <= 10\n")
    out.write(f"event:        {event}\n")
    out.write(f"matched:      {matcher.match(event)}\n")
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "match": _cmd_match,
        "stats": _cmd_stats,
        "explain": _cmd_explain,
        "health": _cmd_health,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "snapshot": _cmd_snapshot,
        "recover": _cmd_recover,
        "deliveries": _cmd_deliveries,
        "dlq": _cmd_dlq,
        "demo": _cmd_demo,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
