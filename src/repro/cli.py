"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    A one-minute tour of the Table 2 interface on a toy database.
``workload``
    Generate the §4.2 Twitter-like workload and print its statistics.
``build``
    Generate a workload, consolidate an engine over it, and save the
    index as a snapshot.
``bench``
    Quick throughput/latency measurement of the matching pipeline.
``match``
    Load a snapshot and answer one query from the command line.
``serve``
    Run the online pub/sub matching server (``repro.service``) over a
    snapshot or a freshly built index, until SIGINT.
``trace``
    Fetch the per-stage span summary from a running server and render
    it as a flame-style text chart.
``loadgen``
    Drive an open-loop Poisson burst against a running server.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.harness.runner import latency_percentiles
from repro.workloads import generate_twitter_workload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TagMatch: high-throughput subset matching (EuroSys '17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run a small end-to-end demo")

    p_workload = sub.add_parser("workload", help="generate a Twitter-like workload")
    p_workload.add_argument("--users", type=int, default=20_000)
    p_workload.add_argument("--seed", type=int, default=0)

    p_build = sub.add_parser("build", help="build an index and save a snapshot")
    p_build.add_argument("--users", type=int, default=20_000)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--max-partition-size", type=int, default=800)
    p_build.add_argument("--gpus", type=int, default=2)
    p_build.add_argument("--out", required=True, help="snapshot path (.npz)")

    p_bench = sub.add_parser("bench", help="measure matching throughput")
    p_bench.add_argument("--users", type=int, default=20_000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--queries", type=int, default=2048)
    p_bench.add_argument("--max-partition-size", type=int, default=800)
    p_bench.add_argument("--gpus", type=int, default=2)
    p_bench.add_argument("--unique", action="store_true", help="measure match-unique")

    p_match = sub.add_parser("match", help="query a saved snapshot")
    p_match.add_argument("--index", required=True, help="snapshot path (.npz)")
    p_match.add_argument("--tags", required=True, help="comma-separated query tags")
    p_match.add_argument("--unique", action="store_true")

    p_serve = sub.add_parser("serve", help="run the pub/sub matching server")
    p_serve.add_argument(
        "--index", default=None, help="start from a snapshot (.npz) instead of building"
    )
    p_serve.add_argument("--users", type=int, default=2_000)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--max-partition-size", type=int, default=800)
    p_serve.add_argument("--gpus", type=int, default=1)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7311)
    p_serve.add_argument("--max-inflight", type=int, default=1024)
    p_serve.add_argument(
        "--reconsolidate-threshold",
        type=int,
        default=512,
        help="delta size triggering a background rebuild (0 disables)",
    )
    p_serve.add_argument(
        "--save-on-exit",
        default=None,
        help="fold the delta and save a snapshot here on shutdown",
    )
    p_serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="expose Prometheus plaintext metrics on this port (0 = ephemeral)",
    )
    p_serve.add_argument(
        "--no-trace",
        action="store_true",
        help="disable the span tracer (drops per-stage latency histograms)",
    )

    p_trace = sub.add_parser(
        "trace", help="per-stage flame summary from a running server"
    )
    p_trace.add_argument("--host", default="127.0.0.1")
    p_trace.add_argument("--port", type=int, default=7311)
    p_trace.add_argument(
        "--limit", type=int, default=2048, help="recent spans to aggregate"
    )

    p_loadgen = sub.add_parser("loadgen", help="open-loop load against a server")
    p_loadgen.add_argument("--host", default="127.0.0.1")
    p_loadgen.add_argument("--port", type=int, default=7311)
    p_loadgen.add_argument("--duration", type=float, default=5.0)
    p_loadgen.add_argument("--rate", type=float, default=500.0, help="offered ops/s")
    p_loadgen.add_argument("--sub-ratio", type=float, default=0.05)
    p_loadgen.add_argument("--unsub-ratio", type=float, default=0.02)
    p_loadgen.add_argument("--connections", type=int, default=4)
    p_loadgen.add_argument("--seed", type=int, default=0)
    p_loadgen.add_argument("--unique", action="store_true")

    return parser


def _cmd_demo(_: argparse.Namespace) -> int:
    config = TagMatchConfig(max_partition_size=8, num_gpus=1, batch_timeout_s=None)
    with TagMatch(config) as engine:
        engine.add_set({"cats", "memes"}, key=1)
        engine.add_set({"rust", "systems"}, key=2)
        engine.add_set({"cats"}, key=3)
        report = engine.consolidate()
        print(
            f"indexed {report.num_unique_sets} sets in "
            f"{report.partitioning.num_partitions} partitions"
        )
        for query in ({"cats", "memes", "monday"}, {"rust"}, {"nothing"}):
            keys = sorted(engine.match_unique(query).tolist())
            print(f"match-unique({sorted(query)}) -> {keys}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    workload = generate_twitter_workload(num_users=args.users, seed=args.seed)
    print(f"users:              {workload.num_users}")
    print(f"interests (assoc.): {workload.num_associations}")
    print(f"unique sets:        {workload.num_unique_sets}")
    print(f"mean tags/interest: {workload.interests.mean_tags():.2f}")
    print(f"generation time:    {workload.generation_s:.1f}s")
    return 0


def _build_engine(args: argparse.Namespace) -> tuple[TagMatch, object]:
    workload = generate_twitter_workload(num_users=args.users, seed=args.seed)
    config = TagMatchConfig(
        max_partition_size=args.max_partition_size,
        num_gpus=args.gpus,
        batch_size=256,
        batch_timeout_s=None,
    )
    engine = TagMatch(config)
    engine.add_signatures(workload.blocks, workload.keys)
    report = engine.consolidate()
    print(
        f"consolidated {report.num_associations} associations "
        f"({report.num_unique_sets} unique sets, "
        f"{report.partitioning.num_partitions} partitions) "
        f"in {report.elapsed_s:.1f}s"
    )
    return engine, workload


def _cmd_build(args: argparse.Namespace) -> int:
    engine, _ = _build_engine(args)
    engine.save(args.out)
    usage = engine.memory_usage()
    print(f"snapshot written to {args.out}")
    print(f"host {usage.host_bytes / 1e6:.1f} MB, GPU {usage.gpu_total_bytes / 1e6:.1f} MB")
    engine.close()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    engine, workload = _build_engine(args)
    queries = workload.queries(args.queries, seed=args.seed + 1)
    engine.match_stream(queries.blocks[:256], unique=args.unique)  # warm-up
    run = engine.match_stream(queries.blocks, unique=args.unique)
    pct = latency_percentiles(run.latencies_s)
    mode = "match-unique" if args.unique else "match"
    print(f"{mode}: {run.throughput_qps:.0f} queries/s over {run.num_queries} queries")
    print(f"output: {run.output_keys} keys ({run.output_keys / run.num_queries:.1f}/query)")
    print(f"latency p50={pct['p50_ms']:.1f}ms p99={pct['p99_ms']:.1f}ms")
    engine.close()
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    tags = {t.strip() for t in args.tags.split(",") if t.strip()}
    if not tags:
        print("error: --tags needs at least one tag", file=sys.stderr)
        return 2
    engine = TagMatch.load(args.index)
    try:
        keys = (
            engine.match_unique(tags) if args.unique else engine.match(tags)
        )
        print(f"{keys.size} keys:", np.sort(keys).tolist()[:100])
    finally:
        engine.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.config import ServiceConfig
    from repro.service.server import serve_until_interrupted

    if args.index is not None:
        engine = TagMatch.load(args.index)
        print(f"loaded snapshot {args.index}")
    else:
        engine, _ = _build_engine(args)
    service = ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        reconsolidate_threshold=args.reconsolidate_threshold,
        metrics_port=args.metrics_port,
        trace=not args.no_trace,
    )

    def ready(server) -> None:
        print(f"serving on {args.host}:{server.port} (ctrl-C to stop)", flush=True)
        if server.metrics_port is not None:
            print(
                f"metrics on http://{args.host}:{server.metrics_port}/metrics",
                flush=True,
            )

    asyncio.run(
        serve_until_interrupted(
            engine, service, snapshot_path=args.save_on_exit, ready_cb=ready
        )
    )
    print("server stopped")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs.export import format_flame
    from repro.service.protocol import ServiceClient

    async def fetch() -> dict:
        async with await ServiceClient.connect(args.host, args.port) as client:
            return await client.trace(limit=args.limit)

    summary = asyncio.run(fetch())
    if not summary.get("enabled", False):
        print("tracing is disabled on the server (started with --no-trace)")
    print(
        f"spans recorded: {summary.get('span_count', 0)} "
        f"(window: last {summary.get('window', 0)})"
    )
    print(format_flame(summary.get("stages", {})))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.loadgen import run_loadgen

    report = asyncio.run(
        run_loadgen(
            args.host,
            args.port,
            duration_s=args.duration,
            rate_qps=args.rate,
            sub_ratio=args.sub_ratio,
            unsub_ratio=args.unsub_ratio,
            connections=args.connections,
            seed=args.seed,
            unique=args.unique,
        )
    )
    pct = report.percentiles()
    print(
        f"offered {report.offered_qps:.0f} ops/s, "
        f"achieved {report.qps:.0f} publishes/s over {report.elapsed_s:.1f}s"
    )
    print(
        f"completed={report.completed} overloaded={report.overloaded} "
        f"failed={report.failed} subs={report.subscribes} "
        f"unsubs={report.unsubscribes}"
    )
    print(
        f"publish latency p50={pct['p50_ms']:.1f}ms "
        f"p99={pct['p99_ms']:.1f}ms max={pct['max_ms']:.1f}ms "
        f"(overload rate {report.overload_rate:.1%})"
    )
    return 0 if report.failed == 0 else 1


_COMMANDS = {
    "demo": _cmd_demo,
    "workload": _cmd_workload,
    "build": _cmd_build,
    "bench": _cmd_bench,
    "match": _cmd_match,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "loadgen": _cmd_loadgen,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
