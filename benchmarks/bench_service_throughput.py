"""Service sweep: ingress deadline × offered load, in-process.

Starts a :class:`repro.service.server.MatchServer` on an ephemeral port
and drives the open-loop Poisson load generator against it — one cell
per (batch deadline, offered rate) pair.  The sweep reproduces the
Figure 6 trade-off at the serving layer: a longer ingress deadline buys
batch occupancy (throughput) at the price of publish latency, until
admission control starts bouncing publishes under overload.

Writes machine-readable ``BENCH_service.json`` at the repo root plus the
usual text table under ``benchmarks/results/service_throughput.txt``.

Run standalone (pytest never collects it — no test functions)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke  # ~15 s budget
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.config import ServiceConfig, TagMatchConfig  # noqa: E402
from repro.core.engine import TagMatch  # noqa: E402
from repro.harness.reporting import ExperimentResult, save_result  # noqa: E402
from repro.service.loadgen import run_loadgen  # noqa: E402
from repro.service.server import MatchServer  # noqa: E402

RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")
DEFAULT_JSON = os.path.join(REPO_ROOT, "BENCH_service.json")


def build_engine(num_sets: int) -> TagMatch:
    cfg = TagMatchConfig(
        max_partition_size=64,
        batch_size=256,
        batch_timeout_s=None,
    )
    engine = TagMatch(cfg)
    rng = np.random.default_rng(42)
    num_tags = 96
    for key in range(num_sets):
        size = int(rng.integers(1, 7))
        chosen = rng.choice(num_tags, size=size, replace=False)
        engine.add_set({f"tag-{c}" for c in chosen}, key=key)
    engine.consolidate()
    return engine


async def run_cell(
    num_sets: int, deadline_ms: float, rate_qps: float, duration_s: float
) -> dict:
    config = ServiceConfig(
        port=0,
        ingress_batch_size=64,
        batch_deadline_s=deadline_ms / 1e3,
        min_deadline_s=min(1e-3, deadline_ms / 1e3),
        max_deadline_s=max(0.1, deadline_ms / 1e3),
        reconsolidate_threshold=256,
        reconsolidate_interval_s=0.25,
    )
    # Each cell owns its engine: reconsolidation swaps retire the engine
    # a server started with, so engines cannot be shared across cells.
    server = MatchServer(build_engine(num_sets), config)
    await server.start()
    try:
        report = await run_loadgen(
            "127.0.0.1",
            server.port,
            duration_s=duration_s,
            rate_qps=rate_qps,
            sub_ratio=0.04,
            unsub_ratio=0.02,
            connections=4,
            seed=int(deadline_ms * 1000 + rate_qps),
        )
        stats = server.stats()
    finally:
        await server.shutdown()
    pct = report.percentiles()
    return {
        "deadline_ms": deadline_ms,
        "offered_qps": round(report.offered_qps, 1),
        "qps": round(report.qps, 1),
        "p50_ms": round(pct["p50_ms"], 2),
        "p99_ms": round(pct["p99_ms"], 2),
        "overload_rate": round(report.overload_rate, 4),
        "batch_occupancy": round(stats["batch_occupancy"], 2),
        "failed": report.failed,
        "reconsolidations": stats["reconsolidations"],
    }


def sweep(smoke: bool, json_path: str) -> ExperimentResult:
    num_sets = 400 if smoke else 2000
    duration_s = 1.5 if smoke else 5.0
    deadlines_ms = (2.0, 10.0) if smoke else (1.0, 5.0, 10.0, 25.0)
    rates = (300.0,) if smoke else (200.0, 500.0, 1000.0)

    records = []
    rows = []
    for deadline_ms in deadlines_ms:
        for rate in rates:
            record = asyncio.run(run_cell(num_sets, deadline_ms, rate, duration_s))
            records.append(record)
            rows.append(
                [
                    deadline_ms,
                    record["offered_qps"],
                    record["qps"],
                    record["p50_ms"],
                    record["p99_ms"],
                    round(record["overload_rate"] * 100, 2),
                    record["batch_occupancy"],
                ]
            )
            print(
                f"deadline={deadline_ms:5.1f}ms rate={rate:6.0f}/s: "
                f"{record['qps']:7.1f} qps, p99={record['p99_ms']:6.1f}ms, "
                f"occupancy={record['batch_occupancy']:5.1f}",
                flush=True,
            )

    with open(json_path, "w") as handle:
        json.dump(records, handle, indent=2)
        handle.write("\n")
    print(f"wrote {json_path} ({len(records)} records)")

    return ExperimentResult(
        name="service_throughput",
        title="Serving layer: ingress deadline vs offered load (open loop)",
        headers=[
            "deadline ms",
            "offered q/s",
            "qps",
            "p50 ms",
            "p99 ms",
            "overload %",
            "occupancy",
        ],
        rows=rows,
        notes=(
            "Open-loop Poisson publishes with 6% live sub/unsub mix over\n"
            "the pub/sub server (repro.service).  Longer ingress deadlines\n"
            "trade publish latency for batch occupancy — the Figure 6\n"
            "throughput/latency knob, re-measured end to end through the\n"
            "wire protocol, delta overlay, and background reconsolidation."
        ),
        data={"records": records},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="two cells, short bursts (~15 s total, used by CI)",
    )
    parser.add_argument(
        "--json",
        default=DEFAULT_JSON,
        help="output path for the machine-readable records",
    )
    args = parser.parse_args(argv)
    result = sweep(args.smoke, args.json)
    save_result(result, RESULTS_DIR)
    print("\n" + result.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
