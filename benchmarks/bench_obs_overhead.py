"""Observability overhead: tracing-on must cost < 5 % of throughput.

The span tracer wires into every stage of the hot path (pre-process,
kernel, transfer, post-process), so its cost has to be
proven, not assumed.  This bench runs the same match workload in
alternating tracer-off/tracer-on pairs, times each run in process CPU
seconds, and reports the median of the per-pair CPU-time ratios as the
overhead, so one noisy moment on a shared host cannot decide it.

Writes machine-readable ``BENCH_obs.json`` at the repo root (consumed by
the CI schema check, which enforces the < 5 % acceptance bar) plus the
usual text table under ``benchmarks/results/obs_overhead.txt``.

Run standalone (pytest never collects it — no test functions)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py          # full run
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke  # CI budget
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter, process_time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.config import TagMatchConfig  # noqa: E402
from repro.core.engine import TagMatch  # noqa: E402
from repro.harness.reporting import ExperimentResult, save_result  # noqa: E402
from repro.obs import trace  # noqa: E402

RESULTS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results")
DEFAULT_JSON = os.path.join(REPO_ROOT, "BENCH_obs.json")

#: Acceptance bar: tracing-on may cost at most this share of throughput.
MAX_OVERHEAD_PCT = 5.0


def build_engine(num_sets: int) -> TagMatch:
    engine = TagMatch(
        TagMatchConfig(
            max_partition_size=64,
            batch_size=64,
            batch_timeout_s=0.01,
        )
    )
    rng = np.random.default_rng(42)
    for key in range(num_sets):
        size = int(rng.integers(1, 6))
        chosen = rng.choice(256, size=size, replace=False)
        engine.add_set({f"tag-{c}" for c in chosen}, key=key)
    engine.consolidate()
    return engine


def build_queries(engine: TagMatch, num_queries: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    tag_sets = [
        {f"tag-{c}" for c in rng.choice(256, size=8, replace=False)}
        for _ in range(num_queries)
    ]
    return engine.encode_queries(tag_sets)


def measure_modes(
    engine: TagMatch, queries: np.ndarray, repeats: int
) -> tuple[dict, dict, float]:
    """Median qps per mode and the median per-pair overhead, in CPU time.

    Each of ``repeats`` pairs runs the workload once with tracing off and
    once with it on, alternating which goes first, and times both in
    process CPU seconds, so time the host gives other processes stays
    out.  The overhead is the median of the per-pair CPU-time ratios: a
    noisy moment spoils one pair, not the verdict.  Runs are unpaced, so
    they ship only full and shutdown batches and both modes launch the
    same ones.
    """
    trace.disable()
    trace.clear()
    engine.match_stream(queries[: max(8, len(queries) // 8)])  # warm-up
    cpu = {"off": [], "on": []}
    spans_per_run = 0
    for i in range(repeats):
        for mode in ("off", "on") if i % 2 == 0 else ("on", "off"):
            if mode == "on":
                trace.enable()
                trace.clear()
            else:
                trace.disable()
            c0 = process_time()
            engine.match_stream(queries)
            cpu[mode].append(process_time() - c0)
            if mode == "on":
                spans_per_run = trace.count()
    trace.disable()
    trace.clear()
    ratios = [on / off for off, on in zip(cpu["off"], cpu["on"])]
    overhead_pct = (statistics.median(ratios) - 1.0) * 100.0
    qps = {mode: len(queries) / statistics.median(times) for mode, times in cpu.items()}
    off = {"mode": "trace_off", "qps": qps["off"]}
    on = {"mode": "trace_on", "qps": qps["on"], "spans_per_run": spans_per_run}
    return off, on, overhead_pct


def measure_primitive_costs() -> dict:
    """Microbench of the two per-event primitives (ns/op)."""
    n = 200_000
    trace.disable()
    t0 = perf_counter()
    for _ in range(n):
        with trace.span("kernel"):
            pass
    disabled_ns = (perf_counter() - t0) / n * 1e9
    trace.enable()
    trace.clear()
    t0 = perf_counter()
    for _ in range(n):
        trace.record("kernel", 0.0, 1e-6, None)
    record_ns = (perf_counter() - t0) / n * 1e9
    trace.disable()
    trace.clear()
    return {"disabled_span_ns": disabled_ns, "enabled_record_ns": record_ns}


def run(smoke: bool, json_path: str) -> ExperimentResult:
    # Tens of milliseconds of CPU per run and 15 pairs: enough that one
    # slow run or scheduler hiccup moves the median ratio by little.
    num_sets = 600 if smoke else 2400
    num_queries = 2048
    repeats = 15

    engine = build_engine(num_sets)
    try:
        queries = build_queries(engine, num_queries)
        off, on, overhead_pct = measure_modes(engine, queries, repeats)
    finally:
        engine.close()
        trace.disable()
        trace.clear()

    costs = measure_primitive_costs()
    shared = {
        "num_sets": num_sets,
        "num_queries": num_queries,
        "repeats": repeats,
    }
    off.update(shared)
    on.update(shared)
    on["overhead_pct"] = overhead_pct
    on["max_overhead_pct"] = MAX_OVERHEAD_PCT
    on.update(costs)
    records = [off, on]

    with open(json_path, "w") as handle:
        json.dump(records, handle, indent=2)
        handle.write("\n")
    print(f"wrote {json_path} ({len(records)} records)")
    print(
        f"trace off: {off['qps']:8.1f} qps | trace on: {on['qps']:8.1f} qps "
        f"({on['spans_per_run']} spans/run) -> overhead {overhead_pct:+.2f}% "
        f"(bar {MAX_OVERHEAD_PCT:.0f}%)"
    )
    print(
        f"primitives: disabled span {costs['disabled_span_ns']:.0f} ns/op, "
        f"enabled record {costs['enabled_record_ns']:.0f} ns/op"
    )

    rows = [
        ["trace_off", round(off["qps"], 1), 0, "", ""],
        [
            "trace_on",
            round(on["qps"], 1),
            on["spans_per_run"],
            f"{overhead_pct:+.2f}%",
            f"<{MAX_OVERHEAD_PCT:.0f}%",
        ],
    ]
    return ExperimentResult(
        name="obs_overhead",
        title="Observability overhead (span tracing on vs off)",
        headers=["mode", "qps", "spans/run", "overhead", "bar"],
        rows=rows,
        notes=(
            "Median CPU-time throughput per mode; overhead is the median of\n"
            "per-pair CPU-time ratios over alternating off/on pairs.\n"
            f"Disabled-path span() costs {costs['disabled_span_ns']:.0f} ns "
            f"(one flag check + shared no-op manager); enabled record() "
            f"costs {costs['enabled_record_ns']:.0f} ns (locked ring append).\n"
            "Acceptance: tracing-on costs < 5% of pipeline throughput; the\n"
            "CI schema check enforces overhead_pct on every push."
        ),
        data={"records": records},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload and fewer repeats (CI budget)",
    )
    parser.add_argument(
        "--json",
        default=DEFAULT_JSON,
        help="output path for the machine-readable records",
    )
    args = parser.parse_args(argv)
    result = run(args.smoke, args.json)
    save_result(result, RESULTS_DIR)
    print("\n" + result.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
