"""Repository benchmark: three TagMatch workloads, every reply oracle-checked.

Run from the repository root::

    python3 perfbench/run.py --workload twitter_bulk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads (traffic parameters in ``perfbench/spec.py``):

``twitter_bulk``
    The whole §4.2.2 query pool through ``TagMatch.match_stream``,
    closed loop, after a warm-up.
``firehose``
    ``MatchServer`` in a child process.  The timed run keeps a fixed
    number of publishes outstanding, so the server sets the rate; the
    traced run publishes open loop at a fixed Poisson rate, then steps up
    a doubling rate ladder until a rung fails.
``churn_swap``
    As ``firehose``, with subscribes and unsubscribes that push the delta
    past the reconsolidation threshold many times: in the timed run they
    are a fixed share of the closed-loop operations, in the traced run
    open loop at fixed rates.  After churn stops, a forced rebuild is
    followed by publishes that must match exactly.

Each process runs on one CPU, and throughput is work per CPU second of
the process doing it (``spec.ENGINE_CPU``), so the
time a shared host gives other tenants stays out of the figures.

``--trace 0`` measures the ``end_to_end`` metrics of ``BENCHMARK.json``
with ``repro.obs`` tracing off.  ``--trace 1`` is the separate traced run
that reports the ``per_layer`` metrics and writes its spans under
``.perfbench/``.  ``--workload all`` makes both runs of every workload
and prints every metric by name with its unit.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when a
reply disagrees with the oracle or the run is invalid, and 2 when the
repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(runners, bench: dict, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    # twitter_bulk's engine runs in this process; the service workloads'
    # server runs in its own, and this process generates the load.
    cpu = spec.ENGINE_CPU if workload == "twitter_bulk" else spec.GENERATOR_CPU
    os.sched_setaffinity(0, {cpu})
    outcome = runners.run(workload, seed, seconds, traced)
    for problem in outcome.problems[:20]:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    if outcome.recorder is not None:
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        outcome.recorder.write(os.path.join(out_dir, f"spans-{workload}-{seed}.json"))
    listed = bench["per_layer" if traced else "end_to_end"]
    return {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
            for m in listed
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="TagMatch repository benchmark")
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import runners

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)

    if args.workload != "all":
        result = _run(runners, bench, args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec.WORKLOADS:
        for traced in (False, True):
            result = _run(runners, bench, workload, args.seed, args.seconds, traced)
            for name, metric in result["metrics"].items():
                print(f"{workload:<13} {name:<28} {metric['value']:>14.6g} {metric['unit']}")
                combined["metrics"][f"{workload}.{name}"] = metric
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
