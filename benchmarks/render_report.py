"""Compile benchmarks/results/*.txt into one REPORT.md with ASCII charts.

Run after the benchmark suite::

    python benchmarks/render_report.py

Reads the per-experiment text tables written by the benches and, for the
figure-style experiments, re-plots the key series as ASCII charts so the
trends are visible at a glance.
"""

from __future__ import annotations

import os
import re
import sys

from repro.harness.reporting import format_series_chart

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Experiments rendered as charts: name -> (x column, [y columns], log).
CHARTS = {
    "fig2_fig3_query_size": (0, {"TagMatch q/s": 1, "tree q/s": 2}, True),
    "fig3_output_rate": (0, {"TagMatch keys/s": 3, "tree keys/s": 4}, True),
    "fig4_db_size": (0, {"TagMatch match": 1, "tree match": 3}, True),
    "fig5_threads": (0, {"match": 1, "match-unique": 2}, False),
    "fig7_maxp": (0, {"match": 2, "match-unique": 3}, False),
    "fig8_partitioning_time": (1, {"seconds": 2}, False),
    "fig9_memory": (0, {"host MB": 1, "GPU MB": 4}, False),
    "fig11_mongo_sharding": (0, {"q/s": 1}, False),
}

ORDER = [
    "table1_summary",
    "table3_cpu_systems",
    "fig2_fig3_query_size",
    "fig3_output_rate",
    "fig4_db_size",
    "fig5_threads",
    "fig6_latency",
    "fig7_maxp",
    "fig8_partitioning_time",
    "fig9_memory",
    "fig10_mongodb",
    "fig11_mongo_sharding",
    "sec45_gpu_only_design",
    "ablation_prefilter",
    "ablation_packing",
    "ablation_pivot",
    "extra_classic_families",
    "service_throughput",
    "obs_overhead",
]


def parse_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Recover header and rows from a rendered result table."""
    lines = [line for line in text.splitlines() if line.strip()]
    body = []
    header: list[str] = []
    seen_rule = False
    for line in lines[1:]:
        if set(line.strip()) <= {"-", " "} and line.strip():
            seen_rule = True
            continue
        if not header:
            header = re.split(r"\s{2,}", line.strip())
            continue
        if seen_rule:
            body.append(re.split(r"\s{2,}", line.strip()))
    return header, body


def numeric(cell: str) -> float | None:
    cell = cell.replace("%", "").replace("M", "").replace("ms", "")
    try:
        return float(cell)
    except ValueError:
        return None


def render(name: str, text: str) -> str:
    out = [text.rstrip()]
    spec = CHARTS.get(name)
    if spec:
        x_col, series_cols, log_y = spec
        _, rows = parse_table(text)
        rows = [r for r in rows if len(r) > max(series_cols.values())]
        xs = [r[x_col] for r in rows]
        series = {
            label: [numeric(r[col]) for r in rows]
            for label, col in series_cols.items()
        }
        series = {
            label: ys for label, ys in series.items() if any(v for v in ys)
        }
        if xs and series:
            out.append("")
            out.append(format_series_chart(xs, series, log_y=log_y))
    return "\n".join(out)


def main() -> int:
    if not os.path.isdir(RESULTS_DIR):
        print("no results yet: run `pytest benchmarks/ --benchmark-only` first")
        return 1
    sections = []
    for name in ORDER:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        if not os.path.exists(path):
            continue
        with open(path) as handle:
            sections.append(render(name, handle.read()))
    report = (
        "# Benchmark report\n\n"
        "Generated from benchmarks/results/ by render_report.py.\n\n```\n"
        + "\n\n".join(sections)
        + "\n```\n"
    )
    out_path = os.path.join(RESULTS_DIR, "REPORT.md")
    with open(out_path, "w") as handle:
        handle.write(report)
    print(f"wrote {out_path} ({len(sections)} experiments)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
