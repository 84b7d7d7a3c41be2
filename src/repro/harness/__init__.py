"""Benchmark harness: measurement, experiments, reporting (DESIGN.md §3)."""

from repro.harness.reporting import (
    ExperimentResult,
    format_series_chart,
    format_table,
    save_result,
)
from repro.harness.runner import ThroughputResult, latency_percentiles, measure_matcher
from repro.harness.workload_cache import (
    BENCH_MAX_P,
    build_engine,
    default_engine_config,
    twitter_workload,
)

__all__ = [
    "BENCH_MAX_P",
    "ExperimentResult",
    "ThroughputResult",
    "build_engine",
    "default_engine_config",
    "format_series_chart",
    "format_table",
    "latency_percentiles",
    "measure_matcher",
    "save_result",
    "twitter_workload",
]
