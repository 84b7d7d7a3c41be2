"""Smoke tests of the experiment harness on a tiny workload.

The full-scale experiments run under ``benchmarks/``; here each
experiment's plumbing is exercised quickly on a miniature workload to
catch interface regressions without paying benchmark runtimes.
"""

import numpy as np
import pytest

from repro.harness import experiments
from repro.harness.workload_cache import build_engine, default_engine_config
from repro.workloads import generate_twitter_workload


@pytest.fixture(scope="module")
def tiny_workload():
    return generate_twitter_workload(num_users=3000, seed=5)


class TestIcnBudget:
    def test_threshold_admits_20pct_of_associations(self):
        budget = experiments.icn_memory_budget(1_000_000)
        per_set = experiments.BUILD_BYTES_PER_SET
        # 20% of associations covers ~27% of uniques: must fit.
        assert 270_000 * per_set <= budget
        # the full database must not.
        assert 1_000_000 * per_set > budget


class TestWorkloadCache:
    def test_default_config(self):
        cfg = default_engine_config(batch_size=64)
        assert cfg.batch_size == 64
        assert cfg.num_gpus == 2

    def test_build_engine(self, tiny_workload):
        engine = build_engine(
            tiny_workload.blocks,
            tiny_workload.keys,
            default_engine_config(max_partition_size=64, num_gpus=1),
        )
        assert engine.num_unique_sets > 0
        engine.close()


class TestExperimentSmoke:
    def test_fig4_db_size(self, tiny_workload):
        result = experiments.fig4_db_size(tiny_workload, fractions=(0.5, 1.0))
        assert len(result.rows) == 2
        assert all(len(v) == 2 for v in result.data.values())
        assert result.to_text()

    def test_fig7_maxp(self, tiny_workload):
        result = experiments.fig7_maxp(tiny_workload, maxp_values=(64, 256))
        assert [row[0] for row in result.rows] == [64, 256]
        assert result.data["partitions"][0] >= result.data["partitions"][1]

    def test_fig8_partitioning(self, tiny_workload):
        result = experiments.fig8_partitioning_time(
            tiny_workload, fractions=(0.5, 1.0)
        )
        assert result.data["sets"][1] > result.data["sets"][0]
        assert "mongo_index_s" in result.data

    def test_fig9_memory(self, tiny_workload):
        result = experiments.fig9_memory(tiny_workload, fractions=(0.5, 1.0))
        assert result.data["gpu_mb"][1] > result.data["gpu_mb"][0]

    def test_ablation_packing(self, tiny_workload):
        result = experiments.ablation_packing(tiny_workload)
        assert result.data["packed"] < result.data["naive"]

    def test_ablation_pivot(self, tiny_workload):
        result = experiments.ablation_pivot(tiny_workload)
        assert result.data["partitions_balanced"] > 0
        assert result.data["qps_balanced"] > 0

    def test_sec45(self, tiny_workload):
        result = experiments.sec45_gpu_only_design(
            tiny_workload, match_fractions=(0.0, 1.0), db_fraction=0.5, batch=32
        )
        assert len(result.data["hybrid_us"]) == 2
        assert result.data["gpu_only_us"][1] > 0

    def test_fig11_model(self):
        result = experiments.fig11_mongo_sharding(
            instance_counts=(1, 4), num_docs=5000, num_queries=10
        )
        assert result.data["instances"] == [1, 4]
        assert all(q > 0 for q in result.data["qps"])


class TestCraftedWorkloads:
    def test_documents_shape(self):
        rng = np.random.default_rng(0)
        docs, keys = experiments._crafted_documents(100, 3, rng)
        assert len(docs) == 100
        assert all(1 <= len(d) <= 3 for d in docs)  # duplicates may collapse
        assert keys == list(range(100))

    def test_queries_embed_documents(self):
        rng = np.random.default_rng(0)
        docs, _ = experiments._crafted_documents(50, 3, rng)
        queries = experiments._crafted_queries(docs, 20, 6, rng)
        assert all(len(q) == 6 for q in queries)
        # every query was seeded from some document
        assert all(any(d <= q for d in docs) for q in queries)
