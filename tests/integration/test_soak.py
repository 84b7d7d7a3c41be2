"""Soak-style integration: sustained streams, rebuilds, and reuse."""

import numpy as np
import pytest

from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.workloads import generate_twitter_workload


@pytest.fixture(scope="module")
def workload():
    return generate_twitter_workload(num_users=3000, seed=41)


class TestSustainedStreams:
    def test_many_consecutive_streams_leak_free(self, workload):
        """Repeated pipeline runs must not leak device memory (buffers
        from query batches and double buffers are freed each run)."""
        cfg = TagMatchConfig(max_partition_size=128, batch_size=32, batch_timeout_s=0.01)
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks, workload.keys)
            eng.consolidate()
            baseline = sum(d.ledger.allocated_bytes for d in eng.devices)
            qs = workload.queries(64, seed=1)
            for _ in range(5):
                eng.match_stream(qs.blocks, unique=True)
            after = sum(d.ledger.allocated_bytes for d in eng.devices)
            assert after == baseline

    def test_streams_pool_not_exhausted(self, workload):
        """Many more small batches than result buffers: the run's one
        double buffer per device recycles across every launch."""
        cfg = TagMatchConfig(
            max_partition_size=32,
            batch_size=4,
            num_gpus=1,
            batch_timeout_s=0.005,
        )
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks[:2000], workload.keys[:2000])
            eng.consolidate()
            qs = workload.queries(200, seed=2)
            run = eng.match_stream(qs.blocks)
            assert run.num_queries == 200

    def test_rebuild_under_use(self, workload):
        """Alternate consolidation and matching several times."""
        cfg = TagMatchConfig(max_partition_size=128, batch_timeout_s=None)
        with TagMatch(cfg) as eng:
            step = workload.num_associations // 4
            reference = None
            for round_ in range(4):
                lo, hi = round_ * step, (round_ + 1) * step
                eng.add_signatures(workload.blocks[lo:hi], workload.keys[lo:hi])
                eng.consolidate()
                qs = workload.queries(16, seed=3)
                results = [
                    sorted(eng.match(t).tolist()) for t in qs.tag_sets
                ]
                if reference is not None:
                    # results can only grow as the database grows
                    for prev, cur in zip(reference, results):
                        assert set(prev) <= set(cur)
                reference = results

    def test_single_gpu_many_threads(self, workload):
        cfg = TagMatchConfig(
            max_partition_size=64, num_gpus=1, batch_timeout_s=0.01
        )
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks, workload.keys)
            eng.consolidate()
            qs = workload.queries(128, seed=4)
            run = eng.match_stream(qs.blocks, unique=True)
            spot = np.random.default_rng(0).choice(128, 10, replace=False)
            for qi in spot:
                expected = eng.match_unique(qs.tag_sets[qi]).tolist()
                assert run.results[qi].tolist() == expected
