"""Tests for the extension features: push delivery, partial replication."""

import threading

import pytest

from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.errors import ValidationError
from repro.workloads import generate_twitter_workload


@pytest.fixture(scope="module")
def workload():
    return generate_twitter_workload(num_users=2000, seed=31)


class TestOnResultCallback:
    def test_callback_fires_for_every_query(self, workload):
        cfg = TagMatchConfig(max_partition_size=64, batch_timeout_s=0.01)
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks, workload.keys)
            eng.consolidate()
            queries = workload.queries(50, seed=1)
            delivered = {}
            lock = threading.Lock()

            def on_result(query_index, keys):
                with lock:
                    delivered[query_index] = keys

            run = eng.match_stream(
                queries.blocks, unique=True, on_result=on_result
            )
            assert sorted(delivered) == list(range(50))
            for qi, keys in delivered.items():
                assert keys.tolist() == run.results[qi].tolist()

    def test_callback_fires_for_nonmatching_queries(self, workload):
        cfg = TagMatchConfig(max_partition_size=64, batch_timeout_s=0.01)
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks[:100], workload.keys[:100])
            eng.consolidate()
            seen = []
            lock = threading.Lock()
            qs = eng.encode_queries([{f"none-{i}"} for i in range(10)])
            eng.match_stream(
                qs,
                on_result=lambda qi, keys: (lock.acquire(), seen.append(qi), lock.release()),
            )
            assert sorted(seen) == list(range(10))


class TestPartialReplication:
    def make_engine(self, workload, **cfg):
        eng = TagMatch(TagMatchConfig(max_partition_size=64, batch_timeout_s=None, **cfg))
        eng.add_signatures(workload.blocks[:3000], workload.keys[:3000])
        eng.consolidate()
        return eng

    def test_factor_between_one_and_all(self, workload):
        full = self.make_engine(workload, num_gpus=4)
        partial = self.make_engine(workload, num_gpus=4, replication_factor=2)
        single = self.make_engine(workload, num_gpus=4, replication_factor=1)
        try:
            f = full.memory_usage().gpu_tagset_bytes
            p = partial.memory_usage().gpu_tagset_bytes
            s = single.memory_usage().gpu_tagset_bytes
            assert f == pytest.approx(4 * s, rel=0.01)
            assert p == pytest.approx(2 * s, rel=0.01)
        finally:
            full.close()
            partial.close()
            single.close()

    def test_partial_replication_results_identical(self, workload):
        partial = self.make_engine(workload, num_gpus=3, replication_factor=2)
        reference = self.make_engine(workload, num_gpus=1)
        try:
            queries = workload.queries(40, seed=2)
            run = partial.match_stream(queries.blocks, unique=True)
            for tags, result in zip(queries.tag_sets, run.results):
                assert result.tolist() == reference.match_unique(tags).tolist()
        finally:
            partial.close()
            reference.close()

    def test_factor_validated(self):
        with pytest.raises(ValidationError):
            TagMatchConfig(num_gpus=2, replication_factor=3)
        with pytest.raises(ValidationError):
            TagMatchConfig(num_gpus=2, replication_factor=0)

    def test_copies_spread_across_devices(self, workload):
        eng = self.make_engine(workload, num_gpus=4, replication_factor=2)
        try:
            used = [d.ledger.allocated_bytes for d in eng.devices]
            # with round-robin placement every device holds something
            assert all(b > 0 for b in used)
        finally:
            eng.close()
