"""Failure injection: capacity exhaustion, misuse, lifecycle edges."""

import time

import numpy as np
import pytest

from repro.baselines.linear_scan import LinearScanMatcher
from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.errors import CapacityError, ConsolidationError, DeviceError, ValidationError
from repro.workloads import generate_twitter_workload


@pytest.fixture(scope="module")
def workload():
    return generate_twitter_workload(num_users=2000, seed=17)


class TestDeviceCapacity:
    def test_consolidate_fails_cleanly_when_gpu_too_small(self, workload):
        # A device too small for the tagset table: consolidate raises the
        # capacity error instead of silently truncating the index.
        cfg = TagMatchConfig(device_memory=16 * 1024, batch_timeout_s=None)
        eng = TagMatch(cfg)
        eng.add_signatures(workload.blocks, workload.keys)
        with pytest.raises(CapacityError):
            eng.consolidate()
        eng.close()

    def test_split_placement_needs_less_per_device(self, workload):
        # The same database that does not fit replicated on tiny devices
        # can fit when partitioned across them.
        blocks, keys = workload.blocks[:2000], workload.keys[:2000]
        # Probe the exact per-device footprint of the replicated table.
        probe = TagMatch(TagMatchConfig(num_gpus=1, batch_timeout_s=None))
        probe.add_signatures(blocks, keys)
        probe.consolidate()
        need = probe.memory_usage().gpu_tagset_bytes
        probe.close()

        replicated = TagMatch(
            TagMatchConfig(
                num_gpus=4, device_memory=int(need * 0.6), batch_timeout_s=None
            )
        )
        replicated.add_signatures(blocks, keys)
        with pytest.raises(CapacityError):
            replicated.consolidate()
        replicated.close()

        split = TagMatch(
            TagMatchConfig(
                num_gpus=4,
                device_memory=int(need * 0.6),
                replication_factor=1,
                batch_timeout_s=None,
            )
        )
        split.add_signatures(blocks, keys)
        split.consolidate()  # fits: each device holds ~1/4 of the table
        assert split.match_batch(blocks[:1])[0].size > 0
        split.close()

    def test_stream_raises_device_fault_instead_of_timing_out(self, workload):
        # Room for the tagset table but not for the pipeline's query and
        # result buffers: the synchronous path works, the pipeline's
        # stream ops fail, and the run must surface that failure rather
        # than wait out its queries.
        probe = TagMatch(TagMatchConfig(batch_timeout_s=None))
        probe.add_signatures(workload.blocks, workload.keys)
        probe.consolidate()
        need = probe.memory_usage().gpu_tagset_bytes
        probe.close()

        cfg = TagMatchConfig(device_memory=need + 64, batch_timeout_s=None)
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks, workload.keys)
            eng.consolidate()
            blocks = workload.queries(64, seed=5).blocks
            start = time.perf_counter()
            with pytest.raises(CapacityError):
                eng.match_stream(blocks)
            assert time.perf_counter() - start < 5.0

            oracle = LinearScanMatcher()
            oracle.build(workload.blocks, workload.keys)
            got = [sorted(r.tolist()) for r in eng.match_batch(blocks)]
            assert got == [sorted(r.tolist()) for r in oracle.match_many(blocks)]


class TestLifecycleMisuse:
    def test_match_before_consolidate(self):
        with TagMatch() as eng:
            eng.add_set({"a"}, 1)
            with pytest.raises(ConsolidationError):
                eng.match({"a"})
            with pytest.raises(ConsolidationError):
                eng.match_stream(np.zeros((1, 3), np.uint64))
            with pytest.raises(ConsolidationError):
                eng.memory_usage()

    def test_operations_after_close(self, workload):
        eng = TagMatch(TagMatchConfig(batch_timeout_s=None))
        eng.add_signatures(workload.blocks[:100], workload.keys[:100])
        eng.consolidate()
        eng.close()
        with pytest.raises(DeviceError):
            eng.match({"anything"})

    def test_bad_inputs_rejected(self):
        with TagMatch() as eng:
            with pytest.raises(ValidationError):
                eng.add_set(set(), 1)
            with pytest.raises(ValidationError):
                eng.add_signatures(np.zeros((2, 5), np.uint64), np.zeros(2))

    def test_empty_then_populated(self, workload):
        """An engine consolidated empty can be populated later."""
        with TagMatch(TagMatchConfig(batch_timeout_s=None)) as eng:
            eng.consolidate()
            assert eng.match({"x"}).size == 0
            eng.add_signatures(workload.blocks[:50], workload.keys[:50])
            eng.consolidate()
            assert eng.num_unique_sets > 0


class TestPipelineRobustness:
    def test_duplicate_queries_in_stream(self, workload):
        cfg = TagMatchConfig(max_partition_size=64, batch_size=16, batch_timeout_s=0.01)
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks, workload.keys)
            eng.consolidate()
            q = workload.queries(1, seed=3).blocks
            stream = np.repeat(q, 50, axis=0)
            run = eng.match_stream(stream, unique=True)
            first = run.results[0].tolist()
            assert all(r.tolist() == first for r in run.results)

    def test_mixed_matching_and_nonmatching(self, workload):
        cfg = TagMatchConfig(max_partition_size=64, batch_timeout_s=0.01)
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks, workload.keys)
            eng.consolidate()
            hits = workload.queries(20, seed=4).blocks
            misses = eng.encode_queries(
                [{f"void-{i}"} for i in range(20)]
            )
            stream = np.vstack([hits, misses])
            run = eng.match_stream(stream, unique=True)
            assert all(r.size > 0 for r in run.results[:20])
            assert all(r.size == 0 for r in run.results[20:])

    def test_stream_raises_lookup_worker_failure(self, workload, monkeypatch):
        # A key lookup that raises leaves its batch's queries incomplete;
        # the run raises that error instead of waiting on them, and the
        # engine still serves afterwards.
        from repro.core.key_table import KeyTable

        keys_of_many = KeyTable.keys_of_many

        def fail(self, set_ids):
            raise RuntimeError("key lookup failed")

        cfg = TagMatchConfig(max_partition_size=64, batch_timeout_s=None)
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks, workload.keys)
            eng.consolidate()
            blocks = workload.queries(32, seed=6).blocks
            monkeypatch.setattr(KeyTable, "keys_of_many", fail)
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="key lookup failed"):
                eng.match_stream(blocks)
            assert time.perf_counter() - start < 5.0
            monkeypatch.setattr(KeyTable, "keys_of_many", keys_of_many)
            assert len(eng.match_stream(blocks).results) == 32

    def test_stream_raises_result_flush_failure(self, workload, monkeypatch):
        # The shutdown flush delivers each stream's trailing cycle; when it
        # fails, those queries never complete and the run must say why.
        from repro.gpu.doublebuffer import DoubleBufferedResults

        def fail(self):
            raise RuntimeError("result flush failed")

        monkeypatch.setattr(DoubleBufferedResults, "flush", fail)
        cfg = TagMatchConfig(max_partition_size=64, batch_timeout_s=None)
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks, workload.keys)
            eng.consolidate()
            blocks = workload.queries(32, seed=7).blocks
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="result flush failed"):
                eng.match_stream(blocks)
            assert time.perf_counter() - start < 5.0
