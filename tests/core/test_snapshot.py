"""Tests for index persistence (save/load snapshots)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.baselines.linear_scan import LinearScanMatcher
from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.core.snapshot import _CONFIG_FIELDS
from repro.errors import ValidationError
from repro.workloads import generate_twitter_workload


@pytest.fixture(scope="module")
def workload():
    return generate_twitter_workload(num_users=1500, seed=23)


@pytest.fixture()
def built(workload):
    cfg = TagMatchConfig(max_partition_size=64, batch_timeout_s=None)
    eng = TagMatch(cfg)
    eng.add_signatures(workload.blocks, workload.keys)
    eng.consolidate()
    yield eng
    eng.close()


class TestRoundtrip:
    def test_identical_results_after_load(self, built, workload, tmp_path):
        path = str(tmp_path / "index.npz")
        built.save(path)
        loaded = TagMatch.load(path)
        try:
            queries = workload.queries(40, seed=1)
            for tags in queries.tag_sets:
                assert sorted(loaded.match(tags).tolist()) == sorted(
                    built.match(tags).tolist()
                )
                assert loaded.match_unique(tags).tolist() == built.match_unique(
                    tags
                ).tolist()
        finally:
            loaded.close()

    def test_partition_layout_preserved(self, built, tmp_path):
        path = str(tmp_path / "index.npz")
        built.save(path)
        loaded = TagMatch.load(path)
        try:
            assert loaded.num_partitions == built.num_partitions
            assert loaded.num_unique_sets == built.num_unique_sets
            # No re-partitioning happened on load.
            assert loaded.last_consolidate.partitioning.elapsed_s == 0.0
        finally:
            loaded.close()

    def test_pipeline_works_after_load(self, built, workload, tmp_path):
        path = str(tmp_path / "index.npz")
        built.save(path)
        loaded = TagMatch.load(path)
        try:
            queries = workload.queries(64, seed=2)
            run = loaded.match_stream(queries.blocks, unique=True)
            for tags, result in zip(queries.tag_sets, run.results):
                assert result.tolist() == built.match_unique(tags).tolist()
        finally:
            loaded.close()

    def test_load_continues_to_evolve(self, built, tmp_path):
        """A loaded engine accepts further add/remove + consolidate."""
        path = str(tmp_path / "index.npz")
        built.save(path)
        loaded = TagMatch.load(path)
        try:
            loaded.add_set({"fresh", "snapshot"}, key=10**6)
            loaded.consolidate()
            assert loaded.match({"fresh", "snapshot", "x"}).tolist() == [10**6]
        finally:
            loaded.close()


class TestConfigOverride:
    def test_different_gpu_topology(self, built, tmp_path):
        path = str(tmp_path / "index.npz")
        built.save(path)
        override = TagMatchConfig(
            max_partition_size=64, num_gpus=3, batch_timeout_s=None
        )
        loaded = TagMatch.load(path, config=override)
        try:
            assert len(loaded.devices) == 3
        finally:
            loaded.close()

    def test_mismatched_bloom_geometry_rejected(self, built, tmp_path):
        path = str(tmp_path / "index.npz")
        built.save(path)
        with pytest.raises(ValidationError):
            TagMatch.load(path, config=TagMatchConfig(width=128, num_hashes=3))


class TestGuards:
    def test_unconsolidated_engine_rejected(self, tmp_path):
        with TagMatch() as eng:
            eng.add_set({"a"}, 1)
            with pytest.raises(ValidationError):
                eng.save(str(tmp_path / "x.npz"))

    def test_dirty_stage_rejected(self, built, tmp_path):
        built.add_set({"pending"}, 1)
        with pytest.raises(ValidationError):
            built.save(str(tmp_path / "x.npz"))

    def test_exact_check_engine_rejected(self, tmp_path):
        cfg = TagMatchConfig(exact_check=True, batch_timeout_s=None)
        with TagMatch(cfg) as eng:
            eng.add_set({"a"}, 1)
            eng.consolidate()
            with pytest.raises(ValidationError):
                eng.save(str(tmp_path / "x.npz"))

    def test_empty_database_roundtrip(self, tmp_path):
        with TagMatch(TagMatchConfig(batch_timeout_s=None)) as eng:
            eng.consolidate()
            path = str(tmp_path / "empty.npz")
            eng.save(path)
            loaded = TagMatch.load(path)
            try:
                assert loaded.match({"anything"}).size == 0
            finally:
                loaded.close()


def legacy_config(**overrides):
    """The 19-key config JSON written by releases that still had the
    ``fuse_partitions_below``/``coarse_prefilter`` options, the
    ``replicate_tagset_table`` switch, the ``query_memo_size`` memo and
    the ``num_threads`` pipeline thread count."""
    payload = {
        "width": 192,
        "num_hashes": 7,
        "seed": 0,
        "max_partition_size": 64,
        "batch_size": 128,
        "batch_timeout_s": None,
        "num_threads": 4,
        "num_gpus": 2,
        "streams_per_gpu": 10,
        "device_memory": 12 * 1024**3,
        "thread_block_size": 1024,
        "prefilter": True,
        "fuse_partitions_below": 0,
        "coarse_prefilter": True,
        "query_memo_size": 0,
        "replicate_tagset_table": True,
        "replication_factor": None,
        "exact_check": False,
        "pivot_strategy": "balanced",
    }
    payload.update(overrides)
    return np.frombuffer(json.dumps(payload).encode(), dtype=np.uint8)


class TestLegacySnapshots:
    @pytest.fixture()
    def arrays(self, built, tmp_path):
        """A saved index's arrays, ready to be re-written with an old config."""
        path = str(tmp_path / "index.npz")
        built.save(path)
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}

    @pytest.mark.parametrize("replicate,copies", [(True, 2), (False, 1)])
    def test_old_config_loads(self, arrays, workload, tmp_path, replicate, copies):
        path = str(tmp_path / "legacy.npz")
        arrays["config"] = legacy_config(replicate_tagset_table=replicate)
        np.savez_compressed(path, **arrays)
        loaded = TagMatch.load(path)
        try:
            assert loaded.tagset_table.copies == copies
            assert loaded.config.replication_factor == (None if replicate else 1)
            oracle = LinearScanMatcher()
            oracle.build(workload.blocks, workload.keys)
            blocks = workload.queries(40, seed=3).blocks
            got = [sorted(r.tolist()) for r in loaded.match_batch(blocks)]
            assert got == [sorted(r.tolist()) for r in oracle.match_many(blocks)]
        finally:
            loaded.close()

    def _assert_loads_and_matches(self, arrays, workload, path, config):
        arrays["config"] = config
        np.savez_compressed(path, **arrays)
        loaded = TagMatch.load(path)
        try:
            oracle = LinearScanMatcher()
            oracle.build(workload.blocks, workload.keys)
            blocks = workload.queries(40, seed=3).blocks
            got = [sorted(r.tolist()) for r in loaded.match_batch(blocks)]
            assert got == [sorted(r.tolist()) for r in oracle.match_many(blocks)]
        finally:
            loaded.close()

    def test_old_memo_size_is_dropped(self, arrays, workload, tmp_path):
        self._assert_loads_and_matches(
            arrays, workload, str(tmp_path / "memo.npz"), legacy_config(query_memo_size=64)
        )

    def test_old_thread_count_is_dropped(self, arrays, workload, tmp_path):
        self._assert_loads_and_matches(
            arrays, workload, str(tmp_path / "threads.npz"), legacy_config(num_threads=8)
        )

    def test_snapshot_stores_every_config_field(self):
        # A field added to or removed from the config must change the
        # snapshot format too; the cost model is not persisted.
        fields = {f.name for f in dataclasses.fields(TagMatchConfig)}
        assert set(_CONFIG_FIELDS) == fields - {"cost_model"}

    def test_unknown_config_key_rejected(self, arrays, tmp_path):
        path = str(tmp_path / "unknown.npz")
        arrays["config"] = legacy_config(backend="thread")
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValidationError, match="backend"):
            TagMatch.load(path)
