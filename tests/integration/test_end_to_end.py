"""End-to-end integration: workload → engine → results vs the oracle."""

import pytest

from repro.baselines import LinearScanMatcher
from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.workloads import generate_twitter_workload


@pytest.fixture(scope="module")
def workload():
    return generate_twitter_workload(num_users=4000, seed=99)


@pytest.fixture(scope="module")
def engine(workload):
    cfg = TagMatchConfig(
        max_partition_size=256, batch_size=64, num_gpus=2, batch_timeout_s=0.02
    )
    eng = TagMatch(cfg)
    eng.add_signatures(workload.blocks, workload.keys)
    eng.consolidate()
    yield eng
    eng.close()


@pytest.fixture(scope="module")
def oracle(workload):
    matcher = LinearScanMatcher()
    matcher.build(workload.blocks, workload.keys)
    return matcher


class TestEngineAgreesWithOracle:
    def test_sync_match(self, workload, engine, oracle):
        queries = workload.queries(40, seed=1)
        for tags, blocks in zip(queries.tag_sets, queries.blocks):
            got = sorted(engine.match(tags).tolist())
            expected = sorted(oracle.match_blocks(blocks).tolist())
            assert got == expected

    def test_sync_match_unique(self, workload, engine, oracle):
        queries = workload.queries(40, seed=2)
        for tags, blocks in zip(queries.tag_sets, queries.blocks):
            got = engine.match_unique(tags).tolist()
            expected = oracle.match_blocks(blocks, unique=True).tolist()
            assert got == expected

    def test_pipeline_match(self, workload, engine, oracle):
        queries = workload.queries(200, seed=3)
        run = engine.match_stream(queries.blocks)
        for blocks, result in zip(queries.blocks, run.results):
            expected = sorted(oracle.match_blocks(blocks).tolist())
            assert sorted(result.tolist()) == expected

    def test_pipeline_match_unique(self, workload, engine, oracle):
        queries = workload.queries(200, seed=4)
        run = engine.match_stream(queries.blocks, unique=True)
        for blocks, result in zip(queries.blocks, run.results):
            expected = oracle.match_blocks(blocks, unique=True).tolist()
            assert result.tolist() == expected

    def test_every_generated_query_matches_something(self, workload, engine):
        """§4.2.2: the workload generator forces every query to match."""
        queries = workload.queries(100, seed=5)
        run = engine.match_stream(queries.blocks, unique=True)
        assert all(r.size > 0 for r in run.results)

    def test_matched_keys_are_real_users(self, workload, engine):
        queries = workload.queries(50, seed=6)
        run = engine.match_stream(queries.blocks, unique=True)
        for result in run.results:
            if result.size:
                assert result.min() >= 0
                assert result.max() < workload.num_users


class TestIncrementalConsolidation:
    def test_interleaved_adds_and_removes(self, workload):
        cfg = TagMatchConfig(max_partition_size=128, batch_timeout_s=None)
        with TagMatch(cfg) as eng:
            half = workload.num_associations // 2
            eng.add_signatures(workload.blocks[:half], workload.keys[:half])
            eng.consolidate()
            first = eng.num_unique_sets
            eng.add_signatures(workload.blocks[half:], workload.keys[half:])
            eng.consolidate()
            assert eng.num_unique_sets > first
            # removing a known association takes effect
            tags = workload.interests.tag_sets[0]
            key = int(workload.keys[0])
            before = (eng.match(set(tags) | {"x-probe"}) == key).sum()
            eng.remove_set(tags, key)
            eng.consolidate()
            after = (eng.match(set(tags) | {"x-probe"}) == key).sum()
            assert after == before - 1

    def test_repeated_consolidates_stable(self, workload, oracle):
        cfg = TagMatchConfig(max_partition_size=128, batch_timeout_s=None)
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks, workload.keys)
            eng.consolidate()
            eng.consolidate()  # no staged changes: same result
            queries = workload.queries(20, seed=7)
            for tags, blocks in zip(queries.tag_sets, queries.blocks):
                assert sorted(eng.match(tags).tolist()) == sorted(
                    oracle.match_blocks(blocks).tolist()
                )


class TestPlacementEquivalence:
    @pytest.mark.parametrize("num_gpus,factor", [(1, None), (2, None), (2, 1), (3, 1)])
    def test_results_independent_of_gpu_placement(self, workload, oracle, num_gpus, factor):
        cfg = TagMatchConfig(
            max_partition_size=256,
            num_gpus=num_gpus,
            replication_factor=factor,
            batch_timeout_s=0.01,
        )
        with TagMatch(cfg) as eng:
            eng.add_signatures(workload.blocks, workload.keys)
            eng.consolidate()
            queries = workload.queries(60, seed=8)
            run = eng.match_stream(queries.blocks, unique=True)
            for blocks, result in zip(queries.blocks, run.results):
                expected = oracle.match_blocks(blocks, unique=True).tolist()
                assert result.tolist() == expected
