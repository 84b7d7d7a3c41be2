"""Tests for the TagMatch engine (Table 2 interface)."""

import numpy as np
import pytest

from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.errors import ConsolidationError, ValidationError


@pytest.fixture
def engine():
    cfg = TagMatchConfig(max_partition_size=8, batch_size=16, batch_timeout_s=None)
    eng = TagMatch(cfg)
    yield eng
    eng.close()


def build_small(engine):
    engine.add_set({"cats", "memes"}, key=1)
    engine.add_set({"rust"}, key=2)
    engine.add_set({"cats"}, key=3)
    engine.add_set({"cats", "memes"}, key=4)  # same set, different key
    engine.consolidate()


class TestInterface:
    def test_match_finds_subsets(self, engine):
        build_small(engine)
        got = sorted(engine.match({"cats", "memes", "monday"}).tolist())
        assert got == [1, 3, 4]

    def test_match_exact_set(self, engine):
        build_small(engine)
        assert sorted(engine.match({"cats"}).tolist()) == [3]

    def test_match_no_results(self, engine):
        build_small(engine)
        assert engine.match({"zzz"}).size == 0

    def test_match_multiset_semantics(self, engine):
        engine.add_set({"a"}, key=9)
        engine.add_set({"a", "b"}, key=9)
        engine.consolidate()
        assert engine.match({"a", "b"}).tolist() == [9, 9]

    def test_match_unique_deduplicates(self, engine):
        engine.add_set({"a"}, key=9)
        engine.add_set({"a", "b"}, key=9)
        engine.consolidate()
        assert engine.match_unique({"a", "b"}).tolist() == [9]

    def test_match_before_consolidate_raises(self, engine):
        engine.add_set({"a"}, key=1)
        with pytest.raises(ConsolidationError):
            engine.match({"a"})

    def test_staged_adds_invisible_until_consolidate(self, engine):
        build_small(engine)
        engine.add_set({"new"}, key=99)
        assert engine.match({"new"}).size == 0
        engine.consolidate()
        assert engine.match({"new"}).tolist() == [99]

    def test_remove_set(self, engine):
        build_small(engine)
        engine.remove_set({"cats"}, key=3)
        engine.consolidate()
        assert sorted(engine.match({"cats", "memes"}).tolist()) == [1, 4]

    def test_empty_tag_set_rejected(self, engine):
        with pytest.raises(ValidationError):
            engine.add_set(set(), key=1)

    def test_empty_database_consolidates(self, engine):
        engine.consolidate()
        assert engine.match({"anything"}).size == 0
        assert engine.num_partitions == 0


class TestBulkAndBatch:
    def test_add_signatures_bulk(self, engine):
        blocks = engine.hasher.encode_sets([["a"], ["b"]])
        engine.add_signatures(blocks, np.array([10, 20]))
        engine.consolidate()
        assert engine.match({"a"}).tolist() == [10]

    def test_match_stream_agrees_with_match(self, engine):
        build_small(engine)
        tag_sets = [{"cats", "memes"}, {"rust", "x"}, {"none"}]
        qs = engine.encode_queries(tag_sets)
        stream = engine.match_stream(qs).results
        singles = [engine.match(t) for t in tag_sets]
        for b, s in zip(stream, singles):
            assert sorted(b.tolist()) == sorted(s.tolist())

    def test_match_stream_unique(self, engine):
        engine.add_set({"a"}, key=9)
        engine.add_set({"a", "b"}, key=9)
        engine.consolidate()
        qs = engine.encode_queries([{"a", "b"}])
        assert engine.match_stream(qs, unique=True).results[0].tolist() == [9]


class TestConsolidateReport:
    def test_report_counts(self, engine):
        build_small(engine)
        rep = engine.last_consolidate
        assert rep.num_associations == 4
        assert rep.num_unique_sets == 3  # {cats,memes} deduplicated
        assert rep.partitioning.num_partitions == engine.num_partitions
        assert rep.elapsed_s > 0

    def test_num_unique_sets_property(self, engine):
        build_small(engine)
        assert engine.num_unique_sets == 3

    def test_reconsolidate_frees_old_gpu_table(self, engine):
        build_small(engine)
        first_gpu = engine.memory_usage().gpu_total_bytes
        engine.add_set({"more"}, key=50)
        engine.consolidate()
        second_gpu = engine.memory_usage().gpu_total_bytes
        # old buffers freed: usage grows by one small set, not 2x
        assert second_gpu < 2 * first_gpu


class TestMemoryUsage:
    def test_breakdown_positive(self, engine):
        build_small(engine)
        usage = engine.memory_usage()
        assert usage.key_table_bytes > 0
        assert usage.partition_table_bytes > 0
        assert usage.gpu_tagset_bytes > 0
        assert usage.host_bytes >= usage.key_table_bytes
        assert usage.gpu_total_bytes >= usage.gpu_tagset_bytes

    def test_gpu_memory_scales_with_database(self):
        cfg = TagMatchConfig(max_partition_size=64, batch_timeout_s=None)
        with TagMatch(cfg) as small, TagMatch(cfg) as large:
            for i in range(50):
                small.add_set({f"t{i}", f"u{i}"}, key=i)
            for i in range(500):
                large.add_set({f"t{i}", f"u{i}"}, key=i)
            small.consolidate()
            large.consolidate()
            assert (
                large.memory_usage().gpu_tagset_bytes
                > 5 * small.memory_usage().gpu_tagset_bytes
            )


class TestExactCheck:
    def test_exact_check_filters_false_positives(self):
        """With a tiny 64-bit filter false positives are easy to make;
        exact_check must remove them."""
        cfg = TagMatchConfig(
            width=64, num_hashes=2, exact_check=True, batch_timeout_s=None,
            max_partition_size=16,
        )
        with TagMatch(cfg) as eng:
            rng_tags = [f"tag-{i}" for i in range(200)]
            for i, t in enumerate(rng_tags):
                eng.add_set({t, rng_tags[(i + 7) % 200]}, key=i)
            eng.consolidate()
            for q in ({"tag-0", "tag-7"}, {"tag-3", "tag-10", "tag-50"}):
                got = set(eng.match(q).tolist())
                expected = {
                    i
                    for i, t in enumerate(rng_tags)
                    if {t, rng_tags[(i + 7) % 200]} <= q
                }
                assert got == expected

    def test_exact_check_keeps_only_subset_keys_of_a_shared_signature(self):
        """Two tag sets with one Bloom signature share a set id; the exact
        check must keep only the keys whose own tags are a subset."""
        cfg = TagMatchConfig(width=64, num_hashes=1, exact_check=True)
        with TagMatch(cfg) as eng:
            assert np.array_equal(eng.encode({"t0"}), eng.encode({"t20"}))
            eng.add_set({"t0"}, key=1)
            eng.add_set({"t20"}, key=2)
            eng.consolidate()
            assert eng.num_unique_sets == 1
            assert eng.match({"t0"}).tolist() == [1]
            assert eng.match_unique({"t0"}).tolist() == [1]
            assert eng.match({"t20"}).tolist() == [2]
            assert sorted(eng.match({"t0", "t20"}).tolist()) == [1, 2]

    def test_exact_check_incompatible_with_bulk(self):
        cfg = TagMatchConfig(exact_check=True)
        with TagMatch(cfg) as eng:
            with pytest.raises(ValidationError):
                eng.add_signatures(np.zeros((1, 3), np.uint64), np.array([1]))

    def test_exact_check_survives_removal(self):
        cfg = TagMatchConfig(exact_check=True, batch_timeout_s=None)
        with TagMatch(cfg) as eng:
            eng.add_set({"a"}, key=1)
            eng.add_set({"b"}, key=2)
            eng.consolidate()
            eng.remove_set({"a"}, key=1)
            eng.consolidate()
            assert eng.match({"a", "b"}).tolist() == [2]

    def test_encoded_block_apis_refuse_exact_check(self):
        """match_stream only sees encoded blocks, so it cannot filter Bloom
        false positives the way match() does: it refuses."""
        cfg = TagMatchConfig(exact_check=True, batch_timeout_s=None)
        with TagMatch(cfg) as eng:
            eng.add_set({"a"}, key=1)
            eng.consolidate()
            blocks = eng.encode_queries([{"a", "b"}])
            with pytest.raises(ValidationError, match="exact_check"):
                eng.match_stream(blocks)
            assert eng.match({"a", "b"}).tolist() == [1]


class TestMultiGpu:
    @pytest.mark.parametrize("factor", [None, 1])
    def test_results_identical_across_placements(self, factor):
        cfg = TagMatchConfig(
            num_gpus=2,
            replication_factor=factor,
            max_partition_size=4,
            batch_timeout_s=None,
        )
        with TagMatch(cfg) as eng:
            for i in range(40):
                eng.add_set({f"x{i}", f"x{i+1}"}, key=i)
            eng.consolidate()
            got = sorted(eng.match({"x3", "x4", "x5"}).tolist())
            assert got == [3, 4]

    def test_replication_doubles_gpu_memory(self):
        def build(factor):
            cfg = TagMatchConfig(
                num_gpus=2, replication_factor=factor, batch_timeout_s=None
            )
            eng = TagMatch(cfg)
            for i in range(50):
                eng.add_set({f"x{i}", f"y{i}"}, key=i)
            eng.consolidate()
            usage = eng.memory_usage().gpu_tagset_bytes
            eng.close()
            return usage

        assert build(None) == pytest.approx(2 * build(1), rel=0.05)

    def test_close_is_idempotent(self, engine):
        build_small(engine)
        engine.close()
        engine.close()
