"""Tests for the four-stage matching pipeline."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.core.partition_table import PartitionTable
from repro.core.pipeline import grouped_key_lookup
from repro.core.results import QueryState
from repro.core.runner import UnitRunner


def build_engine(**overrides):
    defaults = dict(
        max_partition_size=16,
        batch_size=8,
        batch_timeout_s=0.01,
        num_gpus=2,
    )
    defaults.update(overrides)
    eng = TagMatch(TagMatchConfig(**defaults))
    rng = np.random.default_rng(123)
    tags = [f"tag-{i}" for i in range(60)]
    for key in range(300):
        size = int(rng.integers(1, 6))
        chosen = rng.choice(60, size=size, replace=False)
        eng.add_set({tags[c] for c in chosen}, key=key)
    eng.consolidate()
    return eng, tags, rng


@pytest.fixture(scope="module")
def built():
    eng, tags, rng = build_engine()
    yield eng, tags, rng
    eng.close()


def canonical(results):
    return [sorted(r.tolist()) for r in results]


def make_queries(tags, rng, n=64, size=10):
    out = []
    for _ in range(n):
        chosen = rng.choice(len(tags), size=size, replace=False)
        out.append({tags[c] for c in chosen})
    return out


class TestCorrectness:
    def test_stream_agrees_with_sync_match(self, built):
        eng, tags, rng = built
        tag_sets = make_queries(tags, rng)
        qs = eng.encode_queries(tag_sets)
        run = eng.match_stream(qs)
        assert run.num_queries == len(tag_sets)
        for row, result in zip(tag_sets, run.results):
            expected = sorted(eng.match(row).tolist())
            assert sorted(result.tolist()) == expected

    def test_stream_unique_agrees(self, built):
        eng, tags, rng = built
        tag_sets = make_queries(tags, rng, n=32)
        qs = eng.encode_queries(tag_sets)
        run = eng.match_stream(qs, unique=True)
        for row, result in zip(tag_sets, run.results):
            expected = eng.match_unique(row).tolist()
            assert result.tolist() == expected

    def test_no_timeout_still_terminates(self, built):
        eng, tags, rng = built
        qs = eng.encode_queries(make_queries(tags, rng, n=20))
        run = eng.match_stream(qs, batch_timeout_s=None)
        assert run.num_queries == 20

    def test_single_query_stream(self, built):
        eng, tags, rng = built
        qs = eng.encode_queries(make_queries(tags, rng, n=1))
        run = eng.match_stream(qs)
        assert run.num_queries == 1

    def test_non_matching_queries_complete(self, built):
        eng, _, _ = built
        qs = eng.encode_queries([{"unknown-1"}, {"unknown-2"}])
        run = eng.match_stream(qs)
        assert all(r.size == 0 for r in run.results)

    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_thread_counts(self, built, threads):
        eng, tags, rng = built
        tag_sets = make_queries(tags, rng, n=24)
        qs = eng.encode_queries(tag_sets)
        run = eng.match_stream(qs, num_threads=threads)
        for row, result in zip(tag_sets, run.results):
            assert sorted(result.tolist()) == sorted(eng.match(row).tolist())

    def test_concurrent_callers_on_one_stream(self):
        """Two threads matching on one engine share its only stream; the
        stream lock keeps its reused result arena to one kernel at a time."""
        eng, tags, rng = build_engine(num_gpus=1, streams_per_gpu=1)
        blocks = [eng.encode_queries(make_queries(tags, rng, n=200)) for _ in range(2)]
        expected = [canonical(eng.match_batch(b)) for b in blocks]
        got = [None, None]
        errors = []

        def caller(i):
            try:
                got[i] = canonical(eng.match_stream(blocks[i]).results)
            except Exception as exc:  # re-raised below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            eng.close()
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert got == expected

    def test_matching_starts_no_threads(self, monkeypatch):
        """Every match path runs in the calling thread."""
        launch = UnitRunner.launch
        during = []

        def counting_launch(self, *args, **kwargs):
            during.append(threading.active_count())
            return launch(self, *args, **kwargs)

        monkeypatch.setattr(UnitRunner, "launch", counting_launch)
        before = threading.active_count()
        eng, tags, rng = build_engine()
        qs = eng.encode_queries(make_queries(tags, rng, n=40))
        eng.match(make_queries(tags, rng, n=1)[0])
        eng.match_batch(qs)
        eng.match_stream(qs)
        eng.match_stream(qs, batch_timeout_s=0.01, arrival_rate_qps=4000.0)
        assert threading.active_count() == before
        eng.close()
        assert threading.active_count() == before
        assert during and set(during) == {before}


class TestStatsAndLatency:
    def test_throughput_and_latency_reported(self, built):
        eng, tags, rng = built
        qs = eng.encode_queries(make_queries(tags, rng, n=40))
        run = eng.match_stream(qs)
        assert run.throughput_qps > 0
        assert run.latencies_s.shape == (40,)
        assert (run.latencies_s >= 0).all()
        assert run.elapsed_s > 0

    def test_output_keys_counts_all_results(self, built):
        eng, tags, rng = built
        qs = eng.encode_queries(make_queries(tags, rng, n=16))
        run = eng.match_stream(qs)
        assert run.output_keys == sum(r.size for r in run.results)

    def test_batch_accounting(self, built):
        eng, tags, rng = built
        qs = eng.encode_queries(make_queries(tags, rng, n=40))
        run = eng.match_stream(qs)
        stats = run.stats
        assert stats.batches == (
            stats.full_flushes + stats.timeout_flushes + stats.shutdown_flushes
        )
        assert stats.kernel_invocations == stats.batches

    def test_arrival_rate_paces_feed(self, built):
        eng, tags, rng = built
        qs = eng.encode_queries(make_queries(tags, rng, n=64))
        run = eng.match_stream(qs, arrival_rate_qps=2000.0)
        # 64 queries at 2000 qps should take at least ~30 ms.
        assert run.elapsed_s >= 0.025

    def test_timeout_flushes_happen_under_slow_arrival(self, built):
        eng, tags, rng = built
        qs = eng.encode_queries(make_queries(tags, rng, n=12))
        run = eng.match_stream(qs, batch_timeout_s=0.005, arrival_rate_qps=400.0)
        assert run.stats.timeout_flushes > 0

    def test_latency_counts_lag_behind_the_schedule(self, built, monkeypatch):
        """A run that falls behind its arrival schedule times each query
        from its chunk's scheduled release, not from when it got to it."""
        eng, tags, rng = built
        qs = eng.encode_queries(make_queries(tags, rng, n=64))
        launch = UnitRunner.launch
        relevant_matrix = PartitionTable.relevant_matrix
        finalize = QueryState._finalize
        pre_starts = []
        done_at = {}

        def slow_launch(self, *args, **kwargs):
            time.sleep(0.005)
            return launch(self, *args, **kwargs)

        def timed_relevant_matrix(self, rows):
            pre_starts.append(time.perf_counter())
            return relevant_matrix(self, rows)

        def timed_finalize(self):
            finalize(self)
            done_at[self.query_index] = self.complete_time

        monkeypatch.setattr(UnitRunner, "launch", slow_launch)
        monkeypatch.setattr(PartitionTable, "relevant_matrix", timed_relevant_matrix)
        monkeypatch.setattr(QueryState, "_finalize", timed_finalize)
        run = eng.match_stream(qs, arrival_rate_qps=2000.0)
        assert len(pre_starts) == 2
        # The run starts before the first chunk's pre-process, so the
        # second chunk's scheduled release (32 queries at 2000 q/s) is no
        # later than this, and its pre-process started `lag` late.
        release = pre_starts[0] + 32 / 2000.0
        lag = pre_starts[1] - release
        assert lag > 0.005
        # The last query's latency covers the lag as well as its own
        # time from pre-process to merge.
        assert run.latencies_s[63] >= (done_at[63] - pre_starts[1]) + lag


class TestScaleAndStress:
    def test_larger_stream(self):
        eng, tags, rng = build_engine(batch_size=32)
        try:
            tag_sets = make_queries(tags, rng, n=300, size=8)
            qs = eng.encode_queries(tag_sets)
            run = eng.match_stream(qs)
            sample = rng.choice(300, size=20, replace=False)
            for qi in sample:
                expected = sorted(eng.match(tag_sets[qi]).tolist())
                assert sorted(run.results[qi].tolist()) == expected
        finally:
            eng.close()

    def test_back_to_back_runs_reuse_engine(self, built):
        eng, tags, rng = built
        qs = eng.encode_queries(make_queries(tags, rng, n=16))
        r1 = eng.match_stream(qs)
        r2 = eng.match_stream(qs)
        for a, b in zip(r1.results, r2.results):
            assert sorted(a.tolist()) == sorted(b.tolist())


class TestGroupedKeyLookup:
    """Stage-3 grouping, including its single-query / pre-sorted fast paths."""

    def _reference(self, key_table, q_ids, set_ids):
        out = []
        for q in np.unique(q_ids):
            mask = q_ids == q
            out.append((int(q), key_table.keys_of_many(set_ids[mask]).tolist()))
        return out

    def _check(self, built, q_ids, set_ids):
        eng, _, _ = built
        q_ids = np.asarray(q_ids, dtype=np.uint32)
        set_ids = np.asarray(set_ids, dtype=np.int64)
        got = [
            (int(q), keys.tolist())
            for q, keys in grouped_key_lookup(q_ids, set_ids, eng.key_table)
        ]
        assert got == self._reference(eng.key_table, q_ids, set_ids)

    def test_single_query_fast_path(self, built):
        self._check(built, [3, 3, 3, 3], [0, 5, 2, 5])

    def test_already_sorted_fast_path(self, built):
        self._check(built, [0, 0, 1, 4, 4, 4], [7, 1, 3, 0, 2, 2])

    def test_unsorted_general_path(self, built):
        self._check(built, [4, 0, 4, 1, 0], [2, 7, 0, 3, 1])

    def test_single_pair(self, built):
        self._check(built, [9], [4])
