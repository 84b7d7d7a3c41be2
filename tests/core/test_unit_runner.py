"""Every matching path launches kernels through the one unit runner.

``match`` per query, ``match_batch`` and ``match_stream`` must return
the same key multisets as a brute-force scan, and charge the simulated
device clocks identically for the same (query, unit) launches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.linear_scan import LinearScanMatcher
from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch

VOCAB = [f"t{i}" for i in range(12)]

tag_sets = st.frozensets(st.sampled_from(VOCAB), min_size=1, max_size=4)
databases = st.lists(
    st.tuples(tag_sets, st.integers(0, 20)), min_size=1, max_size=40
)
query_lists = st.lists(
    st.frozensets(st.sampled_from(VOCAB), min_size=1, max_size=8),
    min_size=1,
    max_size=12,
)
knobs = st.fixed_dictionaries(
    {
        "max_partition_size": st.integers(2, 8),
        "batch_size": st.sampled_from([1, 4]),
        "num_gpus": st.sampled_from([1, 2]),
    }
)


def clocks(engine):
    """Kernel launches and simulated kernel seconds over all devices."""
    snaps = [d.clock.snapshot() for d in engine.devices]
    return sum(s["launches"] for s in snaps), sum(s["kernel_s"] for s in snaps)


def charged(engine, call):
    """``call()``'s result and the kernel clock it charged."""
    launches0, kernel0 = clocks(engine)
    result = call()
    launches1, kernel1 = clocks(engine)
    return result, (launches1 - launches0, kernel1 - kernel0)


def canonical(results):
    return [sorted(r.tolist()) for r in results]


@settings(max_examples=40, deadline=None)
@given(database=databases, queries=query_lists, knobs=knobs)
def test_paths_agree_on_results_and_device_clocks(database, queries, knobs):
    config = TagMatchConfig(batch_timeout_s=None, **knobs)
    with TagMatch(config) as engine:
        for tags, key in database:
            engine.add_set(tags, key)
        engine.consolidate()
        blocks = engine.encode_queries(queries)

        single, single_clock = charged(
            engine, lambda: [engine.match(tags) for tags in queries]
        )
        batch, batch_clock = charged(engine, lambda: engine.match_batch(blocks))
        stream, stream_clock = charged(
            engine, lambda: engine.match_stream(blocks).results
        )

        oracle = LinearScanMatcher()
        oracle.build(
            np.stack([engine.encode(tags) for tags, _ in database]),
            np.array([key for _, key in database], dtype=np.int64),
        )
        expected = canonical(oracle.match_many(blocks))

    assert canonical(single) == expected
    assert canonical(batch) == expected
    assert canonical(stream) == expected

    assert single_clock[0] > 0 or not any(expected)
    assert batch_clock[0] == single_clock[0]
    assert batch_clock[1] == pytest.approx(single_clock[1], rel=1e-9)
    if knobs["batch_size"] == 1:
        # One query per pipeline batch: the stream launches exactly the
        # (query, unit) kernels the synchronous paths do.
        assert stream_clock[0] == single_clock[0]
        assert stream_clock[1] == pytest.approx(single_clock[1], rel=1e-9)
