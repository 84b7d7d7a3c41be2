"""Process-wide caches of generated workloads and built systems.

Benchmark modules share one full-scale Twitter workload (≈ 10 s to
generate) and reuse built engines/tries across experiments where the
configuration allows it.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import TagMatchConfig
from repro.core.engine import TagMatch
from repro.workloads.scaling import PAPER_USERS, scaled
from repro.workloads.workload import TwitterWorkload, generate_twitter_workload

__all__ = [
    "twitter_workload",
    "build_engine",
    "default_engine_config",
    "BENCH_MAX_P",
]

#: MAX_P used by non-Figure-7 benchmarks; near the measured optimum of
#: the scaled workload, playing the role of the paper's 200 K setting.
BENCH_MAX_P = 1600

_workloads: dict[tuple[int, int], TwitterWorkload] = {}


def twitter_workload(num_users: int | None = None, seed: int = 0) -> TwitterWorkload:
    """The (cached) Twitter workload at the active scale."""
    users = num_users if num_users is not None else scaled(PAPER_USERS)
    key = (users, seed)
    if key not in _workloads:
        _workloads[key] = generate_twitter_workload(num_users=users, seed=seed)
    return _workloads[key]


def default_engine_config(**overrides) -> TagMatchConfig:
    """The engine configuration benchmarks use unless they sweep a knob."""
    base = dict(
        max_partition_size=BENCH_MAX_P,
        batch_size=256,
        num_gpus=2,
        batch_timeout_s=None,
    )
    base.update(overrides)
    return TagMatchConfig(**base)


def build_engine(
    blocks: np.ndarray, keys: np.ndarray, config: TagMatchConfig | None = None
) -> TagMatch:
    """Build a consolidated engine over pre-encoded associations."""
    engine = TagMatch(config if config is not None else default_engine_config())
    engine.add_signatures(blocks, keys)
    engine.consolidate()
    return engine
