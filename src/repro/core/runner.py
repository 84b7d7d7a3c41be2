"""The unit runner: the one place a subset-match kernel is launched.

Every matching path launches the kernel (Algorithms 3–4) against one
dispatch unit of the tagset table through :class:`UnitRunner`, from one
call site: a pipeline run's copy-in/kernel/push sequence, one batch at a
time.  ``TagMatch.match``/``match_unique`` are one-row runs and
``TagMatch.match_stream`` a many-row one.  Each launch runs in the
calling thread and charges the unit's device clock exactly once, so
simulated device time and launch counts agree across paths for the same
work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import TagMatchConfig
from repro.core.tagset_table import PartitionResidency, TagsetTable
from repro.gpu.kernels import KernelResult, ResultArena, subset_match_kernel
from repro.gpu.packing import pack_results

__all__ = ["KernelOutput", "UnitRunner"]


@dataclass
class KernelOutput:
    """One launch's result in wire format.

    ``packed`` is the §3.3.1 packed pair buffer — the bytes a GPU would
    DMA back — so it drops straight into the double-buffer push.
    """

    packed: np.ndarray
    num_pairs: int
    simulated_time_s: float


class UnitRunner:
    """Launches kernels on the dispatch units of one tagset table."""

    def __init__(self, tagset_table: TagsetTable, config: TagMatchConfig) -> None:
        self._table = tagset_table
        self._config = config

    def launch(
        self,
        unit_id: int,
        queries: np.ndarray,
        residency: PartitionResidency | None = None,
        arena: ResultArena | None = None,
    ) -> KernelResult:
        """Match ``queries`` against one unit and charge its device clock.

        ``residency`` picks the device copy (default: the table's
        round-robin choice); ``arena`` is an optional reusable result
        arena, whose views the returned ids are.
        """
        if residency is None:
            residency = self._table.unit_residency(unit_id)
        config = self._config
        device = residency.device
        result = subset_match_kernel(
            residency.sets.array(),
            residency.ids.array(),
            queries,
            thread_block_size=config.thread_block_size,
            prefilter=config.prefilter,
            cost_model=device.cost_model,
            clock=None,
            prefixes=residency.prefixes.array(),
            block_offsets=residency.block_offsets.array(),
            member_commons=residency.commons.array(),
            member_of_block=residency.member_of_block.array(),
            arena=arena,
        )
        device.clock.add_kernel(result.stats.simulated_time_s)
        return result

    def run_kernel(
        self,
        unit_id: int,
        queries: np.ndarray,
        residency: PartitionResidency | None = None,
        arena: ResultArena | None = None,
    ) -> KernelOutput:
        """:meth:`launch`, with the matched pairs packed for transfer.

        With an ``arena`` the packed bytes live in its resident buffer;
        the pipeline's double-buffer push copies them out before the run
        launches another kernel, so the view never goes stale.
        """
        result = self.launch(unit_id, queries, residency, arena)
        packed = (
            arena.pack()
            if arena is not None
            else pack_results(result.query_ids, result.set_ids)
        )
        return KernelOutput(
            packed=packed,
            num_pairs=result.stats.num_pairs,
            simulated_time_s=result.stats.simulated_time_s,
        )
