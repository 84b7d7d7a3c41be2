"""GPU-only designs: the first two rows of Table 1.

*GPU-only, plain* ships every query to the device individually and scans
the whole (unpartitioned) tagset table — one transfer/kernel/transfer
round trip per query, so the fixed per-invocation costs dominate.

*GPU-only, plain with batching* amortises those costs over a batch of
queries but still scans the whole table for every batch; it lacks
TagMatch's partition pre-filtering, so it remains an order of magnitude
behind the hybrid design (Table 1: 11.5 vs 268.8 kq/s at 20 M sets).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.interface import SubsetMatcher
from repro.errors import ValidationError
from repro.gpu.device import Device
from repro.gpu.kernels import subset_match_kernel

__all__ = ["GpuPlainMatcher", "GpuBatchedMatcher"]


class GpuPlainMatcher(SubsetMatcher):
    """One kernel round trip per query over the whole database."""

    name = "GPU-only, plain"

    def __init__(self, device: Device | None = None, thread_block_size: int = 1024) -> None:
        super().__init__()
        self.device = device if device is not None else Device()
        self._owns_device = device is None
        self.thread_block_size = thread_block_size

    def _build_index(self, unique_blocks: np.ndarray) -> int:
        order = np.lexsort(
            tuple(unique_blocks[:, c] for c in range(unique_blocks.shape[1] - 1, -1, -1))
        )
        self._ids = order.astype(np.uint32)
        self._table = self.device.htod(unique_blocks[order], label="gpu-plain/table")
        return 0  # the table lives in device memory, not the host index

    def match_set_ids(self, query: np.ndarray) -> np.ndarray:
        q = np.asarray(query, dtype=np.uint64).reshape(1, -1)
        # Per-query round trip: copy the query in, run the kernel over the
        # full table, copy the result out (charged to the device clock).
        qbuf = self.device.htod(q, label="gpu-plain/query")
        result = subset_match_kernel(
            self._table.array(),
            self._ids,
            qbuf.array(),
            thread_block_size=self.thread_block_size,
            prefilter=False,
            cost_model=self.device.cost_model,
            clock=self.device.clock,
        )
        qbuf.free()
        self.device.charge_dtoh(result.set_ids.nbytes)
        return np.sort(result.set_ids).astype(np.int64)

    def close(self) -> None:
        if self._owns_device and not self.device.closed:
            self.device.close()


class GpuBatchedMatcher(GpuPlainMatcher):
    """Full-table scan per *batch* of queries (costs amortised)."""

    name = "GPU-only, plain with batching"

    def __init__(
        self,
        device: Device | None = None,
        batch_size: int = 256,
        thread_block_size: int = 1024,
    ) -> None:
        super().__init__(device=device, thread_block_size=thread_block_size)
        if not 1 <= batch_size <= 256:
            raise ValidationError("batch_size must be in [1, 256]")
        self.batch_size = batch_size

    def match_many(
        self, queries: np.ndarray, unique: bool = False
    ) -> list[np.ndarray]:
        if self.key_table is None:
            raise ValidationError(f"{self.name}: build() must be called first")
        out: list[np.ndarray] = [None] * queries.shape[0]  # type: ignore[list-item]
        for start in range(0, queries.shape[0], self.batch_size):
            batch = queries[start : start + self.batch_size]
            qbuf = self.device.htod(batch, label="gpu-batched/queries")
            result = subset_match_kernel(
                self._table.array(),
                self._ids,
                qbuf.array(),
                thread_block_size=self.thread_block_size,
                prefilter=False,
                cost_model=self.device.cost_model,
                clock=self.device.clock,
            )
            qbuf.free()
            self.device.charge_dtoh(result.set_ids.nbytes + result.query_ids.nbytes)
            for local in range(batch.shape[0]):
                hits = result.set_ids[result.query_ids == local].astype(np.int64)
                if hits.size:
                    keys = self.key_table.keys_of_many(np.sort(hits))
                    out[start + local] = np.unique(keys) if unique else keys
                else:
                    out[start + local] = np.empty(0, dtype=np.int64)
        return out
