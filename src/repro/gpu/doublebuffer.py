"""Even/odd double-buffered result transfers (§3.3.2).

When a CPU thread enqueues ``copy-in → kernel → copy-out`` on a stream it
knows the input size, but not the output size, so a naive copy-out either
transfers the whole worst-case buffer or pays an extra round trip to read
the result length first.  The paper avoids both by giving every stream
*two* result buffers, each laid out as ``[next-length | results]``:

* the kernel of cycle ``c`` writes its matches into buffer ``c % 2`` and
  stores their *count* into the length slot of the other buffer
  (``(c-1) % 2``);
* the copy-out of cycle ``c`` transfers buffer ``c % 2`` — results of
  cycle ``c`` plus the length of cycle ``c+1`` — and its exact size is
  already known on the host because the length of cycle ``c`` arrived
  with the previous copy-out.

The consequence (modelled faithfully here) is that every transfer has a
minimal, known-at-issue-time size and results are delivered one cycle
late; a ``flush`` delivers the trailing cycle when the buffer goes idle.
The simulated GPU has no streams: a pipeline run keeps one pair of
buffers per device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import DeviceError
from repro.gpu.device import Device
from repro.gpu.memory import DeviceBuffer
from repro.gpu.packing import packed_size

__all__ = ["CycleResult", "DoubleBufferedResults", "LENGTH_SLOT_BYTES"]

#: The length header is a single 32-bit pair count.
LENGTH_SLOT_BYTES = 4


@dataclass
class CycleResult:
    """One delivered cycle: the packed payload plus caller metadata."""

    packed: np.ndarray
    num_pairs: int
    meta: Any


class DoubleBufferedResults:
    """One pair of even/odd result buffers implementing the §3.3.2 protocol."""

    def __init__(
        self, device: Device, capacity_pairs: int = 4096, label: str = ""
    ) -> None:
        if capacity_pairs <= 0:
            raise DeviceError("capacity_pairs must be positive")
        self.device = device
        self.label = label
        self.capacity_pairs = capacity_pairs
        self._buffers: list[DeviceBuffer] = []
        try:
            for i in range(2):
                self._buffers.append(self._allocate(capacity_pairs, i))
        except BaseException:
            self.free()  # the even buffer must not outlive a failed odd one
            raise
        self._cycle = 0
        #: Metadata and pair count of the cycle whose copy-out is deferred.
        self._pending: tuple[int, Any] | None = None

    def _allocate(self, capacity_pairs: int, index: int) -> DeviceBuffer:
        nbytes = LENGTH_SLOT_BYTES + packed_size(capacity_pairs)
        return self.device.allocate(
            (nbytes,), np.uint8, label=f"{self.label}/results-{'even' if index == 0 else 'odd'}"
        )

    def _ensure_capacity(self, num_pairs: int) -> None:
        if num_pairs <= self.capacity_pairs:
            return
        new_capacity = max(num_pairs, 2 * self.capacity_pairs)
        for i, old in enumerate(self._buffers):
            fresh = self._allocate(new_capacity, i)
            fresh.array()[: old.nbytes] = old.array()
            old.free()
            self._buffers[i] = fresh
        self.capacity_pairs = new_capacity

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def push(self, packed: np.ndarray, num_pairs: int, meta: Any) -> CycleResult | None:
        """Complete one kernel cycle; return the previous cycle if any.

        ``packed`` is the kernel's packed output (device side).  The call
        models the kernel writing ``packed`` into the current buffer and
        ``num_pairs`` into the *other* buffer's length slot, then issues
        the copy-out of the previous cycle (whose size is now known).
        """
        self._ensure_capacity(num_pairs)
        current = self._buffers[self._cycle % 2]
        other = self._buffers[(self._cycle + 1) % 2]
        payload_bytes = packed_size(num_pairs)
        if len(packed) != payload_bytes:
            raise DeviceError(
                f"packed payload of {len(packed)} bytes does not match "
                f"{num_pairs} pairs ({payload_bytes} bytes)"
            )
        current.array()[LENGTH_SLOT_BYTES : LENGTH_SLOT_BYTES + payload_bytes] = packed
        other.array()[:LENGTH_SLOT_BYTES] = (
            np.array([num_pairs], dtype="<u4").view(np.uint8)
        )

        delivered: CycleResult | None = None
        if self._pending is not None:
            delivered = self._copy_out_pending()
        self._pending = (num_pairs, meta)
        self._cycle += 1
        return delivered

    def flush(self) -> CycleResult | None:
        """Deliver the deferred trailing cycle (idle / shutdown)."""
        if self._pending is None:
            return None
        return self._copy_out_pending()

    def _copy_out_pending(self) -> CycleResult:
        assert self._pending is not None
        num_pairs, meta = self._pending
        self._pending = None
        # The pending cycle is the one *before* the current counter; its
        # results live in the buffer of that cycle's parity.
        buffer = self._buffers[(self._cycle - 1) % 2]
        nbytes = LENGTH_SLOT_BYTES + packed_size(num_pairs)
        host = self.device.dtoh(buffer, nbytes=nbytes)
        packed = host[LENGTH_SLOT_BYTES:nbytes]
        return CycleResult(packed=packed, num_pairs=num_pairs, meta=meta)

    @property
    def pending_cycles(self) -> int:
        """Number of cycles pushed but not yet delivered (0 or 1)."""
        return 0 if self._pending is None else 1

    def free(self) -> None:
        """Release both device buffers."""
        for buffer in self._buffers:
            if not buffer.freed:
                buffer.free()
