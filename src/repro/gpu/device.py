"""The simulated GPU device.

A :class:`Device` bundles the pieces a CUDA device exposes to TagMatch:
device memory (with capacity accounting), host<->device copies (charged
to the PCIe cost model), and a fixed set of streams (the paper's
platform allows 10 per GPU, §4.3.3).  Kernels themselves live in
:mod:`repro.gpu.kernels`; they take device buffers and charge their
simulated execution time to the device clock.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from repro.errors import DeviceError
from repro.gpu.memory import (
    DeviceBuffer,
    MemoryLedger,
    TransferDirection,
    TransferStats,
)
from repro.gpu.stream import Stream
from repro.gpu.timing import CostModel, DeviceClock
from repro.obs import trace

__all__ = ["Device", "DEFAULT_DEVICE_MEMORY", "DEFAULT_STREAMS_PER_DEVICE"]

#: 12 GB of GDDR5, as on the paper's TITAN X cards.
DEFAULT_DEVICE_MEMORY = 12 * 1024**3

#: The paper's platform supports at most 10 streams per GPU (§4.3.3).
DEFAULT_STREAMS_PER_DEVICE = 10


class Device:
    """One simulated GPU: memory ledger, clock, transfer stats, streams."""

    def __init__(
        self,
        device_id: int = 0,
        memory_capacity: int = DEFAULT_DEVICE_MEMORY,
        cost_model: CostModel | None = None,
        num_streams: int = DEFAULT_STREAMS_PER_DEVICE,
    ) -> None:
        if num_streams <= 0:
            raise DeviceError(f"num_streams must be positive, got {num_streams}")
        self.device_id = device_id
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.ledger = MemoryLedger(memory_capacity)
        self.clock = DeviceClock()
        self.transfers = TransferStats()
        self.streams: list[Stream] = [Stream(self, i) for i in range(num_streams)]
        self._closed = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def allocate(self, shape: tuple[int, ...], dtype, label: str = "") -> DeviceBuffer:
        """Allocate an uninitialized device array."""
        self._check_open()
        data = np.empty(shape, dtype=dtype)
        self.ledger.allocate(data.nbytes)
        return DeviceBuffer(self, data, label=label)

    def htod(self, host_array: np.ndarray, label: str = "") -> DeviceBuffer:
        """Copy a host array to a fresh device buffer (charged to the bus)."""
        self._check_open()
        data = np.array(host_array, copy=True)
        self.ledger.allocate(data.nbytes)
        self._charge_transfer(TransferDirection.HOST_TO_DEVICE, data.nbytes)
        return DeviceBuffer(self, data, label=label)

    def dtoh(self, buffer: DeviceBuffer, nbytes: int | None = None) -> np.ndarray:
        """Copy a device buffer back to the host (charged to the bus).

        ``nbytes`` lets callers account for a *partial* copy — the double
        buffering protocol of §3.3.2 transfers exactly the result size
        learned in the previous cycle, not the whole buffer.
        """
        self._check_open()
        if buffer.device is not self:
            raise DeviceError("dtoh of a buffer owned by another device")
        payload = np.array(buffer.array(), copy=True)
        self._charge_transfer(
            TransferDirection.DEVICE_TO_HOST,
            payload.nbytes if nbytes is None else nbytes,
        )
        return payload

    def charge_dtoh(self, nbytes: int) -> None:
        """Account a device→host result copy without a named buffer.

        Used by matchers that return kernel output directly instead of
        going through the double-buffer protocol.
        """
        self._check_open()
        self._charge_transfer(TransferDirection.DEVICE_TO_HOST, nbytes)

    def _charge_transfer(self, direction: TransferDirection, nbytes: int) -> None:
        self.transfers.record(direction, nbytes)
        seconds = self.cost_model.transfer_time(nbytes)
        self.clock.add_transfer(seconds)
        if trace.is_enabled():
            # The span duration is the *simulated* PCIe time — the
            # quantity the paper's stage breakdown attributes to
            # transfers; the host-side memcpy wall time is not the
            # modelled cost (DESIGN.md §1).
            trace.record(
                "transfer",
                perf_counter(),
                seconds,
                {
                    "direction": direction.value,
                    "nbytes": int(nbytes),
                    "device": self.device_id,
                    "simulated": True,
                },
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every stream; the device refuses further work."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for stream in self.streams:
            stream.close()

    def _check_open(self) -> None:
        if self._closed:
            raise DeviceError(f"device {self.device_id} is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Device":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Device(id={self.device_id}, "
            f"mem={self.ledger.allocated_bytes}/{self.ledger.capacity_bytes}, "
            f"streams={len(self.streams)})"
        )
