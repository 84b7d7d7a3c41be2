"""A software model of a CUDA-class GPU (see DESIGN.md §1).

The paper runs its subset-match stage on two NVIDIA TITAN X cards; this
package replaces them with a simulated device that preserves everything
TagMatch's design actually depends on: SPMD kernels over thread blocks
(with the Algorithm 4 shared-memory pre-filter), explicit host<->device
copies priced by a PCIe cost model, device memory capacity accounting,
the packed result layout of §3.3.1, and the even/odd double-buffered
transfer protocol of §3.3.2.
"""

from repro.gpu.device import DEFAULT_DEVICE_MEMORY, Device
from repro.gpu.doublebuffer import CycleResult, DoubleBufferedResults
from repro.gpu.dynamic_parallelism import (
    DevicePartition,
    DynamicParallelismMatcher,
    GpuOnlyTimings,
)
from repro.gpu.kernels import (
    DEFAULT_THREAD_BLOCK_SIZE,
    KernelResult,
    KernelStats,
    ResultArena,
    block_prefixes,
    block_prefixes_ranges,
    subset_match_kernel,
    uniform_block_offsets,
)
from repro.gpu.memory import DeviceBuffer, MemoryLedger, TransferDirection, TransferStats
from repro.gpu.packing import (
    GROUP,
    naive_aligned_size,
    pack_results,
    packed_size,
    unpack_results,
)
from repro.gpu.timing import CostModel, DeviceClock

__all__ = [
    "DEFAULT_DEVICE_MEMORY",
    "DEFAULT_THREAD_BLOCK_SIZE",
    "GROUP",
    "CostModel",
    "CycleResult",
    "Device",
    "DeviceBuffer",
    "DeviceClock",
    "DevicePartition",
    "DoubleBufferedResults",
    "DynamicParallelismMatcher",
    "GpuOnlyTimings",
    "KernelResult",
    "KernelStats",
    "MemoryLedger",
    "ResultArena",
    "TransferDirection",
    "TransferStats",
    "block_prefixes",
    "block_prefixes_ranges",
    "uniform_block_offsets",
    "naive_aligned_size",
    "pack_results",
    "packed_size",
    "subset_match_kernel",
    "unpack_results",
]
