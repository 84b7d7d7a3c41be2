"""Configuration of the TagMatch engine.

All of the paper's tuning knobs live here: the Bloom-filter geometry
(§3), the maximum partition size ``MAX_P`` that balances CPU and GPU load
(§3.1, Figure 7), the query batch size and flush timeout (§3, Figure 6),
and the simulated GPU topology (two 12 GB cards on the paper's testbed).
The paper's CPU thread allocation (§4.3.3, Figure 5) is not a knob: a
match runs in the calling thread, and Figure 5 is a model fed by the
thread counts it sweeps (DESIGN.md §7).  Nor are its 10 CUDA streams per
GPU (§3.3.2): a pipeline run keeps one even/odd result double buffer per
device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.bloom.hashing import DEFAULT_NUM_HASHES, DEFAULT_WIDTH
from repro.errors import ValidationError
from repro.gpu.device import DEFAULT_DEVICE_MEMORY
from repro.gpu.kernels import DEFAULT_THREAD_BLOCK_SIZE
from repro.gpu.timing import CostModel

__all__ = ["TagMatchConfig", "ServiceConfig"]


@dataclass(frozen=True)
class TagMatchConfig:
    """Immutable engine configuration.

    Attributes
    ----------
    width, num_hashes, seed:
        Bloom-filter geometry (the paper uses 192 bits / 7 hashes).
    max_partition_size:
        ``MAX_P`` of Algorithm 1 — the maximum number of tag sets per
        partition.  Large partitions lighten pre-processing but load the
        subset-match stage, and vice versa (Figure 7).
    batch_size:
        Queries per GPU batch.  Must be ≤ 256 because the packed result
        layout uses 8-bit batch-local query ids (§3.3.1).
    batch_timeout_s:
        Flush partially filled batches after this long (``None`` disables
        the timeout, as in the paper's no-timeout latency runs).
    num_gpus, device_memory:
        Simulated GPU topology.  A pipeline run keeps one even/odd
        result double buffer per device (§3.3.2).
    thread_block_size, prefilter:
        Kernel shape and the Algorithm 4 pre-filter switch.
    replication_factor:
        Copies of each dispatch unit across the GPUs (§3): ``None``
        replicates the tagset table on every GPU (maximal inter-GPU
        parallelism), ``1`` splits it so each unit has a single home
        (for extremely large tables), and values in between select the
        paper's middle ground of *partial* replication.
    exact_check:
        Re-check every Bloom match against the original tag sets, making
        results exact at the cost of storing the sets (§3: "the system or
        the application can perform an additional exact subset check").
    cost_model:
        Pricing of simulated device events.
    """

    width: int = DEFAULT_WIDTH
    num_hashes: int = DEFAULT_NUM_HASHES
    seed: int = 0
    max_partition_size: int = 8192
    batch_size: int = 128
    batch_timeout_s: float | None = 0.05
    num_gpus: int = 1
    device_memory: int = DEFAULT_DEVICE_MEMORY
    thread_block_size: int = DEFAULT_THREAD_BLOCK_SIZE
    prefilter: bool = True
    replication_factor: int | None = None
    exact_check: bool = False
    #: Algorithm 1 pivot rule: "balanced" (the paper's closest-to-50 %
    #: frequency) or "first_unused" (naive ablation).
    pivot_strategy: str = "balanced"
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.width % 64 != 0:
            raise ValidationError(f"width must be a positive multiple of 64: {self.width}")
        if self.num_hashes <= 0:
            raise ValidationError("num_hashes must be positive")
        if self.max_partition_size <= 0:
            raise ValidationError("max_partition_size must be positive")
        if not 1 <= self.batch_size <= 256:
            raise ValidationError(
                f"batch_size must be in [1, 256] (8-bit query ids), got {self.batch_size}"
            )
        if self.batch_timeout_s is not None and self.batch_timeout_s < 0:
            raise ValidationError("batch_timeout_s must be non-negative or None")
        if self.num_gpus <= 0:
            raise ValidationError("num_gpus must be positive")
        if self.thread_block_size <= 0:
            raise ValidationError("thread_block_size must be positive")
        if self.replication_factor is not None and not (
            1 <= self.replication_factor <= self.num_gpus
        ):
            raise ValidationError(
                "replication_factor must be in [1, num_gpus] when given"
            )
        if self.pivot_strategy not in ("balanced", "first_unused"):
            raise ValidationError(
                f"unknown pivot_strategy {self.pivot_strategy!r}"
            )


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the online pub/sub serving layer (:mod:`repro.service`).

    Attributes
    ----------
    host, port:
        TCP listen address; port 0 picks an ephemeral port (tests).
    max_inflight:
        Admission-control bound on publishes queued or matching, and so
        on the publishes one pipeline run can carry.  Past it the server
        replies ``OVERLOAD`` immediately (bounded-latency rejection)
        instead of buffering without limit.
    conn_inflight:
        Per-connection cap on outstanding publishes; a connection at
        the cap stops being read, which surfaces as TCP backpressure.
    reconsolidate_threshold:
        Delta-store size (adds + tombstones) that triggers a background
        reconsolidation; ``0`` disables the automatic trigger (the
        ``reconsolidate`` admin verb still works).
    reconsolidate_interval_s:
        How often the background task checks the threshold.
    max_frame_bytes:
        Hard cap on one protocol frame (guards the length prefix).
    trace:
        Enable the span tracer while serving: per-stage latency
        histograms in ``stats``/Prometheus and the ``trace`` verb.
        Costs one ring-buffer append per stage event (<5 % throughput,
        see ``benchmarks/bench_obs_overhead.py``).
    metrics_port:
        ``None`` disables the Prometheus endpoint; ``0`` binds an
        ephemeral port (tests); otherwise the plaintext exposition
        listens on ``(host, metrics_port)``.
    rate_window_s:
        Sliding window of the ``qps`` estimate in the stats verb.
    """

    #: Not a setting: the server queues publishes for its matcher with
    #: no ingress batch.  Only ``perfbench/runners.py`` reads it.
    ingress_batch_size: ClassVar[int] = 64
    #: Not a setting: the server matches in one thread.  Only
    #: ``perfbench/runners.py`` reads it.
    match_threads: ClassVar[int] = 2

    host: str = "127.0.0.1"
    port: int = 7311
    max_inflight: int = 1024
    conn_inflight: int = 256
    reconsolidate_threshold: int = 512
    reconsolidate_interval_s: float = 0.25
    max_frame_bytes: int = 8 * 1024 * 1024
    trace: bool = True
    metrics_port: int | None = None
    rate_window_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_inflight <= 0:
            raise ValidationError("max_inflight must be positive")
        if self.conn_inflight <= 0:
            raise ValidationError("conn_inflight must be positive")
        if self.reconsolidate_threshold < 0:
            raise ValidationError("reconsolidate_threshold must be non-negative")
        if self.reconsolidate_interval_s <= 0:
            raise ValidationError("reconsolidate_interval_s must be positive")
        if self.max_frame_bytes <= 0:
            raise ValidationError("max_frame_bytes must be positive")
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ValidationError(
                f"metrics_port must be in [0, 65535] when given, got {self.metrics_port}"
            )
        if self.rate_window_s <= 0:
            raise ValidationError("rate_window_s must be positive")
