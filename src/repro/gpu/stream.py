"""CUDA-style streams: FIFO queues of device operations.

§3.3.2 of the paper: *"A stream is an abstraction of a queue of GPU
operations.  Operations within the same stream execute sequentially in
FIFO order, while operations in different streams are executed in
parallel as much as possible."*

On the simulated GPU a kernel runs on the host CPU and its device time
comes from the cost model, so host threads per stream would add no
parallelism.  A :class:`Stream` is therefore a synchronous FIFO handle:
:meth:`Stream.enqueue` runs the operation in the calling thread, under
the stream's lock, and returns its result.  Operations on one stream
still execute strictly one after another, in the order callers enqueue
them, which is what keeps the stream's reused :class:`ResultArena` safe
when two threads match on one engine.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from repro.errors import StreamError
from repro.obs import trace

__all__ = ["Stream"]


class Stream:
    """One FIFO queue of device operations, run in the caller's thread."""

    def __init__(self, device: Any, stream_id: int) -> None:
        self.device = device
        self.stream_id = stream_id
        self._closed = False
        self._lock = threading.Lock()
        self._arena = None

    def enqueue(self, fn: Callable[[], Any], label: str = "op") -> Any:
        """Run ``fn`` on this stream and return its result.

        Errors raise directly to the caller and leave the stream usable.
        """
        with self._lock:
            if self._closed:
                raise StreamError(f"enqueue on closed stream {self.stream_id}")
            start = time.perf_counter()
            try:
                return fn()
            finally:
                if trace.is_enabled():
                    # One span per stream op: the copy→kernel→copy FIFO
                    # sequences of §3.3.2, i.e. per-stream occupancy.
                    trace.record(
                        "stream_op",
                        start,
                        time.perf_counter() - start,
                        {
                            "label": label,
                            "stream": self.stream_id,
                            "device": getattr(self.device, "device_id", -1),
                        },
                    )

    @property
    def arena(self):
        """This stream's reusable kernel output arena.

        A stream executes its operations strictly one at a time, so at
        most one kernel invocation is ever writing into the arena — the
        result buffers are recycled across invocations without any
        per-launch allocation (§3.3.1's device-side output vector, kept
        resident instead of re-allocated).  Created lazily so streams
        that never run kernels pay nothing.
        """
        if self._arena is None:
            from repro.gpu.kernels import ResultArena

            self._arena = ResultArena()
        return self._arena

    def close(self) -> None:
        """Refuse further operations; one already running finishes first."""
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream(device={getattr(self.device, 'device_id', '?')}, id={self.stream_id})"
