"""CUDA-style streams: FIFO queues of asynchronous device operations.

§3.3.2 of the paper: *"A stream is an abstraction of a queue of GPU
operations.  Operations within the same stream execute sequentially in
FIFO order, while operations in different streams are executed in
parallel as much as possible."*

Each :class:`Stream` owns one daemon worker thread that drains its
operation queue in order, which gives exactly those semantics: FIFO
within a stream, concurrency across streams.  CPU threads enqueue whole
copy/kernel/copy sequences and continue with other pipeline work — the
asynchrony that lets TagMatch overlap pre-processing with GPU matching.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable

from repro.errors import StreamError
from repro.obs import trace

__all__ = ["Stream", "StreamOp"]


class StreamOp:
    """A pending operation submitted to a stream.

    Behaves like a future: ``wait()`` blocks until the operation ran and
    returns its result, re-raising any exception from the device side.
    """

    def __init__(self, fn: Callable[[], Any], label: str) -> None:
        self._fn = fn
        self.label = label
        self._done = threading.Event()
        self._result: Any = None
        self._error: BaseException | None = None

    def run(self) -> None:
        try:
            self._result = self._fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced via wait()
            self._error = exc
        finally:
            self._done.set()

    def wait(self, timeout: float | None = None) -> Any:
        if not self._done.wait(timeout):
            raise StreamError(f"timed out waiting for stream op {self.label!r}")
        if self._error is not None:
            raise self._error
        return self._result

    @property
    def done(self) -> bool:
        return self._done.is_set()


class Stream:
    """One FIFO queue of device operations with a dedicated worker."""

    def __init__(self, device: Any, stream_id: int) -> None:
        self.device = device
        self.stream_id = stream_id
        self._queue: queue.Queue[StreamOp | None] = queue.Queue()
        self._closed = False
        self._lock = threading.Lock()
        self._arena = None
        self._worker = threading.Thread(
            target=self._drain,
            name=f"gpu{getattr(device, 'device_id', '?')}-stream{stream_id}",
            daemon=True,
        )
        self._worker.start()

    def _drain(self) -> None:
        while True:
            op = self._queue.get()
            if op is None:
                return
            start = time.perf_counter()
            op.run()
            if trace.is_enabled():
                # One span per stream op: the copy→kernel→copy FIFO
                # sequences of §3.3.2, i.e. per-stream occupancy.
                trace.record(
                    "stream_op",
                    start,
                    time.perf_counter() - start,
                    {
                        "label": op.label,
                        "stream": self.stream_id,
                        "device": getattr(self.device, "device_id", -1),
                    },
                )

    def enqueue(self, fn: Callable[[], Any], label: str = "op") -> StreamOp:
        """Submit ``fn`` for asynchronous FIFO execution on this stream."""
        with self._lock:
            if self._closed:
                raise StreamError(f"enqueue on closed stream {self.stream_id}")
            op = StreamOp(fn, label)
            self._queue.put(op)
            return op

    @property
    def arena(self):
        """This stream's reusable kernel output arena.

        A stream executes its operations strictly in FIFO order, so at
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

    def synchronize(self, timeout: float | None = None) -> None:
        """Block until every operation enqueued so far has completed."""
        marker = self.enqueue(lambda: None, label="sync-marker")
        marker.wait(timeout)

    def close(self) -> None:
        """Stop the worker after draining all pending operations."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)
        self._worker.join()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream(device={getattr(self.device, 'device_id', '?')}, id={self.stream_id})"
