"""Load driver and the server process it drives.

``MatchServer`` runs in a child process (``server.py``), so a stalled
server event loop cannot slow the generator's schedule.  The generator
is one asyncio loop in this process.  Open loop (:func:`drive`),
operation ``i`` is due at ``start + times[i]`` whether or not earlier
operations were answered, and its latency is timed from that due time,
so a stall is charged to every operation scheduled behind it.  Closed
loop (:func:`saturate`), a fixed number of requests is kept outstanding,
so the server sets the rate.  An operation with no reply ``grace_s``
after the last send is unanswered and counts as failed.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import spec
from repro.service.protocol import decode_frame, encode_frame

HOST = "127.0.0.1"
SERVER_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")


@dataclass
class Record:
    """One sent operation: when it was due, sent and answered."""

    index: int
    verb: str
    due: float
    sent: float
    done: float | None = None
    reply: dict | None = None

    @property
    def ok(self) -> bool:
        return self.reply is not None and bool(self.reply.get("ok"))

    @property
    def latency_s(self) -> float:
        """Reply time minus scheduled send time."""
        return self.done - self.due


def failures(records) -> int:
    """Operations unanswered or answered with an error, overloads included."""
    return sum(not record.ok for record in records)


async def drive(
    port: int, times, make_message, connections: int, on_reply=None, grace_s: float = spec.GRACE_S
) -> list[Record]:
    """Send ``make_message(i)`` ``times[i]`` seconds after start, open loop.

    ``make_message`` may return ``None`` to skip an operation.  Requests go
    round-robin over ``connections`` connections; ``on_reply(i, reply)``
    runs as each reply arrives.
    """
    streams = [await asyncio.open_connection(HOST, port) for _ in range(connections)]
    pending: dict[int, Record] = {}
    records: list[Record] = []
    drained = asyncio.Event()
    sending = True

    async def read_replies(reader: asyncio.StreamReader) -> None:
        while True:
            try:
                header = await reader.readexactly(4)
                body = await reader.readexactly(int.from_bytes(header, "big"))
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            done = time.perf_counter()
            reply = decode_frame(body)
            record = pending.pop(reply.get("id"), None)
            if record is None:
                continue
            record.done, record.reply = done, reply
            if on_reply is not None:
                on_reply(record.index, reply)
            if not pending and not sending:
                drained.set()

    readers = [asyncio.create_task(read_replies(reader)) for reader, _ in streams]
    start = time.perf_counter() + 0.05
    try:
        for i, offset in enumerate(times):
            due = start + float(offset)
            # Sleep even when late: the yield lets replies be read on time.
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            message = make_message(i)
            if message is None:
                continue
            message["id"] = i
            record = Record(i, message["verb"], due, time.perf_counter())
            records.append(record)
            pending[i] = record
            streams[i % connections][1].write(encode_frame(message))
        sending = False
        if pending:
            try:
                await asyncio.wait_for(drained.wait(), timeout=grace_s)
            except asyncio.TimeoutError:
                pass
    finally:
        for _, writer in streams:
            writer.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    return records


async def saturate(
    port: int,
    make_message,
    connections: int,
    window: int,
    seconds: float,
    on_reply=None,
    grace_s: float = spec.GRACE_S,
) -> list[Record]:
    """Closed loop: keep ``window`` requests outstanding for ``seconds``.

    Each connection holds its share of the window and sends its next
    request as each reply arrives, so the rate is whatever the server
    sustains.  A request is due when it is sent.  ``on_reply(i, reply)``
    runs as each reply arrives.  Requests unanswered ``grace_s`` after the
    last send stay without a reply, and count as failed.
    """
    streams = [await asyncio.open_connection(HOST, port) for _ in range(connections)]
    records: list[Record] = []
    stop = time.perf_counter() + seconds

    def send(writer: asyncio.StreamWriter, inflight: dict) -> None:
        i = len(records)
        message = make_message(i)
        message["id"] = i
        now = time.perf_counter()
        record = Record(i, message["verb"], now, now)
        records.append(record)
        inflight[i] = record
        writer.write(encode_frame(message))

    async def loop(reader: asyncio.StreamReader, writer: asyncio.StreamWriter, share: int):
        inflight: dict[int, Record] = {}
        for _ in range(share):
            send(writer, inflight)
        while inflight:
            header = await reader.readexactly(4)
            body = await reader.readexactly(int.from_bytes(header, "big"))
            done = time.perf_counter()
            reply = decode_frame(body)
            record = inflight.pop(reply.get("id"), None)
            if record is None:
                continue
            record.done, record.reply = done, reply
            if on_reply is not None:
                on_reply(record.index, reply)
            if done < stop:
                send(writer, inflight)

    shares = [window // connections + (k < window % connections) for k in range(connections)]
    tasks = [asyncio.create_task(loop(r, w, n)) for (r, w), n in zip(streams, shares)]
    try:
        await asyncio.wait(tasks, timeout=seconds + grace_s)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for _, writer in streams:
            writer.close()
    return records


class ServerProcess:
    """``server.py`` in a child process on ``spec.ENGINE_CPU``, fed the
    associations on stdin.

    ``info`` is the server's ready line: ``port``, ``setup_s`` (the CPU
    seconds of each set-up, index build up to listening), ``index_mb``
    and ``trace_enabled``.
    """

    def __init__(self, blocks: np.ndarray, keys: np.ndarray, setups: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, SERVER_SCRIPT, str(spec.ENGINE_CPU)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            header = {"rows": int(blocks.shape[0]), "words": int(blocks.shape[1]), "setups": setups}
            self.proc.stdin.write(json.dumps(header).encode() + b"\n")
            self.proc.stdin.write(np.ascontiguousarray(blocks, dtype=np.uint64).tobytes())
            self.proc.stdin.write(np.ascontiguousarray(keys, dtype=np.int64).tobytes())
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("benchmark server exited before it was ready")
            self.info = json.loads(line)
        except BaseException:
            self.stop()
            raise

    @property
    def port(self) -> int:
        return int(self.info["port"])

    def cpu_s(self) -> float:
        """CPU seconds the server process has used so far."""
        self.proc.stdin.write(b"cpu\n")
        self.proc.stdin.flush()
        return float(json.loads(self.proc.stdout.readline())["cpu_s"])

    def stop(self) -> None:
        """Ask the server to drain and exit; kill it if it does not."""
        try:
            self.proc.stdin.write(b"stop\n")
            self.proc.stdin.close()
        except (OSError, ValueError):  # the server already exited
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
