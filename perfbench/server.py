"""Benchmark server process: build the index, then serve it with MatchServer.

Run as ``server.py CPU``: the process pins itself to that CPU first.
Reads one JSON line ``{"rows", "words", "setups"}`` on stdin, then the
association signatures (``rows x words`` uint64) and keys (``rows``
int64) as raw bytes.  Sets up ``setups`` times, timing the CPU seconds of
each set-up from the index build to ``MatchServer`` listening on an
ephemeral port, and serves the last; prints one JSON ready line on
stdout.  Each ``cpu`` line on stdin is answered with one JSON line
``{"cpu_s"}``, the process's CPU seconds so far; any other line, or the
end of stdin, shuts the server down gracefully.

Engine and service knobs stay at their shipped defaults.  The only
settings overridden are deployment ones: the port, and tracing, which is
off so that timed runs measure the untraced server.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
import time

if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from repro.core.config import ServiceConfig  # noqa: E402
from repro.core.engine import TagMatch  # noqa: E402
from repro.obs import trace  # noqa: E402
from repro.service.server import MatchServer  # noqa: E402


def build_index(blocks: np.ndarray, keys: np.ndarray, builds: int) -> tuple[list[float], TagMatch]:
    """Build the index ``builds`` times; returns each build's CPU seconds and the last engine."""
    times, engine = [], None
    for _ in range(builds):
        if engine is not None:
            engine.close()
        gc.collect()
        t0 = time.process_time()
        engine = TagMatch.from_signatures(blocks, keys)
        times.append(time.process_time() - t0)
    return times, engine


def _read_exact(stream, nbytes: int) -> bytes:
    data = stream.read(nbytes)
    if len(data) != nbytes:
        raise SystemExit(f"benchmark server: expected {nbytes} bytes on stdin, got {len(data)}")
    return data


async def _serve(blocks: np.ndarray, keys: np.ndarray, setups: int) -> None:
    """Set up ``setups`` times, index build up to listening, and serve the last."""
    setup_s, server = [], None
    for _ in range(setups):
        if server is not None:
            await server.shutdown()
        gc.collect()
        t0 = time.process_time()
        engine = TagMatch.from_signatures(blocks, keys)
        server = MatchServer(engine, ServiceConfig(port=0, trace=False))
        await server.start()
        setup_s.append(time.process_time() - t0)
    usage = engine.memory_usage()
    ready = {
        "port": server.port,
        "setup_s": setup_s,
        "index_mb": (usage.host_bytes + usage.gpu_total_bytes) / 1e6,
        "trace_enabled": trace.is_enabled(),
    }
    print(json.dumps(ready), flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(None, _answer_cpu_requests)
    finally:
        await server.shutdown()


def _answer_cpu_requests() -> None:
    """Answer each ``cpu`` line on stdin until another line or the end of stdin."""
    for line in sys.stdin.buffer:
        if line.strip() != b"cpu":
            return
        print(json.dumps({"cpu_s": time.process_time()}), flush=True)


def main() -> None:
    stdin = sys.stdin.buffer
    header = json.loads(stdin.readline())
    rows, words = int(header["rows"]), int(header["words"])
    blocks = np.frombuffer(_read_exact(stdin, rows * words * 8), dtype=np.uint64)
    blocks = blocks.reshape(rows, words).copy()
    keys = np.frombuffer(_read_exact(stdin, rows * 8), dtype=np.int64).copy()
    asyncio.run(_serve(blocks, keys, int(header["setups"])))


if __name__ == "__main__":
    main()
