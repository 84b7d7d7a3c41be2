"""Open-loop load generator for the matching service.

Arrivals are Poisson (exponential inter-arrival times) at a configured
offered rate, independent of the server's progress — the open-loop
discipline that actually exposes queueing collapse, unlike closed-loop
clients that politely slow down with the server.  Each operation is a
subscribe, unsubscribe, or publish per the configured mix; operations
are pipelined round-robin over several connections so the server's
matcher queue sees genuinely concurrent traffic.

The report carries achieved qps, publish latency percentiles, and the
overload-reject rate — the three axes of the offered-load service
sweep (``benchmarks/bench_service_throughput.py``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.harness.runner import latency_percentiles
from repro.service.protocol import OverloadedError, ProtocolError, ServiceClient

__all__ = ["LoadgenReport", "run_loadgen"]


@dataclass
class LoadgenReport:
    """Outcome of one load-generation run."""

    offered: int
    completed: int
    overloaded: int
    failed: int
    subscribes: int
    unsubscribes: int
    elapsed_s: float
    latencies_s: list[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def offered_qps(self) -> float:
        return self.offered / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def overload_rate(self) -> float:
        pubs = self.completed + self.overloaded + self.failed
        return self.overloaded / pubs if pubs else 0.0

    def percentiles(self) -> dict[str, float]:
        if not self.latencies_s:
            return {"p50_ms": 0.0, "p90_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
        return latency_percentiles(np.array(self.latencies_s))


async def run_loadgen(
    host: str,
    port: int,
    *,
    duration_s: float = 5.0,
    rate_qps: float = 500.0,
    sub_ratio: float = 0.05,
    unsub_ratio: float = 0.02,
    connections: int = 4,
    seed: int = 0,
    tag_universe: int = 96,
    set_tags: int = 5,
    query_tags: int = 12,
    unique: bool = False,
    key_base: int = 1_000_000,
) -> LoadgenReport:
    """Drive one open-loop burst against a running server.

    ``sub_ratio``/``unsub_ratio`` partition the operation mix; the
    remainder are publishes.  Unsubscribes target sets this run
    subscribed earlier, so the server's delta exercises both adds and
    tombstones.  Returns once every in-flight operation resolved.
    """
    rng = np.random.default_rng(seed)
    clients = [
        await ServiceClient.connect(host, port) for _ in range(max(1, connections))
    ]
    report = LoadgenReport(
        offered=0, completed=0, overloaded=0, failed=0,
        subscribes=0, unsubscribes=0, elapsed_s=0.0,
    )
    subscribed: list[tuple[list[str], int]] = []
    pending: set[asyncio.Task] = set()
    next_key = key_base

    def random_tags(count: int) -> list[str]:
        chosen = rng.choice(tag_universe, size=min(count, tag_universe), replace=False)
        return [f"tag-{c}" for c in chosen]

    async def one_publish(client: ServiceClient, tags: list[str], t0: float) -> None:
        try:
            await client.publish(tags, unique=unique)
        except OverloadedError:
            report.overloaded += 1
        except (ProtocolError, ConnectionError, OSError):
            report.failed += 1
        else:
            report.completed += 1
            report.latencies_s.append(time.perf_counter() - t0)

    async def one_subscribe(client: ServiceClient, tags: list[str], key: int) -> None:
        try:
            await client.subscribe(tags, key)
        except (ProtocolError, ConnectionError, OSError):
            report.failed += 1
        else:
            report.subscribes += 1

    async def one_unsubscribe(client: ServiceClient, tags: list[str], key: int) -> None:
        try:
            await client.unsubscribe(tags, key)
        except (ProtocolError, ConnectionError, OSError):
            report.failed += 1
        else:
            report.unsubscribes += 1

    start = time.perf_counter()
    deadline = start + duration_s
    next_at = start
    turn = 0
    while True:
        now = time.perf_counter()
        if now >= deadline:
            break
        if now < next_at:
            await asyncio.sleep(next_at - now)
        # Open loop: the schedule advances regardless of replies.
        next_at += float(rng.exponential(1.0 / rate_qps))
        client = clients[turn % len(clients)]
        turn += 1
        roll = float(rng.random())
        if roll < sub_ratio:
            tags = random_tags(int(rng.integers(1, set_tags + 1)))
            next_key += 1
            subscribed.append((tags, next_key))
            coro = one_subscribe(client, tags, next_key)
        elif roll < sub_ratio + unsub_ratio and subscribed:
            tags, key = subscribed.pop(int(rng.integers(len(subscribed))))
            coro = one_unsubscribe(client, tags, key)
        else:
            tags = random_tags(query_tags)
            report.offered += 1
            coro = one_publish(client, tags, time.perf_counter())
        task = asyncio.get_running_loop().create_task(coro)
        pending.add(task)
        task.add_done_callback(pending.discard)

    if pending:
        await asyncio.wait(pending, timeout=60.0)
    report.elapsed_s = time.perf_counter() - start
    for client in clients:
        await client.close()
    return report
