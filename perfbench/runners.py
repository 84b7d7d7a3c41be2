"""The three workloads: timed runs (end-to-end) and traced runs (per-layer).

``twitter_bulk`` drives ``TagMatch.match_stream`` in this process.  The
service workloads serve the index with ``MatchServer`` in a child process
(``server.py``) and drive it from this one (``driver.py``): timed runs
closed loop, for the rate the server sets, traced runs open loop at the
fixed offered rate, for latency.  Every reply is checked against the
brute-force oracle (``oracle.py``).  Timed runs keep ``repro.obs``
tracing off; traced runs add the serial replay of ``replay.py``.
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import driver
import inputs
import oracle
import spec
from inputs import PUB, SUB, UNSUB
from replay import replay
from server import build_index
from spans import Recorder, layer_totals
from repro.core.config import ServiceConfig
from repro.core.engine import TagMatch
from repro.obs import trace
from repro.service.protocol import ServiceClient

#: Per-layer metrics that only the service workloads produce.
_SERVICE_ONLY = (
    "pub_p99_ms",
    "ingress.occupancy",
    "ingress.timeout_share",
    "ingress.deadline_ms",
    "delta.size_max",
    "rebuild.s",
    "rebuild.count",
    "sustainable_qps",
    "update_p99_ms",
    "gen.lag_p99_ms",
    "gen.unanswered",
)


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    #: Oracle mismatches and reasons the run is invalid; empty when correct.
    problems: list[str] = field(default_factory=list)
    recorder: Recorder | None = None


def run(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    if workload == "twitter_bulk":
        return run_bulk(seed, seconds, traced)
    return run_service(workload, seed, seconds, traced)


def _ms(values_s, q: float) -> float:
    return float(np.percentile(values_s, q)) * 1e3 if len(values_s) else 0.0


def _mismatches(answers, want, label: str) -> list[str]:
    problems = []
    for i, (got, expected) in enumerate(zip(answers, want)):
        error = oracle.multiset_error(got, expected)
        if error:
            problems.append(f"{label} query {i}: {error}")
    return problems


def _index_mb(engine: TagMatch) -> float:
    usage = engine.memory_usage()
    return (usage.host_bytes + usage.gpu_total_bytes) / 1e6


# ------------------------------------------------------------------ traced run


def _device_counters(engine: TagMatch) -> np.ndarray:
    """Simulated kernel and transfer seconds, and bus bytes, over all devices."""
    total = np.zeros(3)
    for device in engine.devices:
        snap = device.clock.snapshot()
        total += (snap["kernel_s"], snap["transfer_s"], device.transfers.total_bytes)
    return total


def _call_ms(engine: TagMatch, rows: np.ndarray, repeats: int) -> float:
    """Median wall time of one ``match_stream`` call made the way the server makes it."""
    config = ServiceConfig()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        engine.match_stream(rows, num_threads=config.match_threads, batch_timeout_s=None)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _traced_layers(
    engine, query_tags, query_blocks, want, chunk: int, delta_rows=None, frames=False
) -> Outcome:
    """Per-layer metrics from one ``match_stream`` pass and two serial replays.

    The pass gives the simulated device counters as clock deltas, never
    added to wall or CPU time, and the pipeline's wall time.  The replay
    runs once without spans, for the tracing overhead, and once with them.
    Every answer must equal the oracle's.
    """
    before = _device_counters(engine)
    t0 = time.perf_counter()
    stream = engine.match_stream(query_blocks)
    stream_wall = time.perf_counter() - t0
    kernel_sim, transfer_sim, transfer_bytes = _device_counters(engine) - before

    t0 = time.perf_counter()
    plain, _ = replay(engine, query_tags, chunk, Recorder(enabled=False), delta_rows, frames)
    plain_wall = time.perf_counter() - t0
    rec = Recorder()
    answers, counts = replay(engine, query_tags, chunk, rec, delta_rows, frames)
    wall = rec.spans[0].duration
    totals = layer_totals(rec.spans)

    def self_s(name: str) -> float:
        return totals[name]["self_s"] if name in totals else 0.0

    def cpu_s(name: str) -> float:
        return totals[name]["cpu_s"] if name in totals else 0.0

    problems = (
        _mismatches(stream.results, want, "match_stream")
        + _mismatches(plain, want, "replay")
        + _mismatches(answers, want, "traced replay")
    )
    unattributed = self_s("replay")
    if unattributed > 0.1 * wall:
        problems.append(f"{unattributed:.3f} s of the {wall:.3f} s replay is outside every layer")
    queries = counts.queries
    metrics = {
        "bloom.encode_us": self_s("bloom.encode") / queries * 1e6,
        "pre_process.cpu_s": cpu_s("pre_process"),
        "pre_process.units_per_query": counts.relevant_units / queries,
        "pre_process.useful_ratio": counts.useful_units / max(counts.relevant_units, 1),
        "kernel.cpu_s": cpu_s("kernel"),
        "kernel.launches": counts.launches,
        "kernel.pairs": counts.pairs,
        "kernel.useful_ratio": counts.useful_launches / max(counts.launches, 1),
        "kernel.sim_s": kernel_sim,
        "transfer.bytes": transfer_bytes,
        "transfer.sim_s": transfer_sim,
        "unpack.cpu_s": cpu_s("unpack"),
        "lookup.cpu_s": cpu_s("lookup"),
        "lookup.keys": counts.keys,
        "merge.cpu_s": cpu_s("merge"),
        "pipeline.call_ms": _call_ms(engine, query_blocks[:1], 15),
        "pipeline.batch_ms": _call_ms(
            engine, query_blocks[: ServiceConfig().ingress_batch_size], 7
        ),
        "pipeline.overhead_s": stream_wall - plain_wall,
        "replay.wall_s": wall,
        "replay.unattributed_s": unattributed,
        "trace.overhead_ratio": wall / plain_wall - 1.0,
        "protocol.frame_us": self_s("protocol.frame") / queries * 1e6,
        "delta.overlay_ms": self_s("delta.overlay") / counts.batches * 1e3,
        "delta.update_us": (
            self_s("delta.update") / counts.delta_updates * 1e6 if counts.delta_updates else 0.0
        ),
    }
    return Outcome(metrics, 3 * queries, len(problems), problems, rec)


# ---------------------------------------------------------------- twitter_bulk


def run_bulk(seed: int, seconds: float, traced: bool) -> Outcome:
    params = spec.WORKLOADS["twitter_bulk"]
    inp = inputs.make_inputs("twitter_bulk", seed, seconds)
    want = oracle.reference_answers(inp.blocks, inp.keys, inp.query_blocks)
    build_s, engine = build_index(inp.blocks, inp.keys, 1)
    with engine:
        index_mb = _index_mb(engine)
        engine.match_stream(inp.query_blocks[: params["warmup_queries"]])
        if traced:
            outcome = _traced_layers(
                engine, inp.query_tags, inp.query_blocks, want, engine.config.batch_size
            )
            outcome.metrics.update(dict.fromkeys(_SERVICE_ONLY, 0.0))
            outcome.metrics["error_rate"] = outcome.failed / outcome.attempted
            return outcome
        if trace.is_enabled():
            raise RuntimeError("timed runs need repro.obs tracing off")
        qps, keys_per_s, problems = [], [], []
        deadline = time.perf_counter() + seconds
        while not qps or time.perf_counter() < deadline:
            c0 = time.process_time()
            result = engine.match_stream(inp.query_blocks)
            cpu_s = time.process_time() - c0
            qps.append(result.num_queries / cpu_s)
            keys_per_s.append(result.output_keys / cpu_s)
            problems += _mismatches(result.results, want, f"pass {len(qps)}")
            # One more timed build per pass spreads the set-up samples over
            # the run, as the passes are.
            more, spare = build_index(inp.blocks, inp.keys, 1)
            spare.close()
            build_s += more
    return Outcome(
        metrics={
            "setup_s": statistics.median(build_s),
            "throughput_qps": statistics.median(qps),
            "output_keys_per_s": statistics.median(keys_per_s),
            "index_mb": index_mb,
        },
        attempted=len(qps) * len(want),
        failed=len(problems),
        problems=problems,
    )


# ------------------------------------------------------ firehose, churn_swap


def _checked(records, check) -> list[str]:
    """Oracle problems of the answered publishes among ``records``."""
    problems = []
    for record in records:
        if record.verb == "pub" and record.ok:
            error = check(record)
            if error:
                problems.append(f"publish {record.index}: {error}")
    return problems


def _publish(inp: inputs.Inputs, query: int) -> dict:
    return {"verb": "pub", "tags": inp.query_tags[query]}


def _saturation_query(inp: inputs.Inputs, i: int) -> int:
    return int(inp.saturation_queries[i % len(inp.saturation_queries)])


async def _saturated(server: driver.ServerProcess, make_message, seconds: float, on_reply=None):
    """The timed run's closed-loop operations, and the server's CPU
    seconds while they ran: the server sets the rate."""
    cpu0 = server.cpu_s()
    records = await driver.saturate(
        server.port, make_message, spec.CONNECTIONS, spec.SATURATION_WINDOW, seconds, on_reply
    )
    return records, server.cpu_s() - cpu0


def _open_loop_publishes(port: int, inp: inputs.Inputs):
    """The traced run's publishes, open loop at the fixed offered rate,
    for the latency and the ingress figures of that rate."""
    return driver.drive(
        port, inp.pub_times, lambda i: _publish(inp, inp.pub_queries[i]), spec.CONNECTIONS
    )


@dataclass
class _Phase:
    publishes: list
    problems: list[str]
    stats: dict
    #: Association table and oracle answers of the index state at the end.
    blocks: np.ndarray
    keys: np.ndarray
    want: list
    #: Server CPU seconds of the timed run's operations.
    server_cpu_s: float = 0.0
    #: Updates, and publishes after they stopped (``churn_swap``).
    updates: list = field(default_factory=list)
    final: list = field(default_factory=list)
    delta_max: int = 0
    sustainable_qps: float = 0.0


async def _firehose(server, inp, want, seed, seconds, traced) -> _Phase:
    if traced:
        publishes, cpu_s = await _open_loop_publishes(server.port, inp), 0.0
        query_of = lambda i: int(inp.pub_queries[i])  # noqa: E731
    else:
        publishes, cpu_s = await _saturated(
            server, lambda i: _publish(inp, _saturation_query(inp, i)), seconds
        )
        query_of = lambda i: _saturation_query(inp, i)  # noqa: E731
    problems = _checked(
        publishes, lambda r: oracle.multiset_error(r.reply["keys"], want[query_of(r.index)])
    )
    async with await ServiceClient.connect(driver.HOST, server.port) as admin:
        stats = await admin.stats()
    phase = _Phase(publishes, problems, stats, inp.blocks, inp.keys, want, cpu_s)
    if traced:
        phase.sustainable_qps = await _ladder(server.port, inp, want, seed, problems)
    return phase


async def _ladder(port, inp, want, seed, problems) -> float:
    """Highest ladder rate whose publishes all succeed within the p99 limit
    with no backlog growth: the last reply lands within the limit of the
    last scheduled send.  The ladder doubles until a rung fails; each
    rung's figures go to standard error."""
    params = spec.WORKLOADS["firehose"]
    limit_ms = params["p99_limit_ms"]
    sustainable = 0.0
    for rung in range(params["ladder_max_rungs"]):
        rate = params["ladder_start_qps"] * 2**rung
        times, queries = inputs.ladder_schedule(
            seed, rung, rate, params["ladder_rung_s"], len(want)
        )
        records = await driver.drive(
            port, times, lambda i: _publish(inp, queries[i]), spec.CONNECTIONS
        )
        problems += _checked(
            records, lambda r: oracle.multiset_error(r.reply["keys"], want[queries[r.index]])
        )
        answered = [r for r in records if r.ok]
        failed = driver.failures(records)
        latency = [r.latency_s for r in answered]
        p50_ms, p99_ms = _ms(latency, 50), _ms(latency, 99)
        drain_ms = (
            (max(r.done for r in answered) - max(r.due for r in records)) * 1e3
            if answered
            else float("inf")
        )
        print(
            f"perfbench: firehose ladder {rate:g}/s: p50 {p50_ms:.1f} ms, p99 {p99_ms:.1f} ms, "
            f"drain {drain_ms:.1f} ms, {failed} failed of {len(records)}",
            file=sys.stderr,
        )
        if failed or p99_ms > limit_ms or drain_ms > limit_ms:
            break
        sustainable = rate
    return sustainable


async def _churn(server, inp, want, seconds, traced) -> _Phase:
    """Timed: one closed loop of publishes, subscribes and unsubscribes in
    the seeded mix.  Traced: open-loop publishes beside open-loop updates.
    Then churn stops, and publishes after a forced rebuild must be exact."""
    orc = oracle.ChurnOracle(want, inp.query_blocks, inp.sub_blocks)
    #: Operation index -> the subscription it subscribes or unsubscribes.
    subs: dict[int, int] = {}
    targets: dict[int, int] = {}

    def subscribe(i: int, sub: int) -> dict:
        subs[i] = sub
        return {"verb": "sub", "tags": inp.sub_tags[sub], "key": spec.CHURN_KEY_BASE + sub}

    def unsubscribe(i: int) -> dict | None:
        sub = orc.unsubscribe_target()
        if sub is None:
            return None
        targets[i] = sub
        return {"verb": "unsub", "tags": inp.sub_tags[sub], "key": spec.CHURN_KEY_BASE + sub}

    def scheduled(i: int) -> dict | None:
        if inp.update_kinds[i] == SUB:
            return subscribe(i, int(inp.update_args[i]))
        return unsubscribe(i)

    def mixed(i: int) -> dict:
        kind = inp.mix_kinds[i] if i < len(inp.mix_kinds) else PUB
        if kind == SUB:
            return subscribe(i, len(subs))
        # An unsubscribe with no acknowledged subscription left publishes.
        message = unsubscribe(i) if kind == UNSUB else None
        return message or _publish(inp, _saturation_query(inp, i))

    def on_reply(i: int, reply: dict) -> None:
        if reply.get("ok") and i in subs:
            orc.on_subscribed(subs[i])
        elif reply.get("ok") and i in targets:
            orc.on_unsubscribed(targets[i], bool(reply.get("removed")))

    port = server.port
    async with await ServiceClient.connect(driver.HOST, port) as admin:
        delta_max, cpu_s = 0, 0.0

        async def watch_delta() -> None:
            nonlocal delta_max
            while True:
                delta_max = max(delta_max, (await admin.stats())["delta_size"])
                await asyncio.sleep(0.1)

        if traced:
            watcher = asyncio.create_task(watch_delta())
            try:
                publishes, updates = await asyncio.gather(
                    _open_loop_publishes(port, inp),
                    driver.drive(port, inp.update_times, scheduled, spec.CONNECTIONS, on_reply),
                )
            finally:
                watcher.cancel()
                await asyncio.gather(watcher, return_exceptions=True)
            query_of = lambda i: int(inp.pub_queries[i])  # noqa: E731
        else:
            records, cpu_s = await _saturated(server, mixed, seconds, on_reply)
            publishes = [r for r in records if r.verb == "pub"]
            updates = [r for r in records if r.verb != "pub"]
            query_of = lambda i: _saturation_query(inp, i)  # noqa: E731
        stats = await admin.stats()
        # Churn has stopped: rebuild until the delta is empty; from then
        # on every reply must equal the oracle exactly.
        give_up = time.perf_counter() + 60.0
        await admin.reconsolidate()
        while (await admin.stats())["delta_size"] and time.perf_counter() < give_up:
            await asyncio.sleep(0.1)
            await admin.reconsolidate()
        problems = list(orc.errors)
        if (await admin.stats())["delta_size"]:
            problems.append("the delta did not empty after churn stopped")
        final = await driver.drive(
            port,
            np.zeros(len(inp.final_queries)),
            lambda i: _publish(inp, inp.final_queries[i]),
            spec.CONNECTIONS,
        )
    problems += _checked(
        publishes, lambda r: orc.check_publish(query_of(r.index), r.reply["keys"])
    )
    exact = orc.expected(inp.final_queries)
    problems += _checked(final, lambda r: oracle.multiset_error(r.reply["keys"], exact[r.index]))
    live = np.array(orc.live(), dtype=np.int64)
    return _Phase(
        publishes,
        problems,
        stats,
        blocks=np.vstack([inp.blocks, inp.sub_blocks[live]]),
        keys=np.concatenate([inp.keys, spec.CHURN_KEY_BASE + live]),
        want=orc.expected(np.arange(len(inp.query_tags))),
        server_cpu_s=cpu_s,
        updates=updates,
        final=final,
        delta_max=delta_max,
    )


def run_service(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    inp = inputs.make_inputs(workload, seed, seconds)
    want = oracle.reference_answers(inp.blocks, inp.keys, inp.query_blocks)
    with driver.ServerProcess(inp.blocks, inp.keys, 1 if traced else spec.SETUPS) as server:
        if server.info["trace_enabled"]:
            raise RuntimeError("the benchmark server must run with tracing off")
        if workload == "firehose":
            phase = asyncio.run(_firehose(server, inp, want, seed, seconds, traced))
        else:
            phase = asyncio.run(_churn(server, inp, want, seconds, traced))
    publishes = phase.publishes
    served = [r for r in publishes if r.ok]
    if not served:
        raise RuntimeError("no publish was answered")
    every = publishes + phase.updates + phase.final
    attempted = len(every)
    failed = driver.failures(every) + len(phase.problems)
    problems = list(phase.problems)
    open_loop = phase.updates + publishes if traced else []
    lag_p99 = _ms([r.sent - r.due for r in open_loop], 99)
    if lag_p99 > spec.GEN_LAG_BOUND_MS:
        problems.append(f"the generator ran {lag_p99:.0f} ms late at p99: run invalid")
    if not traced:
        print(
            f"perfbench: {workload}: {len(served)} publishes, {len(phase.updates)} updates, "
            f"{phase.stats['reconsolidations']} reconsolidations, "
            f"{phase.server_cpu_s:.2f} server CPU s, ingress batches of "
            f"{phase.stats['batch_occupancy']:.1f} flushed {phase.stats['flush_reasons']}",
            file=sys.stderr,
        )
        return Outcome(
            metrics={
                "setup_s": statistics.median(server.info["setup_s"]),
                "throughput_qps": len(served) / phase.server_cpu_s,
                "output_keys_per_s": sum(len(r.reply["keys"]) for r in served)
                / phase.server_cpu_s,
                "index_mb": server.info["index_mb"],
            },
            attempted=attempted,
            failed=failed,
            problems=problems,
        )

    # Traced: replay the queries against the final index state in this
    # process, with the server stopped, at the observed ingress batch
    # size and the largest delta reached.
    stats = phase.stats
    t0 = time.perf_counter()
    engine = TagMatch.from_signatures(phase.blocks, phase.keys)
    rebuild_s = time.perf_counter() - t0
    delta_rows = inp.sub_blocks[np.arange(phase.delta_max) % max(len(inp.sub_blocks), 1)]
    with engine:
        engine.match_stream(inp.query_blocks[:64])
        outcome = _traced_layers(
            engine,
            inp.query_tags,
            inp.query_blocks,
            phase.want,
            chunk=max(1, round(stats["batch_occupancy"])),
            delta_rows=delta_rows,
            frames=True,
        )
    outcome.attempted += attempted
    outcome.failed += failed
    outcome.problems = problems + outcome.problems
    timed = [r.latency_s for r in served if inp.pub_times[r.index] >= spec.WARMUP_S]
    updates = [r.latency_s for r in phase.updates if r.ok]
    outcome.metrics.update(
        {
            "pub_p99_ms": _ms(timed, 99),
            "ingress.occupancy": stats["batch_occupancy"],
            "ingress.timeout_share": stats["flush_reasons"].get("timeout", 0)
            / max(stats["batches"], 1),
            "ingress.deadline_ms": stats["batch_deadline_ms"],
            "delta.size_max": phase.delta_max,
            "rebuild.s": rebuild_s if workload == "churn_swap" else 0.0,
            "rebuild.count": stats["reconsolidations"],
            "sustainable_qps": phase.sustainable_qps,
            "update_p99_ms": _ms(updates, 99),
            "error_rate": outcome.failed / outcome.attempted,
            "gen.lag_p99_ms": lag_p99,
            "gen.unanswered": sum(r.reply is None for r in every),
        }
    )
    return outcome
