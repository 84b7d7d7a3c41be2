"""The asyncio pub/sub matching server.

Architecture (per the paper's §6 future work — TagMatch inside a full
messaging system):

- One asyncio event loop owns all bookkeeping: connections, the delta
  store, the matcher queue, admission counters, and epoch swaps.  No
  locks — the matcher's worker thread only ever sees immutable
  snapshots.
- Publishes are admitted (bounded in-flight queue, else an immediate
  ``OVERLOAD`` reply), encoded, and appended to the matcher queue.  The
  publish path is work-conserving: one matcher task keeps at most one
  pipeline run in flight, and every publish queued while a run is going
  rides the next run together.  A run is one ``engine.match_stream``
  over the stacked rows in a worker thread, then the delta overlay
  (:func:`repro.service.delta.apply_delta`), then replies — so under
  load the kernel sees full per-partition batches (Figure 6), while an
  idle server runs a publish at once, with no timer to wait on.
- Subscribes/unsubscribes mutate the delta store immediately — no
  ``consolidate()`` on the hot path — and a background task rebuilds
  the frozen index once the delta grows past a threshold, swapping the
  new engine in atomically by reference.  The in-flight run holds a
  lease on the engine it started with; a retired engine is closed only
  once no run uses it, so readers are never blocked and never see a
  half-built index.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ServiceConfig
from repro.core.engine import TagMatch
from repro.errors import ValidationError
from repro.obs import trace
from repro.obs.export import MetricsServer, render_prometheus
from repro.obs.trace import stage_summary
from repro.service.delta import DeltaStore, DeltaView, apply_delta
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import ProtocolError, read_frame, write_frame

__all__ = ["MatchServer", "serve_until_interrupted"]

#: Drain budget for admitted publishes during graceful shutdown.
_DRAIN_TIMEOUT_S = 30.0

#: Longest wait between background rebuild attempts while they keep
#: failing; each failure doubles the wait up to here.
_RECON_BACKOFF_CAP_S = 5.0


@dataclass(eq=False)
class _Conn:
    """Per-connection state: write serialisation + pub backpressure."""

    writer: asyncio.StreamWriter
    sem: asyncio.Semaphore
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)


@dataclass
class _PubTicket:
    """One admitted publish waiting for its pipeline run to return."""

    conn: _Conn
    req_id: object
    unique: bool
    t0: float


class MatchServer:
    """Online pub/sub front-end over one TagMatch engine."""

    def __init__(
        self,
        engine: TagMatch,
        config: ServiceConfig | None = None,
        snapshot_path: str | None = None,
    ) -> None:
        if engine.partition_table is None:
            raise ValidationError("serve requires a consolidated engine")
        if engine.config.exact_check:
            raise ValidationError(
                "the serving layer stores signatures only; exact_check "
                "engines cannot be served"
            )
        self.config = config if config is not None else ServiceConfig()
        self.engine = engine
        self.snapshot_path = snapshot_path
        self.metrics = ServiceMetrics(rate_window_s=self.config.rate_window_s)
        #: Read position into the global tracer ring: stats/metrics
        #: renders pull only the spans recorded since the last pull.
        self._trace_cursor = 0
        self._metrics_server: MetricsServer | None = None
        self.metrics.registry.register_collector(self._collect_gauges)
        self._hasher = engine.hasher
        self.delta = DeltaStore(engine.hasher.num_blocks)
        self.delta.rebase(engine.database.blocks, engine.database.keys)
        self._conns: set[_Conn] = set()
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: Admitted publishes not yet in a run; the matcher takes all of
        #: them as its next run.
        self._queued: list[tuple[np.ndarray, _PubTicket]] = []
        self._matcher: asyncio.Task | None = None
        #: The engine the in-flight run leased (``None`` when idle): a
        #: swapped-out engine is closed only once no run uses it.
        self._run_engine: TagMatch | None = None
        self._tasks: set[asyncio.Task] = set()
        self._folding = False
        self._stopping = False
        self._server: asyncio.base_events.Server | None = None
        self._recon_task: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self.config.trace:
            trace.enable()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.config.metrics_port is not None:
            self._metrics_server = MetricsServer(self._render_metrics)
            await self._metrics_server.start(
                self.config.host, self.config.metrics_port
            )
        if self.config.reconsolidate_threshold:
            self._recon_task = asyncio.get_running_loop().create_task(
                self._recon_loop()
            )

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> int | None:
        """Bound Prometheus endpoint port; ``None`` when disabled."""
        return self._metrics_server.port if self._metrics_server else None

    async def shutdown(self) -> None:
        """Graceful stop: drain admitted publishes, then close the engine.

        With a ``snapshot_path``, the surviving delta is folded into a
        final reconsolidation and the index saved, so a restart resumes
        from exactly the served state.
        """
        if self._stopping:
            return
        self._stopping = True
        if self._recon_task is not None:
            self._recon_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_server is not None:
            await self._metrics_server.close()
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=_DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
        if self.snapshot_path is not None:
            if self.delta.size and not self._folding:
                await self.reconsolidate()
            await asyncio.to_thread(self.engine.save, self.snapshot_path)
        for conn in list(self._conns):
            conn.writer.close()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        await asyncio.to_thread(self.engine.close)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Conn(writer, asyncio.Semaphore(self.config.conn_inflight))
        self._conns.add(conn)
        try:
            while True:
                message = await read_frame(reader, self.config.max_frame_bytes)
                if message is None:
                    break
                await self._dispatch(conn, message)
        except (ProtocolError, ConnectionError, OSError):
            pass
        finally:
            self._conns.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, conn: _Conn, message: dict) -> None:
        try:
            async with conn.write_lock:
                await write_frame(conn.writer, message)
        except (ConnectionError, OSError):
            pass  # peer went away; nothing to deliver to

    async def _dispatch(self, conn: _Conn, message: dict) -> None:
        req_id = message.get("id")
        verb = message.get("verb")
        try:
            if verb == "pub":
                await self._on_publish(conn, message)
            elif verb == "sub":
                row = self._encode(message)
                self.delta.subscribe(row, int(message["key"]))
                self.metrics.subscribes += 1
                await self._send(conn, {"id": req_id, "ok": True})
            elif verb == "unsub":
                row = self._encode(message)
                removed = self.delta.unsubscribe(row, int(message["key"]))
                self.metrics.unsubscribes += 1
                await self._send(
                    conn, {"id": req_id, "ok": True, "removed": removed}
                )
            elif verb == "stats":
                await self._send(
                    conn, {"id": req_id, "ok": True, "stats": self.stats()}
                )
            elif verb == "trace":
                limit = int(message.get("limit") or 2048)
                await self._send(
                    conn,
                    {"id": req_id, "ok": True, "trace": self.trace_summary(limit)},
                )
            elif verb == "reconsolidate":
                try:
                    epoch = await self.reconsolidate()
                    reply = {"id": req_id, "ok": True, "epoch": epoch}
                except Exception as exc:  # noqa: BLE001 - keep serving on the old epoch
                    self.metrics.errors += 1
                    reply = {
                        "id": req_id,
                        "ok": False,
                        "error": f"reconsolidate_failed: {exc}",
                    }
                await self._send(conn, reply)
            elif verb == "ping":
                await self._send(conn, {"id": req_id, "ok": True})
            else:
                raise ProtocolError(f"unknown verb {verb!r}")
        except (KeyError, TypeError, ValueError, ProtocolError) as exc:
            self.metrics.errors += 1
            await self._send(
                conn, {"id": req_id, "ok": False, "error": f"bad_request: {exc}"}
            )

    def _encode(self, message: dict) -> np.ndarray:
        tags = message["tags"]
        if not isinstance(tags, list) or not tags:
            raise ProtocolError("tags must be a non-empty list")
        return np.array(
            self._hasher.encode_set(str(t) for t in tags), dtype=np.uint64
        )

    # ------------------------------------------------------------------
    # Publish path
    # ------------------------------------------------------------------
    async def _on_publish(self, conn: _Conn, message: dict) -> None:
        req_id = message.get("id")
        if self._stopping:
            await self._send(
                conn, {"id": req_id, "ok": False, "error": "shutdown"}
            )
            return
        if self._inflight >= self.config.max_inflight:
            # Admission control: reject now, with bounded latency,
            # rather than queue without limit and collapse (§6 of the
            # batch-dynamic GPU matching literature: ingress discipline
            # is where live systems win or lose).
            self.metrics.overloads += 1
            await self._send(
                conn, {"id": req_id, "ok": False, "error": "overload"}
            )
            return
        row = self._encode(message)
        # Per-connection backpressure: at the cap this blocks, which
        # stops the read loop for just this connection (TCP pushback).
        await conn.sem.acquire()
        ticket = _PubTicket(
            conn=conn,
            req_id=req_id,
            unique=bool(message.get("unique", False)),
            t0=time.perf_counter(),
        )
        self._inflight += 1
        self._idle.clear()
        self._queued.append((row, ticket))
        if self._matcher is None:
            # A task, not a direct call: publishes read in this loop
            # turn still join the first run.
            self._matcher = self._spawn(self._match_loop())

    def _spawn(self, coro) -> asyncio.Task:
        """Start a task that shutdown waits for."""
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _match_loop(self) -> None:
        """Run queued publishes until none are left, one run at a time.

        Each run takes every publish queued so far: while a run is in
        flight, publishes pile up and ride the next run together.
        """
        try:
            while self._queued:
                queued, self._queued = self._queued, []
                await self._run(queued)
        finally:
            self._matcher = None

    async def _run(self, queued: list[tuple[np.ndarray, _PubTicket]]) -> None:
        """One pipeline run over the stacked rows, then per-ticket replies.

        The run sees one delta view and one engine, so every reply in it
        carries the same epoch.  The matcher does not wait for the
        replies to be written (see :meth:`_fan_out`).
        """
        tickets = [ticket for _, ticket in queued]
        blocks = np.vstack([row for row, _ in queued])
        self.metrics.record_run(len(tickets))
        unique_flags = [t.unique for t in tickets]
        view = self.delta.view()
        engine = self._run_engine = self.engine
        try:
            results, epoch = await asyncio.to_thread(
                self._match_sync, engine, blocks, unique_flags, view
            )
        except BaseException as exc:  # noqa: BLE001 - replied per ticket
            self.metrics.errors += 1
            error = f"match_failed: {exc}"
            self._fan_out(
                tickets, [{"id": t.req_id, "ok": False, "error": error} for t in tickets]
            )
            if not isinstance(exc, Exception):
                raise  # cancellation or interrupt: answered, then passed on
            return
        finally:
            self._run_engine = None
            if engine is not self.engine:
                self._close_later(engine)
        self._fan_out(
            tickets,
            [
                {"id": t.req_id, "ok": True, "keys": keys.tolist(), "epoch": epoch}
                for t, keys in zip(tickets, results)
            ],
        )

    def _fan_out(self, tickets: list[_PubTicket], replies: list[dict]) -> None:
        """Send each ticket its reply, in one task per connection.

        A peer that stops reading blocks in ``drain()`` for good; with
        one task per connection that stalls only its own replies (and,
        through its semaphore, its own publishes), never the matcher or
        other connections.
        """
        by_conn: dict[_Conn, list[tuple[_PubTicket, dict]]] = {}
        for ticket, reply in zip(tickets, replies):
            by_conn.setdefault(ticket.conn, []).append((ticket, reply))
        for pairs in by_conn.values():
            self._spawn(self._reply(pairs))

    async def _reply(self, pairs: list[tuple[_PubTicket, dict]]) -> None:
        for ticket, reply in pairs:
            if reply["ok"]:
                self.metrics.record_publish(time.perf_counter() - ticket.t0)
            await self._send(ticket.conn, reply)
            self._finish_pub(ticket)

    def _finish_pub(self, ticket: _PubTicket) -> None:
        ticket.conn.sem.release()
        self._inflight -= 1
        if self._inflight == 0:
            self._idle.set()

    def _match_sync(
        self,
        engine: TagMatch,
        blocks: np.ndarray,
        unique_flags: list[bool],
        view: DeltaView,
    ) -> tuple[list[np.ndarray], int]:
        """Worker-thread body of one run: frozen pipeline run + delta overlay.

        The frozen run always uses multiset semantics so tombstone
        subtraction is exact; per-query ``unique`` is applied after the
        overlay.  The run is unpaced (everything queued when it starts), so
        it ships only full batches and the shutdown flush.
        """
        run = engine.match_stream(blocks, unique=False)
        results = apply_delta(run.results, blocks, view, unique_flags)
        return results, run.epoch

    # ------------------------------------------------------------------
    # Epoch swap / reconsolidation
    # ------------------------------------------------------------------
    def _close_later(self, engine: TagMatch) -> None:
        self._spawn(asyncio.to_thread(engine.close))

    async def reconsolidate(self) -> int:
        """Rebuild the frozen index off the hot path and swap epochs.

        Readers are never blocked: the rebuild runs in a worker thread
        over captured snapshots, the swap is a reference assignment on
        the event loop, and the old engine closes once the in-flight
        run, if it leased that engine, ends.
        """
        if self._folding:
            return self.engine.epoch
        self._folding = True
        view = self.delta.mark_fold()
        old = self.engine
        db = old.database
        try:
            new_engine = await asyncio.to_thread(
                self._rebuild, db.blocks, db.keys, view, old
            )
        except BaseException:
            self.delta.abort_fold()
            self._folding = False
            raise
        self.delta.complete_fold(
            new_engine.database.blocks, new_engine.database.keys
        )
        self.engine = new_engine
        self.metrics.reconsolidations += 1
        if old is not self._run_engine:
            self._close_later(old)
        self._folding = False
        return new_engine.epoch

    @staticmethod
    def _rebuild(
        db_blocks: np.ndarray,
        db_keys: np.ndarray,
        view: DeltaView,
        old: TagMatch,
    ) -> TagMatch:
        """Fold frozen ∪ adds − tombstones into a fresh engine."""
        blocks = (
            np.vstack([db_blocks, view.add_blocks])
            if view.add_keys.size
            else db_blocks
        )
        keys = (
            np.concatenate([db_keys, view.add_keys])
            if view.add_keys.size
            else db_keys
        )
        engine = TagMatch(old.config)
        engine.epoch = old.epoch  # consolidate() bumps: epochs stay monotonic
        if len(blocks):
            engine.add_signatures(blocks, keys)
        for row, key in zip(view.tomb_blocks, view.tomb_keys):
            engine.remove_signature(row, int(key))
        engine.consolidate()
        return engine

    async def _recon_loop(self) -> None:
        """Fold the delta once it crosses the threshold.

        A rebuild costs a full consolidation in a worker thread, so one
        that keeps failing backs off exponentially instead of competing
        with the matcher every interval; a successful fold resets it.
        """
        interval = self.config.reconsolidate_interval_s
        cap = max(interval, _RECON_BACKOFF_CAP_S)
        wait = interval
        while True:
            await asyncio.sleep(wait)
            if (
                not self._folding
                and self.delta.size >= self.config.reconsolidate_threshold
            ):
                try:
                    await self.reconsolidate()
                except Exception:  # noqa: BLE001 - keep serving on the old epoch
                    self.metrics.errors += 1
                    wait = min(2 * wait, cap)
                else:
                    wait = interval

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _ingest_trace(self) -> None:
        """Pull spans recorded since the last render into the metrics.

        Lazy by design: matcher threads only append to the tracer ring;
        the histogram updates happen here, on the introspection path,
        so the hot path never pays for bucketing.  Spans the ring
        overwrote in between are counted, not silently lost.
        """
        self._trace_cursor = self.metrics.ingest_trace(
            trace.TRACER, self._trace_cursor
        )

    def _collect_gauges(self) -> None:
        """Registry collector: late-bound server state, read at render."""
        reg = self.metrics.registry
        reg.gauge("repro_inflight").set(self._inflight)
        reg.gauge("repro_connections").set(len(self._conns))
        reg.gauge("repro_delta_size").set(self.delta.size)
        reg.gauge("repro_epoch").set(self.engine.epoch)
        # Device clocks are gauges, not counters: a reconsolidation
        # swaps in a fresh engine whose clocks restart at zero.
        for dev in self.engine.devices:
            snap = dev.clock.snapshot()
            reg.gauge("repro_device_kernel_seconds", device=dev.device_id).set(
                snap["kernel_s"]
            )
            reg.gauge("repro_device_transfer_seconds", device=dev.device_id).set(
                snap["transfer_s"]
            )
            reg.gauge("repro_device_launches", device=dev.device_id).set(
                snap["launches"]
            )

    def _render_metrics(self) -> str:
        self._ingest_trace()
        return render_prometheus(self.metrics.registry)

    def trace_summary(self, limit: int = 2048) -> dict:
        """The ``trace`` verb: per-stage aggregate over recent spans.

        Wall-clock aggregates come from the tracer ring (bounded
        window); the p50/p99 columns come from the lifetime stage
        histograms, which never drop samples.
        """
        self._ingest_trace()
        spans = trace.recent(limit)
        stages = stage_summary(spans)
        hist = self.metrics.stage_snapshot()
        for name, entry in stages.items():
            percentiles = hist.get(name)
            if percentiles and percentiles["count"]:
                entry["p50_ms"] = percentiles["p50_ms"]
                entry["p99_ms"] = percentiles["p99_ms"]
        return {
            "enabled": trace.is_enabled(),
            "span_count": trace.count(),
            "window": len(spans),
            "stages": stages,
        }

    def stats(self) -> dict:
        self._ingest_trace()
        return self.metrics.snapshot(
            epoch=self.engine.epoch,
            delta_size=self.delta.size,
            inflight=self._inflight,
            connections=len(self._conns),
            device={
                str(dev.device_id): dev.clock.snapshot()
                for dev in self.engine.devices
            },
        )


async def serve_until_interrupted(
    engine: TagMatch,
    config: ServiceConfig,
    snapshot_path: str | None = None,
    ready_cb=None,
) -> None:
    """Run a server until SIGINT/SIGTERM, then drain gracefully."""
    import signal

    server = MatchServer(engine, config, snapshot_path=snapshot_path)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    if ready_cb is not None:
        ready_cb(server)
    try:
        await stop.wait()
    finally:
        await server.shutdown()
