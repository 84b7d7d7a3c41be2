"""Framed wire protocol of the matching service, plus the asyncio client.

A frame is a 4-byte big-endian unsigned length followed by a UTF-8 JSON
object.  Requests carry an ``id`` (client-chosen, echoed verbatim) and a
``verb``; responses carry the same ``id`` and ``ok``.  Replies may
arrive out of order — publishes are answered when their pipeline run
completes, while subscribes and stats answer immediately — so clients
pipeline requests and demultiplex on ``id`` (:class:`ServiceClient`
does this with one reader task and a future per request).

Verbs
-----
``sub``     ``{tags, key}`` — register a tag set (``add-set``), live.
``unsub``   ``{tags, key}`` — remove one association, live.
``pub``     ``{tags, unique?}`` — match a query; reply ``{keys, epoch}``
            or ``{ok: false, error: "overload"}`` under admission
            control.
``stats``   server metrics snapshot (see :mod:`repro.service.metrics`).
``trace``   per-stage span summary from the observability layer
            (``{limit?}`` caps the span window; see :mod:`repro.obs`).
``reconsolidate``  force a background index rebuild + epoch swap.
``ping``    liveness probe.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import struct
from typing import Any

from repro.errors import ReproError

__all__ = [
    "ProtocolError",
    "OverloadedError",
    "MAX_FRAME_BYTES",
    "VERBS",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "write_frame",
    "ServiceClient",
]

_LEN = struct.Struct("!I")

#: Default hard cap on a single frame (the server's is configurable).
MAX_FRAME_BYTES = 8 * 1024 * 1024

VERBS = ("sub", "unsub", "pub", "stats", "trace", "reconsolidate", "ping")


class ProtocolError(ReproError):
    """Malformed frame or message."""


class OverloadedError(ReproError):
    """The server refused a publish under admission control."""


def encode_frame(message: dict[str, Any]) -> bytes:
    """Serialise one message to its length-prefixed wire form."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(body)) + body


def decode_frame(body: bytes) -> dict[str, Any]:
    """Parse one frame body back into a message dict."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame body must be a JSON object")
    return message


async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = _LEN.unpack(header)
    if length > max_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds cap {max_bytes}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_frame(body)


async def write_frame(writer: asyncio.StreamWriter, message: dict[str, Any]) -> None:
    """Write one frame and respect the transport's flow control."""
    writer.write(encode_frame(message))
    await writer.drain()


class ServiceClient:
    """Pipelining asyncio client for the matching service.

    One background task reads reply frames and resolves the future of
    the request with the matching ``id``, so any number of requests can
    be in flight at once — which is what lets the server's matcher
    carry many publishes per pipeline run.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count()
        self._pending: dict[int, asyncio.Future] = {}
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        error: BaseException | None = None
        try:
            while True:
                message = await read_frame(self._reader)
                if message is None:
                    break
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            error = exc
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        error or ProtocolError("connection closed")
                    )
            self._pending.clear()

    async def request(self, verb: str, **payload: Any) -> dict[str, Any]:
        """Send one request and await its reply (out-of-order safe)."""
        if self._closed:
            raise ProtocolError("client is closed")
        req_id = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[req_id] = future
        await write_frame(self._writer, {"id": req_id, "verb": verb, **payload})
        return await future

    @staticmethod
    def _checked(reply: dict[str, Any]) -> dict[str, Any]:
        if not reply.get("ok"):
            error = reply.get("error", "unknown error")
            if error == "overload":
                raise OverloadedError("server overloaded")
            raise ProtocolError(f"request failed: {error}")
        return reply

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    async def subscribe(self, tags, key: int) -> None:
        self._checked(
            await self.request("sub", tags=sorted(tags), key=int(key))
        )

    async def unsubscribe(self, tags, key: int) -> bool:
        """Remove one association; False if nothing matched (no-op)."""
        reply = self._checked(
            await self.request("unsub", tags=sorted(tags), key=int(key))
        )
        return bool(reply.get("removed", False))

    async def publish(self, tags, unique: bool = False) -> tuple[list[int], int]:
        """Match a query; returns ``(keys, serving epoch)``.

        Raises :class:`OverloadedError` when admission control rejects
        the publish.
        """
        reply = self._checked(
            await self.request("pub", tags=sorted(tags), unique=bool(unique))
        )
        return list(reply["keys"]), int(reply.get("epoch", 0))

    async def stats(self) -> dict[str, Any]:
        return self._checked(await self.request("stats"))["stats"]

    async def trace(self, limit: int | None = None) -> dict[str, Any]:
        """Per-stage span summary (the ``repro trace`` CLI's data)."""
        payload = {} if limit is None else {"limit": int(limit)}
        return self._checked(await self.request("trace", **payload))["trace"]

    async def reconsolidate(self) -> int:
        """Force an index rebuild; returns the new epoch."""
        reply = self._checked(await self.request("reconsolidate"))
        return int(reply.get("epoch", 0))

    async def ping(self) -> None:
        self._checked(await self.request("ping"))

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # peer already gone
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
