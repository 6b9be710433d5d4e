"""A small synchronous client for the serve protocol.

Used by the integration tests and by scripts that drive a serve
process; plain blocking sockets (no asyncio) so it drops into ordinary
test code.  ``io`` lines are fire-and-forget by protocol design — the
server applies backpressure by reading at most one bounded chunk ahead
— and :meth:`flush` is the acknowledgement barrier that surfaces any
queued error.

Transport: the socket runs with ``TCP_NODELAY`` (the server's asyncio
transport sets it too), and ``io`` lines only fill the buffered socket
file, so a window of requests leaves in a few buffer-sized writes.
Every control message forces the buffer out before it waits for its
reply, which keeps ``flush`` the one sync point, and with Nagle off no
control message waits on the ACK of an earlier segment.
"""

from __future__ import annotations

import json
import math
import socket
from itertools import starmap
from typing import Any, Dict, Iterable, Optional

from ..sim.request import IORequest, OpType, Trace
from .protocol import SERVER_TYPES, ProtocolError, decode_message, encode_message

__all__ = ["ServeClientError", "ServeClient"]

#: Each op's JSON string literal, for the ``io`` line template.
_OP_JSON = {op: json.dumps(op.value) for op in OpType}


def _row_line(t: float, op: OpType, lpn: int, value: int) -> bytes:
    """The ``io`` wire line for one request's fields: byte for byte
    ``encode_message(dict(record_of_request(request), type="io"))``.

    The common case fills a template with the keys in ``sort_keys``
    order: a finite ``float`` time prints as its ``repr`` and an exact
    ``int`` as its ``str`` under both.  Anything else (NaN or infinite
    times, int times, bools or other number types) goes through
    ``encode_message``.
    """
    op_json = _OP_JSON.get(op)
    if (
        type(t) is float
        and math.isfinite(t)
        and type(lpn) is int
        and type(value) is int
        and op_json is not None
    ):
        return (
            f'{{"lpn":{lpn},"op":{op_json},"t":{t!r},"type":"io","value":{value}}}\n'
        ).encode("ascii")
    return encode_message(
        {"t": t, "op": op.value, "lpn": lpn, "value": value, "type": "io"}
    )


def _io_line(request: IORequest) -> bytes:
    """The ``io`` wire line for ``request``."""
    return _row_line(
        request.arrival_us, request.op, request.lpn, request.value_id
    )


class ServeClientError(RuntimeError):
    """An ``error`` reply from the server, raised client-side."""


class ServeClient:
    """One connection to a serve process.  Context-manager friendly."""

    def __init__(self, host: str, port: int, timeout: Optional[float] = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._fh = self._sock.makefile("rwb")

    # -- plumbing ------------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        """Write ``message`` and force everything buffered onto the wire."""
        self._fh.write(encode_message(message))
        self._fh.flush()

    def _recv(self) -> Dict[str, Any]:
        line = self._fh.readline()
        if not line:
            raise ServeClientError("server closed the connection")
        reply = decode_message(line, SERVER_TYPES)
        if reply["type"] == "error":
            raise ServeClientError(reply.get("error", "unknown error"))
        return reply

    def _call(self, message: Dict[str, Any], expect: str) -> Dict[str, Any]:
        self._send(message)
        reply = self._recv()
        if reply["type"] != expect:
            raise ProtocolError(
                f"expected {expect!r} reply, got {reply['type']!r}"
            )
        return reply

    # -- the protocol --------------------------------------------------

    def open(self, **fields: Any) -> Dict[str, Any]:
        """Open (or resume) a session; returns the ``opened`` reply.

        Keyword fields go into the ``open`` message verbatim: ``tenant``,
        ``workload`` and ``system`` are required by the server, the rest
        (``shards``, ``scale``, ``seed``, ...) are optional.
        """
        return self._call(dict(fields, type="open"), "opened")

    def send(self, request: IORequest) -> None:
        """Stream one request: unacknowledged and buffered until the next
        control message (``flush`` is the barrier)."""
        self._fh.write(_io_line(request))

    def stream(self, requests: Iterable[IORequest]) -> int:
        """Stream a whole request sequence; returns how many were sent.

        A :class:`~repro.sim.request.Trace` is written straight from its
        rows: the same bytes :meth:`send` would write per request.
        """
        if isinstance(requests, Trace):
            self._fh.writelines(starmap(_row_line, requests.rows()))
            return len(requests)
        count = 0
        for request in requests:
            self.send(request)
            count += 1
        return count

    def flush(self) -> Dict[str, Any]:
        """Force buffered requests through; returns the unified
        ``serve.metrics`` record dict."""
        return self._call({"type": "flush"}, "metrics")["record"]

    def close_session(self) -> Dict[str, Any]:
        """Finish the session; returns the final ``serve.session``
        record dict (its ``digest`` is the batch-parity identity)."""
        return self._call({"type": "close"}, "result")["record"]

    def detach(self) -> Dict[str, Any]:
        """Park the session server-side (checkpointed); returns ``bye``."""
        return self._call({"type": "detach"}, "bye")

    def ping(self) -> None:
        self._call({"type": "ping"}, "pong")

    def shutdown_server(self) -> None:
        """Ask the server to drain every session and exit."""
        self._call({"type": "shutdown"}, "draining")

    # -- connection ----------------------------------------------------

    def close(self) -> None:
        """Drop the connection.  ``io`` lines still buffered are written
        first, so an abrupt close leaves them in the (detached) session."""
        try:
            self._fh.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
