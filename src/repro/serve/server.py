"""The asyncio serve loop: many tenants, one process, graceful exits.

Concurrency model: ``asyncio.start_server`` accepts any number of
tenant connections; each connection handler processes its line-oriented
messages strictly one at a time — the next line is not read until the
previous message is fully serviced, so TCP flow control is the
per-tenant backpressure, and one tenant's session is never mutated
concurrently.  CPU-bound work (device stepping, finalize, checkpoint
pickling) runs on a bounded worker-thread pool so independent tenants
interleave instead of serialising behind one long step.

Lifecycle: SIGTERM/SIGINT (or a client ``shutdown`` message) set the
stop event; the server then stops accepting, closes every connection
(handlers finish their in-flight message, then see EOF and detach
their tenant), waits for all handlers, drains every session's buffered
batch and checkpoints it, and returns cleanly — the process exits 0.
A mid-stream disconnect is the same detach path for one tenant: the
session stays resident (and checkpointed when a store is configured),
ready for the tenant to reconnect.

Determinism: nothing in this module reads wall-clock time — all timing
in records is *simulated* time from the devices — so serve output is a
pure function of the streamed requests, like every other surface.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Set

from ..obs.export import JsonlWriter
from ..perf.parallel import resolve_jobs
from ..traces.jsonl import JSONLFormatError, request_of_record
from .checkpoint import CheckpointError
from .config import ServeSettings
from .manager import SessionManager
from .protocol import (
    CLIENT_TYPES,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
)
from .session import SessionError, TenantSession, session_config_of_open

__all__ = ["ServeServer", "run_server"]


class ServeServer:
    """One serve process: listener, session manager, worker pool."""

    def __init__(self, settings: ServeSettings):
        self.settings = settings
        self.manager = SessionManager(settings)
        self._executor = ThreadPoolExecutor(
            max_workers=resolve_jobs(
                settings.jobs, tasks=settings.max_sessions
            ),
            thread_name_prefix="repro-serve",
        )
        self._obs: Optional[JsonlWriter] = (
            JsonlWriter(settings.obs_path)
            if settings.obs_path is not None
            else None
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None
        self._handlers: Set[asyncio.Task] = set()
        self._conn_writers: Set[asyncio.StreamWriter] = set()
        self._signals_installed = False

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The actually-bound port (use ``port=0`` for an ephemeral one)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Begin a graceful shutdown (signal handlers land here)."""
        if self._stop is not None:
            self._stop.set()

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.settings.host,
            self.settings.port,
            limit=MAX_LINE_BYTES,
        )
        try:
            loop.add_signal_handler(signal.SIGTERM, self.request_stop)
            loop.add_signal_handler(signal.SIGINT, self.request_stop)
            self._signals_installed = True
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread or platform without signal support

    async def serve_until_stopped(self) -> None:
        """Run until a signal or ``shutdown`` message, then drain."""
        if self._server is None:
            await self.start()
        assert self._stop is not None
        await self._stop.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Drain in-flight batches, checkpoint every session, go quiet."""
        loop = asyncio.get_running_loop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Closing the transports makes every handler's readline return
        # EOF after its in-flight message completes; handlers are never
        # cancelled, so no session is abandoned mid-mutation.
        for writer in list(self._conn_writers):
            writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        await loop.run_in_executor(self._executor, self.manager.drain)
        self._executor.shutdown(wait=True)
        if self._obs is not None:
            self._obs.close()
        if self._signals_installed:
            loop.remove_signal_handler(signal.SIGTERM)
            loop.remove_signal_handler(signal.SIGINT)
            self._signals_installed = False

    # -- helpers -------------------------------------------------------

    def _run(self, fn: Callable, *args: Any) -> "asyncio.Future":
        """Run CPU-bound session work on the worker pool."""
        return asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _reply(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        writer.write(encode_message(message))
        await writer.drain()

    def _export(self, record_dict: Dict[str, Any]) -> None:
        """Stream one unified record through the obs JSONL exporter."""
        if self._obs is not None:
            self._obs.write(record_dict)
            self._obs.flush()

    @staticmethod
    def _flush_and_metrics(session: TenantSession) -> Dict[str, Any]:
        session.flush()
        return session.metrics_record().to_dict()

    # -- the per-connection protocol loop ------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._conn_writers.add(writer)
        tenant: Optional[str] = None
        session: Optional[TenantSession] = None
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    await self._reply(writer, {
                        "type": "error",
                        "error": f"message line exceeds {MAX_LINE_BYTES} "
                                 "bytes; discarded",
                    })
                    continue
                if not line:
                    break
                try:
                    message = decode_message(line, CLIENT_TYPES)
                except ProtocolError as exc:
                    await self._reply(
                        writer, {"type": "error", "error": str(exc)}
                    )
                    continue
                kind = message["type"]
                try:
                    if kind == "open":
                        if tenant is not None:
                            raise SessionError(
                                "connection already serves tenant "
                                f"{tenant!r}; close or detach first"
                            )
                        config = session_config_of_open(
                            message, self.settings
                        )
                        session, resumed = await self._run(
                            self.manager.open, config
                        )
                        tenant = config.tenant
                        await self._reply(writer, {
                            "type": "opened",
                            "tenant": tenant,
                            "resumed": resumed,
                            "served": session.served,
                            "protocol": PROTOCOL_VERSION,
                        })
                    elif kind == "io":
                        if session is None:
                            raise SessionError("no open session; send open")
                        # Parse and buffer inline (cheap); only actual
                        # device stepping goes to the worker pool.  No
                        # ack — flush is the barrier.
                        session.push(request_of_record(message))
                        if session.step_due():
                            await self._run(session.flush)
                            if self.manager.checkpoint_due(tenant):
                                await self._run(
                                    self.manager.checkpoint, tenant
                                )
                    elif kind == "flush":
                        if session is None:
                            raise SessionError("no open session; send open")
                        record = await self._run(
                            self._flush_and_metrics, session
                        )
                        self._export(record)
                        await self._reply(
                            writer, {"type": "metrics", "record": record}
                        )
                    elif kind == "close":
                        if tenant is None:
                            raise SessionError("no open session; send open")
                        result = await self._run(self.manager.close, tenant)
                        record = result.to_dict()
                        self._export(record)
                        await self._reply(
                            writer, {"type": "result", "record": record}
                        )
                        tenant, session = None, None
                    elif kind == "detach":
                        if tenant is None:
                            raise SessionError("no open session; send open")
                        served = session.served if session else 0
                        await self._run(self.manager.detach, tenant)
                        await self._reply(
                            writer, {"type": "bye", "served": served}
                        )
                        tenant, session = None, None
                    elif kind == "ping":
                        await self._reply(writer, {"type": "pong"})
                    elif kind == "shutdown":
                        await self._reply(writer, {"type": "draining"})
                        self.request_stop()
                        break
                except (
                    SessionError, JSONLFormatError, CheckpointError
                ) as exc:
                    await self._reply(
                        writer, {"type": "error", "error": str(exc)}
                    )
        except (ConnectionResetError, BrokenPipeError):
            pass  # disconnect mid-line: handled like EOF below
        finally:
            # A connection that vanished without close/detach leaves its
            # session resident and checkpointed — never corrupted, never
            # leaked: the tenant can reconnect and continue.
            if tenant is not None:
                await self._run(self.manager.detach, tenant)
            self._conn_writers.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next message line, ``b""`` at EOF (a final unterminated line
    is returned as is, like ``readline``), or ``None`` for a line over the
    reader's limit, which is consumed up to and including its newline."""
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial
        except asyncio.LimitOverrunError as exc:
            # Drop what was scanned and keep looking for the newline.
            await reader.readexactly(exc.consumed)
            oversized = True
            continue
        return None if oversized else line


async def run_server(settings: ServeSettings) -> int:
    """Start a server, announce readiness, run until stopped; exits 0."""
    server = ServeServer(settings)
    await server.start()
    print(
        f"repro-serve listening on {settings.host}:{server.port}",
        flush=True,
    )
    if settings.checkpoint_dir is not None:
        print(
            f"repro-serve checkpoints in {settings.checkpoint_dir}",
            file=sys.stderr,
            flush=True,
        )
    await server.serve_until_stopped()
    print("repro-serve drained; exiting", flush=True)
    return 0
