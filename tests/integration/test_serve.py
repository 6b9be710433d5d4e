"""Serve integration: concurrent tenants, kill/resume, graceful exits.

The ``serve_smoke`` subset is the CI smoke gate (``make serve-smoke``):
three tenants stream small traces through one server and every final
``serve.session`` digest must equal the same trace run in batch; a
SIGTERM'd server process must exit 0 with every session checkpointed,
and a restarted server must resume them bit-exact.  The transport
tests pin the client/server socket contract: ``TCP_NODELAY`` on both
ends, ``io`` lines coalesced into buffer-sized writes, and buffered
lines delivered even when the client closes without a flush.

No pytest-asyncio in the image, so the in-process server runs a plain
``asyncio.run`` loop on a background thread and the tenants drive it
with the blocking :class:`repro.serve.ServeClient`.
"""

import hashlib
import io
import os
import pickle
import random
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.api import parse_record, session_digest
from repro.experiments.config import RunConfig
from repro.experiments.runner import ExperimentContext, run_system
from repro.fleet import FleetSpec, run_fleet
from repro.perf.spec import result_digest
from repro.serve import (
    ServeClient, ServeClientError, ServeServer, ServeSettings,
)
from repro.traces.synthetic import generate_trace

SCALE = 0.004
SYSTEM = "mq-dvp"
BATCH = 64

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def batch_digest(workload):
    context = ExperimentContext.for_workload(workload, SCALE)
    result = run_system(SYSTEM, context, config=RunConfig(scale=SCALE))
    return result_digest(result)


def trace_for(workload):
    return generate_trace(
        ExperimentContext.for_workload(workload, SCALE).profile
    )


class ServerThread:
    """An in-process serve loop on a background thread (port 0)."""

    def __init__(self, **settings_overrides):
        fields = dict(host="127.0.0.1", port=0, batch_requests=BATCH)
        fields.update(settings_overrides)
        self.settings = ServeSettings(**fields)
        self.server = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        import asyncio

        async def main():
            self.server = ServeServer(self.settings)
            await self.server.start()
            self._ready.set()
            await self.server.serve_until_stopped()

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "server did not start"
        return self

    @property
    def port(self):
        return self.server.port

    def join(self, timeout=60):
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "server did not drain"

    def __exit__(self, *exc):
        if self._thread.is_alive():
            with ServeClient("127.0.0.1", self.port) as client:
                client.shutdown_server()
            self.join()


def reopen(port, **fields):
    """A new connection reopening a tenant whose old connection just
    vanished.  The server may not have processed the disconnect yet
    (tenant still attached), so the open is retried briefly."""
    deadline = time.time() + 30
    while True:
        client = ServeClient("127.0.0.1", port)
        try:
            return client, client.open(**fields)
        except Exception:
            client.close()
            if time.time() > deadline:
                raise
            time.sleep(0.05)


def nodelay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


@pytest.mark.serve_smoke
def test_three_tenants_isolated_and_digest_identical_to_batch(tmp_path):
    """Concurrent tenants cannot perturb each other: each streamed
    session must finish with exactly its batch digest."""
    workloads = ["mail", "web", "desktop"]
    expected = {w: batch_digest(w) for w in workloads}
    obs_path = str(tmp_path / "serve.jsonl")
    records = {}
    errors = []

    with ServerThread(jobs=2, obs_path=obs_path) as server:

        def tenant(workload):
            try:
                with ServeClient("127.0.0.1", server.port) as client:
                    opened = client.open(
                        tenant=f"tenant-{workload}", workload=workload,
                        system=SYSTEM, scale=SCALE, batch_requests=BATCH,
                    )
                    assert opened["resumed"] is False
                    client.stream(trace_for(workload))
                    metrics = client.flush()
                    assert metrics["kind"] == "serve.metrics"
                    assert metrics["digest"] is None
                    records[workload] = client.close_session()
            except Exception as exc:  # surfaced by the main thread
                errors.append((workload, exc))

        threads = [
            threading.Thread(target=tenant, args=(w,)) for w in workloads
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors

    for workload in workloads:
        record = records[workload]
        assert record["kind"] == "serve.session"
        assert record["digest"] == expected[workload], workload
        parse_record(record)  # valid unified schema on the wire

    # Every flush/close also streamed through the obs JSONL exporter.
    import json

    lines = [
        json.loads(line)
        for line in open(obs_path).read().splitlines()
    ]
    kinds = [line["kind"] for line in lines]
    assert kinds.count("serve.metrics") == 3
    assert kinds.count("serve.session") == 3
    for line in lines:
        parse_record(line)


@pytest.mark.serve_smoke
def test_mid_stream_disconnect_leaves_session_resumable():
    """A vanished connection detaches (never corrupts) its session."""
    trace = trace_for("mail")
    cut = len(trace) // 2
    expected = batch_digest("mail")

    with ServerThread() as server:
        client = ServeClient("127.0.0.1", server.port)
        client.open(tenant="dropper", workload="mail", system=SYSTEM,
                    scale=SCALE, batch_requests=BATCH)
        client.stream(trace[:cut])
        client.flush()
        client.close()  # abrupt: no close/detach message

        # The same tenant reconnects and continues where it left off.
        client, opened = reopen(
            server.port, tenant="dropper", workload="mail", system=SYSTEM,
            scale=SCALE, batch_requests=BATCH,
        )
        with client:
            assert opened["resumed"] is True
            assert opened["served"] == cut
            client.stream(trace[cut:])
            record = client.close_session()

    assert record["digest"] == expected


@pytest.mark.serve_smoke
def test_both_ends_of_a_connection_disable_nagle():
    """The client sets TCP_NODELAY itself; the server side relies on
    asyncio's transports setting it on every accepted TCP socket."""
    with ServerThread() as server:
        with ServeClient("127.0.0.1", server.port) as client:
            client.ping()  # the handler now holds the connection
            assert nodelay(client._sock) == 1
            (writer,) = server.server._conn_writers
            assert nodelay(writer.get_extra_info("socket")) == 1


@pytest.mark.serve_smoke
def test_streamed_window_leaves_in_buffer_sized_writes(monkeypatch):
    """512 ``io`` lines then ``flush`` reach the socket in a handful of
    buffer-sized writes, not one write per line."""
    window = trace_for("mail")[:512]
    writes = []
    real_send = socket.socket.send

    with ServerThread() as server:
        with ServeClient("127.0.0.1", server.port) as client:
            client.open(tenant="spy", workload="mail", system=SYSTEM,
                        scale=SCALE)

            def spy(sock, data, *args):
                if sock is client._sock:
                    writes.append(len(data))
                return real_send(sock, data, *args)

            monkeypatch.setattr(socket.socket, "send", spy)
            assert client.stream(window) == 512
            metrics = client.flush()
            monkeypatch.undo()
            assert metrics["meta"]["served"] == 512

    sent = sum(writes)
    assert len(writes) <= sent // io.DEFAULT_BUFFER_SIZE + 2, writes
    assert len(writes) < 512 // 10


@pytest.mark.serve_smoke
def test_lines_buffered_at_an_abrupt_close_reach_the_session():
    """``send`` only buffers, so closing without a flush must still write
    the buffered lines before the disconnect: the detached session holds
    every request sent, and resuming it finishes digest-identical."""
    trace = trace_for("mail")
    cut = BATCH + 10  # one stepped batch plus a partial one
    expected = batch_digest("mail")
    fields = dict(tenant="closer", workload="mail", system=SYSTEM,
                  scale=SCALE, batch_requests=BATCH)

    with ServerThread() as server:
        client = ServeClient("127.0.0.1", server.port)
        client.open(**fields)
        for request in trace[:cut]:
            client.send(request)
        client.close()  # abrupt: no flush, close or detach message

        client, opened = reopen(server.port, **fields)
        with client:
            assert opened["resumed"] is True
            assert client.flush()["meta"]["served"] == cut
            client.stream(trace[cut:])
            record = client.close_session()

    assert record["digest"] == expected


@pytest.mark.serve_smoke
def test_sigterm_drains_checkpoints_and_resumes_bit_exact(tmp_path):
    """Kill the server process mid-stream; a new process resumes every
    tenant exactly and the finished stream matches batch."""
    checkpoint_dir = str(tmp_path / "ckpt")
    trace = trace_for("mail")
    cut = len(trace) // 2
    expected = batch_digest("mail")
    env = dict(os.environ, PYTHONPATH=SRC_DIR)

    def spawn():
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--checkpoint-dir", checkpoint_dir,
                "--batch-requests", str(BATCH),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        line = proc.stdout.readline()
        assert "repro-serve listening on" in line, line
        port = int(line.rsplit(":", 1)[1])
        return proc, port

    proc, port = spawn()
    try:
        with ServeClient("127.0.0.1", port) as client:
            client.open(tenant="survivor", workload="mail", system=SYSTEM,
                        scale=SCALE, batch_requests=BATCH)
            client.stream(trace[:cut])
            client.flush()  # barrier: everything sent is now in-session
            proc.send_signal(signal.SIGTERM)
            # The drain closes this connection; nothing more to send.
    finally:
        code = proc.wait(timeout=120)
    assert code == 0, f"SIGTERM exit code {code}"
    assert os.path.exists(
        os.path.join(checkpoint_dir, "survivor.session")
    ), "drain did not checkpoint the session"

    proc, port = spawn()
    try:
        with ServeClient("127.0.0.1", port) as client:
            opened = client.open(
                tenant="survivor", workload="mail", system=SYSTEM,
                scale=SCALE, batch_requests=BATCH,
            )
            assert opened["resumed"] is True
            assert opened["served"] == cut
            client.stream(trace[cut:])
            record = client.close_session()
            client.shutdown_server()
        code = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert code == 0
    assert record["digest"] == expected


@pytest.mark.serve_smoke
def test_sharded_session_matches_batch_fleet():
    """A 2-shard streamed session equals the batch fleet run: same
    per-shard digests, same fleet digest."""
    from repro.serve import SessionConfig, TenantSession

    spec = FleetSpec(workload="mail", system=SYSTEM, shards=2, scale=SCALE)
    fleet = run_fleet(spec, jobs=1)

    session = TenantSession(SessionConfig(
        tenant="sharded", workload="mail", system=SYSTEM, shards=2,
        scale=SCALE, batch_requests=BATCH,
    ))
    for request in trace_for("mail"):
        session.push(request)
        if session.step_due():
            session.flush()
    record = session.finalize()

    assert record.meta["shard_digests"] == list(fleet.shard_digests)
    assert record.digest == fleet.fleet_digest
    assert record.digest == session_digest(list(fleet.shard_digests))


def _sealed(state, version):
    """A session checkpoint in the sealed format: a ``repro-session
    <version> <sha256>`` header line, then the pickled state."""
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    return f"repro-session {version} {digest}\n".encode() + payload


@pytest.mark.serve_smoke
def test_damaged_checkpoints_are_refused_and_never_resume(tmp_path):
    """A truncated checkpoint, single-bit flips anywhere in it, one from
    another session version and one holding a live state from an older
    writer each get an ``error`` reply naming the checkpoint; no session
    resumes, and the connection serves on.  Unsealed, flips used to
    resume with a wrong digest or escape as unpickling errors."""
    from repro.perf.snapshot import LIVE_STATE_VERSION
    from repro.serve import (
        SESSION_STATE_VERSION, SessionConfig, TenantSession, save_checkpoint,
    )

    fields = dict(tenant="damaged", workload="web", system=SYSTEM,
                  scale=SCALE, batch_requests=BATCH)
    trace = trace_for("web")
    session = TenantSession(SessionConfig(**fields))
    for request in trace[:len(trace) // 2]:
        session.push(request)
    blob = session.checkpoint_blob()
    state = pickle.loads(blob.partition(b"\n")[2])
    assert blob == _sealed(state, SESSION_STATE_VERSION)
    old_live = dict(state, blobs=[
        pickle.dumps(dict(pickle.loads(live), version=LIVE_STATE_VERSION - 1))
        for live in state["blobs"]
    ])
    rng = random.Random(1)
    flips = []
    for bit in rng.sample(range(8 * len(blob)), 60):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        flips.append(bytes(flipped))
    damaged = [
        blob[:len(blob) // 2],
        _sealed(state, SESSION_STATE_VERSION - 1),
        _sealed(old_live, SESSION_STATE_VERSION),
        *flips,
    ]
    with ServerThread(checkpoint_dir=str(tmp_path)) as server:
        with ServeClient("127.0.0.1", server.port) as client:
            for bad in damaged:
                save_checkpoint(str(tmp_path), "damaged", bad)
                with pytest.raises(ServeClientError, match="session checkpoint"):
                    client.open(**fields)
                client.ping()
            assert server.server.manager.sessions == {}
            save_checkpoint(str(tmp_path), "damaged", blob)
            assert client.open(**fields)["resumed"] is True


def test_error_replies_keep_the_connection_alive():
    """Protocol/session errors are replies, not disconnects."""
    with ServerThread() as server:
        with ServeClient("127.0.0.1", server.port) as client:
            # io before open -> error reply, connection stays usable.
            client._send({"type": "flush"})
            reply = client._fh.readline()
            assert b"error" in reply
            client.ping()
            client.open(tenant="t", workload="mail", system=SYSTEM,
                        scale=SCALE)
            # A second open on the same connection is refused.
            client._send({"type": "open", "tenant": "t2",
                          "workload": "mail", "system": SYSTEM})
            reply = client._fh.readline()
            assert b"error" in reply
            client.ping()
            client.close_session()


def test_over_long_line_gets_an_error_and_the_connection_serves_on():
    """A line past the reader's limit is discarded whole with an ``error``
    reply naming the limit; the next message is served as usual."""
    from repro.serve.protocol import MAX_LINE_BYTES

    with ServerThread() as server:
        with ServeClient("127.0.0.1", server.port) as client:
            padding = "x" * (MAX_LINE_BYTES + 4_000)
            long_ping = ('{"type": "ping", "pad": "%s"}\n' % padding).encode()
            # All of the line in one write (the newline may already be
            # buffered when the limit trips), then in pieces (it is not).
            client._fh.write(long_ping)
            client._fh.flush()
            reply = client._fh.readline()
            assert b'"error"' in reply and str(MAX_LINE_BYTES).encode() in reply
            client.ping()
            for start in range(0, len(long_ping), 20_000):
                client._fh.write(long_ping[start:start + 20_000])
                client._fh.flush()
                time.sleep(0.01)
            reply = client._fh.readline()
            assert b'"error"' in reply
            client.ping()
