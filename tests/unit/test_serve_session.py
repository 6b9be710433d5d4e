"""Unit tests for the serve layer's sessions, protocol and checkpoints.

The load-bearing invariants:

* a streamed session finishes digest-identical to the same trace run
  in batch (``run_system`` for one drive, the fleet layer for shards);
* the batching threshold cannot perturb results — any
  ``batch_requests`` yields the same digest;
* a checkpoint taken mid-stream (with requests still buffered) resumes
  bit-exact.
"""

import pytest

from repro.experiments.config import RunConfig
from repro.experiments.runner import ExperimentContext, run_system
from repro.perf.spec import result_digest
from repro.serve import (
    CLIENT_TYPES,
    SESSION_STATE_VERSION,
    SessionConfig,
    SessionError,
    SessionManager,
    ServeSettings,
    TenantSession,
    decode_message,
    drop_checkpoint,
    encode_message,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
    session_config_of_open,
)
from repro.serve.protocol import ProtocolError
from repro.traces.synthetic import generate_trace

SCALE = 0.004
WORKLOAD = "mail"
SYSTEM = "mq-dvp"


@pytest.fixture(scope="module")
def context():
    return ExperimentContext.for_workload(WORKLOAD, SCALE)


@pytest.fixture(scope="module")
def batch_digest(context):
    result = run_system(SYSTEM, context, config=RunConfig(scale=SCALE))
    return result_digest(result)


def sealed(state, version=SESSION_STATE_VERSION):
    """``state`` as a sealed session checkpoint of ``version``."""
    import hashlib
    import pickle

    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    return f"repro-session {version} {digest}\n".encode() + payload


def session_config(**overrides):
    fields = dict(
        tenant="t1", workload=WORKLOAD, system=SYSTEM, scale=SCALE,
        batch_requests=64,
    )
    fields.update(overrides)
    return SessionConfig(**fields)


def stream_all(session, trace):
    for request in trace:
        session.push(request)
        if session.step_due():
            session.flush()
    return session.finalize()


class TestProtocol:
    def test_round_trip(self):
        line = encode_message({"type": "open", "tenant": "a"})
        assert line.endswith(b"\n")
        assert decode_message(line, CLIENT_TYPES) == {
            "type": "open", "tenant": "a",
        }

    def test_rejects_unknown_type(self):
        line = encode_message({"type": "launch-missiles"})
        with pytest.raises(ProtocolError):
            decode_message(line, CLIENT_TYPES)

    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            decode_message(b"not json\n", CLIENT_TYPES)

    def test_rejects_missing_type(self):
        with pytest.raises(ProtocolError):
            decode_message(b"{}\n", CLIENT_TYPES)


class TestSessionConfig:
    def test_tenant_name_validation(self):
        with pytest.raises(SessionError):
            session_config(tenant="../escape")
        with pytest.raises(SessionError):
            session_config(tenant="")

    def test_positive_fields(self):
        with pytest.raises(SessionError):
            session_config(shards=0)
        with pytest.raises(SessionError):
            session_config(batch_requests=0)

    def test_open_message_defaults_from_settings(self):
        settings = ServeSettings(default_seed=7, batch_requests=32)
        config = session_config_of_open(
            {"tenant": "a", "workload": WORKLOAD, "system": SYSTEM},
            settings,
        )
        assert config.seed == 7
        assert config.batch_requests == 32
        # Explicit fields win over the server defaults.
        config = session_config_of_open(
            {
                "tenant": "a", "workload": WORKLOAD, "system": SYSTEM,
                "seed": 3, "batch_requests": 8, "ignored_extra": True,
            },
            settings,
        )
        assert config.seed == 3
        assert config.batch_requests == 8

    def test_open_message_missing_field(self):
        with pytest.raises(SessionError, match="bad open message"):
            session_config_of_open({"tenant": "a"}, ServeSettings())


class TestStreamedParity:
    def test_streamed_digest_equals_batch(self, context, batch_digest):
        trace = generate_trace(context.profile)
        record = stream_all(TenantSession(session_config()), trace)
        assert record.kind == "serve.session"
        assert record.digest == batch_digest

    def test_batch_size_cannot_perturb_digest(self, context, batch_digest):
        trace = generate_trace(context.profile)
        for batch in (1, 17, 4096):
            session = TenantSession(session_config(batch_requests=batch))
            record = stream_all(session, trace)
            assert record.digest == batch_digest, f"batch_requests={batch}"

    def test_out_of_space_lpn_rejected(self, context):
        from dataclasses import replace

        trace = generate_trace(context.profile)
        session = TenantSession(session_config())
        with pytest.raises(SessionError, match="outside"):
            session.push(
                replace(trace[0], lpn=context.profile.total_pages)
            )

    def test_metrics_record_is_pure_read(self, context, batch_digest):
        trace = generate_trace(context.profile)
        session = TenantSession(session_config())
        for request in trace[: len(trace) // 2]:
            session.push(request)
            if session.step_due():
                session.flush()
        session.flush()
        snapshot = session.metrics_record()
        assert snapshot.kind == "serve.metrics"
        assert snapshot.digest is None
        assert snapshot.meta["tenant"] == "t1"
        # Taking the snapshot must not change the final outcome.
        for request in trace[len(trace) // 2:]:
            session.push(request)
            if session.step_due():
                session.flush()
        assert session.finalize().digest == batch_digest

    def test_close_twice_rejected(self, context):
        session = TenantSession(session_config())
        session.finalize()
        with pytest.raises(SessionError):
            session.finalize()
        with pytest.raises(SessionError):
            session.push(generate_trace(context.profile)[0])


class TestCheckpointResume:
    def test_mid_stream_checkpoint_resumes_bit_exact(
        self, context, batch_digest
    ):
        trace = generate_trace(context.profile)
        cut = len(trace) // 2
        session = TenantSession(session_config())
        for request in trace[:cut]:
            session.push(request)
            if session.step_due():
                session.flush()
        # Deliberately checkpoint with requests still buffered.
        assert session.pending > 0 or cut % 64 == 0
        blob = session.checkpoint_blob()
        del session

        resumed = TenantSession.from_blob(blob)
        for request in trace[cut:]:
            resumed.push(request)
            if resumed.step_due():
                resumed.flush()
        assert resumed.finalize().digest == batch_digest

    def test_blob_from_before_the_sort_cache_resumes(
        self, context, batch_digest
    ):
        """Checkpoints written before LatencyStats had an incremental sort
        cache pickled it as ``_sorted`` (``None`` after a record, a full
        sorted copy after a query).  Such a blob restores, reports the
        same percentiles, and still finishes bit-exact."""
        import copyreg
        import io
        import pickle

        from repro.sim.metrics import LatencyStats

        class LegacyPickler(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is not LatencyStats:
                    return NotImplemented
                state = {"_samples": obj.samples, "_sorted": None}
                return copyreg.__newobj__, (LatencyStats,), state

        def legacy_dumps(obj):
            out = io.BytesIO()
            LegacyPickler(out, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
            return out.getvalue()

        trace = generate_trace(context.profile)
        cut = len(trace) // 2
        session = TenantSession(session_config())
        for request in trace[:cut]:
            session.push(request)
            if session.step_due():
                session.flush()
        expected = session.metrics_record()
        state = pickle.loads(session.checkpoint_blob().partition(b"\n")[2])
        state["blobs"] = [
            legacy_dumps(pickle.loads(blob)) for blob in state["blobs"]
        ]
        legacy_blob = sealed(state)
        assert b"_sorted" in legacy_blob

        resumed = TenantSession.from_blob(legacy_blob)
        restored = resumed.metrics_record()
        for view in ("reads", "writes", "requests"):
            assert getattr(restored, view) == getattr(expected, view)
        for request in trace[cut:]:
            resumed.push(request)
            if resumed.step_due():
                resumed.flush()
        assert resumed.finalize().digest == batch_digest

    def test_blob_version_gate(self):
        import pickle

        with pytest.raises(SessionError, match="version 999 != supported 3"):
            TenantSession.from_blob(sealed({}, version=999))
        with pytest.raises(SessionError, match="corrupt"):
            TenantSession.from_blob(b"garbage")
        # A version 2 writer pickled the state with no seal.
        with pytest.raises(SessionError, match="no seal"):
            TenantSession.from_blob(pickle.dumps({"version": 2}))

    def test_live_state_v1_blob_refused(self, tiny_config):
        """Version 1 live state predates the MQ head cache, version 2 the
        per-PPN OOB columns, version 3 the dedup/DFTL slots, version 4
        the simulator's ``background`` slot and version 5 the shared
        ``garbage_pop`` table: restoring any would resume an MQ pool
        without its head cache, an FTL with a tuple-dict journal, an FTL
        without ``_live_index`` and ``translation``, a device whose replay
        loop finds no ``background``, or an FTL without ``garbage_pop``.
        The reader refuses each with the named error."""
        import pickle

        from repro.core.dvp import MQDeadValuePool
        from repro.core.hashing import fingerprint_of_value
        from repro.ftl.ftl import BaseFTL
        from repro.perf.snapshot import (
            LIVE_STATE_VERSION,
            capture_live_state,
            restore_live_state,
        )
        from repro.sim.ssd import SimulatedSSD

        ftl = BaseFTL(tiny_config, pool=MQDeadValuePool(16))
        for lpn in range(8):
            ftl.write(lpn, fingerprint_of_value(lpn % 3))
        state = pickle.loads(capture_live_state(ftl, SimulatedSSD(ftl)))
        assert state["version"] == LIVE_STATE_VERSION == 6
        restore_live_state(pickle.dumps(state))
        # What a version 5 writer pickled: no shared ``garbage_pop``; and
        # a version 4 one (its device had no ``background`` slot, which
        # is now a class attribute and so is not pickled at all).
        del state["ftl"].garbage_pop, state["ftl"].pool.garbage_pop
        state["version"] = 5
        with pytest.raises(
            ValueError, match="live-state blob version 5 != supported 6"
        ):
            restore_live_state(pickle.dumps(state))
        assert "background" not in vars(state["ssd"])
        state["version"] = 4
        with pytest.raises(
            ValueError, match="live-state blob version 4 != supported 6"
        ):
            restore_live_state(pickle.dumps(state))
        # A version 3 one: no FTL slots either; and a version 2 one: the
        # journal as a dict of ``(lpn, seq)`` tuples, no columns.
        old = state["ftl"]
        del old._live_index, old.translation
        state["version"] = 3
        with pytest.raises(
            ValueError, match="live-state blob version 3 != supported 6"
        ):
            restore_live_state(pickle.dumps(state))
        old._oob = dict(old.oob_records())
        del old._oob_lpns, old._oob_seqs
        for version in (2, 1):
            state["version"] = version
            with pytest.raises(
                ValueError,
                match=f"live-state blob version {version} != supported 6",
            ):
                restore_live_state(pickle.dumps(state))

    def test_checkpoint_of_closed_session_rejected(self):
        session = TenantSession(session_config())
        session.finalize()
        with pytest.raises(SessionError):
            session.checkpoint_blob()


class TestCheckpointFiles:
    def test_save_load_drop(self, tmp_path):
        directory = str(tmp_path / "ckpt")
        assert load_checkpoint(directory, "t1") is None
        save_checkpoint(directory, "t1", b"state-1")
        save_checkpoint(directory, "t2", b"state-2")
        assert load_checkpoint(directory, "t1") == b"state-1"
        assert list_checkpoints(directory) == ["t1", "t2"]
        assert drop_checkpoint(directory, "t1") is True
        assert drop_checkpoint(directory, "t1") is False
        assert list_checkpoints(directory) == ["t2"]

    def test_save_is_atomic_overwrite(self, tmp_path):
        directory = str(tmp_path)
        save_checkpoint(directory, "t", b"old")
        save_checkpoint(directory, "t", b"new")
        assert load_checkpoint(directory, "t") == b"new"


class TestSessionManager:
    def settings(self, tmp_path, **overrides):
        fields = dict(checkpoint_dir=str(tmp_path / "ckpt"), max_sessions=2)
        fields.update(overrides)
        return ServeSettings(**fields)

    def test_open_detach_resume_close(self, tmp_path, context, batch_digest):
        manager = SessionManager(self.settings(tmp_path))
        trace = generate_trace(context.profile)
        cut = len(trace) // 3

        session, resumed = manager.open(session_config())
        assert resumed is False
        for request in trace[:cut]:
            session.push(request)
            if session.step_due():
                session.flush()
        manager.detach("t1")

        # Reattach picks up the live session (no rebuild).
        session2, resumed = manager.open(session_config())
        assert resumed is True
        assert session2 is session
        for request in trace[cut:]:
            session2.push(request)
            if session2.step_due():
                session2.flush()
        record = manager.close("t1")
        assert record.digest == batch_digest
        # Closing drops the checkpoint file.
        assert list_checkpoints(self.settings(tmp_path).checkpoint_dir) == []

    def test_resume_from_checkpoint_after_eviction(
        self, tmp_path, context, batch_digest
    ):
        settings = self.settings(tmp_path)
        manager = SessionManager(settings)
        trace = generate_trace(context.profile)
        cut = len(trace) // 2

        session, _ = manager.open(session_config())
        for request in trace[:cut]:
            session.push(request)
            if session.step_due():
                session.flush()
        manager.detach("t1")
        manager.checkpoint("t1")
        # Simulate a process death: a fresh manager sees only the files.
        manager2 = SessionManager(settings)
        session2, resumed = manager2.open(session_config())
        assert resumed is True
        assert session2.served == session.served
        for request in trace[cut:]:
            session2.push(request)
            if session2.step_due():
                session2.flush()
        assert manager2.close("t1").digest == batch_digest

    def test_double_attach_refused(self, tmp_path):
        manager = SessionManager(self.settings(tmp_path))
        manager.open(session_config())
        with pytest.raises(SessionError, match="attached"):
            manager.open(session_config())

    def test_config_mismatch_on_resume_refused(self, tmp_path):
        manager = SessionManager(self.settings(tmp_path))
        manager.open(session_config())
        manager.detach("t1")
        with pytest.raises(SessionError, match="config"):
            manager.open(session_config(batch_requests=32))

    def test_session_cap(self, tmp_path):
        manager = SessionManager(self.settings(tmp_path, max_sessions=1))
        manager.open(session_config())
        with pytest.raises(SessionError, match="session limit"):
            manager.open(session_config(tenant="t2"))

    def test_drain_checkpoints_every_open_session(self, tmp_path):
        settings = self.settings(tmp_path)
        manager = SessionManager(settings)
        manager.open(session_config())
        manager.open(session_config(tenant="t2"))
        manager.drain()
        assert list_checkpoints(settings.checkpoint_dir) == ["t1", "t2"]
