"""Tenant sessions: one streamed device (or shard set) per tenant.

A :class:`TenantSession` is the serve-side twin of the batch entry
points, built so a streamed trace finishes **bit-identical** to the same
trace run in batch:

* ``shards == 1`` mirrors :func:`~repro.experiments.runner.run_system`
  construction exactly — same profile scaling, same
  :func:`~repro.experiments.runner.config_for_profile` drive, same
  scaled pool entries, preconditioned through the same prefill cache,
  finalized under the same workload label — so the session's final
  :func:`~repro.perf.spec.result_digest` equals the batch digest.
* ``shards > 1`` builds each shard through the fleet layer's own
  :func:`~repro.fleet.fleet.build_shard_device` and routes requests over
  the same :class:`~repro.fleet.ring.HashRing` assignment, so per-shard
  digests equal :func:`~repro.fleet.fleet.execute_shard`'s and the
  session digest equals the batch fleet digest.

Streamed requests buffer per shard and step in ``batch_requests``
batches; batch boundaries cannot perturb results because
:meth:`~repro.sim.ssd.SimulatedSSD.service` keeps one global request
index across calls (the chunked-stepping invariant the fleet layer
already relies on).

Checkpointing pickles the complete mid-run device graph
(:func:`~repro.perf.snapshot.capture_live_state`) plus the unstepped
buffers, so a session restored by :meth:`TenantSession.from_blob`
continues exactly where the captured one stopped — the kill/resume
tests prove digest identity with an uninterrupted stream.  A seal (the
version and the pickle's SHA-256) turns any damage into a SessionError.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from ..api import ResultRecord, aggregate_record, record_from_run, session_digest
from ..experiments.config import DEFAULT_SCALE, RunConfig
from ..experiments.device import Device
from ..experiments.runner import config_for_profile, scaled_pool_entries
from ..fleet.fleet import FleetSpec, build_shard_device, shard_local_pages
from ..perf.snapshot import capture_live_state, restore_live_state
from ..sim.request import IORequest, Row
from ..traces.profiles import profile_by_name
from .config import DEFAULT_BATCH_REQUESTS, ServeSettings

__all__ = [
    "SESSION_STATE_VERSION",
    "SessionError",
    "SessionConfig",
    "session_config_of_open",
    "TenantSession",
]

#: Version tag in session checkpoint blobs; readers refuse blobs from an
#: incompatible writer instead of grafting mismatched state.
#: v2: buffered requests are replay rows, not records.  v3: the pickled
#: state follows a ``repro-session <version> <sha256>`` header line.
SESSION_STATE_VERSION = 3
_SEAL = "repro-session"

#: Tenant names become checkpoint file names, so they are restricted to
#: a filesystem-safe alphabet.
_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class SessionError(ValueError):
    """A session-level request the server must refuse (bad open config,
    unknown lpn, tenant conflicts, ...) — reported to the client as an
    ``error`` reply, never a dropped connection."""


@dataclass(frozen=True)
class SessionConfig:
    """Everything that identifies one tenant's streamed run.

    The field set deliberately matches the batch surfaces: a
    ``shards == 1`` config maps onto :class:`RunConfig` + workload the
    way ``run_system`` is called; ``shards > 1`` maps onto a
    :class:`~repro.fleet.fleet.FleetSpec`.  Frozen and picklable — the
    config rides inside every checkpoint blob, and resuming requires
    the client to reopen with an *equal* config.
    """

    tenant: str
    workload: str
    system: str
    shards: int = 1
    scale: float = DEFAULT_SCALE
    seed: Optional[int] = None
    paper_pool_entries: int = 200_000
    queue_depth: Optional[int] = None
    check_interval: Optional[int] = None
    oracle: bool = False
    batch_requests: int = DEFAULT_BATCH_REQUESTS

    def __post_init__(self) -> None:
        if not _TENANT_RE.match(self.tenant):
            raise SessionError(
                "tenant must be 1-64 chars of [A-Za-z0-9._-], got "
                f"{self.tenant!r}"
            )
        if self.shards <= 0:
            raise SessionError("shards must be positive")
        if self.scale <= 0:
            raise SessionError("scale must be positive")
        if self.batch_requests <= 0:
            raise SessionError("batch_requests must be positive")

    def run_config(self) -> RunConfig:
        """The single-drive :class:`RunConfig` this session attaches —
        field-for-field what batch ``run_system`` would receive."""
        return RunConfig(
            paper_pool_entries=self.paper_pool_entries,
            scale=self.scale,
            queue_depth=self.queue_depth,
            check_interval=self.check_interval,
            oracle=self.oracle,
        )

    def fleet_spec(self) -> FleetSpec:
        """The :class:`FleetSpec` naming this session's shard set."""
        return FleetSpec(
            workload=self.workload,
            system=self.system,
            shards=self.shards,
            paper_pool_entries=self.paper_pool_entries,
            scale=self.scale,
            seed=self.seed,
            queue_depth=self.queue_depth,
            check_interval=self.check_interval,
            oracle=self.oracle,
        )


def session_config_of_open(
    message: Mapping[str, Any], settings: ServeSettings
) -> SessionConfig:
    """A :class:`SessionConfig` from an ``open`` message.

    Omitted fields fall back to the server's session defaults
    (``settings.default_seed`` / ``check_interval`` / ``oracle`` /
    ``batch_requests``); unknown extra keys are ignored so clients can
    annotate opens without a version bump.
    """
    try:
        return SessionConfig(
            tenant=str(message["tenant"]),
            workload=str(message["workload"]),
            system=str(message["system"]),
            shards=int(message.get("shards", 1)),
            scale=float(message.get("scale", DEFAULT_SCALE)),
            seed=(
                int(message["seed"])
                if message.get("seed") is not None
                else settings.default_seed
            ),
            paper_pool_entries=int(
                message.get("paper_pool_entries", 200_000)
            ),
            queue_depth=(
                int(message["queue_depth"])
                if message.get("queue_depth") is not None
                else None
            ),
            check_interval=(
                int(message["check_interval"])
                if message.get("check_interval") is not None
                else settings.check_interval
            ),
            oracle=bool(message.get("oracle", settings.oracle)),
            batch_requests=int(
                message.get("batch_requests", settings.batch_requests)
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SessionError):
            raise
        raise SessionError(f"bad open message: {exc}") from None


class TenantSession:
    """One tenant's long-lived streamed run (single drive or shard set)."""

    def __init__(
        self,
        config: SessionConfig,
        _state: Optional[Dict[str, Any]] = None,
    ):
        self.config = config
        self.profile = profile_by_name(config.workload).scaled(
            config.scale, config.seed
        )
        self.served = 0
        #: ``served`` at the last periodic checkpoint (server cadence).
        self.checkpointed_at = 0
        self.finished = False
        if config.shards == 1:
            self._owners = None
            self._local_of: List[Dict[int, int]] = [{}]
            self._labels = [self.profile.name]
        else:
            fleet = config.fleet_spec()
            self._owners = fleet.ring().assignments(self.profile.total_pages)
            self._labels = [
                fleet.shard(i).label(self.profile.name)
                for i in range(config.shards)
            ]
        self._buffers: List[List[Row]] = [
            [] for _ in range(config.shards)
        ]
        if _state is None:
            self._build_devices()
        else:
            self._restore_devices(_state)

    # -- construction --------------------------------------------------

    def _build_devices(self) -> None:
        config = self.config
        if config.shards == 1:
            # Mirror run_system: same drive geometry, same scaled pool,
            # same prefill-cache preconditioning, same attach config.
            entries = scaled_pool_entries(
                config.paper_pool_entries, config.scale
            )
            device = Device(
                config.system, config_for_profile(self.profile), entries
            )
            device.precondition(self.profile)
            device.attach(config.run_config())
            self._devices = [device]
            return
        fleet = config.fleet_spec()
        self._devices = []
        self._local_of = []
        for index in range(config.shards):
            device, local_of = build_shard_device(
                fleet, index, self._owners, self.profile.fill_fraction
            )
            self._devices.append(device)
            self._local_of.append(local_of)

    def _restore_devices(self, state: Dict[str, Any]) -> None:
        config = self.config
        entries = (
            scaled_pool_entries(config.paper_pool_entries, config.scale)
            if config.shards == 1
            else config.fleet_spec().shard_pool_entries()
        )
        self._devices = []
        for blob in state["blobs"]:
            ftl, ssd = restore_live_state(blob)
            device = Device(config.system, ftl.config, entries)
            device.ftl = ftl
            device.ssd = ssd
            self._devices.append(device)
        if config.shards > 1:
            # Routing tables are pure functions of the config; recompute
            # instead of checkpointing them.
            self._local_of = [
                shard_local_pages(self._owners, index)[1]
                for index in range(config.shards)
            ]
        self._buffers = [list(buffered) for buffered in state["buffers"]]
        self.served = state["served"]
        self.checkpointed_at = self.served

    # -- streaming -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests buffered but not yet stepped."""
        return sum(len(buffered) for buffered in self._buffers)

    def push_row(self, row: Row) -> None:
        """Buffer one streamed replay row, routed to its owning shard."""
        if self.finished:
            raise SessionError("session already closed")
        lpn = row[2]
        if not 0 <= lpn < self.profile.total_pages:
            raise SessionError(
                f"lpn {lpn} outside the workload's "
                f"{self.profile.total_pages}-page space"
            )
        if self._owners is None:
            self._buffers[0].append(row)
            return
        shard = self._owners[lpn]
        self._buffers[shard].append(
            (row[0], row[1], self._local_of[shard][lpn], row[3])
        )

    def push(self, request: IORequest) -> None:
        """:meth:`push_row` for one request record."""
        self.push_row(
            (request.arrival_us, request.op, request.lpn, request.value_id)
        )

    def step_due(self) -> bool:
        """Whether any shard's buffer reached the batching threshold."""
        return max(map(len, self._buffers)) >= self.config.batch_requests

    def flush(self) -> int:
        """Step every buffered request; returns how many were serviced."""
        stepped = 0
        for index, buffered in enumerate(self._buffers):
            if not buffered:
                continue
            stepped += self._devices[index].step(buffered)
            self._buffers[index] = []
        self.served += stepped
        return stepped

    # -- records -------------------------------------------------------

    def _meta(self) -> Dict[str, Any]:
        return {
            "tenant": self.config.tenant,
            "shards": self.config.shards,
            "served": self.served,
            "pending": self.pending,
        }

    def metrics_record(self) -> ResultRecord:
        """Incremental mid-stream snapshot under the unified schema.

        A pure read of the accumulated state — no digest (the run is not
        final) and no stepping (the server flushes first).
        """
        results = [
            device.ssd.result(system=self.config.system, workload=label)
            for device, label in zip(self._devices, self._labels)
        ]
        if self.config.shards == 1:
            return record_from_run(
                results[0],
                kind="serve.metrics",
                with_digest=False,
                meta=self._meta(),
            )
        return aggregate_record(
            results,
            kind="serve.metrics",
            system=self.config.system,
            workload=self.profile.name,
            meta=self._meta(),
        )

    def finalize(self) -> ResultRecord:
        """Drain the buffers, finalize every device and mint the final
        ``serve.session`` record.

        The record's ``digest`` is the session's identity — equal to the
        batch ``run_system`` digest for a single drive and to the batch
        fleet digest for a shard set (the serve parity tests enforce
        both).
        """
        from ..perf.spec import result_digest  # lazy: heavy import chain

        if self.finished:
            raise SessionError("session already closed")
        self.flush()
        self.finished = True
        results = [
            device.finalize(workload=label)
            for device, label in zip(self._devices, self._labels)
        ]
        if self.config.shards == 1:
            return record_from_run(
                results[0], kind="serve.session", meta=self._meta()
            )
        digests = [result_digest(result) for result in results]
        meta = self._meta()
        meta["shard_digests"] = digests
        return aggregate_record(
            results,
            kind="serve.session",
            system=self.config.system,
            workload=self.profile.name,
            digest=session_digest(digests),
            meta=meta,
        )

    # -- checkpointing -------------------------------------------------

    def checkpoint_blob(self) -> bytes:
        """The complete resumable state of this session as one blob."""
        if self.finished:
            raise SessionError("cannot checkpoint a closed session")
        payload = pickle.dumps(
            {
                "config": self.config,
                "served": self.served,
                "buffers": [list(buffered) for buffered in self._buffers],
                "blobs": [
                    capture_live_state(device.ftl, device.ssd)
                    for device in self._devices
                ],
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self.checkpointed_at = self.served
        digest = hashlib.sha256(payload).hexdigest()
        return f"{_SEAL} {SESSION_STATE_VERSION} {digest}\n".encode() + payload

    @classmethod
    def from_blob(cls, blob: bytes) -> "TenantSession":
        """Rehydrate a checkpointed session, bit-exact.  Every way a blob
        can fail — no seal, another version, a payload that does not
        match its digest, state that does not restore — is a
        :class:`SessionError`."""
        header, _, payload = blob.partition(b"\n")
        fields = header.decode("ascii", "replace").split(" ")
        if len(fields) != 3 or fields[0] != _SEAL:
            raise SessionError("corrupt session checkpoint: no seal")
        if fields[1] != str(SESSION_STATE_VERSION):
            raise SessionError(
                f"session checkpoint version {fields[1]} != supported "
                f"{SESSION_STATE_VERSION}"
            )
        if hashlib.sha256(payload).hexdigest() != fields[2]:
            raise SessionError("corrupt session checkpoint: digest mismatch")
        try:
            state = pickle.loads(payload)
            return cls(state["config"], _state=state)
        except Exception as exc:
            raise SessionError(f"corrupt session checkpoint: {exc!r}") from None
