"""Fleet orchestration: shard specs, per-shard execution, parallel fan-out.

A :class:`FleetSpec` names a whole fleet run by value — workload, system,
shard count, pool label and mode, scale — and a :class:`ShardSpec` is one
shard of it.  Both are frozen and cheap to pickle; a shard spec is a
:func:`~repro.perf.parallel.run_specs` job, so the fleet fans out to
worker processes as a flat list of shard specs exactly the way the
evaluation matrix ships :class:`~repro.perf.spec.RunSpec` cells, and
:func:`run_fleet` is that fan-out plus :func:`~.aggregate.aggregate_fleet`.

:func:`execute_shard` is a pure function of its spec:

1. materialise the workload context (trace cache — in the parallel path
   :meth:`ShardSpec.prewarm` fills it before the pool forks, so workers
   inherit the trace copy-on-write and never regenerate it);
2. route the logical space through the :class:`~.ring.HashRing` and take
   the pages this shard owns, remapped to a dense local address space in
   global-LBA order;
3. build a drive sized to the shard's footprint (same fill-fraction
   slack rule as the single-drive path) and precondition local page
   ``i`` with the initial value of the *global* LBA it carries, so cold
   reads against the shard hit real flash pages with the right content;
4. replay the shard's slice of the trace in chunked batches through the
   composable :class:`~repro.experiments.device.Device` lifecycle
   (chunked stepping is observably identical to one whole-trace step).

Because every step above depends only on the spec, ``jobs=1`` and
``jobs=N`` produce bit-identical per-shard results; :func:`run_fleet`
collects shards in index order regardless of completion order.

Pool modes model two fleet designs for the dead-value pool budget:

``per-drive``
    The fleet's scaled entry budget is divided evenly across shards —
    each drive runs its own small private pool (min 64 entries, the
    same floor as the single-drive scaling rule).
``shared``
    Every shard gets the *full* fleet budget.  A real shared pool would
    interleave the shards' insertions in one structure; simulating that
    faithfully would serialise the shards, so this mode is the
    upper-bound model: no shard ever loses an entry to a sibling's
    traffic.  Comparing aggregate flash programs across the two modes
    bounds what a fleet-wide pool service could save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.hashing import fingerprint_of_value
from ..experiments.config import DEFAULT_SCALE, RunConfig
from ..experiments.device import Device
from ..experiments.runner import ExperimentContext, scaled_pool_entries
from ..flash.config import scaled_config
from ..perf.parallel import resolve_jobs, run_specs
from ..sim.metrics import RunResult
from ..traces.synthetic import initial_value_of
from .aggregate import FleetResult, PoolModeComparison, aggregate_fleet
from .ring import HashRing

__all__ = [
    "FleetSpec",
    "ShardSpec",
    "build_shard_device",
    "execute_shard",
    "run_fleet",
    "compare_pool_modes",
]

POOL_MODES = ("per-drive", "shared")

#: Requests per :meth:`Device.step` batch.  Chunking bounds the peak
#: size of the request list a shard holds besides the shared trace and
#: exercises the streamed-replay path; results are independent of the
#: chunk size (the service loop keeps one global request index).
DEFAULT_CHUNK_REQUESTS = 4096


@dataclass(frozen=True)
class FleetSpec:
    """One fleet run, by value: picklable and hashable."""

    workload: str
    system: str
    shards: int
    paper_pool_entries: int = 200_000
    scale: float = DEFAULT_SCALE
    seed: Optional[int] = None
    queue_depth: Optional[int] = None
    #: ``per-drive`` splits the fleet pool budget across shards;
    #: ``shared`` gives every shard the full budget (upper-bound model
    #: of a fleet-wide pool service).
    pool_mode: str = "per-drive"
    #: Virtual nodes per shard on the routing ring.
    replicas: int = 64
    chunk_requests: int = DEFAULT_CHUNK_REQUESTS
    #: Attach an :class:`~repro.check.InvariantChecker` to every shard
    #: (``check_interval`` requests apart; checking never mutates FTL
    #: state, so digests are identical with and without it).
    check_interval: Optional[int] = None
    oracle: bool = False

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.pool_mode not in POOL_MODES:
            raise ValueError(
                f"pool_mode must be one of {POOL_MODES}, got {self.pool_mode!r}"
            )
        if self.chunk_requests <= 0:
            raise ValueError("chunk_requests must be positive")
        if self.replicas <= 0:
            raise ValueError("replicas must be positive")

    def ring(self) -> HashRing:
        return HashRing(self.shards, replicas=self.replicas)

    def shard_pool_entries(self) -> int:
        """Scaled pool capacity *per shard* under this spec's pool mode."""
        fleet_budget = scaled_pool_entries(self.paper_pool_entries, self.scale)
        if self.pool_mode == "shared":
            return fleet_budget
        return max(64, fleet_budget // self.shards)

    def shard_run_config(self) -> RunConfig:
        """The per-shard :class:`RunConfig` this spec attaches.

        Public because the serve layer builds the same per-shard devices
        for streamed sessions; sharing the rule here keeps a streamed
        shard and a batch :func:`execute_shard` shard bit-identical.
        """
        return RunConfig(
            paper_pool_entries=self.paper_pool_entries,
            scale=self.scale,
            queue_depth=self.queue_depth,
            check_interval=self.check_interval,
            oracle=self.oracle,
        )

    def shard(self, index: int) -> "ShardSpec":
        if not 0 <= index < self.shards:
            raise ValueError(f"shard index {index} out of range")
        return ShardSpec(fleet=self, index=index)


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a fleet run — the unit of parallel work."""

    fleet: FleetSpec
    index: int

    def label(self, workload_name: str) -> str:
        return f"{workload_name}/shard{self.index}of{self.fleet.shards}"

    def execute(self) -> RunResult:
        # Looked up in this module at call time, so a wrapper patched in
        # before the pool forks runs in every worker too.
        return execute_shard(self)

    def prewarm(self) -> None:
        """Generate the fleet's trace in the parent before forking (the
        shards never use the prefill cache)."""
        fleet = self.fleet
        ExperimentContext.for_workload(
            fleet.workload, fleet.scale, seed=fleet.seed
        )


def build_shard_device(
    fleet: FleetSpec,
    index: int,
    owners: Sequence[int],
    fill_fraction: float,
) -> Tuple[Device, Dict[int, int]]:
    """Build, precondition and attach one shard's drive.

    Returns the ready device plus the global-LPN → local-page remap for
    the pages this shard owns.  Shared by the batch path
    (:func:`execute_shard`) and the serve layer's streamed sessions, so
    a streamed shard and a batch shard are built bit-identically.
    """
    assigned = [lpn for lpn, owner in enumerate(owners) if owner == index]
    local_of = {lpn: local for local, lpn in enumerate(assigned)}

    # Same slack rule as config_for_profile, on the shard's footprint.
    # max(1, ...) keeps a pathological empty shard (possible only with
    # absurdly few pages per shard) buildable; no requests route to it.
    local_pages = max(1, len(assigned))
    shard_config = scaled_config(
        max(1, math.ceil(local_pages / fill_fraction))
    )

    device = Device(fleet.system, shard_config, fleet.shard_pool_entries())
    device.build()
    device.precondition_pages(
        [fingerprint_of_value(initial_value_of(lpn)) for lpn in assigned]
    )
    device.attach(fleet.shard_run_config())
    return device, local_of


def execute_shard(spec: ShardSpec) -> RunResult:
    """Run one shard.  Pure function of the spec (see module docstring)."""
    fleet = spec.fleet
    context = ExperimentContext.for_workload(
        fleet.workload, fleet.scale, seed=fleet.seed
    )
    profile = context.profile
    owners = fleet.ring().assignments(profile.total_pages)
    device, local_of = build_shard_device(
        fleet, spec.index, owners, profile.fill_fraction
    )

    chunk: List = []
    for request in context.trace:
        if owners[request.lpn] != spec.index:
            continue
        chunk.append(replace(request, lpn=local_of[request.lpn]))
        if len(chunk) >= fleet.chunk_requests:
            device.step(chunk)
            chunk = []
    if chunk:
        device.step(chunk)

    return device.finalize(workload=spec.label(profile.name))


def run_fleet(spec: FleetSpec, jobs: Optional[int] = 1) -> FleetResult:
    """Run every shard of ``spec``; results collect in shard order.

    ``jobs=1`` (default) runs shards serially in-process; ``jobs=None``/
    ``0`` uses every core.  Jobs are capped at the shard count — a fleet
    of 4 long-lived shards can never keep more workers busy — and the
    effective worker count is recorded on the result.
    """
    jobs = resolve_jobs(jobs, tasks=spec.shards)
    shards = [spec.shard(index) for index in range(spec.shards)]
    return aggregate_fleet(spec, run_specs(shards, jobs=jobs), jobs=jobs)


def compare_pool_modes(
    spec: FleetSpec, jobs: Optional[int] = 1
) -> PoolModeComparison:
    """Run ``spec`` under both pool modes and compare flash programs.

    Returns the two :class:`FleetResult`\\ s plus the aggregate flash
    programs each mode produced; the shared mode is the upper-bound
    model of a fleet-wide pool, so ``programs_saved`` bounds what such
    a service could save over private per-drive pools.
    """
    per_drive = run_fleet(replace(spec, pool_mode="per-drive"), jobs=jobs)
    shared = run_fleet(replace(spec, pool_mode="shared"), jobs=jobs)
    return PoolModeComparison(per_drive=per_drive, shared=shared)
