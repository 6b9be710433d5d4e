"""Experiment runner: trace → prefilled drive → simulated system → results.

The paper's evaluation replays day-long traces against a 1TB drive with
dead-value pools of 100K–1M entries.  A pure-Python run scales everything
down together (DESIGN.md §4): the trace (`scale` × requests and footprint),
the drive (sized to the workload's footprint) and the pool
(:func:`scaled_pool_entries` keeps the paper's 100K/200K/300K labels but
shrinks the entry counts proportionally, so the Figure 5/9 sweep shape —
growth then saturation around the 200K point — is preserved).

Every run starts from a *preconditioned* drive: each exported logical page
is written once with its unique initial value (matching the trace
generator's content model), then counters, pool statistics and latency
state are reset.  This is what lets cold reads hit real flash pages and
puts GC in steady state from the first trace request.

:func:`run_system` is a thin driver over the composable
:class:`~repro.experiments.device.Device` lifecycle
(build → precondition → attach → step → finalize); the fleet layer
(:mod:`repro.fleet`) drives the same lifecycle per shard, so single-drive
and sharded semantics cannot drift apart.

All entry points take a :class:`RunConfig`.  The pre-RunConfig flat
kwargs (``run_system(system, context, paper_pool_entries=..., scale=...)``
and friends) were deprecated in PR 3 and have been removed; passing
anything but a :class:`RunConfig` (or ``None``) raises :class:`TypeError`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Optional,
    Sequence,
)

from ..core.dvp import PoolStats
from ..core.hashing import Fingerprint, fingerprints_of_values
from ..flash.config import SSDConfig, scaled_config
from ..ftl.dftl import TranslationStats
from ..ftl.ftl import BaseFTL, FTLCounters
from ..sim.metrics import RunResult
from ..sim.request import Trace
from ..traces.profiles import WorkloadProfile, profile_by_name
from ..traces.synthetic import generate_trace, initial_value_of
from .config import DEFAULT_SCALE, RunConfig
from .device import Device

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.sampler import TimeSeriesSampler

__all__ = [
    "DEFAULT_SCALE",
    "POOL_ENTRY_SCALE",
    "RunConfig",
    "scaled_pool_entries",
    "prefill",
    "preload_pages",
    "reset_measurements",
    "config_for_profile",
    "run_system",
    "run_matrix",
    "ExperimentContext",
]

#: Paper pool entries → scaled entries: at scale s, a "200K-entry" pool
#: becomes 200_000 * s * POOL_ENTRY_SCALE entries.  The factor was chosen
#: so the scaled sweep saturates around the 200K label the way Figure 9
#: does on the full traces.
POOL_ENTRY_SCALE = 1.0 / 12.0


def scaled_pool_entries(paper_entries: int, scale: float) -> int:
    """Scaled pool capacity for a paper-labelled pool size."""
    if paper_entries <= 0:
        raise ValueError("paper_entries must be positive")
    return max(64, int(paper_entries * scale * POOL_ENTRY_SCALE))


def config_for_profile(profile: WorkloadProfile) -> SSDConfig:
    """A drive sized so the workload's footprint occupies only its
    ``fill_fraction`` of the exported capacity (drive slack matters: the
    paper replays day-traces against a 1TB drive)."""
    return scaled_config(int(profile.total_pages / profile.fill_fraction))


def prefill(ftl: BaseFTL, profile: WorkloadProfile) -> int:
    """Precondition the drive: write every page's initial unique value.

    Returns the number of pages written.  Measurements are reset
    afterwards (:func:`reset_measurements`) so they cover only the trace
    window.
    """
    values = range(initial_value_of(0), initial_value_of(profile.total_pages))
    return preload_pages(ftl, fingerprints_of_values(values))


def preload_pages(ftl: BaseFTL, fingerprints: Iterable[Fingerprint]) -> int:
    """Write local page ``i`` with the ``i``-th fingerprint, then reset
    the measurements; returns the number of pages written.

    The one preconditioning path (:meth:`BaseFTL.preload`), shared by
    :func:`prefill` and :meth:`Device.precondition_pages`.
    """
    pages = ftl.preload(fingerprints)
    reset_measurements(ftl)
    return pages


def reset_measurements(ftl: BaseFTL) -> None:
    """Zero the FTL counters, pool statistics and CMT statistics, so
    measurements cover only what follows (every preconditioning path's
    epilogue: prefill, a restored snapshot, the KV load phase)."""
    ftl.counters = FTLCounters()
    if ftl.pool is not None:
        ftl.pool.stats = PoolStats()
    if ftl.translation is not None:
        ftl.translation.stats = TranslationStats()


@dataclass
class ExperimentContext:
    """Shared setup for a family of runs over one workload."""

    profile: WorkloadProfile
    trace: Trace
    config: SSDConfig

    @classmethod
    def for_workload(
        cls,
        workload: str,
        scale: float = DEFAULT_SCALE,
        seed: Optional[int] = None,
        use_cache: bool = True,
    ) -> "ExperimentContext":
        """Build the shared context for one workload.

        ``seed`` overrides the profile's generator seed (replication runs
        vary it).  With ``use_cache`` the trace comes from the process
        trace cache — generated at most once per distinct profile — and
        is shared across every context built for the profile, so it is an
        immutable :class:`~repro.sim.request.Trace` (handing out something
        list-like once let an in-place ``sort()`` in one analysis poison
        every later run).  Pass ``use_cache=False`` for a private trace
        of its own.
        """
        profile = profile_by_name(workload).scaled(scale)
        if seed is not None:
            profile = replace(profile, seed=seed)
        trace: Trace
        if use_cache:
            from ..perf.trace_cache import cached_trace

            trace = cached_trace(profile)
        else:
            trace = generate_trace(profile)
        return cls(
            profile=profile,
            trace=trace,
            config=config_for_profile(profile),
        )


def _coerce_config(func: str, config: Optional[RunConfig]) -> RunConfig:
    """Validate the ``config`` argument (the legacy flat kwargs are gone)."""
    if config is None:
        return RunConfig()
    if not isinstance(config, RunConfig):
        raise TypeError(
            f"{func} takes config=RunConfig(...); the pre-RunConfig "
            f"positional/keyword arguments were removed (see README, "
            f"'Migrating to RunConfig')"
        )
    return config


def run_system(
    system: str,
    context: ExperimentContext,
    config: Optional[RunConfig] = None,
) -> RunResult:
    """Run one studied system over one prepared workload context.

    ``config`` (a :class:`RunConfig`) carries every run parameter beyond
    the (system, workload) identity; ``run_system(system, context)``
    alone runs with the defaults.

    ``config.observer`` (a :class:`~repro.obs.TimeSeriesSampler`) is
    attached after preconditioning so samples cover only the measured
    trace window; a final sample is forced at the run horizon so short
    traces always produce at least one record.  ``config.faults``
    attaches a fresh seeded :class:`~repro.faults.FaultModel` — also
    post-precondition, so the prefill snapshot cache stays fault-free.

    With ``config.reuse_prefill`` (the default) preconditioning goes
    through the process prefill cache: the first run on a drive config
    and profile prefills (:meth:`~repro.ftl.ftl.BaseFTL.preload`, a
    closed-form column fill on a fresh drive), every later run of any
    system restores the snapshot by copy.
    The restored state is bit-identical to a direct prefill (the
    determinism tests enforce this).
    """
    cfg = _coerce_config("run_system", config)
    entries = scaled_pool_entries(cfg.paper_pool_entries, cfg.scale)
    device = Device(system, context.config, entries)
    device.precondition(context.profile, reuse_prefill=cfg.reuse_prefill)
    device.attach(cfg)
    rows = context.trace.rows()
    if cfg.trim_every:
        from ..traces.transforms import with_trims

        rows = with_trims(rows, cfg.trim_every)
    device.step(rows)
    return device.finalize(workload=context.profile.name)


def run_matrix(
    workloads: Sequence[str],
    systems: Sequence[str],
    config: Optional[RunConfig] = None,
    *,
    observer_factory: Optional[
        Callable[[str, str], "TimeSeriesSampler"]
    ] = None,
) -> Dict[str, Dict[str, RunResult]]:
    """Run every (workload, system) pair; results[workload][system].

    ``config`` (a :class:`RunConfig`) carries the per-run parameters;
    its ``jobs`` field fans cells out over worker processes (``0`` = all
    cores); results are collected in deterministic (workload, system)
    order and are digest-identical to the serial path.

    ``observer_factory(workload, system)`` builds a fresh per-cell
    :class:`~repro.obs.TimeSeriesSampler`; samplers hold callbacks that
    cannot cross a process boundary, so observers require ``jobs=1``.
    ``config.faults`` applies the *same* fault config to every cell —
    each cell gets its own freshly seeded model, which is what keeps
    fault matrices bit-identical across ``jobs`` settings.
    """
    cfg = _coerce_config("run_matrix", config)
    if observer_factory is not None and cfg.jobs != 1:
        raise ValueError(
            "observer_factory requires jobs=1: samplers are attached to "
            "the live device and cannot be shipped to worker processes"
        )
    from ..perf.parallel import run_specs
    from ..perf.snapshot import default_prefill_cache
    from ..perf.spec import RunSpec

    specs = [
        RunSpec.from_config(workload, system, cfg)
        for workload in workloads
        for system in systems
    ]
    if cfg.jobs != 1:
        if not cfg.picklable:
            raise ValueError(
                "a RunConfig carrying an observer cannot "
                "fan out to worker processes; use jobs=1"
            )
        flat = iter(run_specs(specs, jobs=cfg.jobs))
        return {
            workload: {system: next(flat) for system in systems}
            for workload in workloads
        }
    results: Dict[str, Dict[str, RunResult]] = {}
    with default_prefill_cache().planned(spec.prefill_key() for spec in specs):
        for workload in workloads:
            context = ExperimentContext.for_workload(workload, cfg.scale)
            results[workload] = {}
            for system in systems:
                cell_cfg = cfg
                if observer_factory is not None:
                    cell_cfg = cfg.replace(
                        observer=observer_factory(workload, system)
                    )
                results[workload][system] = run_system(
                    system, context, config=cell_cfg
                )
    return results
