"""Composable simulated-drive lifecycle: build → precondition → step → finalize.

:func:`~repro.experiments.runner.run_system` used to be one monolithic
function: it built the FTL, preconditioned it, attached the optional
fault/observability/checker layers, constructed the
:class:`~repro.sim.ssd.SimulatedSSD` and replayed the whole trace in one
call.  That shape worked for a single drive but left nothing for other
orchestrators to reuse — the fleet layer (:mod:`repro.fleet`) needs the
same lifecycle per shard, with a different content model for
preconditioning and a chunked (streamed) replay instead of a single
``run``.

:class:`Device` is that lifecycle as an object.  The stages are explicit
and must be called in order:

``build()``
    Construct the named system (:func:`~repro.ftl.dvp_ftl.build_system`)
    on the device geometry — a bare, unpreconditioned FTL.
``precondition(profile)`` / ``precondition_pages(fingerprints)``
    Bring the drive to steady state.  The profile form is the classic
    whole-workload prefill (cache-aware: with ``reuse_prefill`` the FTL
    may be *replaced* by a snapshot-restored sibling, which is
    bit-identical to a direct prefill — the determinism tests enforce
    it).  The pages form writes an explicit fingerprint per local page —
    the fleet's shard content model, where local page ``i`` carries the
    initial value of the *global* LBA the shard owns.
``attach(config)``
    Wire the optional layers exactly the way ``run_system`` always did:
    faults, then observability, then the invariant checker — all
    post-precondition, so prefill snapshots stay fault- and checker-free
    — and construct the timing device with the config's queue depth and
    observer.
``step(rows)``
    Service one batch of request rows
    (:meth:`~repro.sim.request.Trace.rows`).  Batches compose: chunked
    stepping is observably identical to a single whole-trace step
    (:meth:`~repro.sim.ssd.SimulatedSSD.service` keeps the global
    request index, so crash injection still fires at the right request).
``finalize(workload)``
    Package the :class:`~repro.sim.metrics.RunResult` and force the
    final observer sample at the run horizon.

The single-drive path (``run_system``) and the fleet path are both thin
drivers over this class, so their per-drive semantics cannot drift apart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..flash.config import SSDConfig
from ..ftl.dvp_ftl import build_system
from ..ftl.ftl import BaseFTL
from ..sim.metrics import RunResult
from ..sim.request import Row
from ..sim.ssd import SimulatedSSD
from .config import RunConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.hashing import Fingerprint
    from ..traces.profiles import WorkloadProfile

__all__ = ["Device"]


class Device:
    """One simulated drive with an explicit, composable lifecycle."""

    def __init__(self, system: str, ssd_config: SSDConfig, pool_entries: int):
        self.system = system
        self.ssd_config = ssd_config
        #: Scaled (not paper-label) pool capacity for this drive.
        self.pool_entries = pool_entries
        self.ftl: Optional[BaseFTL] = None
        self.ssd: Optional[SimulatedSSD] = None

    # -- stage 1: build ------------------------------------------------

    def build(self) -> "Device":
        """Construct the bare FTL for this device; returns ``self``."""
        self.ftl = build_system(self.system, self.ssd_config, self.pool_entries)
        return self

    # -- stage 2: precondition -----------------------------------------

    def precondition(
        self, profile: "WorkloadProfile", reuse_prefill: bool = True
    ) -> "Device":
        """Precondition for ``profile`` (the whole-workload content model).

        With ``reuse_prefill`` the drive goes through the process prefill
        cache — the restored FTL replaces the built one and is
        bit-identical to a direct prefill.
        """
        from .runner import prefill  # runtime: runner imports this module

        if reuse_prefill:
            from ..perf.snapshot import default_prefill_cache

            self.ftl = default_prefill_cache().prefilled_system(
                self.system, self.ssd_config, profile, self.pool_entries
            )
        else:
            if self.ftl is None:
                self.build()
            prefill(self.ftl, profile)
        return self

    def precondition_pages(
        self, fingerprints: Iterable["Fingerprint"]
    ) -> "Device":
        """Precondition with one explicit fingerprint per local page.

        Local page ``i`` is written once with the ``i``-th fingerprint;
        then counters and pool statistics reset, exactly like the
        profile prefill, which shares this path
        (:func:`~repro.experiments.runner.preload_pages`).  This is the
        fleet shard content model: the fingerprints are the initial
        values of the global LBAs the shard owns, so cold reads against
        the shard hit real flash pages.
        """
        from .runner import preload_pages  # runtime: runner imports this module

        if self.ftl is None:
            self.build()
        preload_pages(self.ftl, fingerprints)
        return self

    # -- stage 3: attach -----------------------------------------------

    def attach(self, config: RunConfig) -> "Device":
        """Attach the optional layers and construct the timing device.

        Order matters and is the historical ``run_system`` order: faults,
        then checker — both after preconditioning — then the
        :class:`SimulatedSSD` with the config's queue depth and observer.
        """
        if self.ftl is None:
            raise RuntimeError("attach() requires a built device")
        if config.faults is not None:
            from ..faults.model import FaultModel

            self.ftl.attach_faults(FaultModel(config.faults))
        if config.checking:
            # Attached after preconditioning (like faults) so
            # prefill snapshots stay checker-free and the audited baseline
            # is the preconditioned drive.  Checking never mutates FTL
            # state, so the run's digest is identical with or without it.
            from ..check import checker_for

            self.ftl.attach_checker(checker_for(config))
        self.ssd = SimulatedSSD(
            self.ftl,
            queue_depth=config.queue_depth,
            observer=config.observer,
        )
        return self

    # -- stage 4: step -------------------------------------------------

    def step(self, rows: Iterable[Row]) -> int:
        """Service one batch of request rows; returns how many were
        serviced."""
        if self.ssd is None:
            raise RuntimeError("step() requires attach() first")
        return self.ssd.service(rows)

    # -- stage 5: finalize ---------------------------------------------

    def finalize(self, workload: str = "") -> RunResult:
        """Package the run and force the final observer sample."""
        if self.ssd is None:
            raise RuntimeError("finalize() requires attach() first")
        result = self.ssd.result(system=self.system, workload=workload)
        if self.ssd.observer is not None:
            self.ssd.observer.force_sample(self.ssd.horizon_us)
        return result
