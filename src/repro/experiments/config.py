"""One frozen configuration object for every way the repo runs a system.

Run parameters used to travel as a flat kwarg list (`paper_pool_entries`,
``scale``, ``queue_depth``, ...) copied across :func:`~repro.experiments.
runner.run_system`, :func:`~repro.experiments.runner.run_matrix`,
:class:`~repro.experiments.figures.EvaluationMatrix` and
:class:`~repro.perf.spec.RunSpec` — four signatures to keep in sync, and
no place to put new knobs (the fault layer added three more).

:class:`RunConfig` replaces that: one frozen dataclass carrying everything
a run needs beyond its identity (workload/system stay positional — they
*name* the run; the config describes *how* to run it).  It is immutable,
so one instance can safely be shared across a whole matrix, and —
``observer`` aside — picklable, so ``RunSpec.from_config`` can ship it
to worker processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..faults.model import FaultConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.sampler import TimeSeriesSampler

__all__ = ["DEFAULT_SCALE", "RunConfig"]

#: Default down-scale applied by the benchmarks (see EXPERIMENTS.md).
DEFAULT_SCALE = 0.25


@dataclass(frozen=True)
class RunConfig:
    """How to run a system: everything but the (workload, system) identity.

    Parameters
    ----------
    paper_pool_entries:
        Dead-value-pool size in the paper's own labels (100K/200K/...);
        scaled down via :func:`~repro.experiments.runner.scaled_pool_entries`.
    scale:
        Workload down-scale factor (DESIGN.md §4).
    queue_depth:
        Device queue depth override (``None`` = the config's value).
    observer:
        A :class:`~repro.obs.TimeSeriesSampler` attached to the device for
        the measured window.  Holds callbacks — not picklable, so
        :func:`~repro.experiments.runner.run_matrix` rejects a config
        carrying one.
    reuse_prefill:
        Precondition via the process prefill cache (bit-identical to a
        direct prefill; the determinism tests enforce it).
    jobs:
        Worker processes for multi-cell entry points (``run_matrix``,
        ``EvaluationMatrix``); ignored by single-run ``run_system``.
        ``0`` means all cores.
    faults:
        A :class:`~repro.faults.FaultConfig`, or ``None`` for the perfect
        device.  The fault model attaches *after* preconditioning, so the
        prefill snapshot cache stays fault-free and a ``faults=None`` run
        is digest-identical to one from a build without the fault layer.
    check_interval:
        Events between full :class:`~repro.check.InvariantChecker` audits
        (``None`` disables checking entirely — the default; checking reads
        but never mutates FTL state, so enabling it leaves result digests
        unchanged).
    oracle:
        Also run the lockstep :class:`~repro.check.OracleFTL`, cross-
        checking every read result, revival decision and trim against a
        dict-based reference model.  Implies checking even when
        ``check_interval`` is ``None`` (the default audit cadence is
        used).
    trim_every:
        Inject a TRIM after every Nth write of the trace (``0`` = none),
        via :func:`~repro.traces.transforms.with_trims`.  Exercises the
        discard/revival/recovery paths the synthetic profiles never
        touch; note this *changes the trace*, so digests differ from the
        untrimmed run by construction.
    """

    paper_pool_entries: int = 200_000
    scale: float = DEFAULT_SCALE
    queue_depth: Optional[int] = None
    observer: Optional["TimeSeriesSampler"] = None
    reuse_prefill: bool = True
    jobs: int = 1
    faults: Optional[FaultConfig] = None
    check_interval: Optional[int] = None
    oracle: bool = False
    trim_every: int = 0

    def __post_init__(self) -> None:
        if self.paper_pool_entries <= 0:
            raise ValueError("paper_pool_entries must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.queue_depth is not None and self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive when set")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = all cores)")
        if self.faults is not None and not isinstance(self.faults, FaultConfig):
            raise TypeError("faults must be a FaultConfig or None")
        if self.check_interval is not None and self.check_interval <= 0:
            raise ValueError("check_interval must be positive when set")
        if self.trim_every < 0:
            raise ValueError("trim_every must be non-negative (0 = no trims)")

    def replace(self, **changes: object) -> "RunConfig":
        """A copy with ``changes`` applied (the dataclasses idiom, bound
        as a method so call sites need no extra import)."""
        return dataclasses.replace(self, **changes)

    @property
    def checking(self) -> bool:
        """Whether this run attaches an invariant checker (either knob)."""
        return self.check_interval is not None or self.oracle

    @property
    def picklable(self) -> bool:
        """Whether this config can cross a process boundary (an observer
        holds live callbacks and cannot)."""
        return self.observer is None
