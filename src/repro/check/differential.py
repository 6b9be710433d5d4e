"""Differential testing of the two device models.

The timeline model (:class:`~repro.sim.ssd.SimulatedSSD`) and the DES
(:class:`~repro.sim.des_ssd.EventDrivenSSD`) price the same FTL work
through unrelated mechanisms, so replaying one :class:`RunConfig` trace
through both is a powerful oracle: any disagreement in *state-machine*
outputs is a bug in one of them.

What equivalence is promised — and enforced here:

* **Exact**: every :class:`~repro.ftl.ftl.FTLCounters` field (programs,
  revivals, dedup hits, GC work, ...) and the per-op request counts.
  Both models mutate the shared FTL at request arrival in trace order,
  so physical work is deterministic and identical.
* **Approximate**: latency statistics, within small relative tolerances
  (defaults match the cross-validation suite).  The DES resolves
  sub-microsecond interleavings the analytic timelines collapse, so
  exact equality is *not* promised.

What is **not** promised: anything under faults (the DES prices neither
read-retry rounds, failed-program latency, crash recovery stalls, nor a
host queue depth), non-FIFO chip policies (reordering is the DES's whole
point), or latency percentiles beyond p99.  :func:`differential_run`
rejects configs outside the promised envelope instead of reporting
meaningless mismatches.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..experiments.config import RunConfig
from ..experiments.runner import (
    ExperimentContext,
    prefill,
    scaled_pool_entries,
)
from ..ftl.dvp_ftl import build_system
from ..sim.des_ssd import EventDrivenSSD
from ..sim.request import IORequest
from ..sim.ssd import SimulatedSSD
from .invariants import checker_for

__all__ = ["DifferentialMismatch", "DifferentialReport", "differential_run"]

#: Relative latency tolerances, matching the cross-validation suite.
WRITE_MEAN_REL = 0.02
READ_MEAN_REL = 0.03
WRITE_P99_REL = 0.05


class DifferentialMismatch(AssertionError):
    """The two device models disagreed where equivalence is promised."""


@dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one timeline-vs-DES differential replay."""

    workload: str
    system: str
    requests: int
    #: Counter field → (timeline value, DES value), only where they differ.
    counter_mismatches: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Request-count stream → (timeline count, DES count) where they differ.
    count_mismatches: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Latency metric → (timeline, DES, allowed rel) where out of tolerance.
    latency_mismatches: Dict[str, Tuple[float, float, float]] = field(
        default_factory=dict
    )

    @property
    def ok(self) -> bool:
        return not (
            self.counter_mismatches
            or self.count_mismatches
            or self.latency_mismatches
        )

    def verify(self) -> "DifferentialReport":
        """Raise :class:`DifferentialMismatch` unless the models agreed."""
        if self.ok:
            return self
        lines = [
            f"timeline vs DES diverged on "
            f"({self.workload}, {self.system}), {self.requests} requests:"
        ]
        for name, (a, b) in sorted(self.counter_mismatches.items()):
            lines.append(f"    counter {name}: timeline={a} des={b}")
        for name, (a, b) in sorted(self.count_mismatches.items()):
            lines.append(f"    requests {name}: timeline={a} des={b}")
        for name, (a, b, rel) in sorted(self.latency_mismatches.items()):
            lines.append(
                f"    latency {name}: timeline={a:.3f}us des={b:.3f}us "
                f"(allowed rel {rel})"
            )
        raise DifferentialMismatch("\n".join(lines))


def _within(a: float, b: float, rel: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b))


def differential_run(
    workload: str,
    system: str,
    config: Optional[RunConfig] = None,
    *,
    write_mean_rel: float = WRITE_MEAN_REL,
    read_mean_rel: float = READ_MEAN_REL,
    write_p99_rel: float = WRITE_P99_REL,
) -> DifferentialReport:
    """Replay one (workload, system) cell through both device models.

    ``config`` carries the run parameters (scale, pool size, check
    settings).  Checking fields are honoured: with ``check_interval`` or
    ``oracle`` set, *both* replays run under an
    :class:`~repro.check.invariants.InvariantChecker`, so one call
    exercises sanitizer, oracle and differential layers together.

    Raises ``ValueError`` for configs outside the promised-equivalence
    envelope (faults or a queue depth — see the module docstring).
    Returns a :class:`DifferentialReport`; call :meth:`~DifferentialReport.
    verify` to turn any disagreement into a hard failure.
    """
    cfg = config if config is not None else RunConfig()
    if cfg.faults is not None:
        raise ValueError(
            "differential equivalence is only promised fault-free: the DES "
            "does not price read retries, failed programs or crash recovery"
        )
    if cfg.queue_depth is not None:
        raise ValueError(
            "differential equivalence is only promised open-loop: the DES "
            "has no host queue-depth throttle"
        )
    context = ExperimentContext.for_workload(workload, cfg.scale)
    trace: Sequence[IORequest] = context.trace
    if cfg.trim_every:
        from ..traces.transforms import with_trims

        # Materialise: the differential replays the trace twice (timeline
        # then DES) and reports its length; with_trims streams rows.
        rows = context.trace.rows()
        trace = [IORequest(*row) for row in with_trims(rows, cfg.trim_every)]
    entries = scaled_pool_entries(cfg.paper_pool_entries, cfg.scale)

    def fresh_ftl():
        ftl = build_system(system, context.config, entries)
        prefill(ftl, context.profile)
        if cfg.checking:
            ftl.attach_checker(checker_for(cfg))
        return ftl

    timeline = SimulatedSSD(fresh_ftl()).run(
        trace, system=system, workload=context.profile.name
    )
    des = EventDrivenSSD(fresh_ftl(), chip_policy="fifo").run(
        trace, system=system, workload=context.profile.name
    )

    counter_mismatches: Dict[str, Tuple[int, int]] = {}
    for f in dataclasses.fields(timeline.counters):
        a = getattr(timeline.counters, f.name)
        b = getattr(des.counters, f.name)
        if a != b:
            counter_mismatches[f.name] = (a, b)
    count_mismatches: Dict[str, Tuple[int, int]] = {}
    for name in ("reads", "writes"):
        a = getattr(timeline, name).count
        b = getattr(des, name).count
        if a != b:
            count_mismatches[name] = (a, b)
    latency_mismatches: Dict[str, Tuple[float, float, float]] = {}
    checks = (
        ("writes.mean", timeline.writes.mean, des.writes.mean, write_mean_rel),
        ("reads.mean", timeline.reads.mean, des.reads.mean, read_mean_rel),
        ("writes.p99", timeline.writes.p99, des.writes.p99, write_p99_rel),
    )
    for name, a, b, rel in checks:
        if not _within(a, b, rel):
            latency_mismatches[name] = (a, b, rel)
    return DifferentialReport(
        workload=workload,
        system=system,
        requests=len(trace),
        counter_mismatches=counter_mismatches,
        count_mismatches=count_mismatches,
        latency_mismatches=latency_mismatches,
    )
