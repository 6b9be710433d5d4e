"""Post-crash revival-rate warmup: what a power loss costs the DVP.

The dead-value pool lives entirely in controller RAM (paper Section
IV-C), so a power loss erases it even though every page it tracked is
still physically on flash.  After recovery the drive works — the L2P map
is rebuilt from OOB metadata — but revival starts from a *cold* pool and
must re-learn which garbage pages are worth keeping.  This experiment
measures that warmup directly and compares it against the uninterrupted
run of the same trace.

Method: run the same (workload, system) cell twice with a
:class:`~repro.obs.TimeSeriesSampler` on a fixed request cadence —
once uninterrupted, once with ``FaultConfig(crash_after_requests=N)``
(``N`` aligned to the sampling window).  From the crashed run's samples,
compute the *cumulative* revival rate since the crash
(``Δshort_circuits / Δhost_writes`` against the at-crash sample) per
window.  Starting from an empty pool that ratio begins near zero and
rises monotonically toward the steady-state rate as the pool refills —
the warmup curve the benchmark test pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..faults.model import FaultConfig
from .config import DEFAULT_SCALE, RunConfig

__all__ = ["RecoveryExperimentResult", "crash_point", "run_recovery_experiment"]


@dataclass(frozen=True)
class RecoveryExperimentResult:
    """Both runs of one crash-vs-uninterrupted comparison."""

    workload: str
    system: str
    scale: float
    crash_after_requests: int
    window_requests: int
    #: Cumulative revival rate since the crash, one point per sampling
    #: window after it (the warmup curve).
    warmup_rates: Tuple[float, ...]
    #: The same windows of the uninterrupted run, measured cumulatively
    #: from the same request index (the reference the warmup approaches).
    reference_rates: Tuple[float, ...]
    #: ``RunResult.summary()`` of each run.
    crashed_summary: Dict[str, float]
    uninterrupted_summary: Dict[str, float]
    #: ``FaultStats.summary()`` of the crashed run (carries
    #: ``recoveries`` and ``mean_recovery_us``).
    fault_summary: Dict[str, float]

    def warmup_is_monotone(self, tolerance: float = 0.0) -> bool:
        """Whether the warmup curve never drops by more than ``tolerance``."""
        return all(
            later >= earlier - tolerance
            for earlier, later in zip(self.warmup_rates, self.warmup_rates[1:])
        )

    @property
    def final_gap(self) -> float:
        """Reference rate minus warmup rate at the horizon (>= 0 means the
        crashed run never fully caught up within the trace)."""
        if not self.warmup_rates or not self.reference_rates:
            return 0.0
        return self.reference_rates[-1] - self.warmup_rates[-1]


def _rates_since(
    samples: List[Dict[str, Any]], crash_after: int
) -> Tuple[float, ...]:
    """Cumulative ``Δshort_circuits / Δhost_writes`` per post-crash sample,
    measured against the last sample at or before ``crash_after`` requests."""
    base = None
    for sample in samples:
        if sample["requests"] <= crash_after:
            base = sample
        else:
            break
    if base is None:
        raise ValueError(
            "no sample at or before the crash point; use a sampling window "
            "that divides crash_after_requests"
        )
    rates = []
    for sample in samples:
        if sample["requests"] <= base["requests"]:
            continue
        writes = sample["host_writes"] - base["host_writes"]
        revived = sample["short_circuits"] - base["short_circuits"]
        if writes > 0:
            rates.append(revived / writes)
    return tuple(rates)


def crash_point(total: int, crash_fraction: float, window_requests: int) -> int:
    """The power-loss request index: ``crash_fraction`` of a
    ``total``-request trace, rounded down to a whole sampling window so
    the at-crash sample exists exactly."""
    if window_requests <= 0:
        raise ValueError("window_requests must be positive")
    crash_after = int(total * crash_fraction) // window_requests
    crash_after *= window_requests
    if crash_after <= 0 or crash_after >= total:
        raise ValueError(
            f"crash point {crash_after} outside the {total}-request trace; "
            f"adjust crash_fraction/window_requests"
        )
    return crash_after


def run_recovery_experiment(
    workload: str = "mail",
    system: str = "mq-dvp",
    scale: float = DEFAULT_SCALE,
    paper_pool_entries: int = 200_000,
    crash_fraction: float = 0.5,
    window_requests: int = 2000,
    fault_seed: int = 0,
    config: Optional[RunConfig] = None,
    crash_after: Optional[int] = None,
) -> RecoveryExperimentResult:
    """Measure post-crash revival warmup against an uninterrupted run.

    ``crash_fraction`` places the power loss (:func:`crash_point`);
    a caller that already applied that rule passes its ``crash_after``
    instead.
    ``config`` overrides the pool/scale/queue parameters wholesale (its
    ``faults``/``observer`` fields are managed by the experiment and
    must be unset).  Both runs replay the identical
    trace, so every difference between the two curves is the crash.
    """
    from ..obs.sampler import TimeSeriesSampler
    from .runner import ExperimentContext, run_system

    if config is None:
        config = RunConfig(
            paper_pool_entries=paper_pool_entries, scale=scale
        )
    if config.faults is not None or config.observer is not None:
        raise ValueError(
            "run_recovery_experiment manages faults and observer itself; "
            "leave both unset in the RunConfig"
        )
    context = ExperimentContext.for_workload(workload, config.scale)
    if crash_after is None:
        crash_after = crash_point(
            len(context.trace), crash_fraction, window_requests
        )
    plain_sampler = TimeSeriesSampler(interval_requests=window_requests)
    plain = run_system(
        system, context, config=config.replace(observer=plain_sampler)
    )
    crash_sampler = TimeSeriesSampler(interval_requests=window_requests)
    crashed = run_system(
        system,
        context,
        config=config.replace(
            observer=crash_sampler,
            faults=FaultConfig(
                seed=fault_seed, crash_after_requests=crash_after
            ),
        ),
    )
    return RecoveryExperimentResult(
        workload=workload,
        system=system,
        scale=config.scale,
        crash_after_requests=crash_after,
        window_requests=window_requests,
        warmup_rates=_rates_since(crash_sampler.samples, crash_after),
        reference_rates=_rates_since(plain_sampler.samples, crash_after),
        crashed_summary=crashed.summary(),
        uninterrupted_summary=plain.summary(),
        fault_summary=crashed.fault_stats or {},
    )
