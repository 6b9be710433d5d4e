"""Picklable run specifications — the unit of work the parallel engine ships.

A :class:`RunSpec` names one evaluation-matrix cell by value: workload,
system, paper pool label, scale, optional seed override and queue depth.
It is frozen, hashable and (unlike an :class:`~repro.experiments.runner.
ExperimentContext`, which drags a materialised trace along) cheap to
pickle, so a matrix fans out to worker processes as a flat list of specs
and each worker rebuilds its context from the shared caches.  Like every
job :func:`~repro.perf.parallel.run_specs` ships, it has ``execute()``
(run the cell) and ``prewarm()`` (fill the parent's caches before the
pool forks).

The digests live here too (the two content hashes share one pinned
pickle protocol):

* :func:`result_digest` is the bit-identity oracle: it hashes the
  *complete* observable outcome of a run — every counter and the exact
  latency sample sequences, not summary statistics — so a digest match
  between a serial and a parallel run means the runs were
  indistinguishable;
* :func:`kv_result_digest` adds a keyed run's store counters;
* :func:`digest_of_digests` is the identity of an ordered digest list —
  a fleet's shards, a serve session's shards, a KV on/off pair.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional, Sequence

from ..experiments.config import DEFAULT_SCALE, RunConfig
from ..experiments.runner import ExperimentContext, run_system
from ..faults.model import FaultConfig
from ..sim.metrics import RunResult
from ..traces.profiles import WorkloadProfile, profile_by_name
from .snapshot import default_prefill_cache

__all__ = [
    "RunSpec",
    "digest_of_digests",
    "execute_spec",
    "kv_result_digest",
    "result_digest",
]

#: Digest pickling is pinned (not HIGHEST_PROTOCOL) so digests stay
#: comparable across interpreter versions in tracked BENCH files.
_DIGEST_PROTOCOL = 4


@dataclass(frozen=True)
class RunSpec:
    """One (workload, system, pool, scale, seed, qd, faults) cell, by value."""

    workload: str
    system: str
    paper_pool_entries: int = 200_000
    scale: float = DEFAULT_SCALE
    seed: Optional[int] = None
    queue_depth: Optional[int] = None
    faults: Optional[FaultConfig] = None
    check_interval: Optional[int] = None
    oracle: bool = False
    trim_every: int = 0

    @classmethod
    def from_config(
        cls,
        workload: str,
        system: str,
        config: RunConfig,
        seed: Optional[int] = None,
    ) -> "RunSpec":
        """The spec that runs ``(workload, system)`` under ``config``.

        Only the picklable, by-value parts of the config ride along
        (``observer``/``registry``/``tracer`` are per-process live
        objects; the caller attaches them on the receiving side if it
        needs them).
        """
        return cls(
            workload=workload,
            system=system,
            paper_pool_entries=config.paper_pool_entries,
            scale=config.scale,
            seed=seed,
            queue_depth=config.queue_depth,
            faults=config.faults,
            check_interval=config.check_interval,
            oracle=config.oracle,
            trim_every=config.trim_every,
        )

    def run_config(self, reuse_prefill: bool = True) -> RunConfig:
        """The :class:`RunConfig` equivalent of this spec."""
        return RunConfig(
            paper_pool_entries=self.paper_pool_entries,
            scale=self.scale,
            queue_depth=self.queue_depth,
            reuse_prefill=reuse_prefill,
            faults=self.faults,
            check_interval=self.check_interval,
            oracle=self.oracle,
            trim_every=self.trim_every,
        )

    def profile(self) -> WorkloadProfile:
        """The scaled workload profile this spec runs (seed applied)."""
        profile = profile_by_name(self.workload).scaled(self.scale)
        if self.seed is not None:
            profile = replace(profile, seed=self.seed)
        return profile

    def context(self) -> ExperimentContext:
        """Materialise the trace/config context (hits the trace cache)."""
        return ExperimentContext.for_workload(
            self.workload, self.scale, seed=self.seed
        )

    def execute(self) -> RunResult:
        return execute_spec(self)

    def prewarm(self) -> None:
        """Generate the trace and capture the family prefill snapshot.

        Forked workers inherit both caches copy-on-write and restore by
        copy instead of each repeating the per-page prefill loop.
        """
        context = self.context()
        default_prefill_cache().warm(
            self.system, context.config, context.profile,
            self.paper_pool_entries,
        )


def execute_spec(spec: RunSpec, reuse_prefill: bool = True) -> RunResult:
    """Run one cell.  Pure function of the spec — the determinism tests
    rely on ``execute_spec(s)`` matching ``run_system`` run by hand.
    A spec carrying a fault config builds a fresh seeded model for the
    run, so execution order across workers cannot perturb fault draws."""
    return run_system(
        spec.system,
        spec.context(),
        config=spec.run_config(reuse_prefill=reuse_prefill),
    )


def result_digest(result: RunResult) -> str:
    """Content hash of everything a run observably produced.

    Covers identity, all counters, pool statistics, the horizon and the
    exact per-request latency sequences.  Two runs with equal digests
    produced bit-identical :class:`RunResult`s.

    Fault statistics join the payload only when the run carried a fault
    model, so fault-free digests stay byte-for-byte comparable with
    digests minted before the fault layer existed (tracked BENCH files
    and the golden digests in the determinism tests rely on this).
    """
    payload = (
        result.system,
        result.workload,
        asdict(result.counters),
        result.reads.samples,
        result.writes.samples,
        result.horizon_us,
        result.pool_stats,
    )
    if result.fault_stats is not None:
        payload = payload + (result.fault_stats,)
    return hashlib.sha256(
        pickle.dumps(payload, protocol=_DIGEST_PROTOCOL)
    ).hexdigest()


def kv_result_digest(
    result: RunResult, kv_counters: Dict[str, int]
) -> str:
    """Content hash over the device outcome *and* a keyed run's store
    counters, so a jobs=1 / jobs=N divergence in either layer is caught."""
    payload = (result_digest(result), sorted(kv_counters.items()))
    return hashlib.sha256(
        pickle.dumps(payload, protocol=_DIGEST_PROTOCOL)
    ).hexdigest()


def digest_of_digests(digests: Sequence[str]) -> str:
    """Digest of an ordered digest list: the fleet and serve-session
    identity (and a KV ablation pair's)."""
    payload = "\n".join(digests).encode("ascii")
    return hashlib.sha256(payload).hexdigest()
