"""Fleet-level aggregation: merged latency, fleet WA, imbalance, digests.

A fleet run produces one :class:`~repro.sim.metrics.RunResult` per shard;
:class:`FleetResult` is the fleet view over them.  Latency percentiles
merge the shards' exact sample sets (never averages of percentiles —
a p99 of per-shard p99s is not the fleet p99).  Counter aggregates sum
across shards: write amplification and revival rate are ratios of fleet
totals, again not means of per-shard ratios.

``shard_digests`` carries each shard's
:func:`~repro.perf.spec.result_digest` in shard order; the fleet digest
is :func:`~repro.perf.spec.digest_of_digests` over them.  These are the
bit-identity oracle for the fleet determinism tests and the tracked
fleet bench section: ``jobs=1`` and ``jobs=N`` must mint identical
digest tuples.

``export_jsonl`` writes the per-shard and fleet records through the
:mod:`repro.obs` JSONL sink, so fleet output flows through the same
exporter surface as single-drive observability samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Sequence, Tuple

from ..sim.metrics import LatencyStats, RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.export import JsonlWriter
    from .fleet import FleetSpec

__all__ = ["FleetResult", "PoolModeComparison", "aggregate_fleet"]


def _merged(stats: Sequence[LatencyStats]) -> LatencyStats:
    out = LatencyStats()
    for part in stats:
        out = out.merged_with(part)
    return out


@dataclass(frozen=True)
class FleetResult:
    """Everything one fleet run produced, in shard order."""

    spec: "FleetSpec"
    shard_results: Tuple[RunResult, ...]
    #: Effective worker count the run used (1 = serial path).
    jobs: int
    #: :func:`~repro.perf.spec.result_digest` per shard, in shard order.
    shard_digests: Tuple[str, ...]

    # -- identity ------------------------------------------------------

    @property
    def fleet_digest(self) -> str:
        """Digest of the ordered shard digests — the fleet's identity."""
        from ..perf.spec import digest_of_digests

        return digest_of_digests(self.shard_digests)

    # -- latency (merged exact samples, never percentile-of-percentiles)

    @property
    def reads(self) -> LatencyStats:
        return _merged([r.reads for r in self.shard_results])

    @property
    def writes(self) -> LatencyStats:
        return _merged([r.writes for r in self.shard_results])

    @property
    def all_requests(self) -> LatencyStats:
        return self.reads.merged_with(self.writes)

    @property
    def mean_latency_us(self) -> float:
        return self.all_requests.mean

    @property
    def p50_latency_us(self) -> float:
        return self.all_requests.percentile(50)

    @property
    def p99_latency_us(self) -> float:
        return self.all_requests.p99

    # -- counter aggregates (ratios of totals, not means of ratios) ----

    def _total(self, name: str) -> int:
        return sum(getattr(r.counters, name) for r in self.shard_results)

    @property
    def host_writes(self) -> int:
        return self._total("host_writes")

    @property
    def host_reads(self) -> int:
        return self._total("host_reads")

    @property
    def flash_programs(self) -> int:
        """Aggregate flash programs (host data + GC relocations) — the
        pool-mode comparison's figure of merit."""
        return self._total("total_programs")

    @property
    def erases(self) -> int:
        return self._total("gc_erases")

    @property
    def write_amplification(self) -> float:
        """Fleet WA: total flash programs per host write."""
        writes = self.host_writes
        return self.flash_programs / writes if writes else 0.0

    @property
    def revival_rate(self) -> float:
        """Fraction of host writes short-circuited by a revived page."""
        writes = self.host_writes
        return self._total("short_circuits") / writes if writes else 0.0

    # -- imbalance -----------------------------------------------------

    @property
    def shard_requests(self) -> Tuple[int, ...]:
        """Host requests each shard serviced, in shard order."""
        return tuple(
            r.counters.host_writes + r.counters.host_reads
            for r in self.shard_results
        )

    @property
    def imbalance_cv(self) -> float:
        """Coefficient of variation of per-shard request counts."""
        counts = self.shard_requests
        mean = sum(counts) / len(counts)
        if mean == 0.0:
            return 0.0
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        return math.sqrt(variance) / mean

    @property
    def imbalance_max_over_mean(self) -> float:
        """Hottest shard's load relative to the mean (1.0 = even)."""
        counts = self.shard_requests
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 0.0

    # -- reporting -----------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Flat dict for reports and JSON dumps."""
        combined = self.all_requests
        return {
            "workload": self.spec.workload,
            "system": self.spec.system,
            "shards": self.spec.shards,
            "pool_mode": self.spec.pool_mode,
            "jobs": self.jobs,
            "host_writes": self.host_writes,
            "host_reads": self.host_reads,
            "flash_programs": self.flash_programs,
            "erases": self.erases,
            "write_amplification": self.write_amplification,
            "revival_rate": self.revival_rate,
            "mean_latency_us": combined.mean,
            "p50_latency_us": combined.percentile(50),
            "p99_latency_us": combined.p99,
            "imbalance_cv": self.imbalance_cv,
            "imbalance_max_over_mean": self.imbalance_max_over_mean,
            "fleet_digest": self.fleet_digest,
        }

    def export_jsonl(self, writer: "JsonlWriter") -> int:
        """Write one unified ``repro.api/v1`` record per shard plus the
        fleet aggregate record; returns the record count.  ``writer`` is
        a :class:`repro.obs.JsonlWriter` (or any sink with a ``write``
        method)."""
        from ..api import records_from_fleet  # runtime: api sits above

        records = records_from_fleet(self)
        for record in records:
            writer.write(record.to_dict())
        return len(records)


def aggregate_fleet(
    spec: "FleetSpec", results: Sequence[RunResult], jobs: int
) -> FleetResult:
    """Package per-shard results (already in shard order) as a fleet."""
    from ..perf.spec import result_digest

    return FleetResult(
        spec=spec,
        shard_results=tuple(results),
        jobs=jobs,
        shard_digests=tuple(result_digest(r) for r in results),
    )


@dataclass(frozen=True)
class PoolModeComparison:
    """Shared-vs-per-drive pool comparison over the same fleet spec."""

    per_drive: FleetResult
    shared: FleetResult

    @property
    def per_drive_programs(self) -> int:
        return self.per_drive.flash_programs

    @property
    def shared_programs(self) -> int:
        return self.shared.flash_programs

    @property
    def programs_saved(self) -> int:
        """Programs a fleet-wide shared pool could save (upper bound)."""
        return self.per_drive_programs - self.shared_programs

    @property
    def percent_saved(self) -> float:
        if self.per_drive_programs == 0:
            return 0.0
        return 100.0 * self.programs_saved / self.per_drive_programs

    def summary(self) -> Dict[str, Any]:
        return {
            "per_drive_programs": self.per_drive_programs,
            "shared_programs": self.shared_programs,
            "programs_saved": self.programs_saved,
            "percent_saved": self.percent_saved,
            "per_drive": self.per_drive.summary(),
            "shared": self.shared.summary(),
        }
