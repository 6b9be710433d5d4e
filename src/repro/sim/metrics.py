"""Latency statistics and run-level results.

The evaluation section reports mean and tail (99th percentile) latencies
for reads and writes separately and combined (Figures 11, 12, 15), plus
write/erase counts (Figures 9, 10, 14).  :class:`LatencyStats` keeps every
sample (traces are small enough) so percentiles are exact, and
:class:`RunResult` bundles the latency views with a snapshot of the FTL
counters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..ftl.ftl import FTLCounters

__all__ = ["LatencyStats", "LatencyPair", "RunResult", "percent_improvement"]


class LatencyStats:
    """Exact latency distribution over one request class.

    Percentiles read a sort cache: ``_sorted`` holds the first
    ``len(_sorted)`` samples in stable sorted order, and a query folds in
    only the samples recorded since the last one.  Timsort sorts that
    tail and merges it into the cached run in one linear pass, so a
    long-lived stream queried every window (a serve session's ``flush``)
    sorts each window once instead of the whole session every time.  Stability makes the cache equal,
    element for element, to ``sorted()`` of the samples in arrival order.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted: List[float] = []

    def record(self, latency_us: float) -> None:
        if not latency_us >= 0:
            raise ValueError("latency must be non-negative")
        self._samples.append(latency_us)

    def __getstate__(self) -> Dict[str, List[float]]:
        # The cache is derived state: checkpoints carry the samples only.
        return {"_samples": self._samples}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # Blobs written before the cache existed also carry ``_sorted``
        # (``None`` or a full sorted copy); either way it is rebuilt.
        self._samples = state["_samples"]
        self._sorted = []

    def _sorted_samples(self) -> List[float]:
        """The sort cache, brought up to date with every sample."""
        cache = self._sorted
        if len(cache) < len(self._samples):
            cache.extend(self._samples[len(cache):])
            cache.sort()
        return cache

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        """The recorded samples in arrival order (read-only copy).

        The exact sequence — not just the summary statistics — is what the
        perf harness digests to prove serial, parallel and cached-prefill
        runs produced bit-identical results.
        """
        return list(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """Exact percentile via the nearest-rank method."""
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if not self._samples:
            return 0.0
        ordered = self._sorted_samples()
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def maximum(self) -> float:
        samples = self._samples
        if not samples:
            return 0.0
        if len(self._sorted) < len(samples):
            return max(samples)  # a stale cache is not worth a sort here
        return _first_maximum(self._sorted[-1], samples)

    def merged_with(self, other: "LatencyStats") -> "LatencyStats":
        """Both sample sets, ``self`` first, with the sort cache built by
        merging the two parts' sorted runs (stable: ``self``'s ties first,
        exactly as sorting the concatenation would order them)."""
        out = LatencyStats()
        out._samples = self._samples + other._samples
        merged = self._sorted_samples() + other._sorted_samples()
        merged.sort()
        out._sorted = merged
        return out


def _first_maximum(top: float, samples: List[float]) -> float:
    """``max(samples)`` given its value ``top`` (the tail of a sort cache).

    ``max`` keeps the first maximal sample.  Equal non-zero floats have
    equal bits, so that is ``top`` itself, unless ``top`` is a zero: then
    every sample is ``0.0`` or ``-0.0`` and the first one wins.
    """
    return samples[0] if top == 0 else top


class LatencyPair:
    """The queries of ``first.merged_with(second)`` without the merge.

    ``merged_with`` copies and sorts both sample sets, so summarising a
    long-lived stream that way on every window costs O(samples) copies
    per window.  This view reads the two parts' own sort caches instead,
    and every answer is bit-identical to the merged object's: a
    percentile is the nearest-rank element of the stable merge of the two
    sorted runs (``first``'s ties first), found by binary search; the
    maximum comes from the cache tails; the mean sums both sample lists
    in arrival order, which is the concatenation's sum.
    """

    def __init__(self, first: LatencyStats, second: LatencyStats):
        self._first = first
        self._second = second

    @property
    def count(self) -> int:
        return len(self._first) + len(self._second)

    @property
    def mean(self) -> float:
        count = self.count
        if not count:
            return 0.0
        return sum(
            itertools.chain(self._first._samples, self._second._samples)
        ) / count

    def percentile(self, p: float) -> float:
        """Exact percentile via the nearest-rank method."""
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100]")
        count = self.count
        if not count:
            return 0.0
        first = self._first._sorted_samples()
        second = self._second._sorted_samples()
        rank = max(1, math.ceil(p / 100.0 * count))
        # Take ``taken`` elements from ``first`` and ``rank - taken`` from
        # ``second``: the largest ``taken`` whose last ``first`` element
        # still precedes the merge's rank-th slot.
        low, high = max(0, rank - len(second)), min(rank, len(first))
        while low < high:
            taken = (low + high) // 2
            if first[taken] <= second[rank - taken - 1]:
                low = taken + 1
            else:
                high = taken
        if low == 0:
            return second[rank - 1]
        if low == rank:
            return first[rank - 1]
        # The later of the two in merge order (ties: ``second``'s).
        left, right = first[low - 1], second[rank - low - 1]
        return left if left > right else right

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def maximum(self) -> float:
        first, second = self._first, self._second
        if not self.count:
            return 0.0
        tails = first._sorted_samples()[-1:] + second._sorted_samples()[-1:]
        return _first_maximum(max(tails), first._samples or second._samples)


@dataclass
class RunResult:
    """Everything one simulated run produced."""

    system: str
    workload: str
    counters: FTLCounters
    reads: LatencyStats = field(default_factory=LatencyStats)
    writes: LatencyStats = field(default_factory=LatencyStats)
    horizon_us: float = 0.0
    pool_stats: Optional[Dict[str, float]] = None
    #: :meth:`FaultStats.summary` of the run, or ``None`` when no fault
    #: model was attached (the default, digest-compatible shape).
    fault_stats: Optional[Dict[str, float]] = None

    @property
    def all_requests(self) -> LatencyStats:
        return self.reads.merged_with(self.writes)

    @property
    def mean_latency_us(self) -> float:
        return self.all_requests.mean

    @property
    def p99_latency_us(self) -> float:
        return self.all_requests.p99

    @property
    def flash_writes(self) -> int:
        """Host-data programs — the paper's "number of writes" metric."""
        return self.counters.programs

    @property
    def erases(self) -> int:
        return self.counters.gc_erases

    def summary(self) -> Dict[str, float]:
        """Flat dict for reports and JSON dumps."""
        combined = self.all_requests
        return {
            "host_writes": self.counters.host_writes,
            "host_reads": self.counters.host_reads,
            "flash_writes": self.flash_writes,
            "total_programs": self.counters.total_programs,
            "short_circuits": self.counters.short_circuits,
            "dedup_hits": self.counters.dedup_hits,
            "gc_relocations": self.counters.gc_relocations,
            "erases": self.erases,
            "mean_latency_us": combined.mean,
            "p99_latency_us": combined.p99,
            "read_mean_us": self.reads.mean,
            "write_mean_us": self.writes.mean,
            "horizon_us": self.horizon_us,
        }

    def fault_summary(self) -> Dict[str, float]:
        """``fault_stats`` with a ``fault.`` key prefix (empty when the run
        had no fault model attached)."""
        if self.fault_stats is None:
            return {}
        return {f"fault.{key}": value for key, value in self.fault_stats.items()}


def percent_improvement(baseline: float, improved: float) -> float:
    """The paper's improvement metric: % reduction relative to baseline."""
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline
