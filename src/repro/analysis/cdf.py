"""Empirical CDF helpers for the Section II characterisation figures.

All the paper's characterisation plots are CDFs over per-value counters
(writes, invalidations, rebirths) or averages bucketed by popularity
degree.  These are small, dependency-free utilities returning plain
``(x, y)`` series so benchmarks can print them and tests can assert on
their shape.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = ["empirical_cdf", "bucket_means", "lorenz_share"]


def empirical_cdf(values: Iterable[int]) -> List[Tuple[int, float]]:
    """CDF of a discrete sample: ``[(v, P(X <= v)), ...]`` sorted by v.

    This is the form of Figure 2 ("fraction of values with less than or
    equal number of invalidations").
    """
    counts = Counter(values)
    total = sum(counts.values())
    if total == 0:
        return []
    out: List[Tuple[int, float]] = []
    cumulative = 0
    for value in sorted(counts):
        cumulative += counts[value]
        out.append((value, cumulative / total))
    return out


def bucket_means(
    pairs: Iterable[Tuple[int, float]], num_buckets: int = 20
) -> Dict[int, float]:
    """Mean of ``y`` per ``x``-bucket, for popularity-degree plots.

    ``pairs`` are ``(popularity_degree, metric)`` samples; degrees are
    grouped into ``num_buckets`` logarithmic-ish buckets by clamping, and
    the mean metric per bucket is returned keyed by bucket lower bound.
    Figures 4 and 6 are drawn from exactly this reduction.
    """
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for degree, metric in pairs:
        bucket = min(degree, num_buckets)
        sums[bucket] = sums.get(bucket, 0.0) + metric
        counts[bucket] = counts.get(bucket, 0) + 1
    return {bucket: sums[bucket] / counts[bucket] for bucket in sums}


def lorenz_share(counts: Sequence[int], top_fraction: float) -> float:
    """Mass share of the top ``top_fraction`` of items (descending).

    ``lorenz_share(write_counts, 0.2) ≈ 0.8`` is the paper's "around 20% of
    the values account for almost 80% of the writes" (Figure 3a).
    """
    if not 0 < top_fraction <= 1:
        raise ValueError("top_fraction must be in (0, 1]")
    if not counts:
        return 0.0
    ordered = sorted(counts, reverse=True)
    total = sum(ordered)
    if total == 0:
        return 0.0
    k = max(1, int(len(ordered) * top_fraction))
    return sum(ordered[:k]) / total
