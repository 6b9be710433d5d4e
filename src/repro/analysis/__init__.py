"""Section II characterisation toolkit: CDFs, life-cycle studies, reports."""

from .cdf import bucket_means, empirical_cdf, lorenz_share
from .characterize import (
    InvalidationCDF,
    LifecycleIntervals,
    PoolStudyResult,
    ReuseOpportunity,
    ValueCDFs,
    invalidation_cdf,
    lifecycle_intervals,
    lru_miss_breakdown,
    lru_pool_sweep,
    pool_write_study,
    reuse_opportunity,
    run_lifecycle,
    value_cdfs,
)
from .latency import (
    StallEpisode,
    find_stall_episodes,
    latency_cdf,
    latency_percentiles,
    stall_summary,
)
from .report import render_bars, render_series, render_table
from .stackdist import StackAnalysis, lru_hit_curve
from .utilization import ResourceUsage, UtilisationReport, utilisation_report

__all__ = [
    "empirical_cdf",
    "bucket_means",
    "lorenz_share",
    "run_lifecycle",
    "ReuseOpportunity",
    "reuse_opportunity",
    "InvalidationCDF",
    "invalidation_cdf",
    "ValueCDFs",
    "value_cdfs",
    "LifecycleIntervals",
    "lifecycle_intervals",
    "PoolStudyResult",
    "pool_write_study",
    "lru_pool_sweep",
    "lru_miss_breakdown",
    "render_table",
    "latency_percentiles",
    "latency_cdf",
    "StallEpisode",
    "find_stall_episodes",
    "stall_summary",
    "render_series",
    "render_bars",
    "StackAnalysis",
    "lru_hit_curve",
    "ResourceUsage",
    "UtilisationReport",
    "utilisation_report",
]
