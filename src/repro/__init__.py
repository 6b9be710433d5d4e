"""repro — a reproduction of "Reviving Zombie Pages on SSDs" (IISWC 2018).

The package rebuilds, in pure Python, everything the paper's evaluation
needs: a trace-driven SSD simulator (flash geometry, timing, FTL, GC), the
Multi-Queue dead-value pool that revives garbage pages to short-circuit
redundant writes, the deduplicating and LX-SSD baselines, synthetic
FIU-style workloads, and the Section II characterisation toolkit.

Quickstart::

    from repro import (
        profile_by_name, generate_trace, scaled_config, make_mq_dvp, replay,
    )

    profile = profile_by_name("mail").scaled(0.25)
    trace = generate_trace(profile)
    config = scaled_config(profile.working_set_pages)
    result = replay(make_mq_dvp(config, pool_entries=10_000), trace)
    print(result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from .core import (
    Fingerprint,
    InfiniteDeadValuePool,
    LBARecencyPool,
    LifecycleTracker,
    LRUCache,
    LRUDeadValuePool,
    MQDeadValuePool,
    MultiQueue,
    fingerprint_of_bytes,
    fingerprint_of_value,
)
from .flash import SSDConfig, TimingParams, paper_config, scaled_config
from .ftl import (
    SYSTEMS,
    BaseFTL,
    DedupFTL,
    build_system,
    make_baseline,
    make_dedup,
    make_dvp_dedup,
    make_ideal,
    make_lru_dvp,
    make_lxssd,
    make_mq_dvp,
)
from .sim import IORequest, OpType, RunResult, SimulatedSSD, replay
from .traces import (
    PROFILES,
    WorkloadProfile,
    audit_trace,
    generate_trace,
    profile_by_name,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Fingerprint",
    "fingerprint_of_value",
    "fingerprint_of_bytes",
    "LRUCache",
    "MultiQueue",
    "LRUDeadValuePool",
    "MQDeadValuePool",
    "InfiniteDeadValuePool",
    "LBARecencyPool",
    "LifecycleTracker",
    # flash
    "SSDConfig",
    "TimingParams",
    "paper_config",
    "scaled_config",
    # ftl
    "BaseFTL",
    "DedupFTL",
    "SYSTEMS",
    "build_system",
    "make_baseline",
    "make_lru_dvp",
    "make_mq_dvp",
    "make_ideal",
    "make_lxssd",
    "make_dedup",
    "make_dvp_dedup",
    # sim
    "IORequest",
    "OpType",
    "RunResult",
    "SimulatedSSD",
    "replay",
    # traces
    "WorkloadProfile",
    "PROFILES",
    "profile_by_name",
    "generate_trace",
    "audit_trace",
]
