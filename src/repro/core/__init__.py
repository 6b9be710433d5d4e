"""Core algorithms: fingerprints, the Multi-Queue algorithm, dead-value
pools and value life-cycle tracking.

This package is substrate-free — nothing here knows about flash geometry or
simulation time — so every piece can be unit- and property-tested in
isolation and reused by both the trace analyses (Section II of the paper)
and the full SSD simulator (Sections V–VII).
"""

from .adaptive import AdaptiveMQDeadValuePool
from .hashing import Fingerprint, fingerprint_of_bytes, fingerprint_of_value
from .lifecycle import LifecycleStats, LifecycleTracker, ValueStats
from .mq import MQEntry, MultiQueue, queue_index_for_popularity
from .dvp import (
    POOL_NAMES,
    DeadValuePool,
    InfiniteDeadValuePool,
    LBARecencyPool,
    LRUDeadValuePool,
    MQDeadValuePool,
    PoolBase,
    PoolStats,
    pool_from_name,
)

__all__ = [
    "Fingerprint",
    "fingerprint_of_bytes",
    "fingerprint_of_value",
    "MultiQueue",
    "MQEntry",
    "queue_index_for_popularity",
    "DeadValuePool",
    "PoolBase",
    "InfiniteDeadValuePool",
    "LRUDeadValuePool",
    "MQDeadValuePool",
    "AdaptiveMQDeadValuePool",
    "LBARecencyPool",
    "PoolStats",
    "pool_from_name",
    "POOL_NAMES",
    "LifecycleTracker",
    "LifecycleStats",
    "ValueStats",
]
