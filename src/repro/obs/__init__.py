"""Observability: time series of the simulator's internal state.

The evaluation sections of the paper reason about *internal* dynamics —
pool occupancy over time, MQ queue-length distributions, GC pressure and
cumulative write amplification — not just end-of-run aggregates.  This
package provides that visibility without touching the FTL hot paths:

:class:`TimeSeriesSampler`
    Snapshots FTL/GC/pool/MQ/fault state every N host requests or M
    simulated microseconds by reading the device directly, and appends
    one JSON object per sample to a sink (see :class:`JsonlWriter`).
    DESIGN.md documents the schema.  Without a sampler the only cost is
    the device's one ``observer is not None`` check per request.
:class:`JsonlWriter`
    Line-per-object JSON sink used by the ``--obs`` CLI flag.

Wall-clock attribution is not kept here: ``repro run --profile`` runs
under the standard library's :mod:`cProfile`.
"""

from .export import JsonlWriter, read_jsonl
from .sampler import TimeSeriesSampler

__all__ = ["TimeSeriesSampler", "JsonlWriter", "read_jsonl"]
