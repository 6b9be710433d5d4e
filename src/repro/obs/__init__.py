"""Observability: time series of the simulator's internal state.

The evaluation sections of the paper reason about *internal* dynamics —
pool occupancy over time, MQ queue-length distributions, GC pressure and
cumulative write amplification — not just end-of-run aggregates.  This
package provides that visibility without touching the FTL hot paths:

:class:`TimeSeriesSampler`
    Snapshots FTL/GC/pool/MQ/fault state every N host requests or M
    simulated microseconds by reading the device directly.  Each sample
    is a ``repro.api/v1`` record of kind ``telemetry.sample``, handed to
    a sink (see :class:`JsonlWriter`) as its dict form; DESIGN.md lists
    its ``meta`` keys.  Without a sampler the only cost is the device's
    one ``observer is not None`` check per request.
:class:`JsonlWriter`
    Line-per-object JSON sink used by the ``--obs`` CLI flags; read a
    file back with ``parse_record(json.loads(line))`` per line.

Wall-clock attribution is not kept here: ``repro run --profile`` runs
under the standard library's :mod:`cProfile`.
"""

from .export import JsonlWriter
from .sampler import TimeSeriesSampler

__all__ = ["TimeSeriesSampler", "JsonlWriter"]
