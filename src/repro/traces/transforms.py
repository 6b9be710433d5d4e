"""Trace transforms: reshape request streams without regenerating them.

Trace-driven studies constantly need derived traces — the same accesses at
a different intensity, a time window, one operation class, a merged
multi-tenant stream, or a remapped address range.  These are pure functions
over request sequences, so any transform output feeds straight back into
the simulator, the analyses or the FIU writer.

All transforms preserve per-request identity (op, LPN, value) unless the
transform's purpose is to change it, and every output is in arrival order.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Sequence

from ..sim.request import IORequest, OpType, Row

__all__ = [
    "scale_time",
    "window",
    "take",
    "filter_ops",
    "shift_lpns",
    "with_trims",
    "merge_traces",
    "interleave_tenants",
]


def scale_time(
    trace: Iterable[IORequest], factor: float
) -> Iterator[IORequest]:
    """Stretch (>1) or compress (<1) inter-arrival times by ``factor``.

    Compressing a trace is the standard way to raise offered load without
    changing the access pattern (e.g. for saturation studies).
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    for request in trace:
        yield IORequest(
            arrival_us=request.arrival_us * factor,
            op=request.op,
            lpn=request.lpn,
            value_id=request.value_id,
        )


def window(
    trace: Iterable[IORequest], start_us: float, end_us: float
) -> Iterator[IORequest]:
    """Requests arriving in ``[start_us, end_us)``, re-based to time 0."""
    if end_us <= start_us:
        raise ValueError("end_us must exceed start_us")
    for request in trace:
        if start_us <= request.arrival_us < end_us:
            yield IORequest(
                arrival_us=request.arrival_us - start_us,
                op=request.op,
                lpn=request.lpn,
                value_id=request.value_id,
            )


def take(trace: Iterable[IORequest], count: int) -> Iterator[IORequest]:
    """The first ``count`` requests."""
    if count < 0:
        raise ValueError("count must be non-negative")
    for index, request in enumerate(trace):
        if index >= count:
            return
        yield request


def filter_ops(
    trace: Iterable[IORequest], op: OpType
) -> Iterator[IORequest]:
    """Only the requests of one operation class."""
    return (request for request in trace if request.op is op)


def shift_lpns(
    trace: Iterable[IORequest], offset: int
) -> Iterator[IORequest]:
    """Relocate the trace's address range by ``offset`` pages.

    Used to place multiple tenants in disjoint LPN ranges before merging.
    """
    for request in trace:
        lpn = request.lpn + offset
        if lpn < 0:
            raise ValueError(
                f"shift makes LPN negative ({request.lpn} + {offset})"
            )
        yield IORequest(
            arrival_us=request.arrival_us,
            op=request.op,
            lpn=lpn,
            value_id=request.value_id,
        )


def with_trims(rows: Iterable[Row], every_writes: int) -> Iterator[Row]:
    """Inject a TRIM after every ``every_writes``-th write, discarding
    that write's LPN at the same arrival time.

    Works on replay rows (:meth:`~repro.sim.request.Trace.rows`, or
    :func:`~repro.sim.request.rows_of` a record stream), since its output
    feeds the replay loop.

    The synthetic profiles never emit TRIM (the paper does not evaluate
    it), but the FTL's trim path — discard journalling, revivable-garbage
    creation, crash-recovery ordering — needs traffic to be exercised at
    all.  Trimming an address immediately after writing it is the
    workload's worst case for those paths: every injected TRIM kills a
    just-written page and journals a discard that recovery must order
    against the preceding write.  Arrival times of the original requests
    are untouched, so the remaining stream keeps its timing shape.

    Lazy like every other transform, so it composes with streaming
    generators without materialising the trace.
    """
    if every_writes <= 0:
        raise ValueError("every_writes must be positive")
    writes = 0
    WRITE, TRIM = OpType.WRITE, OpType.TRIM
    for row in rows:
        yield row
        if row[1] is WRITE:
            writes += 1
            if writes % every_writes == 0:
                yield (row[0], TRIM, row[2], 0)


def merge_traces(
    *traces: Iterable[IORequest],
) -> Iterator[IORequest]:
    """Merge arrival-ordered traces into one arrival-ordered stream.

    A lazy k-way merge — inputs may be generators of any length.  Ties
    break deterministically by input position.
    """
    return iter(
        heapq.merge(
            *traces, key=lambda request: request.arrival_us,
        )
    )


def interleave_tenants(
    tenants: Sequence[Sequence[IORequest]],
    pages_per_tenant: int,
    value_space: int = 1 << 30,
    share_values: bool = False,
) -> List[IORequest]:
    """Build a multi-tenant workload from per-tenant traces.

    Each tenant's LPNs move to a private range of ``pages_per_tenant``
    pages.  By default each tenant's value ids also move to a private
    namespace, so cross-tenant deduplication/revival cannot occur — the
    conservative assumption.  ``share_values=True`` keeps the original
    ids instead, modelling tenants with genuinely common content (VM
    images, shared base layers), where the dead-value pool can revive one
    tenant's garbage to serve another's write.
    """
    if pages_per_tenant <= 0:
        raise ValueError("pages_per_tenant must be positive")
    if value_space <= 0:
        raise ValueError("value_space must be positive")
    streams = []
    for index, tenant in enumerate(tenants):
        base = index * pages_per_tenant
        for request in tenant:
            if request.lpn >= pages_per_tenant:
                raise ValueError(
                    f"tenant {index} LPN {request.lpn} exceeds its range"
                )
            # A value id at or past ``value_space`` would land in the next
            # tenant's private namespace after the shift, silently enabling
            # the exact cross-tenant revival the namespaces exist to rule
            # out — reject instead of producing a biased workload.
            if not share_values and request.value_id >= value_space:
                raise ValueError(
                    f"tenant {index} value_id {request.value_id} does not "
                    f"fit its private namespace (value_space={value_space}); "
                    "raise value_space or pass share_values=True"
                )
        value_base = 0 if share_values else index * value_space
        streams.append([
            IORequest(
                arrival_us=request.arrival_us,
                op=request.op,
                lpn=request.lpn + base,
                value_id=request.value_id + value_base,
            )
            for request in tenant
        ])
    return list(merge_traces(*streams))
