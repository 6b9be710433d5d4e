"""Tracked benchmark: times canonical runs, emits BENCH_matrix.json.

The report has one section per result shape the paper reports: the
systems × workloads ``matrix``, the sharded ``fleet`` with its pool-mode
comparison, and the ``kv`` pool on/off ablation.  A section is a list
of :func:`~repro.perf.parallel.run_specs` jobs plus its extras, and one
runner, :func:`bench_section`, times every section the same way: over
:data:`BENCH_LEGS` alternating cold legs (both process caches cleared,
so timings include all setup), every cell serially, ``run_specs`` over
as many no-op jobs (the pool's own overhead) and the whole list through
``run_specs`` on the pool, each in its own timed window.

Each window's wall seconds go through a timer as it ends: ``make bench``
passes the e2e benchmark's ``HostSpeed.scale``, which returns them at a
reference host speed, so a neighbour slowing the box does not read as a
regression.  Every reported time is the median of its windows, and a
section's ``serial_seconds`` is the sum of its cells'.

Every cell carries its ``id``, ``serial_seconds``, its ``windows`` (its
seconds in each leg, which the bench gate compares), ``requests``,
``digest`` and its ``repro.api/v1`` ``record``; ``identical_results``
says every pool leg minted the serial cell digests.  The report is
committed (``BENCH_matrix.json`` at the repo root, refreshed by ``make
bench``), so the perf trajectory of the engine is tracked in git history.

Where a process pool cannot win — ``jobs`` resolves to 1, one core, or a
pool overhead that eats the ideal saving ``serial · (1 − 1/jobs)`` — the
section is marked ``serial_fallback: true`` and records no speedup
rather than a noise-driven one; the pool is never a silent loss.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from .parallel import resolve_jobs, run_specs
from .snapshot import default_prefill_cache
from .spec import RunSpec, result_digest
from .trace_cache import default_trace_cache

__all__ = [
    "BENCH_LEGS",
    "BENCH_SCHEMA",
    "CANONICAL_WORKLOADS",
    "CANONICAL_SYSTEMS",
    "DEFAULT_BENCH_SCALE",
    "DEFAULT_FLEET_SHARDS",
    "DEFAULT_FLEET_SCALE",
    "FLEET_BENCH_WORKLOAD",
    "FLEET_BENCH_SYSTEM",
    "DEFAULT_KV_SCALE",
    "KV_BENCH_WORKLOADS",
    "KV_BENCH_SYSTEM",
    "bench_section",
    "default_sections",
    "run_benchmark",
    "save_report",
]

BENCH_SCHEMA = "repro.perf.bench_matrix/v2"

#: The canonical slice: a heavy-dedup trace (mail), a popularity-skewed
#: one (web) and the deepest cold region (desktop), against the paper's
#: baseline, its headline system and the dedup comparison point.
CANONICAL_WORKLOADS = ("mail", "web", "desktop")
CANONICAL_SYSTEMS = ("baseline", "mq-dvp", "dedup")

#: Canonical benchmark scale — small enough to finish in seconds per
#: cell, large enough that run time dwarfs process-pool overhead.
DEFAULT_BENCH_SCALE = 0.05

#: Alternating cold legs per section; every reported time is the median
#: of its windows over these legs.
BENCH_LEGS = 15

#: The tracked fleet cell: the heaviest-dedup workload on the headline
#: system, sharded 4 ways.  The scale is chosen GC-bound (hundreds of
#: erases at 0.2 on mail/mq-dvp) with per-shard serial time far above the
#: pool overhead, so on a ≥4-core runner the long-lived-shard fan-out
#: must show a real speedup (the bench gate requires ≥2× at jobs≥4)
#: rather than measuring fork overhead.
FLEET_BENCH_WORKLOAD = "mail"
FLEET_BENCH_SYSTEM = "mq-dvp"
DEFAULT_FLEET_SHARDS = 4
DEFAULT_FLEET_SCALE = 0.2

#: The tracked KV ablation cells: the update-heavy and read-mostly YCSB
#: mixes on the headline system, each paired with its pool-off
#: counterpart.  What the section tracks is the *revival delta under a
#: keyed interface* — the KV layer's raison d'être — plus the usual
#: serial/parallel digest identity of the KV engine.
KV_BENCH_WORKLOADS = ("ycsb-a", "ycsb-b")
KV_BENCH_SYSTEM = "mq-dvp"
DEFAULT_KV_SCALE = 0.5


def default_sections() -> Dict[str, List[Any]]:
    """The tracked sections' job lists, in report order."""
    from ..fleet import FleetSpec
    from ..kv import KVSpec

    fleet = FleetSpec(
        workload=FLEET_BENCH_WORKLOAD,
        system=FLEET_BENCH_SYSTEM,
        shards=DEFAULT_FLEET_SHARDS,
        scale=DEFAULT_FLEET_SCALE,
    )
    kv = [
        KVSpec(workload=workload, system=KV_BENCH_SYSTEM,
               scale=DEFAULT_KV_SCALE)
        for workload in KV_BENCH_WORKLOADS
    ]
    return {
        "matrix": [
            RunSpec(workload=workload, system=system,
                    scale=DEFAULT_BENCH_SCALE)
            for workload in CANONICAL_WORKLOADS
            for system in CANONICAL_SYSTEMS
        ],
        "fleet": [fleet.shard(index) for index in range(fleet.shards)],
        "kv": [leg for on in kv for leg in (on, on.pool_off())],
    }


def _clear_caches() -> None:
    """Cold-start both process caches so timings include all setup."""
    default_trace_cache().clear()
    default_prefill_cache().clear()


#: Maps a timed window's wall seconds, called as soon as the window
#: ends, to the seconds it reports.
Timer = Callable[[float], float]


def _wall(seconds: float) -> float:
    return seconds


def _timed(timer: Timer, run: Callable[[], Any], windows: List[float]) -> Any:
    """``run()``; its window's seconds go through ``timer`` into
    ``windows``, apart from the result — timings must never reach a
    digest."""
    start = time.perf_counter()
    result = run()
    windows.append(timer(time.perf_counter() - start))
    return result


class _NoOp:
    """A job that does nothing."""

    def prewarm(self) -> None:
        pass

    def execute(self) -> None:
        return None


def _pool_overhead(
    count: int, jobs: int, timer: Timer, windows: List[float]
) -> None:
    """Time one window of ``run_specs`` over ``count`` no-op jobs at
    ``jobs``: what the pool costs by itself (fork, pickling, shutdown)."""
    noops = [_NoOp() for _ in range(count)]
    _timed(timer, lambda: run_specs(noops, jobs=jobs), windows)


def _cell_id(spec: Any) -> str:
    """The key the gate matches a cell against its tracked self by."""
    fleet = getattr(spec, "fleet", None)
    if fleet is not None:
        return f"{fleet.workload}/{fleet.system}/shard{spec.index}of{fleet.shards}"
    return f"{spec.workload}/{spec.system}"


def _scale(spec: Any) -> float:
    fleet = getattr(spec, "fleet", None)
    return fleet.scale if fleet is not None else spec.scale


def _digest(result: Any) -> str:
    """A cell's digest: a keyed run carries its own, the rest hash their
    :class:`~repro.sim.metrics.RunResult`."""
    from ..kv import KVRunResult

    if isinstance(result, KVRunResult):
        return result.digest
    return result_digest(result)


def _cell(spec: Any, result: Any) -> Dict[str, Any]:
    """A cell's identity and outcome (its timing is added by the caller)."""
    from ..api import record_from_kv_run, record_from_run
    from ..kv import KVRunResult

    digest = _digest(result)
    if isinstance(result, KVRunResult):
        run, record = result.result, record_from_kv_run(result)
    else:
        run = result
        record = record_from_run(result, kind="bench.cell", digest=digest)
    return {
        "id": _cell_id(spec),
        "requests": run.reads.count + run.writes.count,
        "digest": digest,
        "record": record.to_dict(),
    }


#: A section's extras: ``(specs, serial results, pool-leg jobs)`` →
#: keys merged into the section.
Extras = Callable[[Sequence[Any], List[Any], int], Dict[str, Any]]


def bench_section(
    specs: Sequence[Any],
    jobs: Optional[int] = None,
    extras: Optional[Extras] = None,
    timer: Timer = _wall,
) -> Dict[str, Any]:
    """Time one section's jobs serially and fanned out (see the module
    docstring); return it."""
    jobs = resolve_jobs(jobs, tasks=len(specs))
    cell_windows: List[List[float]] = [[] for _ in specs]
    overhead_windows: List[float] = []
    parallel_windows: List[float] = []
    serial: List[Any] = []
    parallel_digests = []
    for _ in range(BENCH_LEGS):
        _clear_caches()
        leg = [
            _timed(timer, spec.execute, windows)
            for spec, windows in zip(specs, cell_windows)
        ]
        if not serial:
            serial = leg  # the cells' results and extras' input
        _pool_overhead(len(specs), jobs, timer, overhead_windows)
        _clear_caches()
        parallel = _timed(
            timer, lambda: run_specs(specs, jobs=jobs), parallel_windows
        )
        parallel_digests.append([_digest(result) for result in parallel])

    cell_seconds = [statistics.median(windows) for windows in cell_windows]
    serial_seconds = sum(cell_seconds)
    parallel_seconds = statistics.median(parallel_windows)
    overhead = statistics.median(overhead_windows)
    serial_fallback = (
        jobs == 1
        or (os.cpu_count() or 1) == 1
        or overhead >= serial_seconds * (1 - 1 / jobs)
    )
    cells = [
        dict(
            _cell(spec, result),
            serial_seconds=round(seconds, 6),
            windows=[round(window, 6) for window in windows],
        )
        for spec, result, seconds, windows in zip(
            specs, serial, cell_seconds, cell_windows
        )
    ]
    section = {
        "scale": _scale(specs[0]),
        "jobs": jobs,
        "serial_seconds": round(serial_seconds, 6),
        "parallel_seconds": round(parallel_seconds, 6),
        "pool_overhead_seconds": round(overhead, 6),
        "serial_fallback": serial_fallback,
        # A pool that cannot win measures overhead, not a parallel
        # speedup, so none is recorded.
        "speedup": round(serial_seconds / parallel_seconds, 3)
        if parallel_seconds > 1e-6 and not serial_fallback
        else None,
        "identical_results": all(
            digests == [cell["digest"] for cell in cells]
            for digests in parallel_digests
        ),
        "cells": cells,
    }
    if extras is not None:
        section.update(extras(specs, serial, jobs))
    return section


def _fleet_extras(
    specs: Sequence[Any], results: List[Any], jobs: int
) -> Dict[str, Any]:
    """The fleet aggregate plus the shared-vs-per-drive pool comparison."""
    from ..fleet.fleet import aggregate_fleet, run_fleet

    spec = specs[0].fleet
    fleet = aggregate_fleet(spec, results, jobs=1)
    # Pool-mode comparison point: same fleet, shared budget (the
    # fleet-wide-pool upper bound).  Untimed, with the second leg's jobs.
    shared = run_fleet(replace(spec, pool_mode="shared"), jobs=jobs)
    return {
        "fleet_digest": fleet.fleet_digest,
        "aggregate": {
            "requests": fleet.host_writes + fleet.host_reads,
            "write_amplification": round(fleet.write_amplification, 6),
            "revival_rate": round(fleet.revival_rate, 6),
            "imbalance_cv": round(fleet.imbalance_cv, 6),
        },
        "pool_modes": {
            "per-drive": fleet.flash_programs,
            "shared": shared.flash_programs,
        },
    }


def _kv_extras(
    specs: Sequence[Any], results: List[Any], jobs: int
) -> Dict[str, Any]:
    """Each workload's pool on/off deltas (the cells are on/off pairs)."""

    def flash_writes(kv) -> int:
        return kv.result.counters.programs + kv.result.counters.gc_relocations

    return {"deltas": [
        {
            "workload": on.spec.workload,
            "system": on.spec.system,
            "system_off": off.spec.system,
            "revival_rate": round(on.revival_rate, 6),
            "write_amplification_on": round(on.write_amplification, 6),
            "write_amplification_off": round(off.write_amplification, 6),
            "flash_writes_saved": flash_writes(off) - flash_writes(on),
        }
        for on, off in zip(results[::2], results[1::2])
    ]}


#: Section name → its extras; sections not named here have none.
SECTION_EXTRAS: Dict[str, Extras] = {
    "fleet": _fleet_extras,
    "kv": _kv_extras,
}


def run_benchmark(
    sections: Optional[Mapping[str, Sequence[Any]]] = None,
    jobs: Optional[int] = None,
    timer: Timer = _wall,
) -> Dict[str, Any]:
    """Time every section (default: :func:`default_sections`); return
    the report.  ``jobs=None`` uses every core for the parallel legs."""
    if sections is None:
        sections = default_sections()
    jobs = resolve_jobs(jobs)
    timed = {
        name: bench_section(specs, jobs, SECTION_EXTRAS.get(name), timer)
        for name, specs in sections.items()
    }
    return {
        "schema": BENCH_SCHEMA,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "sections": timed,
    }


def save_report(report: Mapping[str, Any], path: str) -> None:
    """Write ``report`` to ``path`` in the tracked file's format."""
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
