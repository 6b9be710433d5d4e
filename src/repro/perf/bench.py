"""Tracked benchmark: times canonical runs, emits BENCH_matrix.json.

The report has one section per result shape the paper reports: the
systems × workloads ``matrix``, the sharded ``fleet`` with its pool-mode
comparison, and the ``kv`` pool on/off ablation.  A section is a list
of :func:`~repro.perf.parallel.run_specs` jobs plus its extras, and one
runner, :func:`bench_section`, times every section the same way:

* every cell serially, best of three cold legs (both process caches are
  cleared before each leg, so timings include all setup);
* the whole list once more through ``run_specs`` on the worker pool;
* ``identical_results`` — both legs minted the same cell digests.

Every cell carries its ``id``, ``serial_seconds``, ``requests``,
``digest`` and its ``repro.api/v1`` ``record``.  The report is committed
(``BENCH_matrix.json`` at the repo root, refreshed by ``make bench``),
so the perf trajectory of the engine is tracked in git history.

Timings are wall-clock and machine-dependent; the *speedup* and the
``identical_results`` flag are the portable signals.  Where a process
pool cannot win — a single-core box, or cells so short that fork and
pickling overheads dominate — the second leg runs serially and the
section is marked ``serial_fallback: true`` instead of committing a
sub-1× speedup.  A fast section is not a parallelism failure; a slow
pool would be, so that case is made explicit rather than silent.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from .parallel import resolve_jobs, run_specs
from .snapshot import default_prefill_cache
from .spec import RunSpec, result_digest
from .trace_cache import default_trace_cache

__all__ = [
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
    "write_benchmark",
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

#: Mean per-cell serial seconds below which the pool leg is not worth
#: its fork/pickle overhead and the section falls back to serial.
SERIAL_FALLBACK_THRESHOLD_S = 0.2

#: Cold serial legs per section; each cell records its fastest.
SERIAL_REPEATS = 3

#: The tracked fleet cell: the heaviest-dedup workload on the headline
#: system, sharded 4 ways.  The scale is chosen GC-bound (hundreds of
#: erases at 0.2 on mail/mq-dvp) with per-shard serial time well above
#: :data:`SERIAL_FALLBACK_THRESHOLD_S`, so on a ≥4-core runner the
#: long-lived-shard fan-out must show a real speedup (the bench gate
#: requires ≥2× at jobs≥4) rather than measuring fork overhead.
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


def _calibrate(repeats: int = 3) -> float:
    """Best-of-``repeats`` seconds for a fixed pure-Python workload.

    Shared boxes and throttled containers drift by 1.5×+ between
    sessions, which would swamp any absolute-seconds regression gate.
    This loop exercises the interpreter the way the simulator does
    (dict stores, int arithmetic, list indexing); the gate divides both
    reports' cell timings by their calibration so it compares simulator
    *work*, not machine speed of the day.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        table = {}
        acc = 0
        slots = list(range(1024))
        # Sized to take roughly one bench cell (~0.2 s): a much shorter
        # loop can catch a turbo/cache burst the cells cannot sustain,
        # skewing the normalization.
        for i in range(500_000):
            table[i & 1023] = i
            acc += i ^ (i >> 3)
            slots[i & 1023] = acc & 65535
        best = min(best, time.perf_counter() - start)
    return best


def _serial_leg(specs: Sequence[Any], seconds: List[float]) -> List[Any]:
    """Run ``specs`` in-process from cold caches; append each cell's wall
    seconds to ``seconds``, apart from the results — timings must never
    reach a digest."""
    _clear_caches()
    results = []
    for spec in specs:
        start = time.perf_counter()
        results.append(spec.execute())
        seconds.append(time.perf_counter() - start)
    return results


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


#: A section's extras: ``(specs, serial results, second-leg jobs)`` →
#: keys merged into the section.
Extras = Callable[[Sequence[Any], List[Any], int], Dict[str, Any]]


def bench_section(
    specs: Sequence[Any],
    jobs: Optional[int] = None,
    extras: Optional[Extras] = None,
) -> Dict[str, Any]:
    """Time one section's jobs serially and fanned out; return it.

    Per-cell ``serial_seconds`` are best of :data:`SERIAL_REPEATS` cold legs
    — single-shot 0.2 s timings jitter ±20% on shared boxes, which would
    false-fire the harness's regression gate; the min is the stable
    statistic.  The section's ``serial_seconds`` is the first leg's.

    When the pool cannot plausibly win (``jobs`` resolves to 1, one
    core, or cells cheaper than :data:`SERIAL_FALLBACK_THRESHOLD_S` on
    average), the second leg runs serially too and the section carries
    ``serial_fallback: true`` and no speedup.
    """
    jobs = resolve_jobs(jobs, tasks=len(specs))
    first: List[float] = []
    serial = _serial_leg(specs, first)
    best = list(first)
    for _ in range(SERIAL_REPEATS - 1):
        repeat: List[float] = []
        _serial_leg(specs, repeat)
        best = [min(a, b) for a, b in zip(best, repeat)]
    serial_seconds = sum(first)

    serial_fallback = (
        jobs == 1
        or (os.cpu_count() or 1) == 1
        or serial_seconds / len(specs) < SERIAL_FALLBACK_THRESHOLD_S
    )
    leg_jobs = 1 if serial_fallback else jobs
    _clear_caches()
    parallel_start = time.perf_counter()
    parallel = run_specs(specs, jobs=leg_jobs)
    parallel_seconds = time.perf_counter() - parallel_start

    cells = [
        dict(_cell(spec, result), serial_seconds=round(seconds, 6))
        for spec, result, seconds in zip(specs, serial, best)
    ]
    section = {
        "scale": _scale(specs[0]),
        "jobs": jobs,
        "serial_seconds": round(serial_seconds, 6),
        "parallel_seconds": round(parallel_seconds, 6),
        "serial_fallback": serial_fallback,
        # Under fallback both legs ran serially: their ratio is timing
        # noise, not a parallel speedup, so none is recorded.
        "speedup": round(serial_seconds / parallel_seconds, 3)
        if parallel_seconds > 1e-6 and not serial_fallback
        else None,
        "identical_results": (
            [cell["digest"] for cell in cells]
            == [_digest(result) for result in parallel]
        ),
        "cells": cells,
    }
    if extras is not None:
        section.update(extras(specs, serial, leg_jobs))
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
) -> Dict[str, Any]:
    """Time every section (default: :func:`default_sections`); return
    the report.  ``jobs=None`` uses every core for the parallel legs."""
    if sections is None:
        sections = default_sections()
    jobs = resolve_jobs(jobs)
    timed = {
        name: bench_section(specs, jobs, extras=SECTION_EXTRAS.get(name))
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
        "calibration_seconds": round(_calibrate(), 6),
        "sections": timed,
    }


def write_benchmark(
    path: str = "BENCH_matrix.json",
    sections: Optional[Mapping[str, Sequence[Any]]] = None,
    jobs: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the benchmark and write the report to ``path``; returns it."""
    report = run_benchmark(sections, jobs)
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return report
