"""Refresh BENCH_matrix.json and gate against the tracked report.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/perf/harness.py [--out BENCH_matrix.json]
        [--jobs N] [--no-gate] [--tolerance F]

Thin wrapper over :func:`repro.perf.bench.run_benchmark` plus a
regression gate; ``make bench`` calls this.  The report has three
sections — ``matrix`` (systems × workloads), ``fleet`` (long-lived
shards, pool-mode comparison) and ``kv`` (pool on/off ablation) — built
from uniform cells.  Every time in it is the median of
:data:`~repro.perf.bench.BENCH_LEGS` alternating cold legs, each window
scaled to a reference host speed by the e2e benchmark's
``probes.HostSpeed`` (imported from ``benchmarks/e2e``), so a box slowed
by its neighbours does not read as a simulator regression.  A section
falls back to ``serial_fallback`` only when its measured pool overhead
eats the ideal parallel saving (or there is one job or one core).

Checks that need no tracked report run on every report:

* ``identical_results`` false — serial and parallel legs disagreed;
* a speedup below 1.0 without the explicit ``serial_fallback`` marker —
  the pool must never be a silent loss;
* a non-fallback fleet speedup below 2.0 when the box has ≥4 cores and
  the fleet ran with ≥4 workers, since four long-lived GC-bound shards
  that cannot double throughput on four cores mean the fan-out is broken.

Against the committed report, cell by cell (matched by ``id``; a new cell
or section has nothing to regress against and passes), the gate also
fails on:

* any cell whose digest drifted from the tracked report — simulator
  behaviour changed without the goldens being re-minted deliberately;
* any cell more than ``--tolerance`` (default 15%) slower than its
  tracked self — a perf regression in the hot paths.  The slowdown is
  the median of every fresh/tracked ratio of the cell's ``windows``
  (the Hodges–Lehmann estimate), steadier than the ratio of the two
  medians.  It still moves by about ±4% between clean runs on a shared
  2-vCPU VM, where a 20% slowdown planted in one matrix cell failed the
  gate in 6 of 9 cells.

Timings are only compared on sections with the same scale.  The report
is written to ``--out`` only when every check passes, so a failed run
never becomes the next run's baseline.  ``--no-gate`` skips the
comparison when re-minting after an intentional change (the digest
drift must then be explained in the PR).
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "e2e"))

from probes import HostSpeed  # noqa: E402

from repro.perf.bench import run_benchmark, save_report  # noqa: E402

#: Per-section minimum non-fallback speedup on a box with ≥4 cores
#: running ≥4 workers (the acceptance bar for the long-lived-shard
#: fan-out); every other section only has to beat 1.0.
SPEEDUP_FLOORS = {"fleet": 2.0}


def _check_section(name: str, fresh: dict) -> list:
    """One section's checks that need no tracked report."""
    failures = []
    if not fresh["identical_results"]:
        failures.append(
            f"{name}: serial and parallel legs produced different digests"
        )
    if fresh.get("serial_fallback"):
        return failures
    speedup = fresh.get("speedup")
    floor = SPEEDUP_FLOORS.get(name)
    if speedup is None or speedup < 1.0:
        failures.append(
            f"{name}: speedup {speedup} < 1.0 without serial_fallback marker"
        )
    elif (
        floor is not None
        and (os.cpu_count() or 1) >= 4
        and fresh.get("jobs", 1) >= 4
        and speedup < floor
    ):
        failures.append(
            f"{name}: speedup {speedup} < {floor} with "
            f"{fresh['jobs']} workers on {os.cpu_count()} cores"
        )
    return failures


def _compare_section(name: str, fresh: dict, old: dict, tolerance: float) -> list:
    """One section against its tracked self: digests and cell timings."""
    if old.get("scale") != fresh["scale"]:
        return [
            f"{name}: tracked scale {old.get('scale')} != {fresh['scale']}: "
            "timings not comparable (re-mint with --no-gate)"
        ]
    failures = []
    old_cells = {cell["id"]: cell for cell in old.get("cells", [])}
    for cell in fresh["cells"]:
        prev = old_cells.get(cell["id"])
        if prev is None:
            continue  # new cell: nothing tracked to regress against
        where = f"{name} {cell['id']}"
        if prev["digest"] != cell["digest"]:
            failures.append(f"{where}: digest drifted from tracked report")
        slowdown = _slowdown(cell, prev)
        if slowdown > 1.0 + tolerance:
            failures.append(
                f"{where}: {slowdown:.3f}x tracked > {1.0 + tolerance:.2f}x "
                f"(serial {cell['serial_seconds']:.3f}s, "
                f"tracked {prev['serial_seconds']:.3f}s)"
            )
    return failures


def _windows(cell: dict) -> list:
    """A cell's timed windows; a cell that kept none stands for its
    median alone."""
    return cell.get("windows") or [cell["serial_seconds"]]


def _slowdown(fresh: dict, old: dict) -> float:
    """How much slower ``fresh`` ran than ``old``: the median of every
    fresh/tracked window ratio (the Hodges–Lehmann estimate), which is
    steadier than the ratio of the two medians."""
    return statistics.median(
        new / prev for new in _windows(fresh) for prev in _windows(old)
    )


def check(report: dict) -> list:
    """The checks every fresh report must pass; return failures."""
    failures = []
    for name, section in report["sections"].items():
        failures.extend(_check_section(name, section))
    return failures


def gate(report: dict, tracked: dict, tolerance: float) -> list:
    """:func:`check` the fresh report, then compare it against the
    tracked one; return failures.  A tracked report of another schema
    has no sections to compare against."""
    failures = check(report)
    if tracked.get("schema") != report["schema"]:
        failures.append(
            f"tracked schema {tracked.get('schema')!r} != {report['schema']!r}"
        )
        return failures
    tracked_sections = tracked.get("sections", {})
    for name, section in report["sections"].items():
        old = tracked_sections.get(name)
        if old:  # a new section has nothing to regress against
            failures.extend(_compare_section(name, section, old, tolerance))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_matrix.json")
    parser.add_argument("--jobs", type=int, default=0,
                        help="workers for the parallel legs (0 = all cores)")
    parser.add_argument("--no-gate", action="store_true",
                        help="skip comparison against the tracked report")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="per-cell slowdown tolerance (fraction)")
    args = parser.parse_args(argv)

    tracked = None
    if not args.no_gate and os.path.exists(args.out):
        with open(args.out) as f:
            tracked = json.load(f)

    report = run_benchmark(jobs=args.jobs, timer=HostSpeed().scale)
    sections = report["sections"]
    for name, section in sections.items():
        leg = (
            "serial_fallback"
            if section["serial_fallback"]
            else f"x{section['speedup']}, jobs={section['jobs']}"
        )
        print(
            f"{name}: {len(section['cells'])} cells at scale "
            f"{section['scale']}, serial {section['serial_seconds']:.2f}s, "
            f"parallel {section['parallel_seconds']:.2f}s ({leg}), "
            f"pool overhead {section['pool_overhead_seconds']:.3f}s, "
            f"identical_results={section['identical_results']}"
        )
    if "fleet" in sections:
        modes = sections["fleet"]["pool_modes"]
        print(f"fleet: pool per-drive {modes['per-drive']} vs shared "
              f"{modes['shared']} programs")
    if "kv" in sections:
        print("kv: " + ", ".join(
            f"{d['workload']} rev {d['revival_rate']:.3f} "
            f"(saves {d['flash_writes_saved']} writes)"
            for d in sections["kv"]["deltas"]
        ))

    if tracked is None:
        failures = check(report)
    else:
        failures = gate(report, tracked, args.tolerance)
    for failure in failures:
        print(f"bench gate: {failure}", file=sys.stderr)
    if failures:
        print(
            f"bench gate: {len(failures)} failure(s); {args.out} not written",
            file=sys.stderr,
        )
        return 1
    save_report(report, args.out)
    if tracked is None:
        print(f"wrote {args.out}")
    else:
        print(f"bench gate: OK vs tracked {args.out} "
              f"(tolerance {args.tolerance:.0%}); wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
