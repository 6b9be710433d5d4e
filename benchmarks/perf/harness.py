"""Refresh BENCH_matrix.json and gate against the tracked report.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/perf/harness.py [--out BENCH_matrix.json]
        [--jobs N] [--no-gate] [--tolerance F]

Thin wrapper over :func:`repro.perf.bench.write_benchmark` plus a
regression gate; ``make bench`` calls this.  The report has three
sections — ``matrix`` (systems × workloads), ``fleet`` (long-lived
shards, pool-mode comparison) and ``kv`` (pool on/off ablation) — built
from uniform cells, and the gate walks every section and cell the same
way.  It compares the fresh report against the committed one before
overwriting it and fails on:

* ``identical_results`` false — serial and parallel legs disagreed;
* a speedup below 1.0 without the explicit ``serial_fallback`` marker —
  the pool must never be a silent loss;
* any cell whose digest drifted from the tracked report — simulator
  behaviour changed without the goldens being re-minted deliberately;
* any cell more than ``--tolerance`` (default 15%) slower than its
  tracked ``serial_seconds`` (with a 0.05 s absolute floor — wall timing
  cannot resolve smaller deltas) — a perf regression in the hot paths.

One section carries one extra datum: a non-fallback fleet speedup below
2.0 fails when the box has ≥4 cores and the fleet ran with ≥4 workers,
since four long-lived GC-bound shards that cannot double throughput on
four cores mean the fan-out is broken.

Cells are matched to tracked cells by ``id``; a new cell or section has
nothing to regress against and passes.  Timing comparisons are
normalized by each report's ``calibration_seconds`` (a fixed pure-Python
loop timed at bench time), so a container running 1.5× slower today than
when the tracked report was minted does not read as a simulator
regression.  They only run on sections with the same scale;
``--no-gate`` skips the comparison when re-minting after an intentional
change (the digest drift must then be explained in the PR).
"""

import argparse
import json
import os
import sys

from repro.perf.bench import write_benchmark

#: Per-section minimum non-fallback speedup on a box with ≥4 cores
#: running ≥4 workers (the acceptance bar for the long-lived-shard
#: fan-out); every other section only has to beat 1.0.
SPEEDUP_FLOORS = {"fleet": 2.0}


def _machine_factor(report: dict, tracked: dict) -> float:
    """How much slower this machine is than the tracked report's.

    Cancels machine-speed drift between mint time and now; reports
    without the calibration field fall back to raw seconds.  An
    apparently *faster* machine may tighten the allowance by at most
    15% — beyond that it is far more likely calibration jitter than a
    genuinely faster box, and a tighter gate false-fires on every cell.
    """
    fresh_cal = report.get("calibration_seconds")
    tracked_cal = tracked.get("calibration_seconds")
    if fresh_cal and tracked_cal:
        return max(fresh_cal / tracked_cal, 0.85)
    return 1.0


def _gate_section(
    name: str, fresh: dict, old: dict, tolerance: float, machine: float
) -> list:
    """One section's checks; ``old`` is ``None`` for a new section."""
    failures = []
    if not fresh["identical_results"]:
        failures.append(
            f"{name}: serial and parallel legs produced different digests"
        )
    speedup = fresh.get("speedup")
    floor = SPEEDUP_FLOORS.get(name)
    if not fresh.get("serial_fallback"):
        if speedup is None or speedup < 1.0:
            failures.append(
                f"{name}: speedup {speedup} < 1.0 without serial_fallback "
                "marker"
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
    if not old:
        return failures
    if old.get("scale") != fresh["scale"]:
        failures.append(
            f"{name}: tracked scale {old.get('scale')} != {fresh['scale']}: "
            "timings not comparable (re-mint with --no-gate)"
        )
        return failures
    old_cells = {cell["id"]: cell for cell in old.get("cells", [])}
    for cell in fresh["cells"]:
        prev = old_cells.get(cell["id"])
        if prev is None:
            continue  # new cell: nothing tracked to regress against
        where = f"{name} {cell['id']}"
        if prev["digest"] != cell["digest"]:
            failures.append(f"{where}: digest drifted from tracked report")
        # Relative tolerance with an absolute floor: sub-0.05 s deltas on
        # sub-second cells are below what best-of-N wall timing resolves
        # on a shared box, so they cannot evidence a regression.
        baseline = prev["serial_seconds"] * machine
        if cell["serial_seconds"] - baseline > max(tolerance * baseline, 0.05):
            failures.append(
                f"{where}: serial {cell['serial_seconds']:.3f}s "
                f"> {1.0 + tolerance:.2f}x tracked "
                f"{prev['serial_seconds']:.3f}s"
                + (
                    f" (machine-normalized x{machine:.2f})"
                    if machine != 1.0
                    else ""
                )
            )
    return failures


def gate(report: dict, tracked: dict, tolerance: float) -> list:
    """Compare a fresh report against the tracked one; return failures.

    The fresh sections are always checked on their own; a tracked
    report of another schema has no sections to compare against.
    """
    failures = []
    tracked_sections = tracked.get("sections", {})
    if tracked.get("schema") != report["schema"]:
        failures.append(
            f"tracked schema {tracked.get('schema')!r} != {report['schema']!r}"
        )
        tracked_sections = {}
    machine = _machine_factor(report, tracked)
    for name, section in report["sections"].items():
        failures.extend(_gate_section(
            name, section, tracked_sections.get(name), tolerance, machine
        ))
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

    report = write_benchmark(args.out, jobs=args.jobs)
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
    print(f"wrote {args.out}")

    if tracked is None:
        identical = all(s["identical_results"] for s in sections.values())
        return 0 if identical else 1
    failures = gate(report, tracked, args.tolerance)
    for failure in failures:
        print(f"bench gate: {failure}", file=sys.stderr)
    if failures:
        print(
            f"bench gate: {len(failures)} failure(s) vs tracked {args.out}",
            file=sys.stderr,
        )
        return 1
    print(f"bench gate: OK vs tracked {args.out} "
          f"(tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
