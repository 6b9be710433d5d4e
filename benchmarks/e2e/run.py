"""End-to-end benchmark of the simulator: six workloads, one command.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload all|NAME[,NAME...]] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke] [--out FILE]

Every rep runs in a fresh child process (``rep.py``): users pay cold
caches once per CLI invocation, and a rep's peak RSS then belongs to one
workload.  Reps go round-robin over the selected workloads until each has
been measured for ``--seconds`` and has at least three reps; each metric
is the median over reps, of times scaled to a reference host speed (see
``probes.HostSpeed``; the raw wall-clock medians are printed beside).  An
untimed correctness leg follows.

``--trace 1`` runs, per workload, one untraced rep, one rep with every
layer probe (see ``probes.py``) and the correctness leg, and reports the
per-layer ledger; kept spans go to ``.e2e-bench/<workload>.spans.jsonl``.
End-to-end metrics always come from untraced reps.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from workloads import WORKLOADS, Workload, by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = ROOT / ".e2e-bench"

#: Reps per workload at least, besides ``--seconds`` of measuring.
MIN_REPS = 3
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150

#: Columns of a timed window: wall seconds, seconds at reference speed.
RAW, SCALED = 0, 1

#: End-to-end metrics (host time, from untraced reps): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "replay_req_per_s": "req/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every workload reports in a traced run.  Layers only
#: some workloads enter (trim, pool and KV self times, fleet, serve) are
#: printed and written to ``--out`` where they ran, and omitted elsewhere.
PER_LAYER = (
    "traces.generate_s", "device.precondition_s", "perf.prefill_cache.hits",
    "perf.prefill_cache.misses", "device.step_s",
    "sim.submit.calls", "sim.submit.self_s",
    "flash.timing.calls", "flash.timing.self_s",
    "ftl.write.calls", "ftl.write.self_s", "ftl.read.calls", "ftl.read.self_s",
    "ftl.trim.calls",
    "gc.collect.calls", "gc.collect.self_s", "gc.erases", "gc.relocations",
    "gc.relocations_per_erase",
    "pool.lookup.calls", "pool.insert.calls", "pool.discard.calls",
    "pool.hit_rate", "pool.evictions", "dedup.hits",
    "kv.pack_seals", "kv.pack_repacks",
    "perf.digest_s",
    "flash.programs", "flash.reads", "flash.write_amp", "flash.revival_rate",
    "sim.horizon_s", "sim.write_p99_us", "sim.read_p99_us",
    "trace.overhead_frac",
)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or name.endswith(("_s.max", "_s.mean")):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith(("_frac", "_rate", "_amp", "_per_erase")):
        return "ratio"
    return "count"


# -- children ---------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(
    workload: Workload, mode: str, args: argparse.Namespace,
    spans: Optional[Path] = None,
) -> Tuple[Optional[Dict[str, Any]], float, str]:
    """Run ``rep.py`` once; returns (outcome or None, wall seconds, error)."""
    command = [sys.executable, str(HERE / "rep.py"),
               "--workload", workload.name, "--mode", mode]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    if spans is not None:
        command += ["--spans", str(spans)]
    start = time.perf_counter()
    # Own session, so a timeout can stop the child's server or workers too.
    proc = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, time.perf_counter() - start, f"timed out after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        lines = stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        return None, wall, lines[-1]
    return json.loads(stdout.strip().splitlines()[-1]), wall, ""


# -- statistics -------------------------------------------------------------


def summary(values: List[float]) -> Dict[str, Any]:
    """Median and quartiles (``statistics.quantiles``, n=4) with n."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile, the repo's own convention."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# -- one workload -------------------------------------------------------------


class WorkloadRun:
    """Reps, correctness leg and verdict of one workload."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.reps: List[Dict[str, Any]] = []
        self.measured_s = 0.0
        self.problems: List[str] = []
        self.leg: Optional[Dict[str, Any]] = None
        self.ledger: Dict[str, float] = {}

    def add_rep(self, outcome, wall, error) -> None:
        self.measured_s += wall
        if outcome is None:
            self.problems.append(f"rep {len(self.reps) + 1} failed: {error}")
            return
        self.reps.append(outcome)
        self.problems.extend(outcome["problems"])

    def done(self, args) -> bool:
        if self.problems:
            return True  # a failing workload is not measured further
        if args.smoke:
            return len(self.reps) >= 1
        return len(self.reps) >= MIN_REPS and self.measured_s >= args.seconds

    def check(self, leg) -> None:
        """Digests and counts repeat exactly; the leg matches the reps."""
        if not self.reps:
            return
        digests = {rep["digest"] for rep in self.reps}
        if len(digests) > 1:
            self.problems.append(f"rep digests differ: {sorted(digests)}")
        counts = {json.dumps(rep["counts"], sort_keys=True) for rep in self.reps}
        if len(counts) > 1:
            self.problems.append("deterministic counts differ between reps")
        for key in ("setup", "replay"):
            if len({len(rep[key]) for rep in self.reps}) > 1:
                self.problems.append(f"reps cut the {key} into different windows")
        if leg is None:
            return
        outcome, _, error = leg
        if outcome is None:
            self.problems.append(f"correctness leg failed: {error}")
        elif outcome["digest"] != self.reps[0]["digest"]:
            self.problems.append(
                f"correctness leg digest {outcome['digest'][:16]} != "
                f"timed digest {self.reps[0]['digest'][:16]}"
            )
        else:
            self.leg = outcome

    @property
    def correct(self) -> bool:
        return bool(self.reps) and not self.problems

    @property
    def attempted(self) -> int:
        per_rep = self.reps[0]["counts"]["host_ops"] if self.reps else 1
        return max(1, per_rep * max(1, len(self.reps)))

    @property
    def failed(self) -> int:
        if not self.correct:
            return self.attempted  # every op of a wrong workload failed
        return sum(rep["failed"] for rep in self.reps)

    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """Median over reps of each metric, from host-speed-scaled window
        times; the raw wall-clock medians ride along."""
        ops = self.reps[0]["counts"]["host_ops"]

        def seconds(rep, phase, column):
            return sum(window[column] for window in rep[phase])

        out = {}
        for name, per_rep in (
            ("setup_s", lambda rep, c: seconds(rep, "setup", c)),
            ("replay_req_per_s", lambda rep, c: ops / seconds(rep, "replay", c)),
            ("peak_rss_mb", lambda rep, c: rep["peak_rss_mb"]),
        ):
            samples = [per_rep(rep, SCALED) for rep in self.reps]
            out[name] = dict(
                summary(samples), unit=END_TO_END[name], samples=samples,
                raw_median=statistics.median(per_rep(rep, RAW) for rep in self.reps),
            )
        acks = [a for rep in self.reps for a in rep.get("acks_ms", ())]
        if acks:  # serve-web only: the flush round trip
            for name, p in (("ack_p50_ms", 50), ("ack_p90_ms", 90)):
                out[name] = {"median": percentile(acks, p), "n": len(acks), "unit": "ms"}
        return out


def _leg(workload: Workload, args):
    # KV has no checked entry point; its reps check store-vs-FTL op counts.
    if workload.kind == "kv":
        return None
    return run_child(workload, "check", args)


def measure(workloads: List[Workload], args) -> List[WorkloadRun]:
    """Untraced reps, round-robin across workloads, then the legs."""
    runs = [WorkloadRun(w) for w in workloads]
    pending = list(runs)
    while pending:
        for run in list(pending):
            run.add_rep(*run_child(run.workload, "rep", args))
            if run.done(args):
                pending.remove(run)
    for run in runs:
        run.check(_leg(run.workload, args) if run.reps else None)
    return runs


def trace(workloads: List[Workload], args) -> List[WorkloadRun]:
    """One untraced and one traced rep per workload, then the leg."""
    OUT_DIR.mkdir(exist_ok=True)
    runs = []
    for workload in workloads:
        run = WorkloadRun(workload)
        run.add_rep(*run_child(workload, "rep", args))
        spans = OUT_DIR / f"{workload.name}.spans.jsonl"
        traced, _, error = run_child(workload, "traced", args, spans=spans)
        if traced is None:
            run.problems.append(f"traced rep failed: {error}")
        else:
            run.add_rep(traced, 0.0, "")
        run.check(_leg(workload, args))
        if run.correct:
            untraced_s, traced_s = (
                sum(window[SCALED] for window in rep["replay"]) for rep in run.reps
            )
            run.ledger = dict(
                traced["ledger"], **{"trace.overhead_frac": traced_s / untraced_s - 1}
            )
        runs.append(run)
    return runs


# -- reporting ----------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _recorded_digest(workload: Workload, args) -> Optional[str]:
    if args.smoke:
        return None
    try:
        with open(HERE / "baseline.json") as f:
            digests = json.load(f)["digests"][workload.name]
    except (OSError, KeyError, ValueError):
        return None
    return digests.get("default" if args.seed is None else str(args.seed))


def report(runs: List[WorkloadRun], args, bounds: Dict[str, float]) -> Dict[str, Any]:
    """Print every workload's metrics and verdict; return the JSON report."""
    full: Dict[str, Any] = {}
    for run in runs:
        w = run.workload
        print(f"== {w.name}  ({len(run.reps)} reps, {w.kind}: {w.source} "
              f"{'+'.join(w.systems)} @ scale "
              f"{w.smoke_scale if args.smoke else w.scale})")
        entry: Dict[str, Any] = {"correct": run.correct, "problems": run.problems,
                                 "attempted": run.attempted, "failed": run.failed}
        if run.reps:
            metrics = run.metrics() if not args.trace else {}
            for name, m in metrics.items():
                detail = ""
                if "q1" in m:
                    detail = (f"  [q1 {_fmt(m['q1'])}, q3 {_fmt(m['q3'])}]"
                              f"  raw {_fmt(m['raw_median'])}")
                bound = f", bound {bounds[name]:.0%}" if name in bounds else ""
                better = "higher" if name == "replay_req_per_s" else "lower"
                print(f"  {name:<18} {_fmt(m['median']):>12} {m['unit']:<6}"
                      f"{detail}  n={m['n']}  ({better} is better{bound})")
            for name, value in sorted(run.ledger.items()):
                print(f"  {name:<28} {_fmt(value):>14} {unit_of(name)}")
            entry.update(metrics=metrics, ledger=run.ledger,
                         digest=run.reps[0]["digest"], counts=run.reps[0]["counts"])
            recorded = _recorded_digest(w, args)
            drift = "n/a" if recorded is None else str(recorded != run.reps[0]["digest"]).lower()
            entry["digest_drift"] = drift
            print(f"  digest {run.reps[0]['digest'][:16]}  digest_drift: {drift}")
        verdict = "ok" if run.correct else "FAILED: " + "; ".join(run.problems)
        leg = "leg digest matches, " if run.leg is not None else ""
        print(f"  correctness: {leg}{verdict}")
        full[w.name] = entry
    return full


def result_line(runs: List[WorkloadRun], args) -> Dict[str, Any]:
    """The result line: one workload's metrics by bare name; several
    workloads' metrics as ``<workload>/<metric>``."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else f"{run.workload.name}/"
        if not run.correct:
            continue
        if args.trace:
            values = {name: (run.ledger[name], unit_of(name)) for name in PER_LAYER}
        else:
            values = {name: (m["median"], m["unit"])
                      for name, m in run.metrics().items() if name in END_TO_END}
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(run.correct for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the simulator (see README.md)."
    )
    parser.add_argument("--workload", default="all",
                        help="'all' or comma-separated names: "
                        + ", ".join(w.name for w in WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed for every workload (default: profile seeds)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one traced rep per workload, report the layer ledger")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one rep, whatever --seconds says "
                        "(the test suite)")
    parser.add_argument("--out", default=None, help="write the full report as JSON")
    args = parser.parse_args(argv)
    try:
        workloads = (list(WORKLOADS) if args.workload == "all"
                     else [by_name(n.strip()) for n in args.workload.split(",")])
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    print(f"e2e bench: seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"smoke={args.smoke} nproc={os.cpu_count()} python={platform.python_version()}")
    runs = (trace if args.trace else measure)(workloads, args)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    full = report(runs, args, bounds)
    line = result_line(runs, args)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"args": vars(args), "nproc": os.cpu_count(),
                       "python": platform.python_version(), "workloads": full,
                       "result": line}, f, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
