"""One rep of one workload in a fresh process; ``run.py`` starts it.

Usage (the parent builds this command; ``PYTHONPATH`` must hold ``src``)::

    python benchmarks/e2e/rep.py --workload NAME --mode rep|traced|check
        [--seed N] [--smoke] [--spans FILE]

``rep`` runs the workload once with only the Device phase probes;
``traced`` adds every layer probe and writes kept spans to ``--spans``;
``check`` is the untimed correctness leg (invariant checker plus lockstep
oracle).  The last stdout line is one JSON object: timings, host ops,
digest, deterministic counts and, when traced, the per-layer ledger.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import selectors
import subprocess
import sys
import time
from dataclasses import asdict
from functools import reduce
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

import probes
from workloads import (
    CHECK_INTERVAL,
    FLEET_JOBS,
    FLEET_SHARDS,
    SERVE_WINDOW,
    Workload,
    by_name,
)

HERE = Path(__file__).resolve().parent


def _rss_mb(children: bool = False) -> float:
    """Peak resident set in MB (``ru_maxrss`` is KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _check_fields(check: bool) -> Dict[str, Any]:
    return {"check_interval": CHECK_INTERVAL, "oracle": True} if check else {}


def _combine(digests: List[str]) -> str:
    if len(digests) == 1:
        return digests[0]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def model_counts(
    counters: Dict[str, int],
    pools: List[Dict[str, float]],
    horizon_us: float,
    write_p99_us: float,
    read_p99_us: float,
    kv: Optional[Dict[str, int]] = None,
) -> Dict[str, float]:
    """Simulated, deterministic outputs: a change that only speeds up the
    simulator must leave every one of them identical."""
    writes = counters["host_writes"]
    programs = counters["programs"] + counters["gc_relocations"]
    erases, relocations = counters["gc_erases"], counters["gc_relocations"]
    lookups = sum(p["lookups"] for p in pools)
    kv = kv or {}
    return {
        "host_ops": writes + counters["host_reads"] + counters["host_trims"],
        "flash.programs": programs,
        "flash.reads": counters["flash_reads"],
        "flash.write_amp": programs / writes if writes else 0.0,
        "flash.revival_rate": counters["short_circuits"] / writes if writes else 0.0,
        "sim.horizon_s": horizon_us / 1e6,
        "sim.write_p99_us": write_p99_us,
        "sim.read_p99_us": read_p99_us,
        "gc.erases": erases,
        "gc.relocations": relocations,
        "gc.relocations_per_erase": relocations / erases if erases else 0.0,
        "dedup.hits": counters["dedup_hits"],
        "pool.hit_rate": sum(p["hits"] for p in pools) / lookups if lookups else 0.0,
        "pool.evictions": sum(p["evictions"] for p in pools),
        "kv.pack_seals": kv.get("pack_seals", 0),
        "kv.pack_repacks": kv.get("pack_repacks", 0),
    }


def counts_of_results(results, kv=None) -> Dict[str, float]:
    counters: Dict[str, int] = {}
    for result in results:
        for key, value in asdict(result.counters).items():
            counters[key] = counters.get(key, 0) + value
    writes = reduce(lambda a, b: a.merged_with(b), (r.writes for r in results))
    reads = reduce(lambda a, b: a.merged_with(b), (r.reads for r in results))
    return model_counts(
        counters,
        [r.pool_stats for r in results if r.pool_stats is not None],
        sum(r.horizon_us for r in results),
        writes.percentile(99) if len(writes) else 0.0,
        reads.percentile(99) if len(reads) else 0.0,
        kv,
    )


# -- runners: each returns the rep's outcome dict -------------------------


def run_block(w: Workload, seed, scale, check, rec, dump_dir) -> Dict[str, Any]:
    """``repro compare``'s path: RunSpec cells through ``run_specs``."""
    from repro.experiments.runner import ExperimentContext
    from repro.perf.parallel import run_specs
    from repro.perf.spec import RunSpec, result_digest

    start = time.perf_counter_ns()
    ExperimentContext.for_workload(w.source, scale, seed=seed)  # cold trace
    rec.window("setup", start)
    specs = [
        RunSpec(workload=w.source, system=system, scale=scale, seed=seed,
                **_check_fields(check))
        for system in w.systems
    ]
    results = run_specs(specs, jobs=1)
    return {
        "peak_rss_mb": _rss_mb(),
        "digest": _combine([result_digest(r) for r in results]),
        "counts": counts_of_results(results),
    }


def run_kv(w: Workload, seed, scale, check, rec, dump_dir) -> Dict[str, Any]:
    from repro.kv.scenario import KVSpec, execute_kv_spec

    run = execute_kv_spec(KVSpec(
        workload=w.source, system=w.systems[0], scale=scale, seed=seed,
    ))
    rss = _rss_mb()
    device, store = run.result.counters, run.kv_counters
    problems = [
        f"store sent {store[k]} {k} but the FTL saw {getattr(device, f)}"
        for k, f in (("flash_writes", "host_writes"), ("flash_reads", "host_reads"),
                     ("flash_trims", "host_trims"))
        if store[k] != getattr(device, f)
    ]
    return {
        "peak_rss_mb": rss,
        "digest": run.digest,
        "counts": counts_of_results([run.result], kv=store),
        "problems": problems,
    }


def run_fleet_workload(w: Workload, seed, scale, check, rec, dump_dir) -> Dict[str, Any]:
    from repro.experiments.runner import ExperimentContext
    from repro.fleet.fleet import FleetSpec, run_fleet

    start = time.perf_counter_ns()
    ExperimentContext.for_workload(w.source, scale, seed=seed)  # parent trace
    rec.window("setup", start)
    spec = FleetSpec(
        workload=w.source, system=w.systems[0], shards=FLEET_SHARDS,
        scale=scale, seed=seed, **_check_fields(check),
    )
    # The shards run in parallel workers, so the whole fan-out is one
    # window.  It is scaled by the speed the workers measured around their
    # own windows (a few dozen short lines: the pipe never fills).
    read_fd, rec.report_fd = os.pipe()
    try:
        start = time.perf_counter_ns()
        fleet = run_fleet(spec, jobs=FLEET_JOBS)
        end = time.perf_counter_ns()
    finally:
        os.close(rec.report_fd)
        rec.report_fd = None
    with os.fdopen(read_fd) as pipe:
        reported = [[float(x) for x in line.split()] for line in pipe]
    factor = sum(scaled for _, scaled in reported) / sum(raw for raw, _ in reported)
    rec.window("replay", start, factor=factor, end=end)
    return {
        "peak_rss_mb": max(_rss_mb(), _rss_mb(children=True)),
        "digest": fleet.fleet_digest,
        "counts": counts_of_results(fleet.shard_results),
    }


def _await_listening(server: subprocess.Popen, timeout: float):
    """(host, port) from the server's ``listening on`` line."""
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(server.stdout, selectors.EVENT_READ)
        while time.monotonic() < deadline:
            if not sel.select(timeout=deadline - time.monotonic()):
                break
            line = server.stdout.readline()
            if not line:
                break
            if "listening on" in line:
                host, _, port = line.rsplit(" ", 1)[1].rpartition(":")
                return host, int(port)
    raise RuntimeError("repro serve did not report a listening port")


def run_serve(w: Workload, seed, scale, check, rec, dump_dir) -> Dict[str, Any]:
    """One ``repro serve`` process and one stock ServeClient, closed loop:
    stream a window, flush (the ack barrier), repeat.  Traced, the server
    starts with probes and writes its spans into ``dump_dir``."""
    if check:  # the leg: the same trace in batch, checked
        return run_block(w, seed, scale, check, rec, dump_dir)
    from repro.experiments.runner import ExperimentContext
    from repro.serve.client import ServeClient

    trace = ExperimentContext.for_workload(w.source, scale, seed=seed).trace
    if dump_dir is None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    else:
        command = [sys.executable, str(HERE / "serve_launcher.py"),
                   str(dump_dir / "server.json")]
    opened = {"tenant": "bench", "workload": w.source, "system": w.systems[0],
              "scale": scale}
    if seed is not None:
        opened["seed"] = seed
    start = time.perf_counter_ns()
    server = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        host, port = _await_listening(server, timeout=60)
        with ServeClient(host, port, timeout=120) as client:
            client.open(**opened)
            rec.window("setup", start)
            # Replay: first io line to the close reply.  Not scaled: this
            # closed loop is bound by message round trips more than by how
            # fast the host runs Python (README.md, Noise).
            acks = []
            start = time.perf_counter_ns()
            for index in range(0, len(trace), SERVE_WINDOW):
                client.stream(trace[index:index + SERVE_WINDOW])
                sent = time.perf_counter_ns()
                client.flush()
                acks.append((time.perf_counter_ns() - sent) / 1e6)
            record = client.close_session()
            rec.window("replay", start, factor=1.0)
            client.shutdown_server()
        server.communicate(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
    latency = record["latency"]
    served = record["meta"]["served"]
    return {
        "peak_rss_mb": _rss_mb(children=True),  # the server process
        "digest": record["digest"],
        "counts": model_counts(
            record["counters"],
            [record["pool"]] if record["pool"] else [],
            record["horizon_us"],
            latency["write"]["p99_us"],
            latency["read"]["p99_us"],
        ),
        "failed": len(trace) - served,
        "acks_ms": acks,
    }


RUNNERS = {
    "block": run_block,
    "kv": run_kv,
    "fleet": run_fleet_workload,
    "serve": run_serve,
}


# -- the traced rep's ledger ----------------------------------------------


def ledger(snap, outcome, prefill) -> Dict[str, float]:
    """Per-layer metrics of one traced rep.  The first block is defined on
    every workload; the rest only where that layer ran."""
    step = snap["step_agg"]

    def calls(name):
        return step[name][0] if name in step else 0

    def self_s(name):
        return step[name][2] / 1e9 if name in step else 0.0

    out: Dict[str, float] = {
        "traces.generate_s": probes.total_s(snap, "traces.generate"),
        "device.precondition_s": probes.total_s(snap, "device.precondition")
        + probes.total_s(snap, "device.load"),
        "device.step_s": probes.total_s(snap, "device.step"),
        "perf.prefill_cache.hits": prefill["hits"],
        "perf.prefill_cache.misses": prefill["misses"],
        "perf.digest_s": probes.total_s(snap, "perf.digest"),
    }
    for layer in ("sim.submit", "flash.timing", "ftl.write", "ftl.read", "gc.collect"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.self_s"] = self_s(layer)
    for layer in ("ftl.trim", "pool.lookup", "pool.insert", "pool.discard"):
        out[f"{layer}.calls"] = calls(layer)
    out.update(
        (name, value) for name, value in outcome["counts"].items() if name != "host_ops"
    )
    # Layers only some workloads enter: omitted elsewhere, never zero.
    for layer in ("ftl.trim", "pool.lookup", "pool.insert", "kv.translate"):
        if layer in step:
            out[f"{layer}.self_s"] = self_s(layer)
    shards = probes.raw(snap, "fleet.shard")
    if shards:
        durations = [(end - start) / 1e9 for _, start, end in shards]
        busy: Dict[int, float] = {}
        for (pid, _, _), duration in zip(shards, durations):
            busy[pid] = busy.get(pid, 0.0) + duration
        out["fleet.route_s"] = probes.total_s(snap, "fleet.route")
        out["fleet.shard_s.max"] = max(durations)
        out["fleet.shard_s.mean"] = sum(durations) / len(durations)
        fanout_s = sum(raw_s for raw_s, _ in outcome["replay"])
        out["fleet.fanout_overhead_s"] = fanout_s - max(busy.values())
    if "acks_ms" in outcome:
        for name in ("decode", "step", "metrics_record", "encode", "client_send"):
            out[f"serve.{name}_s"] = probes.total_s(snap, f"serve.{name}")
        steps = sorted(probes.raw(snap, "serve.step"), key=lambda s: s[2])
        server_ms = []
        for _, start, end in sorted(
            probes.raw(snap, "serve.metrics_record"), key=lambda s: s[1]
        ):
            flushed = [s for s in steps if s[2] <= start]
            step_ns = flushed[-1][2] - flushed[-1][1] if flushed else 0
            server_ms.append((end - start + step_ns) / 1e6)
        acks = outcome["acks_ms"]
        out["serve.ack_gap_ms.p50"] = median(a - s for a, s in zip(acks, server_ms))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("rep", "traced", "check"), required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None, help="traced: spans JSONL path")
    args = parser.parse_args(argv)

    workload = by_name(args.workload)
    scale = workload.smoke_scale if args.smoke else workload.scale
    traced = args.mode == "traced"
    seed_label = "default" if args.seed is None else args.seed
    rec = probes.Recorder(trace_id=f"{workload.name}/seed-{seed_label}")
    probes.install_phase_probes(rec)
    dump_dir = None
    if traced:
        dump_dir = Path(args.spans).with_suffix(".parts")
        dump_dir.mkdir(parents=True, exist_ok=True)
        for stale in dump_dir.glob("*.json"):
            stale.unlink()

        def on_worker_shard(spec):
            path = dump_dir / f"shard{spec.index}.json"
            with open(path, "w") as f:
                json.dump(rec.snapshot(), f)

        probes.install_layer_probes(rec, on_worker_shard)

    outcome = RUNNERS[workload.kind](
        workload, args.seed, scale, args.mode == "check", rec, dump_dir
    )
    outcome.update(rec.windows)
    outcome.setdefault("failed", 0)
    outcome.setdefault("problems", [])

    if traced:
        from repro.perf.snapshot import default_prefill_cache

        cache = default_prefill_cache()
        prefill = {"hits": cache.hits, "misses": cache.misses}
        parts = [rec.snapshot()]
        for path in sorted(glob.glob(str(dump_dir / "*.json"))):
            with open(path) as f:
                part = json.load(f)
            server_prefill = part.pop("prefill", {})
            for key in prefill:
                prefill[key] += server_prefill.get(key, 0)
            parts.append(part)
            os.unlink(path)
        dump_dir.rmdir()
        snap = probes.merge(parts)
        outcome["ledger"] = ledger(snap, outcome, prefill)
        with open(args.spans, "w") as f:
            for line in rec.span_lines(snap["spans"]):
                f.write(line + "\n")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
