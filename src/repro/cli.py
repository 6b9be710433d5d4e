"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``run``
    Simulate one system on one workload and print the result summary.
``compare``
    Run several systems on one workload; print a comparison table
    normalised to the first system.
``figure``
    Regenerate one paper figure/table by id (fig01..fig15, table1,
    table2) and print it.
``characterize``
    The Section II analysis bundle for one workload.
``replicate``
    Multi-seed improvement statistics for one system/metric.
``matrix``
    Run a full (workloads × systems) matrix, optionally in parallel.
``faults``
    Run one system on an unreliable device (seeded fault injection),
    or — with ``--recovery`` — measure the post-crash revival-rate
    warmup against an uninterrupted run.
``fleet``
    Shard one workload across N simulated drives (consistent-hash
    routing), run the shards in parallel, and print the fleet
    aggregate; ``--compare-pool-modes`` contrasts private per-drive
    dead-value pools with the shared-pool upper bound.
``kv``
    Run a keyed (KV-SSD) workload from the zoo (:mod:`repro.kv`) over
    any system: key→LPN translation, small-value inlining, TRIM on
    delete; ``--ablate`` pairs the run with its pool-off counterpart
    and reports the revival / write-amplification delta.
``serve``
    Run the streaming multi-tenant trace service (:mod:`repro.serve`):
    tenants stream JSONL trace traffic over a socket, sessions
    checkpoint/resume, and every response carries the unified schema.
``lint``
    Run the repo's AST-based determinism/layering linter
    (:mod:`repro.lint`) over the given paths.

All output goes to stdout; ``--json`` switches machine-readable output
where applicable — always one ``repro.api/v1``
:class:`~repro.api.ResultRecord` shape (or a mapping of them), the
same schema the obs/fleet JSONL exporters, the bench harness and the
serve responses emit.  Commands that fan out over independent cells
(``compare``, ``replicate``, ``matrix``, ``fleet``, ``kv --ablate``)
take ``--jobs N`` (0 = all cores); parallel results are bit-identical
to ``--jobs 1``.  The tracked benchmark is not a subcommand: ``make
bench`` runs ``benchmarks/perf/harness.py``, which gates the report.
Shared flag groups (``--scale``, ``--jobs``, ``--seed``, the
``--check`` trio, the fault probabilities, the ``--obs`` pair) are
declared once in :mod:`repro.cliopts` and reused verbatim across
subcommands.  Exit code 0 on success, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from .analysis.characterize import (
    invalidation_cdf,
    reuse_opportunity,
    run_lifecycle,
    value_cdfs,
)
from .analysis.report import render_table
from .api import record_from_run
from .cliopts import (
    add_check_flags,
    add_fault_flags,
    add_jobs,
    add_obs_flags,
    add_scale,
    add_seed,
    build_obs,
    check_kwargs,
    fault_config,
    fault_config_or_none,
)
from .experiments import figures as figures_mod
from .experiments.figures import EvaluationMatrix
from .experiments.config import RunConfig
from .experiments.replication import paired_improvement
from .experiments.runner import ExperimentContext, run_system
from .ftl.dvp_ftl import SYSTEMS
from .traces.profiles import PROFILES
from .traces.synthetic import generate_trace

__all__ = ["main", "build_parser"]

#: figure id → (callable, needs_matrix)
FIGURES = {
    "fig01": (figures_mod.fig01_reuse_opportunity, False),
    "fig02": (figures_mod.fig02_invalidation_cdf, False),
    "fig03": (figures_mod.fig03_value_cdfs, False),
    "fig04": (figures_mod.fig04_lifecycle, False),
    "fig05": (figures_mod.fig05_lru_sweep, False),
    "fig06": (figures_mod.fig06_lru_misses, False),
    "table1": (lambda scale: figures_mod.table1_configuration(), False),
    "table2": (figures_mod.table2_workloads, False),
    "fig09": (figures_mod.fig09_write_reduction, True),
    "fig10": (figures_mod.fig10_erase_reduction, True),
    "fig11": (figures_mod.fig11_mean_latency, True),
    "fig12": (figures_mod.fig12_tail_latency, True),
    "fig14": (figures_mod.fig14_dedup_writes, True),
    "fig15": (figures_mod.fig15_dedup_latency, True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reviving Zombie Pages on SSDs — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one system on one workload")
    run_p.add_argument("--workload", choices=sorted(PROFILES), required=True)
    run_p.add_argument("--system", choices=sorted(SYSTEMS), required=True)
    run_p.add_argument("--pool", type=int, default=200_000,
                       help="pool size in paper-label entries (default 200K)")
    run_p.add_argument("--json", action="store_true")
    add_obs_flags(run_p)
    run_p.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print self time by repro layer",
    )
    add_check_flags(run_p)
    add_fault_flags(run_p)
    add_scale(run_p)

    cmp_p = sub.add_parser("compare", help="compare systems on one workload")
    cmp_p.add_argument("--workload", choices=sorted(PROFILES), required=True)
    cmp_p.add_argument(
        "--systems", default="baseline,mq-dvp,dedup,dvp+dedup",
        help="comma-separated system names (first is the reference)",
    )
    cmp_p.add_argument("--pool", type=int, default=200_000)
    add_check_flags(cmp_p)
    add_scale(cmp_p)
    add_jobs(cmp_p)

    fig_p = sub.add_parser("figure", help="regenerate one paper artifact")
    fig_p.add_argument("id", choices=sorted(FIGURES))
    add_scale(fig_p)

    chr_p = sub.add_parser(
        "characterize", help="Section II analysis for one workload"
    )
    chr_p.add_argument("--workload", choices=sorted(PROFILES), required=True)
    add_scale(chr_p)

    report_p = sub.add_parser(
        "report", help="regenerate every artifact into one document"
    )
    report_p.add_argument("--out", default=None,
                          help="write to this file instead of stdout")
    add_scale(report_p)

    rep_p = sub.add_parser(
        "replicate", help="multi-seed improvement statistics"
    )
    rep_p.add_argument("--workload", choices=sorted(PROFILES), required=True)
    rep_p.add_argument("--system", choices=sorted(SYSTEMS), required=True)
    rep_p.add_argument("--metric", default="flash_writes")
    rep_p.add_argument("--seeds", default="1,2,3",
                       help="comma-separated seeds")
    add_scale(rep_p)
    add_jobs(rep_p)

    mat_p = sub.add_parser(
        "matrix", help="run a (workloads x systems) matrix"
    )
    mat_p.add_argument(
        "--workloads", default="mail,web",
        help="comma-separated workload names",
    )
    mat_p.add_argument(
        "--systems", default="baseline,mq-dvp,dedup",
        help="comma-separated system names",
    )
    mat_p.add_argument("--pool", type=int, default=200_000,
                       help="pool size in paper-label entries")
    mat_p.add_argument("--queue-depth", type=int, default=None,
                       help="device queue depth (default: config value)")
    mat_p.add_argument("--json", action="store_true")
    add_scale(mat_p)
    add_jobs(mat_p)

    flt_p = sub.add_parser(
        "faults",
        help="fault-injection run, or --recovery warmup measurement",
    )
    flt_p.add_argument("--workload", choices=sorted(PROFILES), required=True)
    flt_p.add_argument("--system", choices=sorted(SYSTEMS), required=True)
    flt_p.add_argument("--pool", type=int, default=200_000,
                       help="pool size in paper-label entries (default 200K)")
    add_fault_flags(flt_p)
    add_check_flags(flt_p)
    flt_p.add_argument(
        "--recovery", action="store_true",
        help="run the crash-recovery warmup experiment instead "
             "(crashed vs uninterrupted revival rate)",
    )
    flt_p.add_argument(
        "--crash-fraction", type=float, default=0.5, metavar="F",
        help="--recovery: crash point as a fraction of the trace "
             "(default 0.5)",
    )
    flt_p.add_argument(
        "--window", type=int, default=2000, metavar="N",
        help="--recovery: sampling window in host requests (default 2000)",
    )
    flt_p.add_argument("--json", action="store_true")
    add_scale(flt_p)

    fleet_p = sub.add_parser(
        "fleet",
        help="shard one workload across N simulated drives and "
             "aggregate the fleet",
    )
    fleet_p.add_argument("--workload", choices=sorted(PROFILES),
                         required=True)
    fleet_p.add_argument("--system", choices=sorted(SYSTEMS), required=True)
    fleet_p.add_argument("--shards", type=int, default=4, metavar="N",
                         help="number of simulated drives (default 4)")
    fleet_p.add_argument("--pool", type=int, default=200_000,
                         help="fleet pool budget in paper-label entries "
                              "(default 200K)")
    fleet_p.add_argument(
        "--pool-mode", choices=("per-drive", "shared"), default="per-drive",
        help="per-drive: split the budget across shards; shared: every "
             "shard gets the full budget (fleet-wide-pool upper bound)",
    )
    fleet_p.add_argument(
        "--compare-pool-modes", action="store_true",
        help="run both pool modes and report aggregate flash programs "
             "for each (overrides --pool-mode)",
    )
    add_seed(fleet_p, default=None, help="trace-generator seed override")
    fleet_p.add_argument(
        "--check", action="store_true",
        help="attach the invariant checker + lockstep oracle to every "
             "shard (digests are identical with and without it)",
    )
    add_obs_flags(fleet_p, intervals=False,
                  help="write per-shard + fleet JSONL records to PATH")
    fleet_p.add_argument("--json", action="store_true")
    add_scale(fleet_p)
    add_jobs(fleet_p)

    kv_p = sub.add_parser(
        "kv",
        help="run a keyed (KV-SSD) zoo workload over a system "
             "(see DESIGN.md §13)",
    )
    from .kv.zoo import KV_WORKLOADS

    kv_p.add_argument("--workload", choices=sorted(KV_WORKLOADS),
                      default="ycsb-a",
                      help="zoo workload (default ycsb-a)")
    kv_p.add_argument("--system", choices=sorted(SYSTEMS), default="mq-dvp",
                      help="studied system (default mq-dvp)")
    kv_p.add_argument("--pool", type=int, default=200_000,
                      help="pool size in paper-label entries (default 200K)")
    kv_p.add_argument(
        "--ablate", action="store_true",
        help="also run the system's pool-off counterpart and report "
             "the revival / write-amplification delta",
    )
    kv_p.add_argument("--json", action="store_true")
    add_seed(kv_p, default=None, help="workload generator seed override")
    add_scale(kv_p)
    add_jobs(kv_p)

    serve_p = sub.add_parser(
        "serve",
        help="streaming multi-tenant trace service (see DESIGN.md §12)",
    )
    serve_p.add_argument("--host", default=None,
                         help="bind address (default 127.0.0.1, or "
                              "REPRO_SERVE_HOST)")
    serve_p.add_argument("--port", type=int, default=None,
                         help="TCP port, 0 = ephemeral (default 9911, or "
                              "REPRO_SERVE_PORT)")
    serve_p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="directory for session checkpoints; enables "
                              "kill/resume (default: none)")
    serve_p.add_argument("--max-sessions", type=int, default=None, metavar="N",
                         help="concurrent tenant session cap (default 64)")
    serve_p.add_argument("--batch-requests", type=int, default=None,
                         metavar="N",
                         help="default per-tenant step batch size "
                              "(default 256; open messages may override)")
    serve_p.add_argument("--checkpoint-every", type=int, default=None,
                         metavar="N",
                         help="checkpoint a session every N serviced "
                              "requests (default: only on detach/drain)")
    add_obs_flags(serve_p, intervals=False,
                  help="append every serve.metrics/serve.session record "
                       "to PATH as JSONL")
    add_jobs(serve_p, help="simulation worker threads "
                           "(default 1, 0 = all cores)")
    add_seed(serve_p, default=None,
             help="default trace-generator seed for sessions that do "
                  "not pick one (default: profile seed)")
    add_check_flags(serve_p)

    lint_p = sub.add_parser(
        "lint",
        help="AST-based determinism & layering linter (see DESIGN.md §9)",
    )
    lint_p.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files/directories to lint (default: src/repro)",
    )
    lint_p.add_argument(
        "--format", choices=("text", "jsonl", "github"), default="text",
        help="report format: human text, JSONL records, or GitHub "
             "Actions annotations (default text)",
    )
    lint_p.add_argument(
        "--baseline", default="lint-baseline.json", metavar="PATH",
        help="baseline file of justified grandfathered findings "
             "(default lint-baseline.json; missing file = empty)",
    )
    lint_p.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline file (report everything)",
    )
    lint_p.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline to cover current findings (new "
             "entries get TODO justifications, entries that no longer "
             "match are pruned) and exit 0",
    )
    lint_p.add_argument(
        "--strict-baseline", action="store_true",
        help="treat stale baseline entries as a failure (exit 1); "
             "used in CI so the baseline only ever shrinks",
    )
    lint_p.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    lint_p.add_argument(
        "--ignore", default=None, metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    lint_p.add_argument(
        "--rules", action="store_true",
        help="list the rule catalog (code + summary) and exit",
    )
    lint_p.add_argument(
        "--package-root", default=None, metavar="DIR",
        help="map module names relative to this directory instead of "
             "auto-detecting package roots",
    )
    lint_p.add_argument(
        "--flow-cache-dir", default=".lint-flow-cache", metavar="DIR",
        help="directory for the per-file flow-analysis cache, keyed on "
             "content hashes (default .lint-flow-cache)",
    )
    lint_p.add_argument(
        "--no-flow-cache", action="store_true",
        help="keep the flow analysis in memory only (no on-disk cache)",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from .perf.snapshot import default_prefill_cache, prefill_key

    context = ExperimentContext.for_workload(args.workload, args.scale)
    try:
        faults = fault_config_or_none(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs = build_obs(args)
    if obs is None:
        return 2
    config = RunConfig(
        paper_pool_entries=args.pool, scale=args.scale,
        observer=obs.observer, faults=faults, **check_kwargs(args),
    )
    profiler = cProfile.Profile() if args.profile else None
    # One planned cell: no snapshot is captured that nothing restores.
    plan = [prefill_key(context.config, context.profile)]
    try:
        with default_prefill_cache().planned(plan):
            if profiler is not None:
                result = profiler.runcall(
                    run_system, args.system, context, config=config
                )
            else:
                result = run_system(args.system, context, config=config)
    finally:
        obs.close()
    if args.json:
        record = record_from_run(result)
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    else:
        summary = result.summary()
        rows = [(k, v) for k, v in sorted(summary.items())]
        print(render_table(
            ["metric", "value"], rows,
            title=f"{args.system} on {args.workload} (scale {args.scale})",
        ))
    if obs.observer is not None:
        print(f"observability: {obs.observer.sample_count} samples "
              f"-> {args.obs}", file=sys.stderr)
    if profiler is not None:
        print(_layer_profile(profiler))
    return 0


def _layer_profile(profiler: cProfile.Profile) -> str:
    """Fold a profile's self time by ``repro.<subpackage>``; builtins,
    top-level ``repro`` modules and foreign code count as ``other``."""
    root = os.path.dirname(__file__) + os.sep
    layers: Dict[str, List[float]] = {}
    for entry in profiler.getstats():
        path = getattr(entry.code, "co_filename", "")
        rest = path[len(root):] if path.startswith(root) else ""
        layer = rest.split(os.sep)[0] if os.sep in rest else "other"
        totals = layers.setdefault(layer, [0, 0.0])
        totals[0] += entry.callcount
        totals[1] += entry.inlinetime
    whole = sum(self_s for _, self_s in layers.values()) or 1.0
    return render_table(
        ["layer", "calls", "self (s)", "share (%)"],
        [
            (layer, int(calls), f"{self_s:.3f}",
             f"{100 * self_s / whole:.1f}")
            for layer, (calls, self_s) in sorted(
                layers.items(), key=lambda kv: (-kv[1][1], kv[0])
            )
        ],
        title="cProfile self time by layer",
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    from .perf.parallel import run_specs
    from .perf.spec import RunSpec

    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    unknown = [s for s in systems if s not in SYSTEMS]
    if unknown:
        print(f"unknown systems: {', '.join(unknown)}", file=sys.stderr)
        return 2
    check = check_kwargs(args)
    specs = [
        RunSpec(
            workload=args.workload,
            system=system,
            paper_pool_entries=args.pool,
            scale=args.scale,
            check_interval=check.get("check_interval"),
            oracle=check.get("oracle", False),
            trim_every=check["trim_every"],
        )
        for system in systems
    ]
    results = run_specs(specs, jobs=args.jobs)
    rows = []
    reference = None
    for system, result in zip(systems, results):
        summary = result.summary()
        if reference is None:
            reference = summary
        rows.append((
            system,
            f"{summary['flash_writes']:.0f}",
            f"{summary['erases']:.0f}",
            f"{summary['mean_latency_us']:.1f}",
            f"{100 * (1 - summary['mean_latency_us'] / reference['mean_latency_us']):.1f}"
            if reference["mean_latency_us"] else "0.0",
        ))
    print(render_table(
        ["system", "flash writes", "erases", "mean latency (us)",
         f"latency cut vs {systems[0]} (%)"],
        rows, title=f"{args.workload} at scale {args.scale}",
    ))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    func, needs_matrix = FIGURES[args.id]
    if needs_matrix:
        result = func(EvaluationMatrix(RunConfig(scale=args.scale)))
    else:
        result = func(args.scale)
    print(f"[{args.id}]")
    _print_result(result)
    return 0


def _print_result(result: object) -> None:
    """Best-effort generic rendering of a figure function's return value."""
    if isinstance(result, dict):
        for key, value in result.items():
            print(f"{key}: {value}")
    elif isinstance(result, list):
        for item in result:
            print(item)
    else:
        print(result)


def _cmd_characterize(args: argparse.Namespace) -> int:
    profile = PROFILES[args.workload].scaled(args.scale)
    trace = generate_trace(profile)
    tracker = run_lifecycle(trace)
    reuse = reuse_opportunity(trace, profile.name)
    inval = invalidation_cdf(tracker)
    cdfs = value_cdfs(tracker)
    rows = [
        ("requests", len(trace)),
        ("writes", tracker.stats.total_writes),
        ("unique values written", tracker.unique_value_count()),
        ("deaths", tracker.stats.deaths),
        ("rebirths", tracker.stats.rebirths),
        ("P(reuse), infinite buffer", f"{reuse.without_dedup:.3f}"),
        ("P(reuse) after dedup", f"{reuse.with_dedup:.3f}"),
        ("values never invalidated", f"{inval.never_invalidated_frac:.3f}"),
        ("values live at end", f"{inval.live_value_frac:.3f}"),
        ("write share of top 20% values", f"{cdfs.share_at('write', 0.2):.3f}"),
        ("rebirth share of top 20% values",
         f"{cdfs.share_at('rebirth', 0.2):.3f}"),
    ]
    print(render_table(
        ["metric", "value"], rows,
        title=f"Section II characterisation: {args.workload} "
              f"(scale {args.scale})",
    ))
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    reps = paired_improvement(
        args.workload, args.system, args.metric, seeds, args.scale,
        jobs=args.jobs,
    )
    print(f"{args.system} vs baseline on {args.workload}, "
          f"{args.metric} improvement: {reps.summary()}")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .experiments.runner import run_matrix

    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    bad_w = [w for w in workloads if w not in PROFILES]
    bad_s = [s for s in systems if s not in SYSTEMS]
    if bad_w or bad_s:
        for name, kind in [(bad_w, "workloads"), (bad_s, "systems")]:
            if name:
                print(f"unknown {kind}: {', '.join(name)}", file=sys.stderr)
        return 2
    results = run_matrix(
        workloads, systems,
        config=RunConfig(
            paper_pool_entries=args.pool, scale=args.scale,
            jobs=args.jobs, queue_depth=args.queue_depth,
        ),
    )
    if args.json:
        payload = {
            workload: {
                system: record_from_run(result).to_dict()
                for system, result in by_system.items()
            }
            for workload, by_system in results.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = [
        (
            workload,
            system,
            f"{result.summary()['flash_writes']:.0f}",
            f"{result.summary()['erases']:.0f}",
            f"{result.summary()['mean_latency_us']:.1f}",
            f"{result.summary()['p99_latency_us']:.1f}",
        )
        for workload, by_system in results.items()
        for system, result in by_system.items()
    ]
    print(render_table(
        ["workload", "system", "flash writes", "erases",
         "mean latency (us)", "p99 (us)"],
        rows,
        title=f"matrix at scale {args.scale} "
              f"(pool {args.pool}, jobs {args.jobs})",
    ))
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    if args.recovery:
        from .experiments.recovery import run_recovery_experiment

        try:
            result = run_recovery_experiment(
                workload=args.workload,
                system=args.system,
                scale=args.scale,
                paper_pool_entries=args.pool,
                crash_fraction=args.crash_fraction,
                window_requests=args.window,
                fault_seed=args.seed,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            from dataclasses import asdict

            print(json.dumps(asdict(result), indent=2, sort_keys=True))
            return 0
        rows = [
            (
                (i + 1) * result.window_requests,
                f"{warm:.4f}",
                f"{ref:.4f}",
                f"{ref - warm:+.4f}",
            )
            for i, (warm, ref) in enumerate(
                zip(result.warmup_rates, result.reference_rates)
            )
        ]
        print(render_table(
            ["requests since crash", "revival rate (crashed)",
             "revival rate (uninterrupted)", "gap"],
            rows,
            title=f"revival warmup: {args.system} on {args.workload} "
                  f"(crash @ {result.crash_after_requests}, "
                  f"scale {result.scale})",
        ))
        recovery_us = result.fault_summary.get("mean_recovery_us", 0.0)
        print(f"recovery scan: {recovery_us:.0f} us; "
              f"final gap {result.final_gap:+.4f}", file=sys.stderr)
        return 0
    try:
        faults = fault_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    context = ExperimentContext.for_workload(args.workload, args.scale)
    result = run_system(
        args.system, context,
        config=RunConfig(
            paper_pool_entries=args.pool, scale=args.scale,
            faults=faults, **check_kwargs(args),
        ),
    )
    if args.json:
        record = record_from_run(result)
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
    else:
        summary = dict(result.summary())
        summary.update(result.fault_summary())
        rows = [(k, v) for k, v in sorted(summary.items())]
        print(render_table(
            ["metric", "value"], rows,
            title=f"{args.system} on {args.workload} with faults "
                  f"(seed {args.seed}, scale {args.scale})",
        ))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import FleetSpec, compare_pool_modes, run_fleet

    try:
        spec = FleetSpec(
            workload=args.workload,
            system=args.system,
            shards=args.shards,
            paper_pool_entries=args.pool,
            scale=args.scale,
            seed=args.seed,
            pool_mode=args.pool_mode,
            oracle=args.check,
            check_interval=None,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.compare_pool_modes:
        comparison = compare_pool_modes(spec, jobs=args.jobs)
        if args.json:
            print(json.dumps(comparison.summary(), indent=2, sort_keys=True))
            return 0
        rows = [
            ("per-drive", f"{comparison.per_drive_programs}",
             f"{comparison.per_drive.write_amplification:.3f}",
             f"{comparison.per_drive.revival_rate:.3f}"),
            ("shared", f"{comparison.shared_programs}",
             f"{comparison.shared.write_amplification:.3f}",
             f"{comparison.shared.revival_rate:.3f}"),
        ]
        print(render_table(
            ["pool mode", "flash programs", "fleet WA", "revival rate"],
            rows,
            title=f"pool modes: {args.system} on {args.workload}, "
                  f"{args.shards} shards (scale {args.scale})",
        ))
        print(f"shared-pool upper bound saves "
              f"{comparison.programs_saved} programs "
              f"({comparison.percent_saved:.1f}%)")
        return 0

    result = run_fleet(spec, jobs=args.jobs)
    if args.obs:
        from .obs import JsonlWriter

        try:
            with JsonlWriter(args.obs) as writer:
                records = result.export_jsonl(writer)
        except OSError as exc:
            print(f"error: cannot open --obs file: {exc}", file=sys.stderr)
            return 2
        print(f"fleet export: {records} records -> {args.obs}",
              file=sys.stderr)
    if args.json:
        from .api import records_from_fleet

        record = records_from_fleet(result)[-1]
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0
    summary = result.summary()
    rows = [(k, v) for k, v in sorted(summary.items())]
    print(render_table(
        ["metric", "value"], rows,
        title=f"fleet: {args.system} on {args.workload}, "
              f"{args.shards} shards, pool {args.pool_mode} "
              f"(scale {args.scale}, jobs {result.jobs})",
    ))
    per_shard = ", ".join(
        f"shard{i}={n}" for i, n in enumerate(result.shard_requests)
    )
    print(f"per-shard requests: {per_shard}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from dataclasses import replace

    from .serve import run_server, settings_from_env

    if args.trim_every:
        print("error: --trim-every is a trace transform; serve receives "
              "the trace from its tenants, so apply it client-side",
              file=sys.stderr)
        return 2
    overrides = {
        "host": args.host,
        "port": args.port,
        "checkpoint_dir": args.checkpoint_dir,
        "obs_path": args.obs,
        "max_sessions": args.max_sessions,
        "batch_requests": args.batch_requests,
        "checkpoint_every": args.checkpoint_every,
        "default_seed": args.seed,
        "check_interval": args.check_interval,
    }
    if args.jobs != 1:
        overrides["jobs"] = args.jobs
    if args.check or args.check_interval is not None:
        overrides["oracle"] = True
    try:
        settings = replace(
            settings_from_env(),
            **{k: v for k, v in overrides.items() if v is not None},
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return asyncio.run(run_server(settings))


def _cmd_kv(args: argparse.Namespace) -> int:
    from .api import record_from_kv_run, records_from_kv_ablation
    from .kv import KVSpec, execute_kv_spec, run_kv_ablation

    try:
        spec = KVSpec(
            workload=args.workload,
            system=args.system,
            paper_pool_entries=args.pool,
            scale=args.scale,
            seed=args.seed,
        )
        if args.ablate:
            on, off = run_kv_ablation(spec, jobs=args.jobs)
        else:
            on, off = execute_kv_spec(spec), None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        if off is not None:
            record = records_from_kv_ablation(on, off)[-1]
        else:
            record = record_from_kv_run(on)
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0

    def leg_rows(kv):
        counters = kv.result.counters
        return [
            ("flash writes", counters.programs + counters.gc_relocations),
            ("host writes", counters.host_writes),
            ("host trims", counters.host_trims),
            ("write amplification", f"{kv.write_amplification:.3f}"),
            ("revival rate", f"{kv.revival_rate:.3f}"),
            ("pack seals", kv.kv_counters["pack_seals"]),
            ("pack repacks", kv.kv_counters["pack_repacks"]),
            ("digest", kv.digest[:16]),
        ]

    print(render_table(
        ["metric", "value"], leg_rows(on),
        title=f"kv: {args.workload} on {args.system} "
              f"(scale {args.scale}, seed {args.seed})",
    ))
    if off is not None:
        print(render_table(
            ["metric", "value"], leg_rows(off),
            title=f"pool off: {off.spec.system}",
        ))
        on_writes = (on.result.counters.programs
                     + on.result.counters.gc_relocations)
        off_writes = (off.result.counters.programs
                      + off.result.counters.gc_relocations)
        print(f"pool saves {off_writes - on_writes} flash writes "
              f"(revival rate {on.revival_rate:.3f}; WA "
              f"{off.write_amplification:.3f} -> "
              f"{on.write_amplification:.3f})")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import (
        Baseline,
        LintEngine,
        all_rules,
        render_github,
        render_jsonl,
        render_text,
    )

    if args.rules:
        for rule in all_rules():
            print(f"{rule.code:24s} {rule.summary}")
        return 0

    known = {rule.code for rule in all_rules()}

    def parse_codes(raw: Optional[str], flag: str) -> Optional[List[str]]:
        if raw is None:
            return None
        codes = [c.strip() for c in raw.split(",") if c.strip()]
        unknown = [c for c in codes if c not in known]
        if unknown:
            raise ValueError(
                f"{flag}: unknown rule codes {', '.join(unknown)} "
                f"(see repro lint --rules)"
            )
        return codes

    try:
        select = parse_codes(args.select, "--select")
        ignore = parse_codes(args.ignore, "--ignore")
        baseline = (
            Baseline()
            if args.no_baseline or args.write_baseline
            else Baseline.load(args.baseline)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = LintEngine(
        select=select,
        ignore=ignore,
        baseline=baseline,
        package_root=args.package_root,
        cache_dir=None if args.no_flow_cache else args.flow_cache_dir,
    )
    try:
        result = engine.run(args.paths)
    except (OSError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        previous = Baseline.load(args.baseline)
        updated = Baseline.from_violations(result.violations, previous)
        updated.save(args.baseline)
        print(
            f"wrote {args.baseline}: {len(updated)} entries "
            f"covering {len(result.violations)} findings "
            "(replace any TODO justifications before committing)"
        )
        return 0

    renderer = {
        "text": render_text,
        "jsonl": render_jsonl,
        "github": render_github,
    }[args.format]
    print(renderer(result))
    if args.strict_baseline and result.stale_baseline:
        print(
            f"error: {len(result.stale_baseline)} stale baseline "
            "entries (run repro lint --write-baseline to prune)",
            file=sys.stderr,
        )
        return 1
    return 0 if result.clean else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import generate_report

    text = generate_report(args.scale)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


COMMANDS = {
    "run": _cmd_run,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "figure": _cmd_figure,
    "characterize": _cmd_characterize,
    "replicate": _cmd_replicate,
    "matrix": _cmd_matrix,
    "faults": _cmd_faults,
    "fleet": _cmd_fleet,
    "kv": _cmd_kv,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
