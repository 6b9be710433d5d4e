"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``run``
    Simulate one system on one workload and print the result summary;
    the fault flags attach a seeded fault model (DESIGN.md §7) and add
    its ``fault.*`` rows to the summary.
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
``recovery``
    Measure the post-crash revival-rate warmup against an
    uninterrupted run of the same trace.
``fleet``
    Shard one workload across N simulated drives (consistent-hash
    routing), run the shards in parallel, and print the fleet
    aggregate; ``--pool-mode both`` contrasts private per-drive
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
A flag that several subcommands take is declared once, in
:data:`SHARED_FLAGS`.  Exit code 0 on success, 2 on usage errors: flags
that cannot build a valid spec or config print ``error: …`` (raised as
:class:`UsageError`, caught in :func:`main`).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from .analysis.characterize import (
    invalidation_cdf,
    reuse_opportunity,
    run_lifecycle,
    value_cdfs,
)
from .analysis.report import render_table
from .api import record_from_run
from .experiments import figures as figures_mod
from .experiments.figures import EvaluationMatrix
from .experiments.config import DEFAULT_SCALE, RunConfig
from .experiments.replication import paired_improvement
from .experiments.runner import ExperimentContext, run_system
from .ftl.dvp_ftl import SYSTEMS
from .traces.profiles import PROFILES
from .traces.synthetic import generate_trace

__all__ = ["main", "build_parser"]

T = TypeVar("T")

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

#: Every flag more than one subcommand takes: name → ``add_argument``
#: keywords.  A subcommand names the ones it takes in :func:`_shared`,
#: overriding a keyword only where its meaning differs (``--seed``,
#: ``fleet --check``, the ``--obs`` of ``fleet`` and ``serve``).
SHARED_FLAGS: Dict[str, Dict[str, Any]] = {
    "--workload": dict(choices=sorted(PROFILES), required=True),
    "--system": dict(choices=sorted(SYSTEMS), required=True),
    "--pool": dict(
        type=int, default=200_000,
        help="pool size in paper-label entries (default 200K)",
    ),
    "--json": dict(action="store_true", help="print JSON, not a table"),
    "--scale": dict(
        type=float, default=DEFAULT_SCALE,
        help=f"workload scale (default {DEFAULT_SCALE})",
    ),
    "--jobs": dict(
        type=int, default=1, metavar="N",
        help="worker processes for independent cells "
             "(default 1 = serial, 0 = all cores)",
    ),
    "--seed": dict(type=int, default=None,
                   help="trace-generator seed override"),
    "--check": dict(
        action="store_true",
        help="run the correctness harness in lockstep: full invariant "
             "audits plus the dict-based oracle FTL cross-checking "
             "every read, revival and trim (see DESIGN.md)",
    ),
    "--check-interval": dict(
        type=int, default=None, metavar="N",
        help="events between full invariant audits (implies --check; "
             "default 1000)",
    ),
    "--trim-every": dict(
        type=int, default=0, metavar="N",
        help="inject a TRIM after every Nth write (0 = none); "
             "changes the trace, so results differ from the "
             "untrimmed run by construction",
    ),
    "--obs": dict(
        metavar="PATH", default=None,
        help="write a JSONL time series of internal state to PATH "
             "(see DESIGN.md, 'Observability')",
    ),
}

#: ``--seed`` where it seeds the fault stream (``run``, ``recovery``).
FAULT_SEED = dict(default=0, help="fault-stream seed (default 0)")


def _shared(
    parser: argparse.ArgumentParser, *flags: str, **overrides: Any
) -> None:
    """Add the :data:`SHARED_FLAGS` named by ``flags`` to ``parser``."""
    for flag in flags:
        parser.add_argument(flag, **{**SHARED_FLAGS[flag], **overrides})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reviving Zombie Pages on SSDs — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one system on one workload")
    _shared(run_p, "--workload", "--system", "--pool", "--json", "--obs")
    run_p.add_argument(
        "--obs-interval", type=int, default=1000, metavar="N",
        help="sample every N completed host requests (default 1000)",
    )
    run_p.add_argument(
        "--obs-interval-us", type=float, default=None, metavar="M",
        help="also sample every M simulated microseconds",
    )
    run_p.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print self time by repro layer",
    )
    _shared(run_p, "--check", "--check-interval", "--trim-every")
    _shared(run_p, "--seed", **FAULT_SEED)
    run_p.add_argument("--program-failure-prob", type=float, default=0.0,
                       metavar="P", help="per-program failure probability")
    run_p.add_argument("--erase-failure-prob", type=float, default=0.0,
                       metavar="P", help="per-erase failure probability")
    run_p.add_argument("--read-error-prob", type=float, default=0.0,
                       metavar="P", help="per-read ECC-retry probability")
    run_p.add_argument("--crash-after", type=int, default=None, metavar="N",
                       help="power loss after N serviced host requests")
    _shared(run_p, "--scale")

    cmp_p = sub.add_parser("compare", help="compare systems on one workload")
    _shared(cmp_p, "--workload")
    cmp_p.add_argument(
        "--systems", default="baseline,mq-dvp,dedup,dvp+dedup",
        help="comma-separated system names (first is the reference)",
    )
    _shared(cmp_p, "--pool", "--check", "--check-interval", "--trim-every",
            "--scale", "--jobs")

    fig_p = sub.add_parser("figure", help="regenerate one paper artifact")
    fig_p.add_argument("id", choices=sorted(FIGURES))
    _shared(fig_p, "--scale")

    chr_p = sub.add_parser(
        "characterize", help="Section II analysis for one workload"
    )
    _shared(chr_p, "--workload", "--scale")

    report_p = sub.add_parser(
        "report", help="regenerate every artifact into one document"
    )
    report_p.add_argument("--out", default=None,
                          help="write to this file instead of stdout")
    _shared(report_p, "--scale")

    rep_p = sub.add_parser(
        "replicate", help="multi-seed improvement statistics"
    )
    _shared(rep_p, "--workload", "--system")
    rep_p.add_argument("--metric", default="flash_writes")
    rep_p.add_argument("--seeds", default="1,2,3",
                       help="comma-separated seeds")
    _shared(rep_p, "--scale", "--jobs")

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
    _shared(mat_p, "--pool")
    mat_p.add_argument("--queue-depth", type=int, default=None,
                       help="device queue depth (default: config value)")
    _shared(mat_p, "--json", "--scale", "--jobs")

    rec_p = sub.add_parser(
        "recovery",
        help="post-crash revival warmup: a crashed run against the "
             "uninterrupted run of the same trace",
    )
    _shared(rec_p, "--workload", "--system", "--pool")
    _shared(rec_p, "--seed", **FAULT_SEED)
    rec_p.add_argument(
        "--crash-fraction", type=float, default=0.5, metavar="F",
        help="crash point as a fraction of the trace (default 0.5)",
    )
    rec_p.add_argument(
        "--window", type=int, default=2000, metavar="N",
        help="sampling window in host requests (default 2000)",
    )
    _shared(rec_p, "--json", "--scale")

    fleet_p = sub.add_parser(
        "fleet",
        help="shard one workload across N simulated drives and "
             "aggregate the fleet",
    )
    _shared(fleet_p, "--workload", "--system")
    fleet_p.add_argument("--shards", type=int, default=4, metavar="N",
                         help="number of simulated drives (default 4)")
    _shared(fleet_p, "--pool",
            help="fleet pool budget in paper-label entries (default 200K)")
    fleet_p.add_argument(
        "--pool-mode", choices=("per-drive", "shared", "both"),
        default="per-drive",
        help="per-drive: split the budget across shards; shared: every "
             "shard gets the full budget (fleet-wide-pool upper bound); "
             "both: run both and report aggregate flash programs for each",
    )
    _shared(fleet_p, "--seed")
    _shared(fleet_p, "--check",
            help="attach the invariant checker + lockstep oracle to every "
                 "shard (digests are identical with and without it)")
    _shared(fleet_p, "--obs",
            help="write per-shard + fleet JSONL records to PATH")
    _shared(fleet_p, "--json", "--scale", "--jobs")

    kv_p = sub.add_parser(
        "kv",
        help="run a keyed (KV-SSD) zoo workload over a system "
             "(see DESIGN.md §13)",
    )
    from .kv.zoo import KV_WORKLOADS

    kv_p.add_argument("--workload", choices=sorted(KV_WORKLOADS),
                      default="ycsb-a", help="zoo workload (default ycsb-a)")
    _shared(kv_p, "--system", required=False, default="mq-dvp",
            help="studied system (default mq-dvp)")
    _shared(kv_p, "--pool")
    kv_p.add_argument(
        "--ablate", action="store_true",
        help="also run the system's pool-off counterpart and report "
             "the revival / write-amplification delta",
    )
    _shared(kv_p, "--json")
    _shared(kv_p, "--seed", help="workload generator seed override")
    _shared(kv_p, "--scale", "--jobs")

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
    _shared(serve_p, "--obs",
            help="append every serve.metrics/serve.session record "
                 "to PATH as JSONL")
    _shared(serve_p, "--jobs",
            help="simulation worker threads (default 1, 0 = all cores)")
    _shared(serve_p, "--seed",
            help="default trace-generator seed for sessions that do "
                 "not pick one (default: profile seed)")
    _shared(serve_p, "--check", "--check-interval")

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


class UsageError(Exception):
    """Flags that cannot build a valid spec or config.  :func:`main`
    prints ``error: …`` and exits 2."""


def _from_flags(build: Callable[[], T]) -> T:
    """``build()``, with a :class:`ValueError` it raises turned into a
    :class:`UsageError`.  Wrap only spec/config construction in it: a
    ``ValueError`` from a run is a bug, not a usage error."""
    try:
        return build()
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _names(raw: str, known: Sequence[str], kind: str) -> List[str]:
    """The comma-separated ``kind`` names in ``raw``, each one of
    ``known`` (``compare --systems``, ``matrix --workloads/--systems``)."""
    names = [name.strip() for name in raw.split(",") if name.strip()]
    unknown = [name for name in names if name not in known]
    if unknown:
        raise UsageError(f"unknown {kind}: {', '.join(unknown)}")
    if not names:
        raise UsageError(f"no {kind} given")
    # Results are keyed by name: a repeat would run twice, print once.
    if len(set(names)) < len(names):
        raise UsageError(f"{kind} named twice: {raw}")
    return names


def _check_kwargs(args: argparse.Namespace) -> Dict[str, Any]:
    """RunConfig/ServeSettings kwargs from ``--check``/``--check-interval``:
    either one turns on both the invariant audits and the lockstep
    oracle."""
    if args.check or args.check_interval is not None:
        return {"oracle": True, "check_interval": args.check_interval}
    return {}


def _fault_config(args: argparse.Namespace):
    """A FaultConfig when any fault flag was used, else None: a run
    without fault flags stays on the perfect device, digest-identical
    to a build without the fault layer."""
    if (
        args.program_failure_prob == 0.0
        and args.erase_failure_prob == 0.0
        and args.read_error_prob == 0.0
        and args.crash_after is None
    ):
        return None
    from .faults import FaultConfig

    return FaultConfig(
        seed=args.seed,
        program_failure_prob=args.program_failure_prob,
        erase_failure_prob=args.erase_failure_prob,
        read_error_prob=args.read_error_prob,
        crash_after_requests=args.crash_after,
    )


def _open_jsonl(path: str):
    from .obs import JsonlWriter

    try:
        return JsonlWriter(path)
    except OSError as exc:
        raise UsageError(f"cannot open --obs file: {exc}") from None


def _observer(args: argparse.Namespace):
    """The ``--obs`` sampler with its JSONL writer as sink, or None.  The
    cadence is checked before the file opens, so a bad value never
    leaves an empty file behind."""
    if not args.obs:
        return None
    from .obs import TimeSeriesSampler

    observer = _from_flags(lambda: TimeSeriesSampler(
        interval_requests=args.obs_interval,
        interval_us=args.obs_interval_us,
    ))
    observer.sink = _open_jsonl(args.obs)
    return observer


def _print_json(payload: object) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_run(args: argparse.Namespace) -> int:
    from .perf.snapshot import default_prefill_cache, prefill_key

    config = _from_flags(lambda: RunConfig(
        paper_pool_entries=args.pool, scale=args.scale,
        faults=_fault_config(args), trim_every=args.trim_every,
        **_check_kwargs(args),
    ))
    context = ExperimentContext.for_workload(args.workload, args.scale)
    observer = _observer(args)
    config = config.replace(observer=observer)
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
        if observer is not None:
            observer.sink.close()
    if args.json:
        _print_json(record_from_run(result).to_dict())
    else:
        summary = {**result.summary(), **result.fault_summary()}
        print(render_table(
            ["metric", "value"], sorted(summary.items()),
            title=f"{args.system} on {args.workload} (scale {args.scale})",
        ))
    if observer is not None:
        print(f"observability: {observer.sample_count} samples "
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
    from .experiments.runner import run_matrix

    systems = _names(args.systems, SYSTEMS, "systems")
    config = _from_flags(lambda: RunConfig(
        paper_pool_entries=args.pool, scale=args.scale, jobs=args.jobs,
        trim_every=args.trim_every, **_check_kwargs(args),
    ))
    results = run_matrix([args.workload], systems, config)[args.workload]
    base = results[systems[0]].summary()["mean_latency_us"]
    rows = []
    for system, result in results.items():
        summary = result.summary()
        latency = summary["mean_latency_us"]
        rows.append((
            system,
            f"{summary['flash_writes']:.0f}",
            f"{summary['erases']:.0f}",
            f"{latency:.1f}",
            f"{100 * (1 - latency / base):.1f}" if base else "0.0",
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
    seeds = _from_flags(
        lambda: [int(s) for s in args.seeds.split(",") if s.strip()]
    )
    reps = paired_improvement(
        args.workload, args.system, args.metric, seeds, args.scale,
        jobs=args.jobs,
    )
    print(f"{args.system} vs baseline on {args.workload}, "
          f"{args.metric} improvement: {reps.summary()}")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .experiments.runner import run_matrix

    workloads = _names(args.workloads, PROFILES, "workloads")
    systems = _names(args.systems, SYSTEMS, "systems")
    config = _from_flags(lambda: RunConfig(
        paper_pool_entries=args.pool, scale=args.scale,
        jobs=args.jobs, queue_depth=args.queue_depth,
    ))
    results = run_matrix(workloads, systems, config)
    if args.json:
        _print_json({
            workload: {
                system: record_from_run(result).to_dict()
                for system, result in by_system.items()
            }
            for workload, by_system in results.items()
        })
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


def _cmd_recovery(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .experiments.recovery import crash_point, run_recovery_experiment

    config = _from_flags(
        lambda: RunConfig(paper_pool_entries=args.pool, scale=args.scale)
    )
    # A synthetic trace has exactly num_requests requests, so the crash
    # point is checked here without generating it.
    crash_after = _from_flags(
        lambda: crash_point(
            PROFILES[args.workload].scaled(args.scale).num_requests,
            args.crash_fraction, args.window,
        )
    )
    result = run_recovery_experiment(
        workload=args.workload,
        system=args.system,
        window_requests=args.window,
        fault_seed=args.seed,
        config=config,
        crash_after=crash_after,
    )
    if args.json:
        _print_json(asdict(result))
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


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import FleetSpec, compare_pool_modes, run_fleet

    both = args.pool_mode == "both"
    if both and args.obs:
        raise UsageError("--obs exports one fleet run; --pool-mode both "
                         "runs two")
    spec = _from_flags(lambda: FleetSpec(
        workload=args.workload,
        system=args.system,
        shards=args.shards,
        paper_pool_entries=args.pool,
        scale=args.scale,
        seed=args.seed,
        pool_mode="per-drive" if both else args.pool_mode,
        oracle=args.check,
        check_interval=None,
    ))

    if both:
        comparison = compare_pool_modes(spec, jobs=args.jobs)
        if args.json:
            _print_json(comparison.summary())
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
        with _open_jsonl(args.obs) as writer:
            records = result.export_jsonl(writer)
        print(f"fleet export: {records} records -> {args.obs}",
              file=sys.stderr)
    if args.json:
        from .api import records_from_fleet

        _print_json(records_from_fleet(result)[-1].to_dict())
        return 0
    summary = result.summary()
    print(render_table(
        ["metric", "value"], sorted(summary.items()),
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

    overrides = {
        "host": args.host,
        "port": args.port,
        "checkpoint_dir": args.checkpoint_dir,
        "obs_path": args.obs,
        "max_sessions": args.max_sessions,
        "batch_requests": args.batch_requests,
        "checkpoint_every": args.checkpoint_every,
        "default_seed": args.seed,
        **_check_kwargs(args),
    }
    if args.jobs != 1:
        overrides["jobs"] = args.jobs
    settings = _from_flags(lambda: replace(
        settings_from_env(),
        **{k: v for k, v in overrides.items() if v is not None},
    ))
    return asyncio.run(run_server(settings))


def _cmd_kv(args: argparse.Namespace) -> int:
    from .api import record_from_kv_run, records_from_kv_ablation
    from .kv import KVSpec, execute_kv_spec, run_kv_ablation

    spec = _from_flags(lambda: KVSpec(
        workload=args.workload,
        system=args.system,
        paper_pool_entries=args.pool,
        scale=args.scale,
        seed=args.seed,
    ))
    if args.ablate:
        _from_flags(spec.pool_off)  # a system without a pool has no ablation
        on, off = run_kv_ablation(spec, jobs=args.jobs)
    else:
        on, off = execute_kv_spec(spec), None

    if args.json:
        if off is not None:
            record = records_from_kv_ablation(on, off)[-1]
        else:
            record = record_from_kv_run(on)
        _print_json(record.to_dict())
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
            raise UsageError(
                f"{flag}: unknown rule codes {', '.join(unknown)} "
                f"(see repro lint --rules)"
            )
        return codes

    select = parse_codes(args.select, "--select")
    ignore = parse_codes(args.ignore, "--ignore")
    baseline = (
        Baseline()
        if args.no_baseline or args.write_baseline
        else _from_flags(lambda: Baseline.load(args.baseline))
    )
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
        raise UsageError(str(exc)) from None

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
    "recovery": _cmd_recovery,
    "fleet": _cmd_fleet,
    "kv": _cmd_kv,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
