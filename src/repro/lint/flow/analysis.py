"""Orchestration: facts → cache → graph → the three passes.

:func:`flow_report` is the single entry point the registered rules
share.  It is memoised on the :class:`~repro.lint.engine.Program`
instance, so however many ``flow.*`` rules are selected, the analysis
runs once per lint invocation.

The cost model (the reason this can live inside ``make lint``):

* per-file fact extraction is the only part that touches an AST, and
  it is cached on disk keyed by content SHA-256 — a warm run touches
  only the dirty frontier (edited files);
* a cold run can fan extraction out over a process pool (``--jobs``)
  through :func:`repro.perf.parallel.run_specs`, one small frozen job
  per dirty file;
* the whole-graph passes (taint fixpoint, hot-cone BFS, closure walks)
  are pure dict work over the summaries and re-run every time — they
  are the part that *must* see the whole program, and they are cheap.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .cache import FactsCache, content_key
from .effects import EffectFinding, analyze_hot_effects
from .facts import ModuleFacts, extract_module_facts
from .graph import CallGraph, SymbolTable, build_symbol_table
from .safety import (
    BlockingFinding,
    PickleFinding,
    analyze_blocking_async,
    analyze_spec_pickle,
)
from .taint import TaintFinding, analyze_taint

__all__ = ["FlowOptions", "FlowReport", "flow_report"]

#: Below this many dirty files a process pool costs more than it saves.
_MIN_PARALLEL_FILES = 8


@dataclass(frozen=True)
class FlowOptions:
    """Knobs threaded from the CLI into the analysis."""

    #: worker processes for cold extraction (None → in-process)
    jobs: Optional[int] = None
    #: facts cache directory (None → memory-only, no disk tier)
    cache_dir: Optional[str] = None


@dataclass
class FlowReport:
    """Everything the four ``flow.*`` rules read."""

    table: SymbolTable
    graph: CallGraph
    taint: List[TaintFinding] = field(default_factory=list)
    hot_effects: List[EffectFinding] = field(default_factory=list)
    blocking: List[BlockingFinding] = field(default_factory=list)
    spec_pickle: List[PickleFinding] = field(default_factory=list)
    files: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    # -- rendering helpers (shared by the rules) -----------------------

    def location_of(self, fn_fq: str) -> Tuple[str, int]:
        """(path, line) of a fq function, for chain rendering."""
        module = self.table.function_module.get(fn_fq)
        facts = self.table.modules.get(module) if module else None
        fn = self.table.functions.get(fn_fq)
        return (
            facts.path if facts is not None else "<unknown>",
            fn.line if fn is not None else 1,
        )

    def render_chain(self, chain: Sequence[str]) -> str:
        steps = []
        for fn_fq in chain:
            path, line = self.location_of(fn_fq)
            steps.append(f"{fn_fq} ({path}:{line})")
        return " -> ".join(steps)


@dataclass(frozen=True)
class _ExtractJob:
    """One dirty file's fact extraction, as a ``run_specs`` job.

    Carries the source, not the tree: AST objects do not cross process
    boundaries, so the worker re-parses.
    """

    module: str
    path: str
    source: str
    is_package: bool

    def execute(self) -> ModuleFacts:
        tree = ast.parse(self.source, filename=self.path)
        return extract_module_facts(
            self.module, self.path, tree, self.is_package
        )

    def prewarm(self) -> None:
        """Nothing to share with the workers."""


def flow_report(program, options: Optional[FlowOptions] = None) -> FlowReport:
    """The memoised whole-program analysis for one lint invocation."""
    cached = getattr(program, "_flow_report", None)
    if cached is not None:
        return cached
    if options is None:
        options = getattr(program, "flow_options", None) or FlowOptions()

    cache = FactsCache(
        Path(options.cache_dir) if options.cache_dir else None
    )
    facts_by_module: Dict[str, ModuleFacts] = {}
    dirty: List[Tuple[str, object]] = []  # (cache key, ModuleInfo)
    for module in program.modules:
        key = content_key(
            module.source.encode("utf-8"), module.name, module.path
        )
        hit = cache.get(key)
        if hit is not None:
            facts_by_module[module.name] = hit
        else:
            dirty.append((key, module))

    if options.jobs is not None and len(dirty) >= _MIN_PARALLEL_FILES:
        from repro.perf.parallel import run_specs

        extracted = run_specs([
            _ExtractJob(m.name, m.path, m.source, m.is_package)
            for _key, m in dirty
        ], jobs=options.jobs)
    else:
        extracted = [
            extract_module_facts(m.name, m.path, m.tree, m.is_package)
            for _key, m in dirty
        ]
    for (key, module), facts in zip(dirty, extracted):
        cache.put(key, facts)
        facts_by_module[module.name] = facts

    table = build_symbol_table(facts_by_module.values())
    graph = CallGraph.build(table)
    report = FlowReport(
        table=table,
        graph=graph,
        taint=analyze_taint(graph),
        hot_effects=analyze_hot_effects(graph),
        blocking=analyze_blocking_async(graph),
        spec_pickle=analyze_spec_pickle(table),
        files=len(program.modules),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )
    try:
        setattr(program, "_flow_report", report)
    except AttributeError:  # pragma: no cover - slotted stand-ins
        pass
    return report
