"""Orchestration: facts → cache → graph → the three passes.

:func:`flow_report` is the single entry point the registered rules
share.  It is memoised on the :class:`~repro.lint.engine.Program`
instance, so however many ``flow.*`` rules are selected, the analysis
runs once per lint invocation.

The cost model (the reason this can live inside ``make lint``):

* per-file fact extraction is the only part that touches an AST, and
  it is cached on disk keyed by content SHA-256 — a warm run touches
  only the dirty frontier (edited files);
* the whole-graph passes (taint fixpoint, hot-cone BFS, closure walks)
  are pure dict work over the summaries and re-run every time — they
  are the part that *must* see the whole program, and they are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

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

__all__ = ["FlowReport", "flow_report"]


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


def flow_report(program) -> FlowReport:
    """The memoised whole-program analysis for one lint invocation."""
    cached = getattr(program, "_flow_report", None)
    if cached is not None:
        return cached

    cache = FactsCache(
        Path(program.cache_dir) if program.cache_dir else None
    )
    facts_by_module: Dict[str, ModuleFacts] = {}
    for module in program.modules:
        key = content_key(
            module.source.encode("utf-8"), module.name, module.path
        )
        facts = cache.get(key)
        if facts is None:
            facts = extract_module_facts(
                module.name, module.path, module.tree, module.is_package,
                module.aliases,
            )
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
