"""``repro.lint.flow``: whole-program (interprocedural) analysis.

The per-file ``det.*``/``frozen.*`` rules catch nondeterminism where it
is *written*; this subpackage catches it where it *flows*.  One pass
over the analyzed tree builds a project-wide symbol table and call
graph (:mod:`.graph`) from per-file **facts** (:mod:`.facts`) — a pure
syntactic summary of every function: its taint sources, its calls with
name-level argument dependences, its effects.  Facts are content-keyed
(SHA-256 of the file) and cached on disk (:mod:`.cache`), so a warm
re-analysis only re-extracts the dirty frontier.

Three interprocedural passes run over the graph:

``flow.taint-digest`` (:mod:`.taint`)
    Determinism taint: wall-clock reads, global ``random`` draws,
    ``os.environ``, ``id()``/``hash()``, and unordered set iteration
    are *sources*; the digest/fingerprint/record constructors are
    *sinks*.  Taint propagates through calls and returns, so a helper
    three hops from ``result_digest`` is reported with the full
    source→sink call chain.
``flow.hot-effect`` (:mod:`.effects`)
    Functions transitively reachable from the per-op hot set
    (``Device.step``, FTL read/write/trim, GC collection, MQ access)
    must not do file/socket I/O, ``logging``, lock acquisition, or
    unbounded per-op allocation.
``flow.blocking-async`` / ``flow.spec-pickle`` (:mod:`.safety`)
    ``async def`` bodies in ``repro.serve`` must not (transitively)
    call blocking primitives, and everything the process-pool engine
    ships (``RunSpec``/``KVSpec``/``ShardSpec`` and every dataclass
    they reference) must be statically picklable, transitively.

:mod:`.analysis` orchestrates: ``flow_report(program)`` is
memoised per :class:`~repro.lint.engine.Program`, so the four
registered rules (:mod:`repro.lint.rules.flow`) share one analysis.
"""

from __future__ import annotations

from .analysis import FlowReport, flow_report
from .cache import FactsCache
from .facts import FunctionFacts, ModuleFacts, extract_module_facts
from .graph import CallGraph, SymbolTable, build_symbol_table

__all__ = [
    "CallGraph",
    "FactsCache",
    "FlowReport",
    "FunctionFacts",
    "ModuleFacts",
    "SymbolTable",
    "build_symbol_table",
    "extract_module_facts",
    "flow_report",
]
