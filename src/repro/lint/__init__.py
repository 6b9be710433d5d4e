"""``repro.lint``: an AST-based determinism & layering linter.

The repo's core contract — bit-identical result digests across serial,
parallel, cached-prefill, checked and recovery runs — is enforced at
runtime by :mod:`repro.check`.  This package moves the most common ways
of *breaking* that contract to commit time: a pure-stdlib static
analyzer whose rules encode repo-specific invariants that generic tools
(ruff, mypy) cannot express.

Rule families (stable dotted codes; DESIGN.md §9 is the catalog):

``det.*``
    Determinism: no wall-clock reads outside the perf layer, no draws
    from the process-global ``random`` state, no iteration over bare
    sets feeding ordered results, no environment reads outside the
    sanctioned config surfaces.
``layer.*``
    Import-DAG enforcement: ``repro.core`` stays pure, the simulator
    and FTL never reach up into ``repro.experiments``, only the CLI
    imports ``repro.serve``, and the top-level import graph is acyclic.
``proto.*``
    Protocol surfaces: every dead-value-pool implementation defines the
    full :class:`~repro.core.dvp.DeadValuePool` contract (including
    ``tracked_items``); FTL subclasses override the GC hooks their
    extra state requires.
``frozen.*``
    Frozen-dataclass hygiene: no ``object.__setattr__`` escape hatches
    outside ``__post_init__``.
``flow.*``
    Whole-program passes (:mod:`repro.lint.flow`): nondeterminism
    flowing into a digest, effects on the per-op hot path, blocking
    calls in serve coroutines, and specs the process-pool engine
    cannot pickle.

Violations are suppressed per line with ``# lint: disable=<code>[,<code>...]``
or repo-wide via a baseline file (``lint-baseline.json``) whose every
entry carries a one-line justification.  ``repro lint`` is the CLI;
``--format=jsonl`` is machine-readable, ``--format=github`` emits GitHub
Actions annotations.
"""

from __future__ import annotations

from .baseline import Baseline, BaselineEntry
from .engine import LintEngine, LintResult, Program, lint_paths
from .imports import ImportGraph, build_import_graph, find_cycles
from .registry import (
    Rule,
    all_codes,
    all_rules,
    register_rule,
)
from .report import render_github, render_jsonl, render_text
from .violations import Violation, suppressed_codes

__all__ = [
    "Baseline",
    "BaselineEntry",
    "ImportGraph",
    "LintEngine",
    "LintResult",
    "Program",
    "Rule",
    "Violation",
    "all_codes",
    "all_rules",
    "build_import_graph",
    "find_cycles",
    "lint_paths",
    "register_rule",
    "render_github",
    "render_jsonl",
    "render_text",
    "suppressed_codes",
]
