"""Correctness tooling: invariant sanitizer, lockstep oracle, differential
replay (see DESIGN.md, "The correctness harness").

Three independent layers, composable per run:

* :class:`InvariantChecker` — cross-structure consistency audits of a live
  FTL (cheap per-event checks, full audit every N events);
* :class:`OracleFTL` — a dict-based reference model run in lockstep,
  checking the host-visible data-integrity contract;
* :func:`differential_run` — replay one trace through both device models
  and assert equivalence where it is promised.

All three raise :class:`InvariantViolation` (or
:class:`DifferentialMismatch`) with a state diff, never log-and-continue:
a silent accounting skew is the failure mode this package exists to kill.
"""

from .differential import (
    DifferentialMismatch,
    DifferentialReport,
    differential_run,
)
from .invariants import (
    InvariantChecker,
    InvariantViolation,
    audit,
    checker_for,
)
from .oracle import OracleFTL

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "OracleFTL",
    "DifferentialMismatch",
    "DifferentialReport",
    "differential_run",
    "audit",
    "checker_for",
]
