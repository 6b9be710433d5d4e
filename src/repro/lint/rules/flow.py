"""``flow.*`` — whole-program (interprocedural) rules.

These four rules are thin renderers over one shared analysis
(:func:`repro.lint.flow.flow_report`, memoised per program): the
per-file facts, symbol table, call graph and passes live in
:mod:`repro.lint.flow`; this module only turns findings into
:class:`~repro.lint.violations.Violation` records so they ride the
existing suppression/baseline/report machinery.

* ``flow.taint-digest`` — a nondeterminism source (wall clock, global
  ``random``, ``os.environ``, ``id()``/``hash()``, unordered set
  iteration) flows through any number of call hops into a digest /
  fingerprint / ``repro.api`` record sink.  Anchored at the *source*
  (that is the line to fix), with the full source→sink call chain in
  the message.
* ``flow.hot-effect`` — a function reachable from the per-op hot set
  (``Device.step``, FTL read/write/trim, GC collection, MQ access)
  performs file/socket I/O, ``logging``, lock acquisition, ``print``,
  or unbounded per-op allocation.  Anchored at the effect.
* ``flow.blocking-async`` — a coroutine in ``repro.serve`` transitively
  calls a blocking primitive (``time.sleep``, sync file I/O,
  ``subprocess``).  Anchored at the blocking call.
* ``flow.spec-pickle`` — ``RunSpec``/``KVSpec``/``ShardSpec`` or a
  dataclass in their transitive reference closure has a field the
  process-pool engine cannot ship by value.  Anchored at the field.
"""

from __future__ import annotations

from typing import Iterator

from ..engine import Program
from ..flow import flow_report
from ..registry import Rule, register_rule
from ..violations import Violation

__all__ = [
    "BlockingAsyncRule",
    "HotEffectRule",
    "SpecPickleRule",
    "TaintDigestRule",
]


def _context(report, fn_fq: str) -> str:
    """Module-relative qualname of a fq function (baseline key)."""
    module = report.table.function_module.get(fn_fq, "")
    if module and fn_fq.startswith(module + "."):
        return fn_fq[len(module) + 1:]
    return fn_fq


_EFFECT_LABEL = {
    "io": "file I/O",
    "socket": "socket I/O",
    "logging": "a logging call",
    "lock": "lock acquisition",
    "print": "print()",
    "alloc": "per-op container allocation",
    "sleep": "a blocking sleep",
    "subprocess": "a subprocess",
}


@register_rule
class TaintDigestRule(Rule):
    """Nondeterminism flowing into a digest/record sink."""

    code = "flow.taint-digest"
    summary = "nondeterminism source reaching a digest/fingerprint sink"

    def check(self, program: Program) -> Iterator[Violation]:
        report = flow_report(program)
        for finding in report.taint:
            path, _line = report.location_of(finding.source_fn)
            sink_path, _ = report.location_of(finding.sink_fn)
            yield Violation(
                path=path,
                line=finding.source.line,
                col=finding.source.col,
                code=self.code,
                message=(
                    f"{finding.source.kind} source "
                    f"{finding.source.name} reaches digest sink "
                    f"{finding.sink_name}() at "
                    f"{sink_path}:{finding.sink_line}; flow: "
                    f"{report.render_chain(finding.chain)}"
                ),
                context=_context(report, finding.source_fn),
            )


@register_rule
class HotEffectRule(Rule):
    """Disallowed effect on the per-op hot path."""

    code = "flow.hot-effect"
    summary = "I/O, logging, locking or allocation reachable per-op"

    def check(self, program: Program) -> Iterator[Violation]:
        report = flow_report(program)
        for finding in report.hot_effects:
            path, _line = report.location_of(finding.fn)
            label = _EFFECT_LABEL.get(
                finding.effect.kind, finding.effect.kind
            )
            yield Violation(
                path=path,
                line=finding.effect.line,
                col=finding.effect.col,
                code=self.code,
                message=(
                    f"{label} ({finding.effect.name}) runs on the "
                    f"per-op hot path, reachable from {finding.root}; "
                    f"reach: {report.render_chain(finding.path)}"
                ),
                context=_context(report, finding.fn),
            )


@register_rule
class BlockingAsyncRule(Rule):
    """Blocking primitive reachable from a serve coroutine."""

    code = "flow.blocking-async"
    summary = "async def in repro.serve reaching a blocking primitive"

    def check(self, program: Program) -> Iterator[Violation]:
        report = flow_report(program)
        for finding in report.blocking:
            path, _line = report.location_of(finding.fn)
            label = _EFFECT_LABEL.get(
                finding.effect.kind, finding.effect.kind
            )
            yield Violation(
                path=path,
                line=finding.effect.line,
                col=finding.effect.col,
                code=self.code,
                message=(
                    f"{label} ({finding.effect.name}) blocks the event "
                    f"loop, reachable from coroutine "
                    f"{finding.coroutine}; path: "
                    f"{report.render_chain(finding.path)}; hand it to "
                    "run_in_executor or use the asyncio equivalent"
                ),
                context=_context(report, finding.fn),
            )


@register_rule
class SpecPickleRule(Rule):
    """Transitively unpicklable field in the spec closure."""

    code = "flow.spec-pickle"
    summary = "spec-reference closure field not statically picklable"

    def check(self, program: Program) -> Iterator[Violation]:
        report = flow_report(program)
        for finding in report.spec_pickle:
            entry = report.table.classes.get(finding.cls_fq)
            facts = (
                report.table.modules.get(entry[0])
                if entry is not None else None
            )
            path = facts.path if facts is not None else "<unknown>"
            cls_name = finding.cls_fq.rsplit(".", 1)[-1]
            yield Violation(
                path=path,
                line=finding.line,
                col=1,
                code=self.code,
                message=(
                    f"{cls_name}.{finding.field} is annotated with "
                    f"{', '.join(finding.bad_parts)}, which the "
                    "process-pool engine cannot ship by value; this "
                    "class is pickled transitively via "
                    f"{' -> '.join(finding.chain)}"
                ),
                context=cls_name,
            )
