"""Interprocedural determinism-taint pass (``flow.taint-digest``).

Classic summary-based taint propagation over the call graph:

* **sources** are the nondeterminism reads recorded in the per-file
  facts — wall clock, global ``random`` draws, ``os.environ``,
  ``id()``/``hash()``, unordered set iteration;
* **sinks** are the digest/fingerprint/record surfaces that must stay
  bit-exact: the :mod:`repro.perf.spec` digests (``result_digest``,
  ``kv_result_digest``, ``digest_of_digests`` and its ``repro.api``
  name ``session_digest``), the ``Fingerprint`` constructors, and the
  ``repro.api`` record builders.

Each function gets a summary: which sources reach its return/yield
values (with the call path from the source), which parameters flow to
its return, and which parameters flow into a sink it (transitively)
calls.  The pass iterates over all functions until the summaries reach
a fixed point — taint crossing any number of call hops converges — and
every concrete source→sink meeting produces a :class:`TaintFinding`
carrying the full call chain, anchored at the *source* (that is the
line someone has to fix).

Two deliberate asymmetries versus the per-file ``det.*`` rules:

* no module allowlist on sources — a ``time.perf_counter()`` is fine
  in ``repro.perf`` until its value flows into a digest, and catching
  exactly that flow is this pass's reason to exist;
* unresolved calls are pass-through — if a tainted value enters an
  opaque call, its result is tainted.  Over-approximate, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .facts import CallFact, FunctionFacts, SourceFact
from .graph import CallGraph

__all__ = ["SINK_NAMES", "TaintFinding", "analyze_taint"]


#: Callable tail names whose arguments must be deterministic.  Matched
#: on the final path component so re-exports and method calls both hit.
SINK_NAMES = frozenset({
    "result_digest", "kv_result_digest", "digest_of_digests",
    "session_digest", "fingerprint_of_value", "fingerprint_of_bytes",
    "Fingerprint", "record_from_run", "aggregate_record",
    "write_golden", "save_golden",
})

#: Fixpoint round cap: summaries are monotone so convergence is
#: guaranteed, but a cap turns any future non-monotone bug into a
#: truncated (still sound-ish) answer instead of a hang.
_MAX_ROUNDS = 30

#: Per-summary size caps — findings need one good chain per source, not
#: every chain, and bounding the dicts keeps the fixpoint cheap.
_MAX_RET_SOURCES = 6
_MAX_PARAM_SINKS = 6

# A taint key is ("p", index) for a symbolic parameter, or
# ("s", source_fn_fq, source_index) for a concrete source.  Concrete
# keys map to the call path (fq names) from the source's function to
# wherever the value currently is; parameter keys map to None.
_TaintMap = Dict[Tuple, Optional[Tuple[str, ...]]]


@dataclass
class _Summary:
    """What a function exposes to its callers."""

    #: concrete sources reaching the return value → path from source fn
    ret: Dict[Tuple, Tuple[str, ...]] = field(default_factory=dict)
    #: parameter indices flowing into the return value
    ret_params: Set[int] = field(default_factory=set)
    #: param index → sink records (sink name, sink line, fn path from
    #: this function to the function containing the sink call)
    param_sinks: Dict[int, Dict[Tuple, Tuple[str, int, Tuple[str, ...]]]] = (
        field(default_factory=dict)
    )

    def size(self) -> int:
        return (
            len(self.ret) + len(self.ret_params)
            + sum(len(v) for v in self.param_sinks.values())
        )


@dataclass(frozen=True)
class TaintFinding:
    """One concrete source reaching one sink."""

    source_fn: str               # fq of the function reading the source
    source: SourceFact
    sink_name: str
    sink_fn: str                 # fq of the function calling the sink
    sink_line: int
    chain: Tuple[str, ...]       # fq call path, source fn … sink fn


def _call_tail(call: CallFact) -> str:
    if call.attr:
        return call.attr
    return call.name.rsplit(".", 1)[-1]


class _TaintPass:
    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.table = graph.table
        self.summaries: Dict[str, _Summary] = {
            fq: _Summary() for fq in self.table.functions
        }
        self.findings: Dict[Tuple, TaintFinding] = {}

    # -- fixpoint ------------------------------------------------------

    def run(self) -> List[TaintFinding]:
        order = sorted(self.table.functions)
        for _round in range(_MAX_ROUNDS):
            before = sum(s.size() for s in self.summaries.values())
            found_before = len(self.findings)
            for fq in order:
                self._update(fq)
            after = sum(s.size() for s in self.summaries.values())
            if after == before and len(self.findings) == found_before:
                break
        return sorted(
            self.findings.values(),
            key=lambda f: (f.source_fn, f.source.line, f.sink_name,
                           f.sink_fn),
        )

    # -- one function --------------------------------------------------

    def _update(self, fq: str) -> None:
        fn = self.table.functions[fq]
        summary = self.summaries[fq]
        memo: Dict[str, _TaintMap] = {}

        # return/yield taint
        ret_taint = self._eval_tokens(fq, fn, fn.ret, memo, set())
        for key, path in ret_taint.items():
            if key[0] == "p":
                summary.ret_params.add(key[1])
            elif len(summary.ret) < _MAX_RET_SOURCES:
                summary.ret.setdefault(key, path or (fq,))

        # sink call sites and callee param-sink propagation
        resolved = self.graph.resolved.get(fq, ())
        for k, call in enumerate(fn.calls):
            targets = resolved[k] if k < len(resolved) else ()
            arg_maps = [
                self._eval_tokens(fq, fn, origins, memo, set())
                for origins in call.args
            ]
            kw_map = self._eval_tokens(fq, fn, call.kwargs, memo, set())

            tail = _call_tail(call)
            if tail in SINK_NAMES:
                for taint_map in arg_maps + [kw_map]:
                    self._record_sink_hit(
                        fq, summary, tail, call.line, (fq,), taint_map
                    )

            for callee_fq in targets:
                callee_summary = self.summaries.get(callee_fq)
                callee = self.table.functions.get(callee_fq)
                if callee_summary is None or callee is None:
                    continue
                offset = 1 if callee.cls is not None else 0
                for pi, records in sorted(callee_summary.param_sinks.items()):
                    ai = pi - offset
                    maps: List[_TaintMap] = []
                    if 0 <= ai < len(arg_maps):
                        maps.append(arg_maps[ai])
                    if kw_map:
                        maps.append(kw_map)
                    for sink_name, sink_line, sink_path in records.values():
                        for taint_map in maps:
                            self._record_sink_hit(
                                fq, summary, sink_name, sink_line,
                                (fq,) + sink_path, taint_map,
                            )

    def _record_sink_hit(
        self,
        fq: str,
        summary: _Summary,
        sink_name: str,
        sink_line: int,
        sink_path: Tuple[str, ...],
        taint_map: _TaintMap,
    ) -> None:
        for key, path in taint_map.items():
            if key[0] == "p":
                bucket = summary.param_sinks.setdefault(key[1], {})
                rec_key = (sink_name, sink_path)
                if rec_key not in bucket and len(bucket) < _MAX_PARAM_SINKS:
                    bucket[rec_key] = (sink_name, sink_line, sink_path)
            else:
                _s, source_fn, source_index = key
                source = self.table.functions[source_fn].sources[source_index]
                chain = _join_paths(path or (source_fn,), sink_path)
                find_key = (source_fn, source_index, sink_name, sink_path[-1])
                if find_key not in self.findings:
                    self.findings[find_key] = TaintFinding(
                        source_fn=source_fn,
                        source=source,
                        sink_name=sink_name,
                        sink_fn=sink_path[-1],
                        sink_line=sink_line,
                        chain=chain,
                    )

    # -- token evaluation ----------------------------------------------

    def _eval_tokens(
        self,
        fq: str,
        fn: FunctionFacts,
        tokens: Tuple[str, ...],
        memo: Dict[str, _TaintMap],
        active: Set[str],
    ) -> _TaintMap:
        out: _TaintMap = {}
        for token in tokens:
            for key, path in self._eval_token(
                fq, fn, token, memo, active
            ).items():
                out.setdefault(key, path)
        return out

    def _eval_token(
        self,
        fq: str,
        fn: FunctionFacts,
        token: str,
        memo: Dict[str, _TaintMap],
        active: Set[str],
    ) -> _TaintMap:
        cached = memo.get(token)
        if cached is not None:
            return cached
        if token in active:
            return {}  # loop-carried dependence: already accounted for
        kind, _, index_str = token.partition(":")
        index = int(index_str)
        result: _TaintMap = {}
        if kind == "p":
            result = {("p", index): None}
        elif kind == "s":
            result = {("s", fq, index): (fq,)}
        elif kind == "c":
            active.add(token)
            result = self._eval_call(fq, fn, index, memo, active)
            active.discard(token)
        memo[token] = result
        return result

    def _eval_call(
        self,
        fq: str,
        fn: FunctionFacts,
        index: int,
        memo: Dict[str, _TaintMap],
        active: Set[str],
    ) -> _TaintMap:
        call = fn.calls[index]
        resolved = self.graph.resolved.get(fq, ())
        targets = resolved[index] if index < len(resolved) else ()
        arg_maps = [
            self._eval_tokens(fq, fn, origins, memo, active)
            for origins in call.args
        ]
        kw_map = self._eval_tokens(fq, fn, call.kwargs, memo, active)

        if not targets:
            # Opaque call: tainted in → tainted out.
            out: _TaintMap = {}
            for taint_map in arg_maps + [kw_map]:
                for key, path in taint_map.items():
                    out.setdefault(key, path)
            return out

        out = {}
        for callee_fq in targets:
            callee_summary = self.summaries.get(callee_fq)
            callee = self.table.functions.get(callee_fq)
            if callee_summary is None or callee is None:
                continue
            offset = 1 if callee.cls is not None else 0
            for key, path in callee_summary.ret.items():
                out.setdefault(key, path + (fq,))
            if callee_summary.ret_params:
                for pi in sorted(callee_summary.ret_params):
                    ai = pi - offset
                    if 0 <= ai < len(arg_maps):
                        for key, path in arg_maps[ai].items():
                            out.setdefault(key, path)
                if kw_map:
                    for key, path in kw_map.items():
                        out.setdefault(key, path)
        return out


def _join_paths(
    source_path: Tuple[str, ...], sink_path: Tuple[str, ...]
) -> Tuple[str, ...]:
    """Concatenate source-side and sink-side paths without repeating the
    meeting function."""
    if source_path and sink_path and source_path[-1] == sink_path[0]:
        return source_path + sink_path[1:]
    return source_path + sink_path


def analyze_taint(graph: CallGraph) -> List[TaintFinding]:
    """All concrete source→sink flows in the program, stable order."""
    return _TaintPass(graph).run()
