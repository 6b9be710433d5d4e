"""Fork/pickle and async safety passes.

``flow.spec-pickle``
    The process-pool engine ships ``RunSpec``/``KVSpec``/``ShardSpec``
    by value.  A field whose annotated type is not in the statically
    picklable grammar (scalars, Optional/Tuple/List/Dict of picklable,
    other analyzed dataclasses) fails at fan-out time on the first
    ``--jobs 2`` run, or worse, pickles by reference and decouples
    worker state from the parent.  The pass validates each spec's own
    fields and walks the dataclass-reference closure (a spec field
    typed ``FaultConfig`` drags in every ``FaultConfig`` field, and so
    on), reporting the offending field with the reference chain back to
    the spec that ships it.

``flow.blocking-async``
    ``repro.serve`` runs one asyncio event loop per service; a blocking
    primitive anywhere in a coroutine's (transitive) call cone stalls
    every session on the loop.  Starting from each ``async def`` in
    ``repro.serve``, the pass walks the call graph and reports
    ``time.sleep``, synchronous file I/O and ``subprocess`` calls with
    the coroutine→culprit path.  Functions handed to
    ``run_in_executor`` are passed by value, not called, so they never
    create a traversal edge — exactly the blessed escape hatch.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .facts import EffectFact
from .graph import CallGraph, SymbolTable

__all__ = [
    "BlockingFinding",
    "PickleFinding",
    "SPEC_ROOTS",
    "analyze_blocking_async",
    "analyze_spec_pickle",
]


#: Dataclasses the pool/fleet engines pickle into workers.
SPEC_ROOTS: Tuple[str, ...] = ("RunSpec", "KVSpec", "ShardSpec")

#: Effect kinds that block an event loop.
BLOCKING_KINDS = frozenset({"sleep", "subprocess", "io"})

#: The service package whose coroutines are checked.
_SERVE_PREFIX = "repro.serve"


# ---------------------------------------------------------------------------
# transitive picklability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PickleFinding:
    """One unpicklable field in the spec-reference closure."""

    cls_fq: str                  # fq class owning the field
    field: str
    annotation: str
    line: int
    bad_parts: Tuple[str, ...]
    chain: Tuple[str, ...]       # class simple names, spec root … owner


#: Atomic annotation names that always pickle by value.
_PICKLABLE_ATOMS = frozenset({
    "int", "float", "str", "bool", "bytes", "None", "NoneType", "complex",
})

#: Generic containers whose picklability is their parameters'.
_PICKLABLE_GENERICS = frozenset({
    "Optional", "Union", "Tuple", "List", "Dict", "FrozenSet", "Set",
    "Sequence", "Mapping", "tuple", "list", "dict", "frozenset", "set",
})


class _Unparseable(Exception):
    pass


def _validate(node: ast.expr, dataclass_names: Set[str]) -> Set[str]:
    """The annotation's atoms that fall outside the picklable grammar."""
    # string annotation: "FaultConfig" / "Optional[int]"
    if isinstance(node, ast.Constant):
        if node.value is None:
            return set()
        if isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                raise _Unparseable(repr(node.value))
            return _validate(parsed, dataclass_names)
        if node.value is Ellipsis:  # Tuple[int, ...]
            return set()
        raise _Unparseable(repr(node.value))
    if isinstance(node, ast.Name):
        if (
            node.id in _PICKLABLE_ATOMS
            or node.id in dataclass_names
        ):
            return set()
        return {node.id}
    if isinstance(node, ast.Attribute):
        # typing.Optional / faults.FaultConfig — judge by the tail name
        tail = node.attr
        if tail in _PICKLABLE_ATOMS or tail in dataclass_names:
            return set()
        return {tail}
    if isinstance(node, ast.Subscript):
        head = node.value
        head_name = None
        if isinstance(head, ast.Name):
            head_name = head.id
        elif isinstance(head, ast.Attribute):
            head_name = head.attr
        if head_name not in _PICKLABLE_GENERICS:
            return {head_name or ast.dump(head)}
        inner = node.slice
        elements = (
            inner.elts if isinstance(inner, ast.Tuple) else [inner]
        )
        bad: Set[str] = set()
        for element in elements:
            bad |= _validate(element, dataclass_names)
        return bad
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # PEP 604: int | None
        return _validate(node.left, dataclass_names) | _validate(
            node.right, dataclass_names
        )
    raise _Unparseable(type(node).__name__)


def _dataclass_tails(table: SymbolTable) -> Set[str]:
    return {
        cls.name for _fq, (_m, cls) in table.classes.items()
        if cls.is_dataclass
    }


def _referenced_classes(annotation: ast.expr, known: Set[str]) -> Set[str]:
    """Class simple names an annotation references, restricted to known."""
    out: Set[str] = set()
    for node in ast.walk(annotation):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                out |= _referenced_classes(
                    ast.parse(node.value, mode="eval").body, known
                )
            except SyntaxError:
                pass
            continue
        if name is not None and name in known:
            out.add(name)
    return out


def analyze_spec_pickle(table: SymbolTable) -> List[PickleFinding]:
    """Validate the whole dataclass closure each spec root ships."""
    dataclass_names = _dataclass_tails(table)
    findings: List[PickleFinding] = []
    seen: Set[str] = set()
    # (class fq, chain of simple names from the root)
    worklist: List[Tuple[str, Tuple[str, ...]]] = []
    for root in SPEC_ROOTS:
        for cls_fq in table.class_index.get(root, ()):
            worklist.append((cls_fq, (root,)))

    while worklist:
        cls_fq, chain = worklist.pop(0)
        if cls_fq in seen:
            continue
        seen.add(cls_fq)
        entry = table.classes.get(cls_fq)
        if entry is None:
            continue
        _module, cls = entry
        if not cls.is_dataclass:
            continue
        for field_name, ann_text, line in cls.fields:
            if not ann_text:
                continue
            try:
                parsed = ast.parse(ann_text, mode="eval").body
            except SyntaxError:
                findings.append(PickleFinding(
                    cls_fq=cls_fq, field=field_name,
                    annotation=ann_text, line=line,
                    bad_parts=(ann_text,), chain=chain,
                ))
                continue
            try:
                bad = _validate(parsed, dataclass_names)
            except _Unparseable as exc:
                bad = {str(exc)}
            if bad:
                findings.append(PickleFinding(
                    cls_fq=cls_fq, field=field_name,
                    annotation=ann_text, line=line,
                    bad_parts=tuple(sorted(bad)), chain=chain,
                ))
            for ref in sorted(
                _referenced_classes(parsed, dataclass_names)
            ):
                for ref_fq in table.class_index.get(ref, ()):
                    if ref_fq not in seen:
                        worklist.append((ref_fq, chain + (ref,)))
    findings.sort(key=lambda f: (f.cls_fq, f.field))
    return findings


# ---------------------------------------------------------------------------
# async blocking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockingFinding:
    """One blocking primitive reachable from a serve coroutine."""

    coroutine: str               # fq of the async def root
    fn: str                      # fq of the function with the effect
    effect: EffectFact
    path: Tuple[str, ...]        # fq call path, coroutine … fn


def analyze_blocking_async(graph: CallGraph) -> List[BlockingFinding]:
    table = graph.table
    roots = sorted(
        fq for fq, fn in table.functions.items()
        if fn.is_async and (
            table.function_module.get(fq, "").startswith(_SERVE_PREFIX)
        )
    )
    findings: List[BlockingFinding] = []
    for root in roots:
        paths: Dict[str, Tuple[str, ...]] = {root: (root,)}
        frontier = [root]
        while frontier:
            next_frontier: List[str] = []
            for fn_fq in frontier:
                for callee in graph.callees(fn_fq):
                    if callee in paths:
                        continue
                    paths[callee] = paths[fn_fq] + (callee,)
                    next_frontier.append(callee)
            frontier = sorted(next_frontier)
        for fn_fq in sorted(paths):
            fn = table.functions[fn_fq]
            for effect in fn.effects:
                if effect.kind not in BLOCKING_KINDS:
                    continue
                findings.append(BlockingFinding(
                    coroutine=root,
                    fn=fn_fq,
                    effect=effect,
                    path=paths[fn_fq],
                ))
    return findings
