"""Project-wide symbol table and call graph over per-file facts.

The :class:`SymbolTable` merges every module's :class:`ModuleFacts`
into global indices: fully-qualified functions (``module.Class.method``),
classes with their base-class links and inferred attribute types, and a
method table keyed ``(class fq-name, method name)``.  Class hierarchy
is resolved both *up* (a ``self.m()`` call binds to the nearest
definition in the MRO chain) and *down* (a call through a base-typed
receiver also targets every subclass override — the dispatch the known
Protocols rely on: ``DeadValuePool`` implementations, ``BaseFTL``
hooks, the ``Device`` step surface).

:class:`CallGraph` resolves every recorded call site against the table,
keeping the result aligned index-for-index with each function's
``calls`` tuple so the taint pass can map argument dependences onto
callee parameters.  Unresolvable calls stay unresolved — the passes
treat them as opaque pass-through, the safe over-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .facts import CallFact, ClassFacts, FunctionFacts, ModuleFacts

__all__ = ["CallGraph", "SymbolTable", "build_symbol_table"]


#: Method names distinctive enough to resolve on an *untyped* receiver:
#: the protocol surfaces named in DESIGN — DeadValuePool, the BaseFTL
#: GC hooks, GC delegation, MQ touch and the Device step surface.
#: Deliberately excludes generic names (``read``/``write``/``get``),
#: which on an untyped receiver would wire half the project together.
PROTOCOL_METHODS = frozenset({
    # DeadValuePool implementations
    "lookup_for_write", "skip_missed_lookups", "insert_garbage",
    "discard_ppn", "clear_volatile", "tracked_ppn_count", "tracked_items",
    # BaseFTL / GC delegate hooks
    "relocate_page", "erase_cleanup", "maybe_collect",
    "background_collect",
    # Device step surface / MQ touch
    "step", "access",
})


@dataclass
class SymbolTable:
    """Global indices over all analyzed modules' facts."""

    modules: Dict[str, ModuleFacts] = field(default_factory=dict)
    #: fq function name → facts
    functions: Dict[str, FunctionFacts] = field(default_factory=dict)
    #: fq function name → module name
    function_module: Dict[str, str] = field(default_factory=dict)
    #: fq class name → (module name, facts)
    classes: Dict[str, Tuple[str, ClassFacts]] = field(default_factory=dict)
    #: class simple name → fq class names (sorted, for determinism)
    class_index: Dict[str, List[str]] = field(default_factory=dict)
    #: (fq class name, method name) → fq function name
    methods: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: fq class name → fq direct base classes (resolved)
    bases: Dict[str, List[str]] = field(default_factory=dict)
    #: fq class name → fq direct subclasses
    subclasses: Dict[str, List[str]] = field(default_factory=dict)
    #: function tail name → fq function names (for re-export fallback)
    by_tail: Dict[str, List[str]] = field(default_factory=dict)

    # -- construction --------------------------------------------------

    def add_module(self, facts: ModuleFacts) -> None:
        self.modules[facts.module] = facts
        for fn in facts.functions:
            fq = f"{facts.module}.{fn.qualname}"
            self.functions[fq] = fn
            self.function_module[fq] = facts.module
            tail = fn.qualname.rsplit(".", 1)[-1]
            self.by_tail.setdefault(tail, []).append(fq)
            if fn.cls is not None:
                # Key on the class's own fq name.  ``fn.qualname`` is
                # ``...Cls.method``; the class prefix drops the tail.
                cls_fq = f"{facts.module}.{fn.qualname.rsplit('.', 1)[0]}"
                self.methods[(cls_fq, tail)] = fq
        for cls in facts.classes:
            # Nested classes share the simple name; last writer wins on
            # the fq key, which matches how the method table keys them.
            cls_fq = f"{facts.module}.{cls.name}"
            self.classes[cls_fq] = (facts.module, cls)
            self.class_index.setdefault(cls.name, []).append(cls_fq)

    def link_hierarchy(self) -> None:
        """Resolve base-class names and build the subclass map."""
        for fq_list in self.class_index.values():
            fq_list.sort()
        for fqs in self.by_tail.values():
            fqs.sort()
        self.bases.clear()
        self.subclasses.clear()
        for cls_fq, (_module, cls) in sorted(self.classes.items()):
            resolved: List[str] = []
            for base in cls.bases:
                target = self._resolve_class_name(base)
                if target is not None:
                    resolved.append(target)
            self.bases[cls_fq] = resolved
            for base_fq in resolved:
                self.subclasses.setdefault(base_fq, []).append(cls_fq)
        for subs in self.subclasses.values():
            subs.sort()

    def _resolve_class_name(self, name: str) -> Optional[str]:
        if name in self.classes:
            return name
        tail = name.rsplit(".", 1)[-1]
        candidates = self.class_index.get(tail, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- queries -------------------------------------------------------

    def mro_chain(self, cls_fq: str) -> List[str]:
        """The class plus its transitive bases, breadth-first."""
        out: List[str] = []
        seen: Set[str] = set()
        frontier = [cls_fq]
        while frontier:
            cur = frontier.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            out.append(cur)
            frontier.extend(self.bases.get(cur, ()))
        return out

    def transitive_subclasses(self, cls_fq: str) -> List[str]:
        out: List[str] = []
        seen: Set[str] = set()
        frontier = list(self.subclasses.get(cls_fq, ()))
        while frontier:
            cur = frontier.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            out.append(cur)
            frontier.extend(self.subclasses.get(cur, ()))
        return out

    def resolve_method(self, cls_fq: str, attr: str) -> List[str]:
        """Every function a ``recv.attr(...)`` call may bind to, where
        ``recv`` is statically typed ``cls_fq``: the nearest definition
        up the MRO plus every subclass override."""
        out: List[str] = []
        for cur in self.mro_chain(cls_fq):
            fn = self.methods.get((cur, attr))
            if fn is not None:
                out.append(fn)
                break
        for sub in self.transitive_subclasses(cls_fq):
            fn = self.methods.get((sub, attr))
            if fn is not None and fn not in out:
                out.append(fn)
        entry = self.classes.get(cls_fq)
        if entry is not None and any(
            base.rsplit(".", 1)[-1] == "Protocol" for base in entry[1].bases
        ):
            # Structural typing: implementations need not subclass it.
            for fn in self._protocol_fallback(attr):
                if fn not in out:
                    out.append(fn)
        return out

    def attr_type(self, cls_fq: str, attr: str) -> Optional[str]:
        """Inferred class (fq) of ``self.<attr>`` on ``cls_fq``."""
        for cur in self.mro_chain(cls_fq):
            entry = self.classes.get(cur)
            if entry is None:
                continue
            for name, hint in entry[1].attr_types:
                if name == attr:
                    return self._resolve_class_name(hint)
        return None

    # -- per-call resolution -------------------------------------------

    def resolve_call(self, caller_fq: str, call: CallFact) -> List[str]:
        """fq functions a call site may target (empty → opaque)."""
        module = self.function_module.get(caller_fq, "")
        caller = self.functions.get(caller_fq)

        if call.kind == "local":
            qual = caller_fq[len(module) + 1:] if module else caller_fq
            scopes = qual.split(".")[:-1]
            while True:
                prefix = ".".join(scopes)
                cand = f"{prefix}.{call.name}" if prefix else call.name
                fq = f"{module}.{cand}"
                if fq in self.functions:
                    return [fq]
                ctor = self._constructor(fq)
                if ctor is not None:
                    return ctor
                if not scopes:
                    break
                scopes.pop()
            return self._tail_fallback(call.name)

        if call.kind == "abs":
            if call.name in self.functions:
                return [call.name]
            ctor = self._constructor(call.name)
            if ctor is not None:
                return ctor
            return self._tail_fallback(call.name.rsplit(".", 1)[-1])

        if call.kind == "self":
            if caller is None or caller.cls is None:
                return []
            cls_fq = f"{module}.{caller_fq[len(module) + 1:].rsplit('.', 1)[0]}"
            return self.resolve_method(cls_fq, call.attr)

        if call.kind == "selfattr":
            if caller is None or caller.cls is None:
                return []
            cls_fq = f"{module}.{caller_fq[len(module) + 1:].rsplit('.', 1)[0]}"
            recv = self.attr_type(cls_fq, call.name)
            if recv is None:
                return self._protocol_fallback(call.attr)
            return self.resolve_method(recv, call.attr)

        if call.kind == "typed":
            recv = self._resolve_class_name(call.name)
            if recv is None:
                return self._protocol_fallback(call.attr)
            return self.resolve_method(recv, call.attr)

        if call.kind == "dyn":
            return self._protocol_fallback(call.attr)

        return []

    def _constructor(self, cls_fq: str) -> Optional[List[str]]:
        """``Cls(...)`` → its ``__init__`` (or [] for init-less classes);
        ``None`` when the name is not a known class at all."""
        if cls_fq not in self.classes:
            tail = cls_fq.rsplit(".", 1)[-1]
            resolved = self._resolve_class_name(tail) if tail[:1].isupper() else None
            if resolved is None:
                return None
            cls_fq = resolved
        init = self.methods.get((cls_fq, "__init__"))
        return [init] if init is not None else []

    def _tail_fallback(self, tail: str) -> List[str]:
        """Resolve a name by unique tail match (covers re-exports like
        ``from repro.api import parse_record``)."""
        candidates = self.by_tail.get(tail, [])
        if len(candidates) == 1:
            return list(candidates)
        return []

    def _protocol_fallback(self, attr: str) -> List[str]:
        if attr not in PROTOCOL_METHODS:
            return []
        out = [
            fq for (_cls, name), fq in self.methods.items() if name == attr
        ]
        return sorted(set(out))


@dataclass
class CallGraph:
    """Resolved call edges, aligned with each function's call tuple."""

    table: SymbolTable
    #: caller fq → per-call-site tuple of callee fqs (index-aligned
    #: with ``FunctionFacts.calls``)
    resolved: Dict[str, Tuple[Tuple[str, ...], ...]] = field(
        default_factory=dict
    )

    @classmethod
    def build(cls, table: SymbolTable) -> "CallGraph":
        graph = cls(table=table)
        for caller_fq in sorted(table.functions):
            fn = table.functions[caller_fq]
            graph.resolved[caller_fq] = tuple(
                tuple(table.resolve_call(caller_fq, call))
                for call in fn.calls
            )
        return graph

    def callees(self, caller_fq: str) -> List[str]:
        """Distinct callees of one function, sorted."""
        out: Set[str] = set()
        for targets in self.resolved.get(caller_fq, ()):
            out.update(targets)
        return sorted(out)

    def edges(self) -> Iterator[Tuple[str, str]]:
        """All (caller, callee) pairs, deterministic order."""
        for caller_fq in sorted(self.resolved):
            for callee in self.callees(caller_fq):
                yield caller_fq, callee


def build_symbol_table(all_facts: Iterable[ModuleFacts]) -> SymbolTable:
    """Merge per-module facts into a linked project table.

    Input order does not matter: modules are indexed by name and the
    hierarchy link step sorts every derived list, so the table (and the
    call graph built from it) is identical under any file ordering.
    """
    table = SymbolTable()
    for facts in sorted(all_facts, key=lambda f: f.module):
        table.add_module(facts)
    table.link_hierarchy()
    return table
