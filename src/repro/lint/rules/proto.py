"""``proto.*`` — protocol-surface completeness.

Runtime ``Protocol`` checks (``isinstance(pool, DeadValuePool)``) only
verify the attributes a run actually touches; a pool variant missing
``tracked_items`` passes every experiment and then explodes the first
time someone runs ``--check``.  These rules close that gap statically:

* ``proto.pool-surface`` — every concrete dead-value-pool class defines
  (or inherits a concrete definition of) the *entire*
  :class:`~repro.core.dvp.DeadValuePool` surface.  The required method
  list is read from the Protocol class itself when it is in the
  analyzed tree, so extending the Protocol automatically extends the
  rule.
* ``proto.ftl-hooks`` — an FTL subclass keeps auxiliary state keyed by
  physical page; GC moves and erases physical pages behind its back.
  Every ``BaseFTL`` subclass that stores an attribute ``BaseFTL`` does
  not must therefore override ``relocate_page`` (filling the base's own
  slots, as ``DedupFTL`` does, needs no hook), and one that hooks the
  content paths (``write`` / ``trim`` / ``_kill_fused``) must override
  it, ``erase_cleanup`` and ``check_invariants`` — the exact trio that
  silently desyncs when forgotten.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..engine import ModuleInfo, Program
from ..registry import Rule, register_rule
from ..violations import Violation

__all__ = ["ClassTable", "FtlHooksRule", "PoolSurfaceRule", "class_table"]


@dataclass
class ClassInfo:
    """One class definition: bases (simple names) and method concreteness."""

    name: str
    module: ModuleInfo
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    #: method name → True when the body is a real implementation (not
    #: ``...``/``pass``/``raise NotImplementedError``/@abstractmethod).
    methods: Dict[str, bool] = field(default_factory=dict)
    #: methods explicitly declared @abstractmethod/@abstractproperty.
    abstract_decorated: Set[str] = field(default_factory=set)
    is_abstract_marked: bool = False  # ABC/Protocol in direct bases

    @property
    def declared_abstract(self) -> bool:
        """Abstract *by declaration* (ABC/Protocol base or @abstractmethod).

        A merely-stubbed method body does not count: a concrete class
        stubbing a protocol method with ``pass`` is exactly the bug the
        proto rules exist to catch, not an exemption from them.
        """
        return self.is_abstract_marked or bool(self.abstract_decorated)


class ClassTable:
    """All classes in the program, resolvable by simple name.

    Name collisions across modules are possible in principle; the table
    keeps the first definition per name (files are walked sorted, so
    this is deterministic) — good enough for the rule targets, whose
    names are unique in this repo.
    """

    def __init__(self, program: Program) -> None:
        self.by_name: Dict[str, ClassInfo] = {}
        for module in program.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    info = _class_info(module, node)
                    self.by_name.setdefault(info.name, info)

    def mro_candidates(self, info: ClassInfo) -> List[ClassInfo]:
        """``info`` plus its resolvable ancestors, subclass-first.

        A DFS approximation of the MRO over the analyzed tree;
        unresolvable bases (stdlib, Protocol, ABC) are skipped.
        """
        ordered: List[ClassInfo] = []
        seen: Set[str] = set()
        stack = [info]
        while stack:
            current = stack.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            ordered.append(current)
            for base in current.bases:
                resolved = self.by_name.get(base)
                if resolved is not None:
                    stack.append(resolved)
        return ordered

    def derives_from(self, info: ClassInfo, ancestor: str) -> bool:
        return any(
            c.name == ancestor
            for c in self.mro_candidates(info)[1:]
        )

    def concrete_methods(
        self, info: ClassInfo, stop_at: Optional[str] = None
    ) -> Set[str]:
        """Concretely defined method names along the MRO.

        With ``stop_at``, ancestors from that class upward are excluded
        — "defined below BaseFTL" queries use this.
        """
        names: Set[str] = set()
        for cls in self.mro_candidates(info):
            if stop_at is not None and cls.name == stop_at:
                break
            names.update(
                name for name, concrete in cls.methods.items() if concrete
            )
        return names


def class_table(program: Program) -> ClassTable:
    """The program's :class:`ClassTable`, built once and shared by both
    ``proto.*`` rules (memoised on the program, like ``flow_report``)."""
    table = getattr(program, "_class_table", None)
    if table is None:
        table = ClassTable(program)
        setattr(program, "_class_table", table)
    return table


def _class_info(module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    bases = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            bases.append(base.attr)
        elif isinstance(base, ast.Subscript):
            # Generic[...] / MultiQueue[K, V]-style bases
            inner = base.value
            if isinstance(inner, ast.Name):
                bases.append(inner.id)
            elif isinstance(inner, ast.Attribute):
                bases.append(inner.attr)
    methods: Dict[str, bool] = {}
    abstract_decorated: Set[str] = set()
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[child.name] = _is_concrete(child)
            if _is_abstract_decorated(child):
                abstract_decorated.add(child.name)
    return ClassInfo(
        name=node.name,
        module=module,
        node=node,
        bases=bases,
        methods=methods,
        abstract_decorated=abstract_decorated,
        is_abstract_marked=any(
            b in ("ABC", "Protocol", "ABCMeta") for b in bases
        ),
    )


def _is_abstract_decorated(func: ast.AST) -> bool:
    for decorator in getattr(func, "decorator_list", []):
        name = None
        if isinstance(decorator, ast.Name):
            name = decorator.id
        elif isinstance(decorator, ast.Attribute):
            name = decorator.attr
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _is_concrete(func: ast.AST) -> bool:
    """A real implementation, not a stub or an abstract declaration."""
    if _is_abstract_decorated(func):
        return False
    body = list(getattr(func, "body", []))
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        body = body[1:]  # skip the docstring
    if not body:
        return False
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, ast.Constant
        ) and stmt.value.value is Ellipsis:
            continue
        if isinstance(stmt, ast.Raise) and _raises_not_implemented(stmt):
            continue
        return True  # any other statement means real logic
    return False


def _raises_not_implemented(stmt: ast.Raise) -> bool:
    exc = stmt.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


#: Fallback pool surface, used when the DeadValuePool Protocol class is
#: not part of the analyzed tree (synthetic test fixtures).  Kept in
#: sync by test_lint_clean's surface-extraction assertion.
_FALLBACK_POOL_SURFACE: Tuple[str, ...] = (
    "lookup_for_write",
    "skip_missed_lookups",
    "insert_garbage",
    "discard_ppn",
    "clear_volatile",
    "tracked_ppn_count",
    "tracked_items",
    "__len__",
    "__contains__",
)


@register_rule
class PoolSurfaceRule(Rule):
    """Concrete pool classes define the full DeadValuePool surface."""

    code = "proto.pool-surface"
    summary = "dead-value pool missing part of the DeadValuePool protocol"

    #: Base class marking a class as a pool implementation.
    pool_base = "PoolBase"
    #: Protocol class the required surface is extracted from.
    protocol_name = "DeadValuePool"
    #: Structural trigger: defining both of these marks a class as a
    #: pool implementation even without inheriting PoolBase.
    structural_markers: Tuple[str, ...] = ("lookup_for_write", "insert_garbage")

    def _required_surface(self, table: ClassTable) -> Tuple[str, ...]:
        protocol = table.by_name.get(self.protocol_name)
        if protocol is None:
            return _FALLBACK_POOL_SURFACE
        return tuple(sorted(protocol.methods))

    def _is_pool(self, table: ClassTable, info: ClassInfo) -> bool:
        if info.name in (self.pool_base, self.protocol_name):
            return False
        if table.derives_from(info, self.pool_base):
            return True
        return all(m in info.methods for m in self.structural_markers)

    def check(self, program: Program) -> Iterator[Violation]:
        table = class_table(program)
        required = self._required_surface(table)
        for info in table.by_name.values():
            if not self._is_pool(table, info) or info.declared_abstract:
                continue
            concrete = table.concrete_methods(info)
            missing = [name for name in required if name not in concrete]
            if missing:
                yield self.violation(
                    info.module, info.node,
                    f"pool implementation {info.name} is missing "
                    f"{', '.join(missing)} from the DeadValuePool "
                    "protocol; every variant must define the full "
                    "surface (the invariant checker audits tracked_items)",
                )


@register_rule
class FtlHooksRule(Rule):
    """FTL subclasses override the GC hooks their extra state requires."""

    code = "proto.ftl-hooks"
    summary = "BaseFTL subclass missing a required GC/consistency hook"

    ftl_base = "BaseFTL"
    #: Every subclass with state of its own must handle GC page movement.
    state_required: Tuple[str, ...] = ("relocate_page",)
    #: Hooking content bookkeeping obliges the erase/audit pair too.
    content_triggers: Tuple[str, ...] = ("write", "trim", "_kill_fused")
    content_required: Tuple[str, ...] = ("erase_cleanup", "check_invariants")

    def check(self, program: Program) -> Iterator[Violation]:
        table = class_table(program)
        for info in table.by_name.values():
            if info.name == self.ftl_base or not table.derives_from(
                info, self.ftl_base
            ):
                continue
            if info.declared_abstract:
                continue
            below_base = table.concrete_methods(info, stop_at=self.ftl_base)
            chain = table.mro_candidates(info)
            cut = [c.name for c in chain].index(self.ftl_base)
            hooks_content = any(t in below_base for t in self.content_triggers)
            own_state = _stored_attrs(chain[:cut]) - _stored_attrs(chain[cut:])
            required: List[str] = []
            if hooks_content or own_state:
                required.extend(self.state_required)
            if hooks_content:
                required.extend(self.content_required)
            missing = [name for name in required if name not in below_base]
            if missing:
                yield self.violation(
                    info.module, info.node,
                    f"FTL subclass {info.name} must override "
                    f"{', '.join(missing)}: subclass state keyed by "
                    "physical page desyncs when GC relocates or erases "
                    "pages without these hooks",
                )


def _stored_attrs(classes: List[ClassInfo]) -> Set[str]:
    """The ``self.<name>`` attributes any method of ``classes`` stores."""
    return {
        node.attr for info in classes for node in ast.walk(info.node)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
