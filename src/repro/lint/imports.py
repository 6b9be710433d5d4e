"""Static import-graph construction and cycle detection.

Two views of every module's imports are collected in one AST pass:

``top_level``
    Imports executed at module import time (module-body statements,
    including those nested in module-level ``if``/``try`` blocks).
    These are the edges that can create *runtime* import cycles, so
    cycle detection runs on exactly this set.
``all_imports``
    The above plus lazy (function/method-body) imports.  Layering rules
    use this view: a function-level ``from repro.experiments import x``
    inside the simulator is still an architecture violation even though
    it dodges the import-time cycle.

Imports guarded by ``if TYPE_CHECKING:`` are excluded from both views —
they never execute, and the layering rules should not force runtime
workarounds for annotations.

Relative imports are resolved against the importing module's dotted
name, so the graph is correct for any package root the engine maps.
The same resolution backs :func:`alias_map`, the one local-name →
absolute-origin table every rule resolves call targets through.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "ImportEdge",
    "ImportGraph",
    "ModuleImports",
    "alias_map",
    "build_import_graph",
    "dotted_name",
    "find_cycles",
    "resolve_name",
]


@dataclass(frozen=True)
class ImportEdge:
    """One import statement: where it is and what it pulls in."""

    target: str          # absolute dotted module name
    line: int
    col: int
    lazy: bool           # inside a function/method body


@dataclass
class ModuleImports:
    """All imports of one module, split by execution time."""

    module: str
    top_level: List[ImportEdge] = field(default_factory=list)
    lazy: List[ImportEdge] = field(default_factory=list)

    @property
    def all_imports(self) -> List[ImportEdge]:
        return self.top_level + self.lazy


class ImportGraph:
    """The per-module import tables plus derived adjacency."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleImports] = {}

    def add(self, imports: ModuleImports) -> None:
        self.modules[imports.module] = imports

    def edges(
        self, module: str, include_lazy: bool = True
    ) -> List[ImportEdge]:
        info = self.modules.get(module)
        if info is None:
            return []
        return info.all_imports if include_lazy else list(info.top_level)

    def adjacency(self, include_lazy: bool = False) -> Dict[str, Set[str]]:
        """Module → imported modules, restricted to analyzed modules.

        Importing a package resolves to its ``__init__`` module, which
        the analyzed set contains under the bare package name; imports
        of modules outside the analyzed set (stdlib, third-party) are
        dropped — they cannot participate in an internal cycle.
        """
        known = set(self.modules)
        adj: Dict[str, Set[str]] = {m: set() for m in known}
        for module, info in self.modules.items():
            edges = info.all_imports if include_lazy else info.top_level
            for edge in edges:
                target = edge.target
                # ``from repro.ftl.ftl import BaseFTL`` records target
                # repro.ftl.ftl; ``from repro.ftl import ftl`` records
                # repro.ftl — both resolve into the known set directly.
                # A target like repro.ftl.ftl.BaseFTL (attribute tail)
                # is trimmed to its longest known prefix.
                while target and target not in known:
                    if "." not in target:
                        target = ""
                        break
                    target = target.rsplit(".", 1)[0]
                if target and target != module:
                    adj[module].add(target)
        return adj


class _ImportCollector(ast.NodeVisitor):
    """One-pass collector distinguishing top-level / lazy / typing-only."""

    def __init__(self, module: str, is_package: bool) -> None:
        self.module = module
        self.is_package = is_package
        self.result = ModuleImports(module)
        self._function_depth = 0
        self._typing_depth = 0

    # -- scope tracking ------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._typing_depth += 1
            for child in node.body:
                self.visit(child)
            self._typing_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    # -- imports -------------------------------------------------------

    def _record(self, target: str, node: ast.AST) -> None:
        if self._typing_depth:
            return
        edge = ImportEdge(
            target=target,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            lazy=self._function_depth > 0,
        )
        if edge.lazy:
            self.result.lazy.append(edge)
        else:
            self.result.top_level.append(edge)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._record(alias.name, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = _resolve_from_import(
            self.module, self.is_package, node.level, node.module
        )
        if base is None:
            return
        self._record(base, node)
        # ``from pkg import b`` may be importing the *submodule* pkg.b,
        # which creates a real runtime edge to it.  Record each alias as
        # a candidate; adjacency() trims names that turn out to be plain
        # attributes back to their longest known module prefix.
        for alias in node.names:
            if alias.name != "*":
                self._record(f"{base}.{alias.name}", node)

    def collect(self, tree: ast.AST) -> ModuleImports:
        self.visit(tree)
        return self.result


def _is_type_checking_test(test: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` (negations
    and boolean combinations are deliberately not recognised — keep the
    guard simple or the import counts)."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _resolve_from_import(
    module: str, is_package: bool, level: int, target: Optional[str]
) -> Optional[str]:
    """Absolute dotted name for a (possibly relative) ``from`` import."""
    if level == 0:
        return target
    parts = module.split(".")
    # level 1 anchors at the containing package: the module itself when
    # this is a package __init__, its parent otherwise.
    anchor = parts if is_package else parts[:-1]
    drop = level - 1
    if drop >= len(anchor):
        return None  # relative import escaping the analyzed root
    if drop:
        anchor = anchor[:-drop]
    base = ".".join(anchor)
    if target:
        return f"{base}.{target}" if base else target
    return base or None


def alias_map(
    tree: ast.Module, module: str, is_package: bool
) -> Dict[str, str]:
    """Local name → absolute dotted origin for this module's imports.

    ``import time as t`` maps ``t`` → ``time``; ``from datetime import
    datetime as dt`` maps ``dt`` → ``datetime.datetime``.  Relative
    imports are resolved against the module's own dotted name (same
    scheme as the import graph), so ``from ..core import hashing`` and
    ``from repro.core import hashing`` yield identical aliases.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = origin
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from_import(
                module, is_package, node.level, node.module
            )
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}"
    return aliases


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` as a string when the expression is a pure name chain."""
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    return ".".join(reversed(parts))


def resolve_name(dotted: str, aliases: Dict[str, str]) -> str:
    """``dotted`` with its head name replaced by its import origin."""
    head, _, rest = dotted.partition(".")
    base = aliases.get(head, head)
    return f"{base}.{rest}" if rest else base


def collect_module_imports(
    module: str, tree: ast.AST, is_package: bool
) -> ModuleImports:
    """The import table of one parsed module."""
    return _ImportCollector(module, is_package).collect(tree)


def build_import_graph(
    modules: Iterable[Tuple[str, ast.AST, bool]]
) -> ImportGraph:
    """Graph over ``(dotted_name, tree, is_package)`` triples."""
    graph = ImportGraph()
    for name, tree, is_package in modules:
        graph.add(collect_module_imports(name, tree, is_package))
    return graph


def find_cycles(adjacency: Dict[str, Set[str]]) -> List[List[str]]:
    """Every elementary import cycle, as module-name paths.

    Iterative DFS (no recursion limit risk on big trees) reporting each
    back edge's stack slice.  Cycles are canonicalised to start at their
    lexicographically smallest module and deduplicated, so the output is
    stable for tests and baselines.
    """
    seen_cycles: Set[Tuple[str, ...]] = set()
    cycles: List[List[str]] = []
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {m: WHITE for m in adjacency}

    for root in sorted(adjacency):
        if color[root] != WHITE:
            continue
        stack: List[Tuple[str, Iterable[str]]] = [
            (root, iter(sorted(adjacency[root])))
        ]
        path = [root]
        color[root] = GRAY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child not in adjacency:
                    continue
                if color[child] == GRAY:
                    cycle = path[path.index(child):]
                    key = _canonical(cycle)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        cycles.append(list(key) + [key[0]])
                elif color[child] == WHITE:
                    color[child] = GRAY
                    path.append(child)
                    stack.append((child, iter(sorted(adjacency[child]))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                path.pop()
                color[node] = BLACK
    return cycles


def _canonical(cycle: List[str]) -> Tuple[str, ...]:
    """Rotate so the smallest member leads (stable identity)."""
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:] + cycle[:pivot])
