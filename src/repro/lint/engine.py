"""The lint engine: load modules, run rules, apply suppressions/baseline.

The engine walks the given paths, parses every ``.py`` file once, maps
each file to its dotted module name (``src/repro/core/dvp.py`` →
``repro.core.dvp``), builds the import graph, and hands the whole
:class:`Program` to every registered rule.  Findings then pass through
two filters:

1. per-line ``# lint: disable=<code>`` comments (exact code match), and
2. the baseline (:mod:`repro.lint.baseline`) — justified, reviewed
   grandfathered findings matched by ``(path, code, context)``.

Everything is pure stdlib and deterministic: files are walked sorted,
rules run in code order, and violations are reported sorted by
location, so two runs over the same tree emit byte-identical reports.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .baseline import Baseline
from .imports import (
    ImportGraph,
    alias_map,
    build_import_graph,
    dotted_name,
    resolve_name,
)
from .registry import Rule, all_rules
from .violations import Violation, suppression_table

__all__ = ["LintEngine", "LintResult", "ModuleInfo", "Program"]

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", "build", "dist", ".eggs"}


@dataclass
class ModuleInfo:
    """One parsed source file plus the lookup tables rules need."""

    path: str                 # path as reported (relative when given so)
    name: str                 # dotted module name, e.g. repro.core.dvp
    source: str
    tree: ast.Module
    is_package: bool          # this file is an __init__.py
    suppressions: Tuple = ()  # per-line frozensets of disabled codes
    _contexts: Dict[int, str] = field(default_factory=dict, repr=False)

    @classmethod
    def parse(cls, path: str, name: str, source: str) -> "ModuleInfo":
        tree = ast.parse(source, filename=path)
        info = cls(
            path=path,
            name=name,
            source=source,
            tree=tree,
            is_package=os.path.basename(path) == "__init__.py",
            suppressions=suppression_table(source),
        )
        info._index_contexts()
        return info

    def _index_contexts(self) -> None:
        """Map every node's line to its enclosing dotted qualname."""

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    name = (
                        f"{prefix}.{child.name}" if prefix else child.name
                    )
                    end = getattr(child, "end_lineno", child.lineno)
                    for line in range(child.lineno, end + 1):
                        # innermost definition wins: children overwrite
                        # after parents because we recurse downward.
                        self._contexts[line] = name
                walk(child, name)

        walk(self.tree, "")

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """Local name → absolute dotted origin, from this module's imports."""
        return alias_map(self.tree, self.name, self.is_package)

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Absolute dotted name of a name chain, resolved through imports."""
        dotted = dotted_name(node)
        return None if dotted is None else resolve_name(dotted, self.aliases)

    def context_at(self, node: ast.AST) -> str:
        """Dotted qualname enclosing ``node`` (``<module>`` at top level)."""
        line = getattr(node, "lineno", None)
        if line is None:
            return "<module>"
        return self._contexts.get(line, "<module>")

    def is_suppressed(self, violation: Violation) -> bool:
        index = violation.line - 1
        if 0 <= index < len(self.suppressions):
            return violation.code in self.suppressions[index]
        return False


@dataclass
class Program:
    """Everything the rules can see: modules plus the import graph."""

    modules: List[ModuleInfo]
    import_graph: ImportGraph
    #: on-disk flow facts cache (None → memory-only, no disk tier)
    cache_dir: Optional[str] = None

    def module_named(self, name: str) -> Optional[ModuleInfo]:
        for module in self.modules:
            if module.name == name:
                return module
        return None

    def by_path(self, path: str) -> Optional[ModuleInfo]:
        for module in self.modules:
            if module.path == path:
                return module
        return None


@dataclass
class LintResult:
    """The outcome of one engine run."""

    violations: List[Violation]        # surviving (reported) findings
    suppressed: int                    # killed by # lint: disable
    baselined: int                     # killed by baseline entries
    stale_baseline: List[str]          # baseline entries that matched nothing
    files_checked: int

    @property
    def clean(self) -> bool:
        return not self.violations


class LintEngine:
    """Configurable front end over the rule registry."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        baseline: Optional[Baseline] = None,
        package_root: Optional[str] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.rules = list(rules) if rules is not None else all_rules()
        if select:
            wanted = set(select)
            self.rules = [r for r in self.rules if r.code in wanted]
        if ignore:
            unwanted = set(ignore)
            self.rules = [r for r in self.rules if r.code not in unwanted]
        self.baseline = baseline or Baseline()
        self.package_root = package_root
        self.cache_dir = cache_dir

    # -- loading -------------------------------------------------------

    def load_program(self, paths: Sequence[str]) -> Program:
        files = sorted(self._collect_files(paths))
        modules = []
        for path in files:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            modules.append(
                ModuleInfo.parse(path, self._module_name(path), source)
            )
        graph = build_import_graph(
            (m.name, m.tree, m.is_package) for m in modules
        )
        return Program(
            modules=modules, import_graph=graph, cache_dir=self.cache_dir
        )

    def _collect_files(self, paths: Sequence[str]) -> List[str]:
        found: List[str] = []
        for path in paths:
            if os.path.isfile(path):
                if path.endswith(".py"):
                    found.append(path)
                continue
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        found.append(os.path.join(dirpath, filename))
        return found

    def _module_name(self, path: str) -> str:
        """Dotted module name for ``path``.

        With an explicit ``package_root``, names are relative to it; by
        default the longest suffix of the path that forms an unbroken
        chain of ``__init__.py`` packages is used, so both installed
        layouts (``src/repro/...``) and synthetic test trees resolve to
        their natural dotted names.
        """
        normalized = os.path.normpath(os.path.abspath(path))
        if self.package_root:
            root = os.path.normpath(os.path.abspath(self.package_root))
            rel = os.path.relpath(normalized, root)
        else:
            rel = self._auto_relative(normalized)
        parts = rel.split(os.sep)
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][: -len(".py")]
        return ".".join(p for p in parts if p not in ("", os.curdir))

    @staticmethod
    def _auto_relative(path: str) -> str:
        directory = os.path.dirname(path)
        package_dirs = []
        while os.path.isfile(os.path.join(directory, "__init__.py")):
            package_dirs.append(os.path.basename(directory))
            directory = os.path.dirname(directory)
        package_dirs.reverse()
        return os.path.join(*package_dirs, os.path.basename(path)) \
            if package_dirs else os.path.basename(path)

    # -- running -------------------------------------------------------

    def run(self, paths: Sequence[str]) -> LintResult:
        program = self.load_program(paths)
        return self.run_program(program)

    def run_program(self, program: Program) -> LintResult:
        raw: List[Violation] = []
        for rule in sorted(self.rules, key=lambda r: r.code):
            raw.extend(rule.check(program))

        by_path = {module.path: module for module in program.modules}
        survivors: List[Violation] = []
        suppressed = 0
        matched_entries: Set[str] = set()
        baselined = 0
        for violation in sorted(set(raw)):
            module = by_path.get(violation.path)
            if module is not None and module.is_suppressed(violation):
                suppressed += 1
                continue
            entry = self.baseline.match(violation)
            if entry is not None:
                matched_entries.add(entry.key())
                baselined += 1
                continue
            survivors.append(violation)
        stale = [
            entry.key()
            for entry in self.baseline.entries
            if entry.key() not in matched_entries
        ]
        return LintResult(
            violations=survivors,
            suppressed=suppressed,
            baselined=baselined,
            stale_baseline=sorted(stale),
            files_checked=len(program.modules),
        )

