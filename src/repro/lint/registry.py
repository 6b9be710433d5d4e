"""The rule registry: every lint rule self-registers at import time.

A rule is a class with a stable dotted ``code`` (``family.name``), a
one-line ``summary`` and a ``check(program)`` generator yielding
:class:`~repro.lint.violations.Violation`.  Rules see the whole
:class:`~repro.lint.engine.Program` (every parsed module plus the import
graph), so cross-module rules (layering, protocol surfaces) and
single-module rules share one interface; :class:`ModuleRule` is the
convenience base for the latter.

Adding a rule (DESIGN.md §9 walks through an example):

1. subclass :class:`Rule` (or :class:`ModuleRule`) in the right
   ``repro/lint/rules/`` family module,
2. decorate it with :func:`register_rule`,
3. add a seeded-violation fixture in ``tests/unit/test_lint_rules.py``
   (the meta-test asserts every registered code has one).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Type

from .violations import Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ModuleInfo, Program

__all__ = [
    "ModuleRule",
    "Rule",
    "all_codes",
    "all_rules",
    "register_rule",
]

_REGISTRY: Dict[str, Type["Rule"]] = {}


class Rule:
    """Base class for lint rules (whole-program view)."""

    #: Stable dotted identifier, ``family.name`` — never renumbered;
    #: retired rules leave their code reserved so baselines and disable
    #: comments cannot silently change meaning.
    code: str = ""
    #: One-line description shown in ``repro lint --rules``.
    summary: str = ""

    def check(self, program: "Program") -> Iterator[Violation]:
        """Yield every violation of this rule in ``program``."""
        raise NotImplementedError

    def violation(
        self,
        module: "ModuleInfo",
        node: ast.AST,
        message: str,
    ) -> Violation:
        """A :class:`Violation` at ``node``'s location in ``module``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(
            path=module.path,
            line=line,
            col=col + 1,
            code=self.code,
            message=message,
            context=module.context_at(node),
        )


class ModuleRule(Rule):
    """Convenience base: ``check_module`` is called once per module."""

    def check(self, program: "Program") -> Iterator[Violation]:
        for module in program.modules:
            yield from self.check_module(program, module)

    def check_module(
        self, program: "Program", module: "ModuleInfo"
    ) -> Iterator[Violation]:
        raise NotImplementedError


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``cls`` to the global registry."""
    if not cls.code or "." not in cls.code:
        raise ValueError(
            f"rule {cls.__name__} needs a dotted code, got {cls.code!r}"
        )
    existing = _REGISTRY.get(cls.code)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"duplicate rule code {cls.code!r}: "
            f"{existing.__name__} and {cls.__name__}"
        )
    _REGISTRY[cls.code] = cls
    return cls


def _load_rules() -> None:
    """Import the rule family modules (side effect: registration)."""
    from .rules import det, flow, frozen, layer, proto  # noqa: F401


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by code."""
    _load_rules()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def all_codes() -> List[str]:
    """Every registered rule code (the ``--select``/``--ignore`` domain)."""
    _load_rules()
    return sorted(_REGISTRY)
