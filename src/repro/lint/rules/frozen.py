"""``frozen.*`` — frozen-dataclass hygiene.

``RunConfig``/``RunSpec``/``FaultConfig`` are frozen precisely so one
instance can be shared across a whole matrix and shipped to worker
processes.  ``frozen.setattr`` guards the static escape that undoes
that: ``object.__setattr__`` is the blessed way for a frozen
dataclass's ``__post_init__`` to fill derived fields, and the *only*
place it is tolerated.  Anywhere else it is a mutation of a value other
code assumes immutable (and shares across threads, caches, and digest
computations).

That specs stay picklable is ``flow.spec-pickle``'s job
(:mod:`repro.lint.flow.safety`): it validates every field in the
dataclass closure of each spec the process pool ships.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import ModuleInfo, Program
from ..registry import ModuleRule, register_rule
from ..violations import Violation

__all__ = ["FrozenSetattrRule"]


@register_rule
class FrozenSetattrRule(ModuleRule):
    """``object.__setattr__`` only inside ``__post_init__``."""

    code = "frozen.setattr"
    summary = "object.__setattr__ outside __post_init__"

    #: The one method allowed to bypass dataclass frozenness.
    allowed_methods = frozenset({"__post_init__"})

    def check_module(
        self, program: Program, module: ModuleInfo
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object"
            ):
                continue
            context = module.context_at(node)
            method = context.rsplit(".", 1)[-1]
            if method in self.allowed_methods:
                continue
            yield self.violation(
                module, node,
                "object.__setattr__ outside __post_init__ mutates a "
                "frozen dataclass other code assumes immutable; build a "
                "new instance with dataclasses.replace instead",
            )
