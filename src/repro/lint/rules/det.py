"""``det.*`` — determinism rules.

The reproducibility contract (serial == parallel == cached == checked,
digest-for-digest) dies by a thousand cuts: a wall-clock read that leaks
into a result, one draw from the process-global ``random`` state, one
iteration over a bare ``set`` whose order depends on hash seeding, one
environment variable consulted off the sanctioned config path.  Each
rule here bans one of those cuts everywhere outside the modules whose
*job* is the banned thing (the perf layer measures wall time; the
trace cache reads its env knob).  Call targets are resolved through the
module's import aliases (:attr:`~repro.lint.engine.ModuleInfo.aliases`),
so ``import time as t; t.time()`` is caught too.

These rules overlap ``flow.taint-digest`` in their sources but not in
their reach: the flow pass reports a source only when it flows into a
digest sink, and it never looks at module-level statements.  A
wall-clock read that feeds a tie-break, or an environment read at
import time, is caught here and nowhere else.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from ..engine import ModuleInfo, Program
from ..flow.facts import SOURCE_CALLS
from ..registry import ModuleRule, register_rule
from ..violations import Violation

__all__ = [
    "GlobalRandomRule",
    "EnvironRule",
    "SetIterationRule",
    "WallClockRule",
]


@register_rule
class WallClockRule(ModuleRule):
    """No wall-clock reads outside the perf layer.

    Simulated time comes from the event engine; wall time exists only to
    be *reported* (bench timings).  A wall-clock read
    anywhere else eventually ends up compared, logged into a digest-
    relevant structure, or used to break a tie — and the runs stop being
    replayable.
    """

    code = "det.wallclock"
    summary = (
        "wall-clock read (time.*/datetime.now) outside repro.perf"
    )

    #: Modules whose job is measuring wall time.
    allowed_prefixes: Tuple[str, ...] = ("repro.perf",)

    #: The flow pass's wall-clock sources (``facts.SOURCE_CALLS``).
    banned = frozenset(
        name for name, kind in SOURCE_CALLS.items() if kind == "wallclock"
    )

    def _allowed(self, module: ModuleInfo) -> bool:
        return module.name.startswith(self.allowed_prefixes)

    def check_module(
        self, program: Program, module: ModuleInfo
    ) -> Iterator[Violation]:
        if self._allowed(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name in self.banned:
                yield self.violation(
                    module, node,
                    f"wall-clock read {name}() outside "
                    f"{'/'.join(self.allowed_prefixes)}; simulated time "
                    "comes from the engine, wall time only from the "
                    "perf layer",
                )


@register_rule
class GlobalRandomRule(ModuleRule):
    """Only seeded ``random.Random`` instances, never the global state.

    ``random.random()``/``random.shuffle()`` draw from one process-wide
    generator whose state depends on import order, test order and worker
    scheduling.  Every stochastic component in this repo owns a
    ``random.Random(seed)`` stream (trace generators, fault categories),
    so runs replay exactly; the module-level functions are banned
    everywhere, with no allowlist.
    """

    code = "det.global-random"
    summary = "draw from the process-global random state (unseeded)"

    #: Constructors of private, seedable generators.
    allowed_attrs = frozenset({"Random"})

    def check_module(
        self, program: Program, module: ModuleInfo
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name is None or not name.startswith("random."):
                continue
            attr = name.split(".", 1)[1]
            if attr in self.allowed_attrs:
                continue
            yield self.violation(
                module, node,
                f"{name}() draws from the process-global random state; "
                "use a seeded random.Random instance owned by the caller",
            )


@register_rule
class EnvironRule(ModuleRule):
    """Environment reads only on the sanctioned config surfaces.

    An ``os.environ`` read buried in a hot path is configuration the
    run's :class:`~repro.experiments.config.RunConfig` never sees —
    two machines produce different results with identical configs and
    nothing in the digest trail says why.  Reads are confined to the
    trace cache's opt-in disk-tier knob and to ``config`` modules, where
    they are visible, documented and picked up before a run starts.
    """

    code = "det.environ"
    summary = "os.environ/os.getenv read outside trace_cache/config modules"

    #: Exact module names allowed to consult the environment.
    allowed_modules = frozenset({"repro.perf.trace_cache"})
    #: Any module whose last dotted component is one of these.
    allowed_basenames = frozenset({"config"})

    def _allowed(self, module: ModuleInfo) -> bool:
        return (
            module.name in self.allowed_modules
            or module.name.rsplit(".", 1)[-1] in self.allowed_basenames
        )

    def check_module(
        self, program: Program, module: ModuleInfo
    ) -> Iterator[Violation]:
        if self._allowed(module):
            return
        for node in ast.walk(module.tree):
            name: Optional[str] = None
            if isinstance(node, ast.Call):
                name = module.resolve(node.func)
                if name != "os.getenv":
                    continue
            elif isinstance(node, ast.Attribute):
                name = module.resolve(node)
                if name != "os.environ":
                    continue
            else:
                continue
            yield self.violation(
                module, node,
                f"{name} read outside the config surfaces; thread the "
                "value through RunConfig (or a config module) so runs "
                "stay reproducible from their recorded parameters",
            )


#: Callables that consume an iterable order-insensitively.
_ORDER_FREE_CONSUMERS = frozenset({
    "sum", "min", "max", "any", "all", "len",
    "set", "frozenset", "sorted", "dict",
})

#: Method calls that make a loop an ordered accumulation.
_ORDERED_SINK_METHODS = frozenset({"append", "extend", "insert", "appendleft"})


@register_rule
class SetIterationRule(ModuleRule):
    """No bare-``set`` (or explicit ``.keys()``) iteration into ordered results.

    Set iteration order depends on element hashes — for strings and
    fingerprints that means the per-process hash seed — so a list,
    tuple, yield sequence or joined string built from one differs
    between runs.  ``sorted(the_set)`` is the fix (and documents the
    canonical order).  An explicit ``.keys()`` call in the same ordered
    contexts is flagged too: key views are insertion-ordered, but in
    this codebase a materialised ``.keys()`` has repeatedly been a dict
    populated from unordered input — make the order explicit or iterate
    the mapping itself after deciding the insertion order is canonical.

    The rule is deliberately scoped to *ordered* consumption: feeding a
    set to ``sum``/``min``/``max``/``any``/``all``/``len``/``set``/
    ``sorted`` is order-free and allowed.
    """

    code = "det.set-iter"
    summary = "bare set/dict.keys() iteration feeding an ordered result"

    def check_module(
        self, program: Program, module: ModuleInfo
    ) -> Iterator[Violation]:
        _annotate_parents(module.tree)
        for scope in _scopes(module.tree):
            set_names = _set_bound_names(scope)
            yield from self._check_scope(module, scope, set_names)

    # -- helpers -------------------------------------------------------

    def _is_unordered_iterable(
        self, node: ast.expr, set_names: Set[str]
    ) -> bool:
        """Syntactically a set, a set-bound name, or a ``.keys()`` call."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "keys"
                and not node.args
            ):
                return True
        if isinstance(node, ast.Name) and node.id in set_names:
            return True
        return False

    def _check_scope(
        self, module: ModuleInfo, scope: ast.AST, set_names: Set[str]
    ) -> Iterator[Violation]:
        for node in _walk_scope(scope):
            # for x in {unordered}: ... with an ordered sink in the body
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_unordered_iterable(node.iter, set_names) and (
                    _has_ordered_sink(node.body)
                ):
                    yield self._flag(module, node.iter)
            # [x for x in {unordered}] and friends
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if _consumed_order_free(node):
                    continue
                for gen in node.generators:
                    if self._is_unordered_iterable(gen.iter, set_names):
                        yield self._flag(module, gen.iter)
            # list(s) / tuple(s) / sep.join(s)
            elif isinstance(node, ast.Call):
                func = node.func
                is_materialiser = (
                    isinstance(func, ast.Name) and func.id in ("list", "tuple")
                ) or (
                    isinstance(func, ast.Attribute) and func.attr == "join"
                )
                if (
                    is_materialiser
                    and node.args
                    and not _consumed_order_free(node)
                ):
                    candidate = node.args[0]
                    if self._is_unordered_iterable(candidate, set_names):
                        yield self._flag(module, candidate)

    def _flag(self, module: ModuleInfo, node: ast.AST) -> Violation:
        return self.violation(
            module, node,
            "iteration over a bare set/.keys() feeds an ordered result; "
            "wrap the iterable in sorted(...) to pin the order",
        )


def _scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module and every (async) function definition, each once."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes."""
    stack = list(
        ast.iter_child_nodes(scope)
    )
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _set_bound_names(scope: ast.AST) -> Set[str]:
    """Names assigned a set expression anywhere in this scope.

    Straight-line approximation: a name counts as set-bound if *any*
    assignment in the scope binds it to a set literal/constructor/
    comprehension, and stops counting if any assignment later binds it
    to something else — rebinding to a sorted list is the idiomatic fix
    and must clear the taint.
    """
    bound: Set[str] = set()
    assigns = [
        node
        for node in _walk_scope(scope)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
    ]
    # _walk_scope yields in traversal-stack order, not source order; the
    # later-assignment-wins semantics below need source order.
    assigns.sort(key=lambda n: (n.lineno, n.col_offset))
    for node in assigns:
        targets: list = []
        value = None
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        is_set = isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        )
        for target in targets:
            if isinstance(target, ast.Name):
                if is_set:
                    bound.add(target.id)
                else:
                    bound.discard(target.id)
    return bound


def _has_ordered_sink(body: list) -> bool:
    """Does this loop body append/extend/yield (an ordered accumulation)?"""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _ORDERED_SINK_METHODS
            ):
                return True
    return False


def _annotate_parents(tree: ast.AST) -> None:
    """Stash a parent link on every node (for consumer-context checks)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


def _consumed_order_free(node: ast.expr) -> bool:
    """Is this expression the direct argument of an order-free consumer?

    Uses the parent link stashed by :func:`_annotate_parents`; without
    one the answer is conservative-negative, which only makes the rule
    stricter.
    """
    parent = getattr(node, "_lint_parent", None)
    return (
        isinstance(parent, ast.Call)
        and isinstance(parent.func, ast.Name)
        and parent.func.id in _ORDER_FREE_CONSUMERS
        and node in parent.args
    )
