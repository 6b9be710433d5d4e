"""``layer.*`` — import-DAG enforcement.

The architecture is a strict layering (DESIGN.md §1): ``repro.core``
holds pure data structures (pools, MQ, hashing) usable from anywhere;
the device layers (``repro.flash``, ``repro.ftl``, ``repro.sim``) build
on core; the orchestration layers (``repro.experiments``, ``repro.perf``,
``repro.fleet``, ``repro.check``, ``repro.faults``) build on the device
layers.  Arrows only point downward:

* ``layer.core-purity`` — core imports none of the layers above it, so a
  pool can be unit-tested, pickled and reasoned about with zero device
  machinery in sight;
* ``layer.no-experiments`` — the simulator and FTL never reach up into
  the experiment harness (not even lazily inside a function: the
  dependency is the violation, not the import-time cost);
* ``layer.no-serve`` — :mod:`repro.serve` is the top of the stack (it
  orchestrates devices over the network); only the CLI front-end may
  import it.  Everything below — core, device layers, harnesses, even
  ``repro.api`` — must never reach up into it;
* ``layer.cycle`` — no module-level import cycles anywhere.  Lazy
  imports are exempt from *this* rule only, because a function-body
  import genuinely cannot deadlock module initialisation.

The three bans are rows of one table: each is a data-only subclass of
:class:`ForbiddenImportRule` naming its importers, exemptions,
forbidden packages and message.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from ..engine import Program
from ..registry import Rule, register_rule
from ..violations import Violation

__all__ = [
    "CorePurityRule",
    "CycleRule",
    "ForbiddenImportRule",
    "NoExperimentsRule",
    "NoServeRule",
]


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


class ForbiddenImportRule(Rule):
    """One row of the layering table: who may not import what.

    Every import edge, lazy ones included, of every importer module is
    checked against :attr:`forbidden`.  A module inside a forbidden
    package may import its own package.  Subclasses are data only.
    """

    #: Packages whose modules are checked (empty: every module).
    importers: Tuple[str, ...] = ()
    #: Exact module names never checked.
    exempt: Tuple[str, ...] = ()
    #: Packages the importers must not reach, lazily or otherwise.
    forbidden: Tuple[str, ...] = ()
    #: ``str.format`` template over ``module``, ``target`` and ``package``.
    message: str = ""

    def check(self, program: Program) -> Iterator[Violation]:
        for module in program.modules:
            if module.name in self.exempt:
                continue
            if self.importers and not any(
                _in_package(module.name, pkg) for pkg in self.importers
            ):
                continue
            for edge in program.import_graph.edges(
                module.name, include_lazy=True
            ):
                hit = next(
                    (
                        pkg for pkg in self.forbidden
                        if _in_package(edge.target, pkg)
                        and not _in_package(module.name, pkg)
                    ),
                    None,
                )
                if hit is None:
                    continue
                yield Violation(
                    path=module.path,
                    line=edge.line,
                    col=edge.col,
                    code=self.code,
                    message=self.message.format(
                        module=module.name, target=edge.target, package=hit
                    ),
                    context="<module>",
                )


@register_rule
class CorePurityRule(ForbiddenImportRule):
    """``repro.core`` imports nothing from the layers above it."""

    code = "layer.core-purity"
    summary = "repro.core importing a higher layer (sim/ftl/experiments/...)"

    importers = ("repro.core",)
    forbidden = (
        "repro.sim", "repro.ftl", "repro.experiments",
        "repro.perf", "repro.fleet", "repro.check", "repro.faults",
        "repro.api", "repro.serve", "repro.kv",
    )
    message = (
        "repro.core must stay pure but {module} imports {target} "
        "({package} is a higher layer); move the dependency up or the "
        "shared piece down into core"
    )


@register_rule
class NoExperimentsRule(ForbiddenImportRule):
    """The simulator and FTL never import the harness layer."""

    code = "layer.no-experiments"
    summary = "repro.sim/repro.ftl importing repro.experiments/repro.fleet"

    importers = ("repro.sim", "repro.ftl")
    #: ``repro.fleet`` sits beside ``repro.experiments``: it orchestrates
    #: many devices, so a device importing it would invert the stack.
    #: ``repro.api`` serialises device *results*, so it too sits above
    #: the device layers.  ``repro.kv`` translates keyed workloads into
    #: page requests *for* a device — an orchestrator, never a
    #: dependency of one.
    forbidden = (
        "repro.experiments", "repro.fleet", "repro.api", "repro.kv",
    )
    message = (
        "{module} imports {target}: the device layers must not depend "
        "on the harness layer (invert via a parameter, callback or a "
        "type in repro.core)"
    )


@register_rule
class NoServeRule(ForbiddenImportRule):
    """Only the CLI front-end may import :mod:`repro.serve`."""

    code = "layer.no-serve"
    summary = "a lower layer importing repro.serve (the top of the stack)"

    #: The CLI that launches the service and the shared flag-group
    #: helpers it wires up.
    exempt = ("repro.cli", "repro.cliopts")
    forbidden = ("repro.serve",)
    message = (
        "{module} imports {target}: repro.serve is the top of the "
        "stack; nothing below the CLI may depend on it (emit repro.api "
        "records instead)"
    )


@register_rule
class CycleRule(Rule):
    """No import-time cycles in the analyzed tree."""

    code = "layer.cycle"
    summary = "module-level import cycle"

    def check(self, program: Program) -> Iterator[Violation]:
        from ..imports import find_cycles

        adjacency = program.import_graph.adjacency(include_lazy=False)
        for cycle in find_cycles(adjacency):
            anchor_name = cycle[0]
            module = program.module_named(anchor_name)
            # Anchor the report at the import creating the first edge.
            line, col = 1, 1
            if module is not None:
                for edge in program.import_graph.edges(
                    anchor_name, include_lazy=False
                ):
                    if edge.target == cycle[1] or edge.target.startswith(
                        cycle[1] + "."
                    ):
                        line, col = edge.line, edge.col
                        break
            yield Violation(
                path=module.path if module is not None else anchor_name,
                line=line,
                col=col,
                code=self.code,
                message=(
                    "import cycle: " + " -> ".join(cycle)
                    + "; break it with a lazy import or by moving the "
                    "shared piece into a lower layer"
                ),
                context="<module>",
            )
