"""The six benchmark workloads, as data.

This module imports nothing from ``repro``: the parent process
(``run.py``) reads the table before it knows whether the source tree is
there, and only the per-rep children (``rep.py``) import the simulator.
Each workload stresses a different layer; README.md says which and why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: Full cross-structure audit every this many checker events in the
#: correctness leg; the per-operation checks and the lockstep oracle run
#: on every request regardless.  Sparse audits keep the leg near the
#: cost of one rep.
CHECK_INTERVAL = 100_000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an input and the entry point it drives."""

    name: str
    #: ``block`` (RunSpec cells through ``run_specs``), ``kv``
    #: (``execute_kv_spec``), ``fleet`` (``run_fleet``) or ``serve``
    #: (``repro serve`` plus one ``ServeClient``).
    kind: str
    #: Block profile or KV zoo workload name.
    source: str
    systems: Tuple[str, ...]
    scale: float
    #: Scale used by ``--smoke`` (the test suite): same path, tiny input.
    smoke_scale: float
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "mail-mqdvp", "block", "mail", ("mq-dvp",), 0.5, 0.02,
        "paper headline cell: the MQ pool revives 72% of writes while GC "
        "idles, so core.dvp/core.mq carry the FTL work",
    ),
    Workload(
        "web-baseline", "block", "web", ("baseline",), 0.5, 0.02,
        "GC-bound with no pool (0.40 relocations per host write): a GC "
        "change shows here and a pool change must not",
    ),
    Workload(
        "desktop-compare", "block", "desktop",
        ("baseline", "mq-dvp", "dedup"), 0.4, 0.02,
        "the repro compare path: three systems on one trace, so trace and "
        "prefill caches hit; read-heavy with a mostly missing pool",
    ),
    Workload(
        "kv-ycsb-a", "kv", "ycsb-a", ("mq-dvp",), 4.0, 0.1,
        "the only user of repro.kv and BaseFTL.trim: keyed YCSB-A with "
        "inline packing, repacks and TRIM on delete",
    ),
    Workload(
        "fleet-mail", "fleet", "mail", ("mq-dvp",), 0.5, 0.02,
        "the only workload on ring routing, per-shard preconditioning and "
        "the run_fleet process-pool fan-out (4 shards, 2 workers)",
    ),
    Workload(
        "serve-web", "serve", "web", ("mq-dvp",), 0.25, 0.02,
        "the only user of the serve protocol, sessions and asyncio: one "
        "client streams web traffic, flushing every 512 requests",
    ),
)

#: Shards and worker processes of ``fleet-mail``; requests per flush
#: window of ``serve-web``.
FLEET_SHARDS = 4
FLEET_JOBS = 2
SERVE_WINDOW = 512


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        f"unknown workload {name!r}; choose from "
        f"{', '.join(w.name for w in WORKLOADS)}"
    )
