"""The KV-SSD scenario: keyed workloads driven end-to-end over real FTLs.

:func:`execute_kv_spec` wires the whole stack together — zoo stream →
:class:`~repro.kv.store.KVStore` translation → the standard
:class:`~repro.experiments.device.Device` lifecycle — so a keyed workload
runs against *any* in-tree system (``mq-dvp``, ``dedup``, and notably
``dftl-mq-dvp``, where mapping lookups themselves cost flash reads).

Phases mirror the block runner's discipline:

1. **Load**: the zoo's :func:`~repro.kv.zoo.load_stream` populates the
   store, applied *directly* against the FTL (no DES timing), then FTL
   counters / pool stats / KV stats reset — the keyed analogue of
   :func:`~repro.experiments.runner.prefill`, so measurements cover only
   the transaction window over a warm store and a garbage-bearing drive.
2. **Transactions**: :func:`~repro.kv.zoo.txn_stream` translates lazily
   into page requests and streams through the timing device in one pass
   (never materialised).

:class:`KVRunResult` pairs the page-level :class:`~repro.sim.metrics.
RunResult` with the store's KV counters and a combined content digest.
A :class:`KVSpec` is a :func:`~repro.perf.parallel.run_specs` job, so a
list of them fans over worker processes with the same spec-order
determinism contract as the matrix (``jobs=N`` is digest-identical to
``jobs=1`` — enforced by the kv_smoke tests), and
:func:`run_kv_ablation` pairs a system with its pool-off counterpart to
isolate what revival buys under keyed traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..core.hashing import fingerprint_of_value
from ..experiments.config import DEFAULT_SCALE, RunConfig
from ..experiments.device import Device
from ..experiments.runner import reset_measurements, scaled_pool_entries
from ..flash.config import scaled_config
from ..ftl.dvp_ftl import POOL_OFF_SYSTEM, SYSTEMS
from ..perf.parallel import run_specs
from ..perf.spec import kv_result_digest
from ..sim.metrics import RunResult
from ..sim.request import OpType
from .inline import PackerStats
from .store import KVStats, KVStore
from .zoo import KVWorkload, kv_workload, load_stream, txn_stream

__all__ = [
    "KVSpec",
    "KVRunResult",
    "kv_result_digest",
    "execute_kv_spec",
    "run_kv_ablation",
]

#: Store footprint over exported capacity (drive slack matters for GC,
#: like the block profiles' ``fill_fraction``).
DEFAULT_FILL_FRACTION = 0.55


@dataclass(frozen=True)
class KVSpec:
    """One keyed run, by value — frozen and picklable, like RunSpec."""

    workload: str = "ycsb-a"
    system: str = "mq-dvp"
    paper_pool_entries: int = 200_000
    scale: float = DEFAULT_SCALE
    seed: Optional[int] = None
    fill_fraction: float = DEFAULT_FILL_FRACTION
    queue_depth: Optional[int] = None

    def __post_init__(self) -> None:
        # Validate by name here so a bad spec fails at construction, in
        # the submitting process, not inside a worker.
        kv_workload(self.workload)
        if self.system not in SYSTEMS:
            raise ValueError(
                f"unknown system {self.system!r}; choose from "
                f"{sorted(SYSTEMS)}"
            )
        if self.paper_pool_entries <= 0:
            raise ValueError("paper_pool_entries must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if not 0.0 < self.fill_fraction <= 0.9:
            raise ValueError("fill_fraction must be in (0, 0.9]")
        if self.queue_depth is not None and self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive when set")

    def workload_config(self) -> KVWorkload:
        """The scaled (and optionally reseeded) zoo workload."""
        workload = kv_workload(self.workload).scaled(self.scale)
        if self.seed is not None:
            workload = workload.reseeded(self.seed)
        return workload

    def pool_off(self) -> "KVSpec":
        """The same run with this system's pool-off counterpart."""
        try:
            return replace(self, system=POOL_OFF_SYSTEM[self.system])
        except KeyError:
            raise ValueError(
                f"system {self.system!r} has no pool to ablate; "
                f"ablatable systems: {sorted(POOL_OFF_SYSTEM)}"
            ) from None

    def execute(self) -> "KVRunResult":
        return execute_kv_spec(self)

    def prewarm(self) -> None:
        """Nothing to share: a keyed run streams its own zoo traffic."""


@dataclass(frozen=True)
class KVRunResult:
    """Everything one keyed run observably produced."""

    spec: KVSpec
    result: RunResult          # the page-level device outcome
    kv_counters: Dict[str, int] = field(default_factory=dict)
    digest: str = ""

    @property
    def write_amplification(self) -> float:
        counters = self.result.counters
        if not counters.host_writes:
            return 0.0
        return (
            (counters.programs + counters.gc_relocations)
            / counters.host_writes
        )

    @property
    def revival_rate(self) -> float:
        counters = self.result.counters
        if not counters.host_writes:
            return 0.0
        return counters.short_circuits / counters.host_writes


def _apply_untimed(ftl, store: KVStore, stream) -> None:
    """Apply translated page ops directly to the FTL (load phase: state
    transitions only, no DES timing)."""
    for _, op, lpn, value_id in store.translate(stream):
        if op is OpType.WRITE:
            ftl.write(lpn, fingerprint_of_value(value_id))
        elif op is OpType.READ:
            ftl.read(lpn)
        else:
            ftl.trim(lpn)


def execute_kv_spec(spec: KVSpec) -> KVRunResult:
    """Run one keyed spec end to end.  Pure function of the spec."""
    workload = spec.workload_config()
    ssd_config = scaled_config(
        int(workload.estimated_pages() / spec.fill_fraction)
    )
    device = Device(
        spec.system,
        ssd_config,
        scaled_pool_entries(spec.paper_pool_entries, spec.scale),
    ).build()
    store = KVStore(
        page_bytes=ssd_config.page_size,
        max_pages=ssd_config.logical_pages,
    )
    ftl = device.ftl

    # Phase 1: load — populate the store against the bare FTL, then
    # reset every counter (the keyed analogue of prefill()'s epilogue).
    _apply_untimed(ftl, store, load_stream(workload))
    for _, _, lpn, value_id in store.flush(arrival_us=0.0):
        ftl.write(lpn, fingerprint_of_value(value_id))
    reset_measurements(ftl)
    store.stats = KVStats()
    store.packer.stats = PackerStats()

    # Phase 2: transactions — one lazy stream through the timing device.
    device.attach(RunConfig(
        paper_pool_entries=spec.paper_pool_entries,
        scale=spec.scale,
        queue_depth=spec.queue_depth,
    ))
    device.step(store.translate(txn_stream(workload)))
    result = device.finalize(workload=f"kv:{workload.name}")

    kv_counters = store.counters()
    return KVRunResult(
        spec=spec,
        result=result,
        kv_counters=kv_counters,
        digest=kv_result_digest(result, kv_counters),
    )


def run_kv_ablation(
    spec: KVSpec, jobs: Optional[int] = 1
) -> Tuple[KVRunResult, KVRunResult]:
    """Run ``spec`` with its pool on and off; returns ``(on, off)``.

    The off leg is the system's :data:`~repro.ftl.dvp_ftl.
    POOL_OFF_SYSTEM` counterpart on the *same* workload, drive geometry
    and store, so the delta isolates exactly what revival buys under
    keyed traffic (the KV ablation cell of ``make bench`` tracks it).
    """
    on, off = run_specs([spec, spec.pool_off()], jobs=jobs)
    return on, off
