"""KV-SSD scenario: key→LPN translation over the in-tree FTLs.

The paper evaluates value-locality revival on block traces; the ROADMAP
asks whether it survives a keyed interface.  This package answers that
end to end:

* :mod:`repro.kv.requests` — the keyed request language and the
  deterministic key/content mixing (no ``hash()``; digests must be
  stable across processes);
* :mod:`repro.kv.store` — :class:`KVStore`, mapping keys to page
  extents, with TRIM-on-delete;
* :mod:`repro.kv.inline` — sub-page value packing with revival-aware
  repack;
* :mod:`repro.kv.zoo` — streaming YCSB-style / TRIM-heavy / diurnal
  multi-tenant workload generators;
* :mod:`repro.kv.scenario` — the end-to-end runner, the
  :class:`KVSpec` job and the pool on/off ablation.

Layering: ``repro.kv`` sits with the orchestration layers (it drives
:class:`~repro.experiments.device.Device`); the device layers —
``repro.core`` above all — must never import it (enforced by the
``layer.*`` lint rules).
"""

from .inline import InlinePacker, InlineSlot, pack_value_id
from .requests import Key, KVOp, KVRequest, key_to_int, mix64
from .scenario import (
    KVRunResult,
    KVSpec,
    execute_kv_spec,
    kv_result_digest,
    run_kv_ablation,
)
from .store import KVStats, KVStore, page_value_id
from .zoo import (
    KV_WORKLOADS,
    KVWorkload,
    interleave_kv_tenants,
    kv_workload,
    load_stream,
    txn_stream,
)

__all__ = [
    "Key",
    "KVOp",
    "KVRequest",
    "key_to_int",
    "mix64",
    "InlinePacker",
    "InlineSlot",
    "pack_value_id",
    "KVStats",
    "KVStore",
    "page_value_id",
    "KVWorkload",
    "KV_WORKLOADS",
    "kv_workload",
    "load_stream",
    "txn_stream",
    "interleave_kv_tenants",
    "KVSpec",
    "KVRunResult",
    "execute_kv_spec",
    "kv_result_digest",
    "run_kv_ablation",
]
