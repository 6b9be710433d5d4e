"""repro.api — the versioned, frozen result/session schema surface.

Machine-readable output in the repo (CLI ``--json``, the obs/fleet
JSONL exporters, the bench harness's per-cell entries, every
``repro serve`` response) emits one shape: the
:class:`~repro.api.schema.ResultRecord` under schema ``repro.api/v1``.
Two outputs are not records yet: ``repro recovery --json`` (the
``RecoveryExperimentResult`` dataclass as a dict) and ``repro fleet
--pool-mode both --json`` (``PoolModeComparison.summary()``).
:func:`~repro.api.schema.parse_record` is the only sanctioned way back
in; it refuses unknown versions and kinds instead of guessing.

Layering: sits above the device layers, below the front-ends that
serialise records.  ``repro.core``/``repro.sim``/``repro.ftl`` must
never import it (enforced by the ``layer.*`` lint rules).
"""

from .schema import (
    KINDS,
    SCHEMA,
    SCHEMA_VERSION,
    LatencySummary,
    ResultRecord,
    SchemaError,
    aggregate_record,
    lint_finding_record,
    parse_record,
    record_from_kv_run,
    record_from_run,
    records_from_fleet,
    records_from_kv_ablation,
    session_digest,
)

__all__ = [
    "KINDS",
    "SCHEMA",
    "SCHEMA_VERSION",
    "LatencySummary",
    "ResultRecord",
    "SchemaError",
    "aggregate_record",
    "lint_finding_record",
    "parse_record",
    "record_from_kv_run",
    "record_from_run",
    "records_from_fleet",
    "records_from_kv_ablation",
    "session_digest",
]
