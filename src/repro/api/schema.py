"""The one versioned result schema every producer in the repo emits.

Before this module existed the repo had three divergent result shapes:
``RunResult.summary()`` flat dicts (CLI ``--json``), the fleet layer's
hand-rolled ``kind=shard/fleet`` JSONL records, and the bench harness's
cell dicts.  Consumers had to know which producer they were reading.

:class:`ResultRecord` unifies them: one frozen, typed record with an
explicit ``schema_version``, a ``kind`` tag naming the producer, the
full counter set, exact-percentile latency summaries and the run's
content digest.  Every machine-readable surface — ``repro run/matrix/
faults/fleet --json``, the fleet/obs JSONL exporters, the bench
harness's per-cell entries and every ``repro serve`` response — emits
this shape and nothing else; :func:`parse_record` round-trips it back
into the typed form (``parse_record(r.to_dict()) == r``, enforced by
the schema tests).

Versioning contract: ``SCHEMA`` names the surface (``repro.api/v1``);
a reader seeing an unknown version must refuse rather than guess
(:class:`SchemaError`).  Fields are only ever *added* within a version;
any removal or meaning change bumps it.

Layering: this package sits above the device layers (it imports
:mod:`repro.sim.metrics` types) and below the orchestration front-ends
that serialise records (CLI, fleet export, bench, serve).  The device
layers must never import it — enforced by the ``layer.*`` lint rules.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from dataclasses import replace as dataclasses_replace
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Union

from ..sim.metrics import LatencyPair, LatencyStats, RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..fleet.aggregate import FleetResult
    from ..kv.scenario import KVRunResult

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "KINDS",
    "SchemaError",
    "LatencySummary",
    "ResultRecord",
    "record_from_run",
    "aggregate_record",
    "records_from_fleet",
    "record_from_kv_run",
    "records_from_kv_ablation",
    "lint_finding_record",
    "session_digest",
    "parse_record",
]

#: Schema surface name carried by every record.
SCHEMA = "repro.api/v1"
#: Integer version a reader validates before trusting field meanings.
SCHEMA_VERSION = 1

#: Every producer tag a v1 record may carry.  A record's ``kind`` names
#: who minted it (and therefore which ``meta`` keys to expect); parsers
#: reject unknown kinds the same way they reject unknown versions.
KINDS = (
    "run",          # one run_system() drive
    "bench.cell",   # one timed cell of the tracked benchmark matrix
    "fleet.shard",  # one shard of a fleet run
    "fleet",        # the fleet aggregate over its shards
    "serve.metrics",  # incremental mid-stream snapshot of a serve session
    "serve.session",  # final record of a completed serve session
    "kv.run",       # one keyed (KV-SSD) run over a zoo workload
    "kv.ablation",  # a KV run paired with its pool-off counterpart
    "lint.finding",  # one lint violation (repro lint --format=jsonl)
)


class SchemaError(ValueError):
    """A record that does not satisfy the versioned schema."""


@dataclass(frozen=True)
class LatencySummary:
    """Summary view of one exact latency distribution.

    Percentiles are computed from the full sample set with the
    nearest-rank method (:class:`~repro.sim.metrics.LatencyStats`), so
    the summary is exact, not an approximation — and therefore
    reproducible bit-for-bit across serialisation round trips.
    """

    count: int
    mean_us: float
    p50_us: float
    p99_us: float
    max_us: float

    @classmethod
    def from_stats(
        cls, stats: Union[LatencyStats, LatencyPair]
    ) -> "LatencySummary":
        if stats.count == 0:
            return cls(count=0, mean_us=0.0, p50_us=0.0, p99_us=0.0,
                       max_us=0.0)
        return cls(
            count=stats.count,
            mean_us=stats.mean,
            p50_us=stats.percentile(50),
            p99_us=stats.p99,
            max_us=stats.maximum,
        )

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "LatencySummary":
        try:
            return cls(
                count=int(obj["count"]),
                mean_us=float(obj["mean_us"]),
                p50_us=float(obj["p50_us"]),
                p99_us=float(obj["p99_us"]),
                max_us=float(obj["max_us"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad latency summary: {exc}") from None


@dataclass(frozen=True)
class ResultRecord:
    """One simulation outcome under the unified versioned schema.

    ``counters`` carries the complete
    :class:`~repro.ftl.ftl.FTLCounters` field set (summed across shards
    for aggregate kinds).  ``digest`` is the
    :func:`~repro.perf.spec.result_digest` content hash for single-run
    kinds, the fleet digest for ``fleet``, and ``None`` for mid-stream
    snapshots where the run is not finished.  ``meta`` holds the
    kind-specific extras (shard index, tenant name, write
    amplification, ...) — additive by design, so new producers extend
    the schema without a version bump.
    """

    kind: str
    system: str
    workload: str
    counters: Dict[str, int]
    reads: LatencySummary
    writes: LatencySummary
    requests: LatencySummary
    horizon_us: float
    digest: Optional[str] = None
    pool: Optional[Dict[str, float]] = None
    faults: Optional[Dict[str, float]] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SchemaError(
                f"unknown record kind {self.kind!r}; v{SCHEMA_VERSION} "
                f"kinds are {', '.join(KINDS)}"
            )
        if self.schema_version != SCHEMA_VERSION:
            raise SchemaError(
                f"schema_version {self.schema_version} != supported "
                f"{SCHEMA_VERSION}"
            )

    # -- derived views -------------------------------------------------

    @property
    def write_amplification(self) -> float:
        """Flash programs (host + GC) per host write."""
        writes = self.counters.get("host_writes", 0)
        if not writes:
            return 0.0
        programs = (
            self.counters.get("programs", 0)
            + self.counters.get("gc_relocations", 0)
        )
        return programs / writes

    @property
    def revival_rate(self) -> float:
        """Fraction of host writes short-circuited by a revived page."""
        writes = self.counters.get("host_writes", 0)
        if not writes:
            return 0.0
        return self.counters.get("short_circuits", 0) / writes

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready dict form (the wire/JSONL representation)."""
        return {
            "schema": SCHEMA,
            "schema_version": self.schema_version,
            "kind": self.kind,
            "system": self.system,
            "workload": self.workload,
            "counters": dict(self.counters),
            "latency": {
                "read": self.reads.to_dict(),
                "write": self.writes.to_dict(),
                "all": self.requests.to_dict(),
            },
            "horizon_us": self.horizon_us,
            "digest": self.digest,
            "pool": dict(self.pool) if self.pool is not None else None,
            "faults": dict(self.faults) if self.faults is not None else None,
            "meta": dict(self.meta),
        }


def parse_record(obj: Mapping[str, Any]) -> ResultRecord:
    """Validate and type a dict (e.g. a parsed JSONL line) as a record.

    Raises :class:`SchemaError` on a missing/unknown schema, an
    unsupported version, an unknown kind or any malformed field —
    readers must never guess at a shape they do not recognise.
    """
    if not isinstance(obj, Mapping):
        raise SchemaError(f"expected a mapping, got {type(obj).__name__}")
    schema = obj.get("schema")
    if schema != SCHEMA:
        raise SchemaError(f"unknown schema {schema!r}; expected {SCHEMA!r}")
    try:
        latency = obj["latency"]
        counters = obj["counters"]
        if not isinstance(counters, Mapping):
            raise SchemaError("counters must be a mapping")
        pool = obj.get("pool")
        faults = obj.get("faults")
        meta = obj.get("meta") or {}
        return ResultRecord(
            kind=obj["kind"],
            system=obj["system"],
            workload=obj["workload"],
            counters={str(k): int(v) for k, v in counters.items()},
            reads=LatencySummary.from_dict(latency["read"]),
            writes=LatencySummary.from_dict(latency["write"]),
            requests=LatencySummary.from_dict(latency["all"]),
            horizon_us=float(obj["horizon_us"]),
            digest=obj.get("digest"),
            pool=dict(pool) if pool is not None else None,
            faults=dict(faults) if faults is not None else None,
            meta=dict(meta),
            schema_version=int(obj.get("schema_version", -1)),
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed record: {exc}") from None


def record_from_run(
    result: RunResult,
    kind: str = "run",
    digest: Optional[str] = None,
    with_digest: bool = True,
    meta: Optional[Dict[str, Any]] = None,
) -> ResultRecord:
    """The unified record of one :class:`~repro.sim.metrics.RunResult`.

    ``digest`` defaults to :func:`~repro.perf.spec.result_digest` of the
    result; pass ``with_digest=False`` for mid-stream snapshots where
    the run (and therefore its digest) is not final.
    """
    if digest is None and with_digest:
        from ..perf.spec import result_digest  # lazy: keeps repro.api light

        digest = result_digest(result)
    return ResultRecord(
        kind=kind,
        system=result.system,
        workload=result.workload,
        counters=asdict(result.counters),
        reads=LatencySummary.from_stats(result.reads),
        writes=LatencySummary.from_stats(result.writes),
        requests=LatencySummary.from_stats(
            LatencyPair(result.reads, result.writes)
        ),
        horizon_us=result.horizon_us,
        digest=digest,
        pool=dict(result.pool_stats) if result.pool_stats is not None else None,
        faults=(
            dict(result.fault_stats)
            if result.fault_stats is not None
            else None
        ),
        meta=dict(meta) if meta else {},
    )


def _summed_counters(results: List[RunResult]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for result in results:
        for name, value in asdict(result.counters).items():
            total[name] = total.get(name, 0) + value
    return total


def _merged_stats(parts: List[LatencyStats]) -> LatencyStats:
    out = LatencyStats()
    for part in parts:
        out = out.merged_with(part)
    return out


def aggregate_record(
    results: List[RunResult],
    kind: str,
    system: str,
    workload: str,
    digest: Optional[str] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> ResultRecord:
    """One record aggregating many per-drive results (fleet rules).

    Latency summaries come from the *merged* exact sample sets in input
    order (never percentiles of percentiles), counters as sums, horizon
    as the max.  Used for the fleet aggregate and for multi-shard serve
    sessions, so the two aggregation surfaces cannot drift apart.
    """
    reads = _merged_stats([r.reads for r in results])
    writes = _merged_stats([r.writes for r in results])
    return ResultRecord(
        kind=kind,
        system=system,
        workload=workload,
        counters=_summed_counters(results),
        reads=LatencySummary.from_stats(reads),
        writes=LatencySummary.from_stats(writes),
        requests=LatencySummary.from_stats(LatencyPair(reads, writes)),
        horizon_us=max((r.horizon_us for r in results), default=0.0),
        digest=digest,
        meta=dict(meta) if meta else {},
    )


def lint_finding_record(
    path: str,
    line: int,
    col: int,
    code: str,
    message: str,
    context: str = "<module>",
) -> ResultRecord:
    """The unified record of one lint finding.

    ``repro lint --format=jsonl`` emits these so lint output speaks the
    same versioned schema as every other machine-readable surface.  A
    finding has no device run behind it: the latency summaries are
    empty, ``horizon_us`` is zero, ``workload`` carries the offending
    file, and the finding itself (code, message, location, enclosing
    qualname) rides in ``meta`` like every kind-specific extra.

    Takes plain fields rather than a ``Violation`` so this module never
    imports :mod:`repro.lint` (the linter sits above the API layer, not
    below it).
    """
    empty = LatencySummary(
        count=0, mean_us=0.0, p50_us=0.0, p99_us=0.0, max_us=0.0
    )
    return ResultRecord(
        kind="lint.finding",
        system="repro.lint",
        workload=path,
        counters={"line": int(line), "col": int(col)},
        reads=empty,
        writes=empty,
        requests=empty,
        horizon_us=0.0,
        meta={
            "path": path,
            "line": int(line),
            "col": int(col),
            "code": code,
            "message": message,
            "context": context,
        },
    )


def session_digest(shard_digests: List[str]) -> str:
    """Digest of an ordered digest list — the fleet/serve identity rule,
    :func:`repro.perf.spec.digest_of_digests` under its api name."""
    from ..perf.spec import digest_of_digests  # lazy: keeps repro.api light

    return digest_of_digests(shard_digests)


def record_from_kv_run(
    kv: "KVRunResult", kind: str = "kv.run"
) -> ResultRecord:
    """The unified record of one keyed run.

    The page-level outcome fills the standard fields; the store's KV
    counters, the spec identity and the derived ratios ride in ``meta``
    (additive, like every kind-specific extra)."""
    spec = kv.spec
    return record_from_run(
        kv.result,
        kind=kind,
        digest=kv.digest,
        meta={
            "kv": dict(kv.kv_counters),
            "spec": {
                "workload": spec.workload,
                "system": spec.system,
                "paper_pool_entries": spec.paper_pool_entries,
                "scale": spec.scale,
                "seed": spec.seed,
            },
            "write_amplification": kv.write_amplification,
            "revival_rate": kv.revival_rate,
        },
    )


def records_from_kv_ablation(
    on: "KVRunResult", off: "KVRunResult"
) -> List[ResultRecord]:
    """Both legs of a KV pool ablation plus the comparison record.

    The comparison record (kind ``kv.ablation``) carries the pool-on
    run's counters — the subject; the off leg is the control — with the
    paired deltas in ``meta`` and the ordered two-leg
    :func:`session_digest` as its identity."""
    records = [
        record_from_kv_run(on),
        record_from_kv_run(off),
    ]
    comparison = record_from_kv_run(on, kind="kv.ablation")
    meta = dict(comparison.meta)
    meta.update({
        "off_system": off.spec.system,
        "write_amplification_off": off.write_amplification,
        "revival_rate_off": off.revival_rate,
        "write_amplification_delta": (
            on.write_amplification - off.write_amplification
        ),
        "flash_writes_saved": (
            off.result.counters.programs + off.result.counters.gc_relocations
            - on.result.counters.programs - on.result.counters.gc_relocations
        ),
        "digest_on": on.digest,
        "digest_off": off.digest,
    })
    records.append(dataclasses_replace(
        comparison,
        digest=session_digest([on.digest, off.digest]),
        meta=meta,
    ))
    return records


def records_from_fleet(fleet: "FleetResult") -> List[ResultRecord]:
    """Per-shard records plus the fleet aggregate, in shard order.

    The aggregate record follows the fleet layer's aggregation rules:
    latency summaries over the *merged* exact sample sets (never
    percentiles of percentiles), counters as sums, ratios of totals in
    ``meta`` — and the fleet digest (hash of the ordered shard digests)
    as its identity.
    """
    shards = list(fleet.shard_results)
    records = [
        record_from_run(
            result,
            kind="fleet.shard",
            digest=fleet.shard_digests[index],
            meta={"shard": index, "shards": len(shards)},
        )
        for index, result in enumerate(shards)
    ]
    records.append(aggregate_record(
        shards,
        kind="fleet",
        system=fleet.spec.system,
        workload=fleet.spec.workload,
        digest=fleet.fleet_digest,
        meta={
            "shards": fleet.spec.shards,
            "pool_mode": fleet.spec.pool_mode,
            "jobs": fleet.jobs,
            "write_amplification": fleet.write_amplification,
            "revival_rate": fleet.revival_rate,
            "imbalance_cv": fleet.imbalance_cv,
            "imbalance_max_over_mean": fleet.imbalance_max_over_mean,
            "shard_digests": list(fleet.shard_digests),
        },
    ))
    return records
