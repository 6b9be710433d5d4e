"""Unit tests for the unified ``repro.api/v1`` result schema.

The contract under test: every producer (run, fleet, bench, serve)
emits one record shape; ``parse_record(record.to_dict()) == record``
round-trips exactly; readers refuse unknown schemas/versions/kinds
instead of guessing.
"""

import json

import pytest

from repro.api import (
    KINDS,
    SCHEMA,
    SCHEMA_VERSION,
    LatencySummary,
    ResultRecord,
    SchemaError,
    aggregate_record,
    lint_finding_record,
    parse_record,
    record_from_run,
    records_from_fleet,
    session_digest,
)
from repro.experiments.config import RunConfig
from repro.experiments.runner import ExperimentContext, run_system
from repro.fleet import FleetSpec, run_fleet
from repro.perf.spec import result_digest

SCALE = 0.004


@pytest.fixture(scope="module")
def run_result():
    context = ExperimentContext.for_workload("mail", SCALE)
    return run_system("mq-dvp", context, config=RunConfig(scale=SCALE))


@pytest.fixture(scope="module")
def fleet_result():
    spec = FleetSpec(workload="mail", system="mq-dvp", shards=2, scale=SCALE)
    return run_fleet(spec, jobs=1)


class TestRecordFromRun:
    def test_carries_full_counters_and_digest(self, run_result):
        record = record_from_run(run_result)
        assert record.kind == "run"
        assert record.system == "mq-dvp"
        assert record.workload == "mail"
        assert record.counters["host_writes"] > 0
        assert record.digest == result_digest(run_result)
        assert record.requests.count == (
            record.reads.count + record.writes.count
        )

    def test_with_digest_false_omits_digest(self, run_result):
        record = record_from_run(run_result, with_digest=False)
        assert record.digest is None

    def test_derived_ratios_match_result(self, run_result):
        record = record_from_run(run_result)
        summary = run_result.summary()
        assert record.write_amplification == pytest.approx(
            summary["total_programs"] / summary["host_writes"]
        )
        assert record.revival_rate == pytest.approx(
            summary["short_circuits"] / summary["host_writes"]
        )

    def test_round_trips_through_json(self, run_result):
        record = record_from_run(run_result, meta={"note": "x"})
        wire = json.loads(json.dumps(record.to_dict()))
        assert parse_record(wire) == record


class TestParseRecordRejects:
    def test_unknown_schema(self, run_result):
        wire = record_from_run(run_result).to_dict()
        wire["schema"] = "someone.else/v9"
        with pytest.raises(SchemaError, match="unknown schema"):
            parse_record(wire)

    def test_unknown_version(self, run_result):
        wire = record_from_run(run_result).to_dict()
        wire["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema_version"):
            parse_record(wire)

    def test_unknown_kind(self, run_result):
        wire = record_from_run(run_result).to_dict()
        wire["kind"] = "mystery"
        with pytest.raises(SchemaError, match="unknown record kind"):
            parse_record(wire)

    def test_missing_latency(self, run_result):
        wire = record_from_run(run_result).to_dict()
        del wire["latency"]
        with pytest.raises(SchemaError):
            parse_record(wire)

    def test_non_mapping(self):
        with pytest.raises(SchemaError):
            parse_record([1, 2, 3])


class TestLatencySummary:
    def test_empty_stats(self):
        from repro.sim.metrics import LatencyStats

        summary = LatencySummary.from_stats(LatencyStats())
        assert summary.count == 0
        assert summary.mean_us == 0.0

    def test_bad_dict_rejected(self):
        with pytest.raises(SchemaError):
            LatencySummary.from_dict({"count": 1})


class TestFleetRecords:
    def test_shard_records_then_aggregate(self, fleet_result):
        records = records_from_fleet(fleet_result)
        assert [r.kind for r in records] == [
            "fleet.shard", "fleet.shard", "fleet",
        ]
        for index, record in enumerate(records[:-1]):
            assert record.meta["shard"] == index
            assert record.digest == fleet_result.shard_digests[index]

    def test_aggregate_follows_fleet_rules(self, fleet_result):
        aggregate = records_from_fleet(fleet_result)[-1]
        assert aggregate.digest == fleet_result.fleet_digest
        assert aggregate.counters["host_writes"] == fleet_result.host_writes
        # Merged exact samples, never percentiles of percentiles.
        assert aggregate.requests.p99_us == pytest.approx(
            fleet_result.p99_latency_us
        )
        assert aggregate.requests.count == sum(
            r.reads.count + r.writes.count
            for r in fleet_result.shard_results
        )
        assert aggregate.meta["shard_digests"] == list(
            fleet_result.shard_digests
        )

    def test_session_digest_matches_fleet_digest(self, fleet_result):
        assert session_digest(
            list(fleet_result.shard_digests)
        ) == fleet_result.fleet_digest

    def test_every_record_round_trips(self, fleet_result):
        for record in records_from_fleet(fleet_result):
            wire = json.loads(json.dumps(record.to_dict()))
            assert parse_record(wire) == record

    def test_lint_finding_round_trips(self):
        record = lint_finding_record(
            path="src/repro/core/dvp.py",
            line=42,
            col=5,
            code="flow.taint-digest",
            message="wall clock reaches result_digest",
            context="LRUDeadValuePool.insert_garbage",
        )
        assert record.kind == "lint.finding"
        assert record.counters == {"line": 42, "col": 5}
        assert record.meta["code"] == "flow.taint-digest"
        assert record.meta["context"] == "LRUDeadValuePool.insert_garbage"
        wire = json.loads(json.dumps(record.to_dict()))
        assert parse_record(wire) == record

    def test_aggregate_record_sums_and_merges(self, fleet_result):
        shards = list(fleet_result.shard_results)
        aggregate = aggregate_record(
            shards, kind="fleet", system="mq-dvp", workload="mail"
        )
        assert aggregate.counters["programs"] == sum(
            r.counters.programs for r in shards
        )
        assert aggregate.horizon_us == max(r.horizon_us for r in shards)


class TestSchemaConstants:
    def test_kind_validated_at_construction(self, run_result):
        with pytest.raises(SchemaError):
            record_from_run(run_result, kind="nope")

    def test_surface_constants(self):
        assert SCHEMA == "repro.api/v1"
        assert SCHEMA_VERSION == 1
        assert set(KINDS) == {
            "run", "bench.cell", "fleet.shard", "fleet",
            "serve.metrics", "serve.session",
            "kv.run", "kv.ablation", "lint.finding", "telemetry.sample",
        }

    def test_record_is_frozen(self, run_result):
        record = record_from_run(run_result)
        with pytest.raises(AttributeError):
            record.kind = "fleet"

    def test_bench_cell_carries_record(self):
        # The bench harness mints bench.cell records; validate the kind
        # here without paying for a timed benchmark run.
        assert "bench.cell" in KINDS
        assert ResultRecord(
            kind="bench.cell",
            system="s",
            workload="w",
            counters={},
            reads=LatencySummary(0, 0.0, 0.0, 0.0, 0.0),
            writes=LatencySummary(0, 0.0, 0.0, 0.0, 0.0),
            requests=LatencySummary(0, 0.0, 0.0, 0.0, 0.0),
            horizon_us=0.0,
        ).kind == "bench.cell"
