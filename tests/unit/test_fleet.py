"""Fleet unit tests: spec validation, pool modes, aggregation, CLI."""

import io
import json

import pytest

from repro.cli import main
from repro.experiments.runner import scaled_pool_entries
from repro.fleet import (
    FleetSpec,
    ShardSpec,
    compare_pool_modes,
    run_fleet,
)
from repro.obs import JsonlWriter

SCALE = 0.02
SPEC = FleetSpec(workload="mail", system="mq-dvp", shards=4, scale=SCALE)


@pytest.fixture(scope="module")
def fleet():
    return run_fleet(SPEC, jobs=1)


class TestFleetSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FleetSpec(workload="mail", system="mq-dvp", shards=0)
        with pytest.raises(ValueError, match="pool_mode"):
            FleetSpec(
                workload="mail", system="mq-dvp", shards=2, pool_mode="bogus"
            )
        with pytest.raises(ValueError):
            FleetSpec(
                workload="mail", system="mq-dvp", shards=2, chunk_requests=0
            )
        with pytest.raises(ValueError):
            FleetSpec(workload="mail", system="mq-dvp", shards=2, replicas=0)

    def test_shard_index_bounds(self):
        assert SPEC.shard(0) == ShardSpec(fleet=SPEC, index=0)
        with pytest.raises(ValueError):
            SPEC.shard(4)
        with pytest.raises(ValueError):
            SPEC.shard(-1)

    def test_spec_is_picklable(self):
        import pickle

        assert pickle.loads(pickle.dumps(SPEC)) == SPEC
        shard = SPEC.shard(2)
        assert pickle.loads(pickle.dumps(shard)) == shard

    def test_pool_budget_split(self):
        budget = scaled_pool_entries(SPEC.paper_pool_entries, SPEC.scale)
        per_drive = SPEC.shard_pool_entries()
        assert per_drive == max(64, budget // SPEC.shards)
        import dataclasses

        shared = dataclasses.replace(SPEC, pool_mode="shared")
        assert shared.shard_pool_entries() == budget


class TestAggregation:
    def test_counters_sum_across_shards(self, fleet):
        assert fleet.host_writes == sum(
            r.counters.host_writes for r in fleet.shard_results
        )
        assert fleet.flash_programs == sum(
            r.counters.total_programs for r in fleet.shard_results
        )

    def test_latency_merges_exact_samples(self, fleet):
        merged = fleet.all_requests
        assert merged.count == sum(
            r.reads.count + r.writes.count for r in fleet.shard_results
        )
        # Fleet percentiles come from the merged sample set, so the p99
        # must be one of the shards' actual samples.
        all_samples = [
            s
            for r in fleet.shard_results
            for s in r.reads.samples + r.writes.samples
        ]
        assert fleet.p99_latency_us in all_samples

    def test_ratios_are_of_totals(self, fleet):
        assert fleet.write_amplification == (
            fleet.flash_programs / fleet.host_writes
        )
        assert 0.0 <= fleet.revival_rate <= 1.0

    def test_imbalance_stats(self, fleet):
        assert len(fleet.shard_requests) == SPEC.shards
        assert fleet.imbalance_cv >= 0.0
        assert fleet.imbalance_max_over_mean >= 1.0

    def test_summary_shape(self, fleet):
        summary = fleet.summary()
        for key in (
            "workload", "system", "shards", "pool_mode", "jobs",
            "flash_programs", "write_amplification", "revival_rate",
            "p50_latency_us", "p99_latency_us", "imbalance_cv",
            "fleet_digest",
        ):
            assert key in summary
        assert len(summary["fleet_digest"]) == 64

    def test_export_jsonl(self, fleet):
        from repro.api import parse_record

        buffer = io.StringIO()
        records = fleet.export_jsonl(JsonlWriter(buffer))
        lines = [json.loads(l) for l in buffer.getvalue().splitlines()]
        assert records == SPEC.shards + 1
        assert [l["kind"] for l in lines] == (
            ["fleet.shard"] * SPEC.shards + ["fleet"]
        )
        for index, line in enumerate(lines[:-1]):
            assert line["meta"]["shard"] == index
            assert len(line["digest"]) == 64
            parse_record(line)  # every exported line is a valid v1 record
        assert lines[-1]["digest"] == fleet.fleet_digest
        assert lines[-1]["meta"]["shard_digests"] == list(fleet.shard_digests)


class TestPoolModes:
    def test_comparison_reports_programs_for_both_modes(self):
        comparison = compare_pool_modes(SPEC, jobs=1)
        assert comparison.per_drive.spec.pool_mode == "per-drive"
        assert comparison.shared.spec.pool_mode == "shared"
        assert comparison.per_drive_programs > 0
        assert comparison.shared_programs > 0
        # The shared mode is the upper bound: every shard keeps the full
        # budget, so it can never produce *more* programs than the split
        # pools.
        assert comparison.shared_programs <= comparison.per_drive_programs
        summary = comparison.summary()
        assert summary["programs_saved"] == (
            comparison.per_drive_programs - comparison.shared_programs
        )


class TestFleetCli:
    def test_fleet_json(self, capsys):
        code = main([
            "fleet", "--workload", "mail", "--system", "mq-dvp",
            "--shards", "2", "--scale", str(SCALE), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "fleet"
        assert payload["meta"]["shards"] == 2
        assert len(payload["digest"]) == 64

    def test_fleet_compare_pool_modes(self, capsys):
        code = main([
            "fleet", "--workload", "mail", "--system", "mq-dvp",
            "--shards", "2", "--scale", str(SCALE),
            "--pool-mode", "both", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {
            "per_drive_programs", "shared_programs", "programs_saved",
        }

    def test_obs_with_both_pool_modes_is_a_usage_error(self, tmp_path,
                                                       capsys):
        out = tmp_path / "fleet.jsonl"
        code = main([
            "fleet", "--workload", "mail", "--system", "mq-dvp",
            "--pool-mode", "both", "--obs", str(out),
        ])
        assert code == 2
        assert "--pool-mode both" in capsys.readouterr().err
        assert not out.exists()

    def test_fleet_obs_export(self, tmp_path, capsys):
        out = tmp_path / "fleet.jsonl"
        code = main([
            "fleet", "--workload", "mail", "--system", "mq-dvp",
            "--shards", "2", "--scale", str(SCALE),
            "--obs", str(out), "--json",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # 2 shards + 1 fleet record
