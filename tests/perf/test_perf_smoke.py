"""perf-smoke marker: a tiny end-to-end pass through the parallel engine.

Selected with ``-m perf_smoke`` (``make perf-smoke``); also runs as part
of the plain tier-1 suite.  Kept tiny — two workloads, three systems,
``--jobs 2`` — so it exercises the process-pool round trip, the caches
and the bench harness in seconds.
"""

import json

import pytest

from repro.perf.bench import run_benchmark, write_benchmark
from repro.perf.parallel import pool_chunksize, resolve_jobs, run_specs
from repro.perf.spec import RunSpec, digest_of_digests, result_digest

SCALE = 0.004
SPECS = [
    RunSpec(w, s, scale=SCALE)
    for w in ("web", "trans")
    for s in ("baseline", "mq-dvp", "dedup")
]


@pytest.mark.perf_smoke
class TestPerfSmoke:
    def test_tiny_matrix_parallel_round_trip(self):
        results = run_specs(SPECS, jobs=2)
        assert len(results) == len(SPECS)
        for spec, result in zip(SPECS, results):
            assert result.system == spec.system
            assert result.workload == spec.workload
            assert result.reads.count + result.writes.count > 0

    def test_parallel_identical_to_serial(self):
        serial = [result_digest(r) for r in run_specs(SPECS, jobs=1)]
        parallel = [result_digest(r) for r in run_specs(SPECS, jobs=2)]
        assert serial == parallel

    def test_bench_report_shape(self):
        report = run_benchmark(
            sections={"matrix": [
                RunSpec("web", system, scale=SCALE)
                for system in ("baseline", "mq-dvp")
            ]},
            jobs=2,
        )
        assert report["schema"] == "repro.perf.bench_matrix/v2"
        (section,) = report["sections"].values()
        assert section["identical_results"] is True
        assert section["scale"] == SCALE
        assert [c["id"] for c in section["cells"]] == [
            "web/baseline", "web/mq-dvp",
        ]
        for cell in section["cells"]:
            assert cell["serial_seconds"] >= 0
            assert cell["requests"] > 0
            assert len(cell["digest"]) == 64
            assert cell["record"]["digest"] == cell["digest"]
        assert section["serial_seconds"] > 0
        assert section["parallel_seconds"] > 0

    def test_write_benchmark_emits_json(self, tmp_path):
        path = tmp_path / "BENCH_matrix.json"
        write_benchmark(
            str(path),
            sections={"matrix": [RunSpec("web", "baseline", scale=SCALE)]},
            jobs=2,
        )
        report = json.loads(path.read_text())
        assert report["schema"] == "repro.perf.bench_matrix/v2"
        assert report["sections"]["matrix"]["identical_results"] is True

    def test_every_section_kind_times_uniform_cells(self):
        """Fleet shards and KV legs are cells like matrix cells, and each
        section adds its extras."""
        from repro.fleet import FleetSpec
        from repro.kv import KVSpec

        fleet = FleetSpec(workload="web", system="mq-dvp", shards=2,
                          scale=SCALE)
        on = KVSpec(workload="ycsb-a", system="mq-dvp", scale=SCALE)
        report = run_benchmark(
            sections={
                "fleet": [fleet.shard(i) for i in range(fleet.shards)],
                "kv": [on, on.pool_off()],
            },
            jobs=2,
        )
        fleet_section = report["sections"]["fleet"]
        kv_section = report["sections"]["kv"]
        assert [c["id"] for c in fleet_section["cells"]] == [
            "web/mq-dvp/shard0of2", "web/mq-dvp/shard1of2",
        ]
        assert fleet_section["fleet_digest"] == digest_of_digests(
            [c["digest"] for c in fleet_section["cells"]]
        )
        assert set(fleet_section["pool_modes"]) == {"per-drive", "shared"}
        assert [c["id"] for c in kv_section["cells"]] == [
            "ycsb-a/mq-dvp", "ycsb-a/baseline",
        ]
        (delta,) = kv_section["deltas"]
        assert delta["system_off"] == "baseline"
        for section in (fleet_section, kv_section):
            assert section["identical_results"] is True


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_capped_at_task_count(self):
        # A fleet of 4 long-lived shards can never keep 16 workers busy.
        assert resolve_jobs(16, tasks=4) == 4
        assert resolve_jobs(2, tasks=4) == 2
        assert resolve_jobs(0, tasks=1) == 1

    def test_task_cap_ignored_when_not_positive(self):
        assert resolve_jobs(3, tasks=0) == 3
        assert resolve_jobs(3, tasks=None) == 3


class TestPoolChunksize:
    def test_no_idle_workers_on_uneven_split(self):
        # The old ceil division gave 6 tasks / 4 workers chunksize 2 —
        # three chunks, one worker idle for the whole run.  Floor keeps
        # everyone busy.
        assert pool_chunksize(6, 4) == 1

    def test_exact_division_amortises_dispatch(self):
        assert pool_chunksize(8, 4) == 2
        assert pool_chunksize(4, 4) == 1

    def test_never_below_one(self):
        assert pool_chunksize(2, 4) == 1
        assert pool_chunksize(0, 4) == 1
        assert pool_chunksize(5, 0) == 1

    def test_long_lived_shard_shape(self):
        # One chunk per worker when shards == workers: each worker owns
        # exactly one long-lived shard.
        for shards in (2, 4, 8):
            assert pool_chunksize(shards, shards) == 1
