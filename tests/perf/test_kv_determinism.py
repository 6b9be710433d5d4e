"""KV scenario smoke: end-to-end keyed runs, the pool ablation, and
jobs=1 vs jobs=N digest identity on the KV engine (``make kv-smoke``)."""

import pytest

from repro.kv import (
    KVSpec,
    execute_kv_spec,
    kv_result_digest,
    run_kv_ablation,
)
from repro.perf.parallel import run_specs

#: Small enough for CI, large enough to exercise GC/repack/revival.
SMOKE_SCALE = 0.05


@pytest.mark.kv_smoke
class TestKVEndToEnd:
    def test_ycsb_a_revives_with_pool(self):
        kv = execute_kv_spec(
            KVSpec(workload="ycsb-a", system="mq-dvp", scale=SMOKE_SCALE)
        )
        assert kv.result.counters.host_writes > 0
        assert kv.result.counters.short_circuits > 0
        assert kv.revival_rate > 0.0
        assert kv.kv_counters["pack_seals"] > 0
        assert kv.digest == kv_result_digest(kv.result, kv.kv_counters)

    def test_trim_heavy_issues_trims(self):
        kv = execute_kv_spec(
            KVSpec(workload="trim-heavy", system="mq-dvp",
                   scale=SMOKE_SCALE)
        )
        assert kv.result.counters.host_trims > 0
        assert kv.kv_counters["deletes"] > 0

    def test_dftl_composition_runs(self):
        kv = execute_kv_spec(
            KVSpec(workload="ycsb-a", system="dftl-mq-dvp",
                   scale=SMOKE_SCALE)
        )
        assert kv.result.counters.host_writes > 0
        assert kv.revival_rate > 0.0

    def test_reexecution_is_bit_identical(self):
        spec = KVSpec(workload="diurnal", system="mq-dvp",
                      scale=SMOKE_SCALE)
        assert execute_kv_spec(spec).digest == execute_kv_spec(spec).digest

    def test_seed_override_changes_digest(self):
        spec = KVSpec(workload="ycsb-a", system="mq-dvp",
                      scale=SMOKE_SCALE)
        reseeded = KVSpec(workload="ycsb-a", system="mq-dvp",
                          scale=SMOKE_SCALE, seed=999)
        assert execute_kv_spec(spec).digest != \
            execute_kv_spec(reseeded).digest


@pytest.mark.kv_smoke
class TestKVAblation:
    def test_pool_off_leg_never_revives(self):
        on, off = run_kv_ablation(
            KVSpec(workload="ycsb-a", system="mq-dvp", scale=SMOKE_SCALE)
        )
        assert on.revival_rate > 0.0
        assert off.revival_rate == 0.0
        assert off.spec.system == "baseline"
        # Same keyed traffic on both legs: the stores behaved identically.
        assert on.kv_counters == off.kv_counters
        assert on.write_amplification < off.write_amplification

    def test_unablatable_system_raises(self):
        spec = KVSpec(workload="ycsb-a", system="baseline",
                      scale=SMOKE_SCALE)
        with pytest.raises(ValueError, match="no pool to ablate"):
            spec.pool_off()


@pytest.mark.kv_smoke
class TestKVParallelDeterminism:
    def test_jobs_2_matches_serial(self):
        specs = [
            KVSpec(workload=workload, system=system, scale=SMOKE_SCALE)
            for workload in ("ycsb-a", "trim-heavy")
            for system in ("mq-dvp", "baseline")
        ]
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert [kv.digest for kv in serial] == \
            [kv.digest for kv in parallel]
        assert [kv.kv_counters for kv in serial] == \
            [kv.kv_counters for kv in parallel]

    def test_results_come_back_in_spec_order(self):
        specs = [
            KVSpec(workload=workload, system="mq-dvp", scale=SMOKE_SCALE)
            for workload in ("ycsb-b", "ycsb-a")
        ]
        results = run_specs(specs, jobs=2)
        assert [kv.spec.workload for kv in results] == ["ycsb-b", "ycsb-a"]
