"""Determinism: serial, parallel and cached-prefill paths are bit-identical.

These are the guarantees the whole perf layer rests on (ISSUE 2): same
profile + seed yields identical traces, and a matrix run yields digest-
identical :class:`RunResult`s no matter which execution path produced it.
"""

import pytest

from repro.experiments.replication import paired_improvement, replicate
from repro.experiments.runner import (
    ExperimentContext,
    RunConfig,
    run_matrix,
    run_system,
)
from repro.fleet import FleetSpec
from repro.ftl.dvp_ftl import SYSTEMS as ALL_SYSTEMS
from repro.kv import KVSpec
from repro.perf.parallel import run_specs
from repro.perf.spec import RunSpec, execute_spec, result_digest
from repro.perf.trace_cache import TraceCache
from repro.traces.synthetic import generate_trace

from ..conftest import make_profile

# Tiny but non-degenerate: two workload shapes, three systems covering
# both FTL families.  web/trans keep total_pages small (cold_region_factor
# 2.0 / 1.5) so prefill stays cheap at this scale.
SCALE = 0.004
WORKLOADS = ("web", "trans")
SYSTEMS = ("baseline", "mq-dvp", "dedup")


def _matrix_digests(results):
    return {
        (w, s): result_digest(results[w][s])
        for w in results
        for s in results[w]
    }


class TestTraceDeterminism:
    def test_same_profile_same_trace(self):
        profile = make_profile()
        assert generate_trace(profile) == generate_trace(profile)

    def test_cache_preserves_trace_content(self):
        profile = make_profile()
        assert TraceCache().get(profile) == generate_trace(profile)


class TestRunDeterminism:
    def test_execute_spec_matches_manual_run(self):
        spec = RunSpec("web", "mq-dvp", scale=SCALE)
        manual = run_system(
            "mq-dvp",
            ExperimentContext.for_workload("web", SCALE),
            RunConfig(scale=SCALE),
        )
        assert result_digest(execute_spec(spec)) == result_digest(manual)

    def test_repeated_runs_identical(self):
        spec = RunSpec("trans", "dedup", scale=SCALE)
        assert result_digest(execute_spec(spec)) == result_digest(
            execute_spec(spec)
        )

    @pytest.mark.parametrize("system", sorted(ALL_SYSTEMS))
    def test_prefill_cache_does_not_change_results(self, system):
        cold = run_system(
            system,
            ExperimentContext.for_workload("web", SCALE),
            RunConfig(scale=SCALE, reuse_prefill=False),
        )
        # Prime the snapshot via another system, then run the real cell
        # through the restore path.
        primer = "dedup" if system == "baseline" else "baseline"
        execute_spec(RunSpec("web", primer, scale=SCALE))
        warm = execute_spec(RunSpec("web", system, scale=SCALE))
        assert result_digest(cold) == result_digest(warm)

    def test_seed_override_changes_results(self):
        base = execute_spec(RunSpec("web", "baseline", scale=SCALE))
        reseeded = execute_spec(
            RunSpec("web", "baseline", scale=SCALE, seed=99)
        )
        assert result_digest(base) != result_digest(reseeded)


def _digest(result):
    # A keyed run carries its own digest; matrix cells and fleet shards
    # return a plain RunResult.
    return getattr(result, "digest", None) or result_digest(result)


class TestParallelDeterminism:
    def test_serial_vs_parallel_specs(self):
        """Every job kind through the one fan-out: matrix cells, KV runs
        and fleet shards in a single mixed spec list."""
        fleet = FleetSpec(workload="web", system="mq-dvp", shards=2,
                          scale=SCALE)
        specs = (
            [RunSpec(w, s, scale=SCALE) for w in WORKLOADS for s in SYSTEMS]
            + [KVSpec(workload="ycsb-a", system=s, scale=SCALE)
               for s in ("mq-dvp", "baseline")]
            + [fleet.shard(index) for index in range(fleet.shards)]
        )
        serial = [_digest(r) for r in run_specs(specs, jobs=1)]
        parallel = [_digest(r) for r in run_specs(specs, jobs=2)]
        assert serial == parallel

    def test_serial_vs_parallel_matrix(self):
        serial = run_matrix(
            WORKLOADS, SYSTEMS, RunConfig(scale=SCALE, jobs=1)
        )
        parallel = run_matrix(
            WORKLOADS, SYSTEMS, RunConfig(scale=SCALE, jobs=2)
        )
        assert _matrix_digests(serial) == _matrix_digests(parallel)
        # Ordered collection: nested dict layout matches the request.
        assert tuple(parallel) == WORKLOADS
        for workload in WORKLOADS:
            assert tuple(parallel[workload]) == SYSTEMS

    def test_parallel_replicate_matches_serial(self):
        kwargs = dict(
            workload="web",
            system="baseline",
            metric="flash_writes",
            seeds=(1, 2),
            scale=SCALE,
        )
        assert replicate(jobs=1, **kwargs).samples == replicate(
            jobs=2, **kwargs
        ).samples

    def test_parallel_paired_improvement_matches_serial(self):
        kwargs = dict(
            workload="trans",
            system="mq-dvp",
            metric="flash_writes",
            seeds=(1, 2),
            scale=SCALE,
        )
        serial = paired_improvement(jobs=1, **kwargs)
        parallel = paired_improvement(jobs=2, **kwargs)
        assert serial.samples == parallel.samples


class TestMatrixWiring:
    def test_observer_requires_serial(self):
        with pytest.raises(ValueError, match="jobs=1"):
            run_matrix(
                ("web",),
                ("baseline",),
                RunConfig(scale=SCALE, jobs=2),
                observer_factory=lambda w, s: object(),
            )

    def test_observer_factory_wired_per_cell(self):
        from repro.obs import TimeSeriesSampler

        samplers = {}

        def factory(workload, system):
            sampler = TimeSeriesSampler(interval_requests=50)
            samplers[(workload, system)] = sampler
            return sampler

        run_matrix(
            ("web",), ("baseline", "mq-dvp"), RunConfig(scale=SCALE),
            observer_factory=factory,
        )
        assert set(samplers) == {("web", "baseline"), ("web", "mq-dvp")}
        for sampler in samplers.values():
            assert sampler.sample_count > 0

    def test_queue_depth_reaches_cells(self):
        deep = run_matrix(("web",), ("baseline",), RunConfig(scale=SCALE))
        shallow = run_matrix(
            ("web",), ("baseline",), RunConfig(scale=SCALE, queue_depth=1)
        )
        assert result_digest(deep["web"]["baseline"]) != result_digest(
            shallow["web"]["baseline"]
        )
