"""End-to-end integration: trace generation → prefill → simulation → metrics.

These tests run the whole pipeline the way the benchmarks do, just smaller,
and check cross-module consistency that no unit test can see.
"""

import pytest

from repro.check import audit
from repro.experiments.runner import (
    ExperimentContext,
    RunConfig,
    config_for_profile,
    prefill,
    run_system,
)
from repro.flash.block import PageState
from repro.ftl.dvp_ftl import build_system
from repro.sim.request import OpType
from repro.sim.ssd import SimulatedSSD
from repro.traces.synthetic import generate_trace

from ..conftest import make_profile


@pytest.fixture(scope="module")
def context():
    profile = make_profile(
        num_requests=8000, working_set_pages=800, new_value_prob=0.2,
        targets=__import__(
            "repro.traces.profiles", fromlist=["TableIITargets"]
        ).TableIITargets(0.8, 0.2, 0.5),
    )
    return ExperimentContext(
        profile=profile,
        trace=generate_trace(profile),
        config=config_for_profile(profile),
    )


ALL_SYSTEMS = [
    "baseline", "lru-dvp", "mq-dvp", "ideal", "lxssd", "dedup", "dvp+dedup",
]


@pytest.fixture(scope="module")
def results(context):
    return {
        system: run_system(
            system, context,
            RunConfig(paper_pool_entries=200_000, scale=0.05),
        )
        for system in ALL_SYSTEMS
    }


class TestAccountingIdentities:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_every_write_is_accounted(self, results, context, system):
        c = results[system].counters
        writes = sum(1 for r in context.trace if r.op is OpType.WRITE)
        assert c.host_writes == writes
        assert c.programs + c.short_circuits + c.dedup_hits == writes

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_every_request_measured(self, results, context, system):
        result = results[system]
        assert result.all_requests.count == len(context.trace)

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_nonnegative_latencies(self, results, system):
        result = results[system]
        assert result.mean_latency_us >= 0
        assert result.p99_latency_us >= result.all_requests.percentile(50)


class TestSystemOrdering:
    """The partial order the paper's evaluation relies on."""

    def test_ideal_saves_at_least_as_much_as_mq(self, results):
        assert results["ideal"].flash_writes <= results["mq-dvp"].flash_writes

    def test_mq_beats_lru_at_equal_size(self, results):
        assert (
            results["mq-dvp"].flash_writes <= results["lru-dvp"].flash_writes
        )

    def test_dvp_beats_lxssd(self, results):
        assert results["mq-dvp"].flash_writes < results["lxssd"].flash_writes

    def test_every_dvp_variant_beats_baseline(self, results):
        base = results["baseline"].flash_writes
        for system in ("mq-dvp", "ideal", "lru-dvp", "lxssd"):
            assert results[system].flash_writes < base

    def test_dvp_dedup_beats_dedup_alone(self, results):
        assert (
            results["dvp+dedup"].flash_writes <= results["dedup"].flash_writes
        )

    def test_short_circuits_only_in_pool_systems(self, results):
        assert results["baseline"].counters.short_circuits == 0
        assert results["dedup"].counters.short_circuits == 0
        assert results["mq-dvp"].counters.short_circuits > 0
        assert results["dvp+dedup"].counters.short_circuits > 0


class TestDriveStateAfterRun:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_ftl_invariants_hold_after_full_run(self, context, system):
        ftl = build_system(system, context.config, 512)
        prefill(ftl, context.profile)
        device = SimulatedSSD(ftl)
        for request in context.trace:
            device.submit(request)
        assert not audit(ftl)

    def test_mapped_content_matches_trace(self, context):
        """After the run, every logical page holds exactly the last value
        the trace wrote there (or its initial value)."""
        from repro.traces.synthetic import initial_value_of

        ftl = build_system("mq-dvp", context.config, 512)
        prefill(ftl, context.profile)
        device = SimulatedSSD(ftl)
        final = {}
        for request in context.trace:
            device.submit(request)
            if request.op is OpType.WRITE:
                final[request.lpn] = request.value_id
        for lpn in range(0, context.profile.total_pages, 37):
            expected = final.get(lpn, initial_value_of(lpn))
            ppn = ftl.mapping.lookup(lpn)
            assert ppn is not None
            assert ftl.fingerprint_at(ppn).key == expected
            assert ftl.array.state_of(ppn) is PageState.VALID
