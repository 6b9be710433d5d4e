"""Device lifecycle: stage ordering, chunked stepping, page preconditioning."""

import pytest

from repro.core.hashing import fingerprint_of_value
from repro.experiments import Device, RunConfig
from repro.experiments.runner import (
    ExperimentContext,
    run_system,
    scaled_pool_entries,
)
from repro.perf.spec import result_digest
from repro.traces.synthetic import initial_value_of

SCALE = 0.01


@pytest.fixture(scope="module")
def context():
    return ExperimentContext.for_workload("web", SCALE)


class TestStageOrdering:
    def test_attach_requires_build(self, context):
        device = Device("baseline", context.config, 64)
        with pytest.raises(RuntimeError, match="built"):
            device.attach(RunConfig(scale=SCALE))

    def test_step_requires_attach(self, context):
        device = Device("baseline", context.config, 64).build()
        with pytest.raises(RuntimeError, match="attach"):
            device.step(context.trace.rows())

    def test_finalize_requires_attach(self, context):
        device = Device("baseline", context.config, 64).build()
        with pytest.raises(RuntimeError, match="attach"):
            device.finalize()

    def test_stages_chain(self, context):
        device = (
            Device("baseline", context.config, 64)
            .build()
            .precondition(context.profile, reuse_prefill=False)
        )
        device.attach(RunConfig(scale=SCALE))
        assert device.step(context.trace.rows()) == len(context.trace)
        result = device.finalize(workload="web")
        assert result.counters.host_writes > 0


class TestChunkedStepping:
    """Chunked replay is observably identical to one whole-trace step."""

    def test_chunked_matches_run_system(self, context):
        cfg = RunConfig(scale=SCALE)
        reference = run_system("mq-dvp", context, config=cfg)

        entries = scaled_pool_entries(cfg.paper_pool_entries, cfg.scale)
        device = Device("mq-dvp", context.config, entries)
        device.precondition(context.profile)
        device.attach(cfg)
        trace = list(context.trace.rows())
        step = 500
        for start in range(0, len(trace), step):
            device.step(trace[start:start + step])
        chunked = device.finalize(workload=context.profile.name)

        assert result_digest(chunked) == result_digest(reference)

    def test_service_keeps_global_request_index(self, context):
        """Crash injection counts requests across step() boundaries."""
        from repro.faults import FaultConfig

        crash_at = len(context.trace) // 2
        cfg = RunConfig(
            scale=SCALE,
            faults=FaultConfig(seed=1, crash_after_requests=crash_at),
        )
        whole = run_system("mq-dvp", context, config=cfg)

        entries = scaled_pool_entries(cfg.paper_pool_entries, cfg.scale)
        device = Device("mq-dvp", context.config, entries)
        device.precondition(context.profile)
        device.attach(cfg)
        trace = list(context.trace.rows())
        # Chunk boundary deliberately NOT aligned with the crash point.
        step = crash_at // 3 + 7
        for start in range(0, len(trace), step):
            device.step(trace[start:start + step])
        chunked = device.finalize(workload=context.profile.name)

        assert result_digest(chunked) == result_digest(whole)


class TestPreconditionPages:
    def test_counters_reset_after_page_prefill(self, context):
        fingerprints = [
            fingerprint_of_value(initial_value_of(lpn)) for lpn in range(200)
        ]
        device = Device("mq-dvp", context.config, 64)
        device.precondition_pages(fingerprints)
        assert device.ftl.counters.host_writes == 0
        assert device.ftl.pool.stats.insertions == 0

    def test_pages_are_readable_with_their_content(self, context):
        fingerprints = [
            fingerprint_of_value(initial_value_of(lpn))
            for lpn in range(1000, 1100)
        ]
        device = Device("baseline", context.config, 64)
        device.precondition_pages(fingerprints)
        # Local page i carries the fingerprint it was preconditioned
        # with — the fleet's global-LBA content model depends on it.
        for local, fingerprint in enumerate(fingerprints):
            assert device.ftl.read(local) is not None

    def test_builds_implicitly(self, context):
        device = Device("baseline", context.config, 64)
        assert device.ftl is None
        device.precondition_pages([fingerprint_of_value(1)])
        assert device.ftl is not None
