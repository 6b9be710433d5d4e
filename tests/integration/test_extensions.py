"""Integration tests for the extension features, end-to-end.

Each extension (adaptive pool, hit verification, demand-paged mapping,
background GC, host adapter, TRIM) is run through a full workload replay
and checked for cross-feature coherence — combinations the unit tests
exercise only in isolation.
"""

import pytest

from repro.check import audit
from repro.core.adaptive import AdaptiveMQDeadValuePool
from repro.core.dvp import MQDeadValuePool
from repro.experiments.runner import config_for_profile, prefill
from repro.ftl.dftl import DFTLFtl
from repro.ftl.ftl import BaseFTL
from repro.sim.background import BackgroundGCSSD
from repro.sim.host import HostAdapter, HostRequest
from repro.sim.logging import CompletionLog
from repro.sim.request import IORequest, OpType
from repro.sim.ssd import SimulatedSSD
from repro.traces.synthetic import generate_trace

from ..conftest import make_profile


@pytest.fixture(scope="module")
def setup():
    profile = make_profile(num_requests=6000, working_set_pages=600)
    return profile, generate_trace(profile), config_for_profile(profile)


class TestKitchenSinkFTL:
    """Every FTL knob enabled at once must stay coherent."""

    def test_all_features_together(self, setup):
        profile, trace, config = setup
        ftl = DFTLFtl(
            config,
            pool=AdaptiveMQDeadValuePool(
                256, min_entries=64, max_entries=1024, window=512,
            ),
            # Below the 900-page footprint: the trace itself must miss
            # (preconditioning zeroes the CMT statistics).
            cmt_entries=512,
            popularity_aware_gc=True,
            wear_levelling=True,
            verify_hits=True,
        )
        prefill(ftl, profile)
        log = CompletionLog()
        device = SimulatedSSD(ftl, log=log)
        result = device.run(trace)
        assert not audit(ftl)
        assert result.counters.short_circuits > 0
        assert ftl.translation.stats.misses > 0
        # verify-on-hit charged a read per revival
        assert result.counters.flash_reads >= result.counters.short_circuits
        # adaptation telemetry moved
        assert ftl.pool.capacity_high_water >= 256 or ftl.pool.resizes_down

    def test_background_gc_with_adaptive_pool(self, setup):
        profile, trace, config = setup
        ftl = BaseFTL(
            config,
            pool=AdaptiveMQDeadValuePool(
                256, min_entries=64, max_entries=2048, window=512,
            ),
        )
        prefill(ftl, profile)
        device = BackgroundGCSSD(ftl, background_watermark=4)
        result = device.run(trace)
        assert not audit(ftl)
        assert result.counters.host_writes > 0


class TestHostAdapterOverDVP:
    def test_multi_page_writes_through_pool(self, setup):
        """Multi-page host writes whose pages carry recurring content get
        page-level revivals inside a single host request."""
        profile, _, config = setup
        ftl = BaseFTL(config, pool=MQDeadValuePool(512))
        prefill(ftl, profile)
        adapter = HostAdapter(SimulatedSSD(ftl))
        # Write a 4-page extent, overwrite it, then write it back.
        values = (9001, 9002, 9003, 9004)
        adapter.submit(HostRequest(0.0, OpType.WRITE, 0, values))
        adapter.submit(HostRequest(50_000.0, OpType.WRITE, 0,
                                   (9101, 9102, 9103, 9104)))
        third = adapter.submit(
            HostRequest(100_000.0, OpType.WRITE, 0, values)
        )
        assert ftl.counters.short_circuits == 4
        # a fully-revived extent completes in table-update time
        assert third.latency_us < config.timing.program_us


class TestTrimUnderLoad:
    def test_trim_heavy_workload(self, setup):
        profile, trace, config = setup
        ftl = BaseFTL(config, pool=MQDeadValuePool(512))
        prefill(ftl, profile)
        device = SimulatedSSD(ftl)
        for index, request in enumerate(trace):
            device.submit(request)
            if index % 11 == 0:
                device.submit(IORequest(
                    request.arrival_us + 0.5, OpType.TRIM,
                    request.lpn, 0,
                ))
        assert not audit(ftl)
        assert ftl.counters.host_trims > 0
        # trims create revival opportunities too
        assert ftl.counters.short_circuits > 0
