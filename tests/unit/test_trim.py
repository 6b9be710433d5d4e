"""Unit tests for TRIM/discard and its dead-value-pool interaction."""

import pytest

from repro.check import audit
from repro.core.dvp import InfiniteDeadValuePool
from repro.core.hashing import fingerprint_of_value as fp
from repro.flash.block import PageState
from repro.ftl.ftl import BaseFTL
from repro.sim.request import IORequest, OpType
from repro.sim.ssd import SimulatedSSD


class TestTrimFTL:
    def test_trim_unmaps_and_invalidates(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        outcome = ftl.write(0, fp(1))
        ftl.trim(0)
        assert ftl.mapping.lookup(0) is None
        assert ftl.array.state_of(outcome.program_ppn) is PageState.INVALID
        assert ftl.counters.host_trims == 1
        assert ftl.counters.invalidations == 1

    def test_trim_unmapped_is_noop(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        ftl.trim(5)
        assert ftl.counters.host_trims == 1
        assert ftl.counters.invalidations == 0

    def test_trim_bounds_checked(self, tiny_config):
        with pytest.raises(ValueError):
            BaseFTL(tiny_config).trim(tiny_config.logical_pages)

    def test_trimmed_content_enters_pool(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=InfiniteDeadValuePool())
        ftl.write(0, fp(1))
        ftl.trim(0)
        assert fp(1) in ftl.pool

    def test_trimmed_content_is_revivable(self, tiny_config):
        """The interesting interaction: writing the trimmed content back
        (e.g. a file restored from trash) revives the discarded page."""
        ftl = BaseFTL(tiny_config, pool=InfiniteDeadValuePool())
        first = ftl.write(0, fp(1))
        ftl.trim(0)
        back = ftl.write(3, fp(1))
        assert back.short_circuited
        assert back.revived_ppn == first.program_ppn

    def test_trim_then_gc_reclaims(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        ws = tiny_config.logical_pages // 2
        for i in range(tiny_config.total_pages):
            ftl.write(i % ws, fp(10_000 + i))
            if i % 3 == 0:
                ftl.trim((i + 1) % ws)
        assert not audit(ftl)


class TestTrimSimulation:
    def test_trim_costs_mapping_only(self, tiny_config):
        device = SimulatedSSD(BaseFTL(tiny_config))
        device.submit(IORequest(0.0, OpType.WRITE, 0, 1))
        done = device.submit(IORequest(10_000.0, OpType.TRIM, 0, 0))
        assert done.latency_us == pytest.approx(
            tiny_config.timing.mapping_us
        )

    def test_trim_not_counted_as_read_or_write(self, tiny_config):
        device = SimulatedSSD(BaseFTL(tiny_config))
        device.submit(IORequest(0.0, OpType.WRITE, 0, 1))
        device.submit(IORequest(1000.0, OpType.TRIM, 0, 0))
        assert device.writes.count == 1
        assert device.reads.count == 0
