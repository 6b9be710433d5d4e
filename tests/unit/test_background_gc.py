"""Unit tests for background (idle-time) garbage collection."""

import pytest

from repro.core.hashing import fingerprint_of_value as fp
from repro.flash.array import FlashArray
from repro.ftl.ftl import BaseFTL
from repro.sim.background import BackgroundGCSSD
from repro.sim.request import IORequest, OpType
from repro.sim.ssd import SimulatedSSD


def w(t, lpn, value):
    return IORequest(t, OpType.WRITE, lpn, value)


class TestBackgroundCollect:
    def test_no_collection_above_watermark(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        work = ftl.gc.background_collect(ftl, 0, watermark=4)
        assert work.erase_count == 0

    def test_watermark_must_exceed_on_demand(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        with pytest.raises(ValueError):
            ftl.gc.background_collect(ftl, 0, watermark=ftl.gc.low_watermark)

    def test_collects_when_below_background_watermark(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        # Drain plane 0 until only 5 free blocks remain (on-demand
        # watermark is 2, so no foreground GC has happened yet).
        ppb = tiny_config.pages_per_block
        while ftl.allocator.free_block_count(0) > 5:
            for _ in range(ppb):
                ftl.array.invalidate(ftl.allocator.allocate_in_plane(0))
        work = ftl.gc.background_collect(ftl, 0, watermark=8)
        assert work.erase_count == 1


class TestBackgroundGCSSD:
    def _trace(self, config, n, gap_us=500.0):
        ws = config.logical_pages // 2
        return [w(i * gap_us, i % ws, 10_000 + i) for i in range(n)]

    def test_validation(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        with pytest.raises(ValueError):
            BackgroundGCSSD(ftl, background_watermark=1)
        with pytest.raises(ValueError):
            BackgroundGCSSD(ftl, planes_per_probe=0)

    def test_background_erases_happen(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        device = BackgroundGCSSD(ftl, background_watermark=6)
        for request in self._trace(tiny_config, tiny_config.total_pages * 2):
            device.submit(request)
        assert device.background_erases > 0
        ftl.check_invariants()

    def test_same_flash_writes_as_on_demand(self, tiny_config):
        """Background GC changes *when* collection happens, not what the
        host wrote."""
        trace = self._trace(tiny_config, tiny_config.total_pages * 2)
        on_demand = SimulatedSSD(BaseFTL(tiny_config))
        background = BackgroundGCSSD(
            BaseFTL(tiny_config), background_watermark=6
        )
        for request in trace:
            on_demand.submit(request)
            background.submit(request)
        assert (
            on_demand.ftl.counters.programs
            == background.ftl.counters.programs
        )

    def test_idle_time_gc_improves_tail_latency(self, tiny_config):
        """With generous idle gaps, background collection absorbs the
        erase latency the on-demand baseline exposes to requests."""
        trace = self._trace(
            tiny_config, tiny_config.total_pages * 2, gap_us=6000.0,
        )
        on_demand = SimulatedSSD(BaseFTL(tiny_config))
        background = BackgroundGCSSD(
            BaseFTL(tiny_config), background_watermark=6
        )
        for request in trace:
            on_demand.submit(request)
            background.submit(request)
        result_fg = on_demand.writes
        result_bg = background.writes
        assert result_bg.p99 < result_fg.p99

    def test_foreground_safety_net_remains(self, tiny_config):
        """A dense burst that outruns the background collector still
        completes via the on-demand watermark path."""
        ftl = BaseFTL(tiny_config)
        device = BackgroundGCSSD(
            ftl, background_watermark=3, planes_per_probe=1
        )
        for request in self._trace(
            tiny_config, tiny_config.total_pages * 3, gap_us=1.0,
        ):
            device.submit(request)
        ftl.check_invariants()
