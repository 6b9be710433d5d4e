"""Unit tests for hit verification and wear-aware GC (FTL extensions)."""

import pytest

from repro.check import audit
from repro.core.dvp import InfiniteDeadValuePool, MQDeadValuePool
from repro.core.hashing import fingerprint_of_value as fp
from repro.ftl.dedup import DedupFTL
from repro.ftl.ftl import BaseFTL
from repro.sim.request import IORequest, OpType
from repro.sim.ssd import SimulatedSSD


class TestVerifyHits:
    def test_revival_carries_verification_read(self, tiny_config):
        ftl = BaseFTL(
            tiny_config, pool=InfiniteDeadValuePool(), verify_hits=True
        )
        ftl.write(0, fp(1))
        ftl.write(0, fp(2))
        outcome = ftl.write(1, fp(1))
        assert outcome.short_circuited
        assert outcome.verify_read_ppn == outcome.revived_ppn
        assert ftl.counters.flash_reads == 1

    def test_no_verification_by_default(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=InfiniteDeadValuePool())
        ftl.write(0, fp(1))
        ftl.write(0, fp(2))
        outcome = ftl.write(1, fp(1))
        assert outcome.verify_read_ppn is None
        assert ftl.counters.flash_reads == 0

    def test_dedup_hit_verification(self, tiny_config):
        ftl = DedupFTL(tiny_config, verify_hits=True)
        first = ftl.write(0, fp(1))
        outcome = ftl.write(1, fp(1))
        assert outcome.dedup_hit
        assert outcome.verify_read_ppn == first.program_ppn

    def test_programmed_writes_never_verify(self, tiny_config):
        ftl = BaseFTL(
            tiny_config, pool=InfiniteDeadValuePool(), verify_hits=True
        )
        outcome = ftl.write(0, fp(1))
        assert outcome.verify_read_ppn is None

    def test_verification_costs_a_read_in_the_simulator(self, tiny_config):
        def revived_latency(verify):
            ftl = BaseFTL(
                tiny_config, pool=InfiniteDeadValuePool(), verify_hits=verify
            )
            device = SimulatedSSD(ftl)
            device.submit(IORequest(0.0, OpType.WRITE, 0, 1))
            device.submit(IORequest(10_000.0, OpType.WRITE, 0, 2))
            done = device.submit(IORequest(20_000.0, OpType.WRITE, 1, 1))
            assert done.short_circuited
            return done.latency_us

        t = tiny_config.timing
        fast = revived_latency(False)
        slow = revived_latency(True)
        assert slow == pytest.approx(
            fast + t.read_us + t.channel_xfer_us
        )


class TestWearLevelling:
    def _churn(self, ftl, config, writes):
        ws = config.logical_pages // 2
        for i in range(writes):
            ftl.write(i % ws, fp(1_000_000 + i))

    def test_wear_tracker_always_available(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        assert ftl.wear.stats().total_erases == 0

    def test_guard_reduces_wear_spread(self, tiny_config):
        """With the guard, erases spread more evenly across blocks."""
        writes = tiny_config.total_pages * 6
        plain = BaseFTL(tiny_config, wear_levelling=False)
        level = BaseFTL(tiny_config, wear_levelling=True, wear_guard_margin=2)
        self._churn(plain, tiny_config, writes)
        self._churn(level, tiny_config, writes)
        assert plain.counters.gc_erases > 0
        assert level.counters.gc_erases > 0
        assert level.wear.stats().spread <= plain.wear.stats().spread

    def test_guard_never_blocks_progress(self, tiny_config):
        """Even with an aggressive margin, writes always complete (the
        guard only filters when alternatives exist)."""
        ftl = BaseFTL(tiny_config, wear_levelling=True, wear_guard_margin=0)
        self._churn(ftl, tiny_config, tiny_config.total_pages * 4)
        assert not audit(ftl)

    def test_guard_composes_with_pool(self, tiny_config):
        ftl = BaseFTL(
            tiny_config,
            pool=MQDeadValuePool(64),
            popularity_aware_gc=True,
            wear_levelling=True,
        )
        self._churn(ftl, tiny_config, tiny_config.total_pages * 3)
        assert not audit(ftl)
