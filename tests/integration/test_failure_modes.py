"""Failure-injection and edge-condition integration tests.

A reproduction must fail loudly, not wrongly: these tests drive the
system into its documented failure modes (drive exhaustion, invalid
inputs, degenerate configurations) and verify the behaviour is an
explicit error or a graceful degenerate result — never silent corruption.
"""

import pytest

from repro.check import audit
from repro.core.dvp import MQDeadValuePool
from repro.core.hashing import fingerprint_of_value as fp
from repro.faults import FaultConfig, FaultModel
from repro.flash.config import SSDConfig
from repro.ftl.allocator import OutOfSpaceError
from repro.ftl.ftl import BaseFTL
from repro.sim.request import IORequest, OpType
from repro.sim.ssd import SimulatedSSD, replay


def tiny_drive(**overrides):
    params = dict(
        channels=1, chips_per_channel=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane=6, pages_per_block=4, overprovision=0.15,
    )
    params.update(overrides)
    return SSDConfig(**params)


class TestDriveExhaustion:
    def test_filling_every_logical_page_succeeds(self):
        config = tiny_drive()
        ftl = BaseFTL(config)
        for lpn in range(config.logical_pages):
            ftl.write(lpn, fp(lpn))
        assert not audit(ftl)

    def test_overcommit_beyond_logical_space_rejected(self):
        config = tiny_drive()
        ftl = BaseFTL(config)
        with pytest.raises(ValueError):
            ftl.write(config.logical_pages, fp(1))

    def test_sustained_churn_on_full_drive_never_strands(self):
        """With every logical page mapped and a *viable* amount of
        over-provisioning (at least ~3 blocks of slack per plane, enough
        for the two active blocks plus relocation headroom), heavy
        overwrites must keep succeeding forever via GC."""
        config = tiny_drive(blocks_per_plane=8, overprovision=0.4)
        ftl = BaseFTL(config)
        for lpn in range(config.logical_pages):
            ftl.write(lpn, fp(lpn))
        for i in range(config.total_pages * 4):
            ftl.write(i % config.logical_pages, fp(10_000 + i))
        assert not audit(ftl)
        assert ftl.counters.gc_erases > 0

    def test_infeasible_overprovisioning_fails_loudly(self):
        """Below the viability floor (spare space smaller than the active
        blocks + relocation reserve), the drive eventually deadlocks — and
        must say so via OutOfSpaceError, never corrupt state."""
        config = tiny_drive(blocks_per_plane=8, overprovision=0.15)
        ftl = BaseFTL(config)  # 32 raw vs 27 logical: ~1.25 blocks slack
        for lpn in range(config.logical_pages):
            ftl.write(lpn, fp(lpn))
        with pytest.raises(OutOfSpaceError):
            for i in range(config.total_pages * 4):
                ftl.write(i % config.logical_pages, fp(10_000 + i))
        # the failure left the structures consistent
        assert not audit(ftl)

    def test_worn_out_drive_degrades_to_read_only(self):
        """The same exhausted drive under the fault layer is at end of
        life: a collection pass that leaves its plane no free block turns
        it read-only, and writes are rejected instead of raising."""
        config = tiny_drive(blocks_per_plane=8, overprovision=0.15)
        ftl = BaseFTL(config)
        for lpn in range(config.logical_pages):
            ftl.write(lpn, fp(lpn))
        ftl.attach_faults(FaultModel(FaultConfig(seed=1)))
        rejected = [
            ftl.write(i % config.logical_pages, fp(10_000 + i)).rejected
            for i in range(config.total_pages * 4)
        ]
        assert ftl.read_only and rejected[-1]
        assert ftl.allocator.free_block_count(0) == 0
        assert ftl.faults.stats.rejected_writes == sum(rejected)
        assert not audit(ftl)

    def test_unwritable_drive_raises_out_of_space(self):
        """A drive with zero over-provisioning and a full logical space
        cannot absorb updates once no block is collectible."""
        config = tiny_drive(overprovision=0.0, blocks_per_plane=2)
        ftl = BaseFTL(config)
        with pytest.raises(OutOfSpaceError):
            for i in range(config.total_pages * 2):
                ftl.write(i % config.logical_pages, fp(i))


class TestDegenerateInputs:
    def test_empty_trace(self, tiny_config):
        result = replay(BaseFTL(tiny_config), [])
        assert result.counters.host_writes == 0
        assert result.mean_latency_us == 0.0

    def test_out_of_order_arrivals_tolerated(self, tiny_config):
        device = SimulatedSSD(BaseFTL(tiny_config))
        late = device.submit(IORequest(1000.0, OpType.WRITE, 0, 1))
        early = device.submit(IORequest(10.0, OpType.WRITE, 1, 2))
        # Out-of-order submission queues behind the already-charged op on
        # shared resources but never produces negative latency.
        assert early.latency_us >= 0
        assert late.latency_us >= 0

    def test_single_entry_pool(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=MQDeadValuePool(1))
        for i in range(100):
            ftl.write(i % 10, fp(i % 4))
        assert not audit(ftl)

    def test_single_page_blocks(self):
        config = tiny_drive(pages_per_block=1, blocks_per_plane=16)
        ftl = BaseFTL(config)
        for i in range(config.total_pages * 2):
            ftl.write(i % config.logical_pages, fp(i % 5))
        assert not audit(ftl)

    def test_repeated_identical_writes(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=MQDeadValuePool(8))
        for _ in range(200):
            ftl.write(0, fp(42))
        # After the first program, every rewrite revives in place.
        assert ftl.counters.programs == 1
        assert ftl.counters.short_circuits == 199

    def test_reads_of_never_written_space(self, tiny_config):
        device = SimulatedSSD(BaseFTL(tiny_config))
        for lpn in range(0, tiny_config.logical_pages, 7):
            done = device.submit(IORequest(lpn * 10.0, OpType.READ, lpn, 0))
            assert done.latency_us == pytest.approx(
                tiny_config.timing.mapping_us
            )
