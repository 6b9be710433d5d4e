"""Unit tests for the correctness harness (repro.check).

The three seeded-corruption cases are the acceptance gate: each plants
one specific inconsistency in an otherwise healthy FTL and asserts the
audit reports the *named* violation kind — proving the sanitizer detects
exactly the class of bug it claims to.
"""

import pytest

from repro.check import InvariantChecker, InvariantViolation, OracleFTL, audit
from repro.core.dvp import MQDeadValuePool
from repro.core.hashing import fingerprint_of_value as fp
from repro.flash.block import PageState
from repro.flash.config import SSDConfig
from repro.ftl.allocator import OutOfSpaceError
from repro.ftl.dedup import DedupFTL
from repro.ftl.ftl import BaseFTL
from repro.ftl.mapping import _SHARED


def healthy_ftl(config, pool_capacity=64):
    """A small FTL with an MQ pool and a little history on it."""
    ftl = BaseFTL(config, pool=MQDeadValuePool(pool_capacity))
    for lpn in range(24):
        ftl.write(lpn, fp(lpn % 7))
    for lpn in range(12):
        ftl.write(lpn, fp((lpn % 7) + 100))  # invalidate -> pool fills
    return ftl


def kinds_of(violations):
    return {violation.kind for violation in violations}


class TestAuditOnHealthyState:
    def test_fresh_ftl_is_clean(self, tiny_config):
        assert audit(BaseFTL(tiny_config)) == []

    def test_exercised_ftl_is_clean(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        assert audit(ftl) == []

    def test_clean_after_trim_and_gc(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        for lpn in (0, 3, 5):
            ftl.trim(lpn)
        # Push enough writes to exhaust free pages and force collection
        # (tiny_config has 1024 raw pages).
        for i in range(2500):
            ftl.write(i % 20, fp(i))
        assert ftl.counters.gc_erases > 0
        assert audit(ftl) == []


class TestSeededCorruptions:
    """Acceptance: three deliberate corruptions, each detected by name."""

    def test_orphan_ppn_in_pool(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        # Track a FREE page as revivable garbage: the pool now promises
        # content that no flash page holds.
        free_ppn = next(
            ppn for ppn in range(ftl.config.total_pages)
            if ftl.array.state_of(ppn).name == "FREE"
        )
        ftl.pool.insert_garbage(fp(9999), free_ppn, now=0, popularity=1)
        assert "pool.orphan-ppn" in kinds_of(audit(ftl))

    def test_double_valid_page(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        # Resurrect a dead page behind the FTL's back: a VALID page no
        # LPN references (the signature of a botched revival).
        dead_ppn = next(iter(ftl.garbage_pop.of_ppn))
        ftl.array.revive(dead_ppn)
        found = kinds_of(audit(ftl))
        assert "array.unmapped-valid" in found
        # The pool still tracks it as garbage, which is also wrong.
        assert "pool.orphan-ppn" in found

    def test_leaked_free_block(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        plane = next(
            p for p, blocks in enumerate(ftl.allocator.free_blocks)
            if blocks
        )
        ftl.allocator.free_blocks[plane].pop()
        assert "allocator.leaked-block" in kinds_of(audit(ftl))


class TestMoreCorruptions:
    def test_stale_forward_entry(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        lpn = 0
        # Point the mapping at a dead page without invalidating the old
        # copy or fixing the side structures.
        dead_ppn = next(iter(ftl.garbage_pop.of_ppn))
        ftl.mapping._l2p[lpn] = dead_ppn
        ftl.mapping._attach(lpn, dead_ppn)
        found = kinds_of(audit(ftl))
        assert "mapping.reverse-stale" in found
        assert "mapping.dead-ppn" in found

    def test_skewed_array_counter(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        ftl.array.valid_pages += 1
        assert "array.accounting" in kinds_of(audit(ftl))

    def test_popularity_leak(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        ppn = next(iter(ftl.garbage_pop.of_ppn))
        # Drop the pool's knowledge but keep the popularity record.
        pool_fp = ftl._ppn_fp[ppn]
        ftl.pool.discard_ppn(pool_fp, ppn)
        assert "pool.popularity-leak" in kinds_of(audit(ftl))

    def test_stale_mq_head_cache(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        mq = ftl.pool.mq
        assert audit(ftl) == []
        # A head cache that missed a change: a non-empty queue whose
        # cached head is not its real LRU head.
        index = next(i for i in range(mq.num_queues) if mq.keys_in_queue(i))
        mq._head_entry[index] = None
        assert "pool.mq-internal" in kinds_of(audit(ftl))

    def test_skewed_tracked_ppn_count(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        ftl.pool._tracked += 1
        assert kinds_of(audit(ftl)) == {"pool.tracked-count"}

    def test_trim_order_violation(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        lpn, ppn = next(iter(ftl.mapping.forward_items().items()))
        # Journal a trim newer than the LPN's live copy.
        ftl._oob_seq += 1
        ftl._oob_trims[lpn] = ftl._oob_seq
        record_lpn, seq = dict(ftl.oob_records())[ppn]
        assert record_lpn == lpn and seq < ftl._oob_seq
        found = kinds_of(audit(ftl))
        assert "oob.trim-order" in found
        # Recovery replay would now drop the live copy too.
        assert "oob.recovery-divergence" in found


class TestStructureCorruptions:
    """Corruptions inside one structure's own columns: block state bytes,
    the mapping's shared-PPN spill store, the dedup live-value index."""

    def test_state_byte_past_write_pointer(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        block = next(
            b for b in ftl.array.blocks
            if 0 < b.write_pointer < b.pages_per_block
        )
        # A page programmed behind the block's counters and write pointer.
        block.states[block.write_pointer] = PageState.VALID.value
        assert kinds_of(audit(ftl)) == {"array.block-state"}

    def test_spilled_ppn_with_one_owner(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        lpn, ppn = next(iter(ftl.mapping.forward_items().items()))
        # Mark the PPN shared while only its one LPN maps to it: forward
        # and reverse still agree, but the spill never collapsed.
        ftl.mapping._owner[ppn] = _SHARED
        ftl.mapping._shared[ppn] = {lpn}
        assert kinds_of(audit(ftl)) == {"mapping.spill"}

    def test_dense_ppn_in_spill_store(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        lpn, ppn = next(iter(ftl.mapping.forward_items().items()))
        # Spilled while the owner column still names one dense owner.
        ftl.mapping._shared[ppn] = {lpn, lpn + 1}
        assert kinds_of(audit(ftl)) == {"mapping.spill"}

    def test_stale_dedup_live_index(self, tiny_config):
        ftl = DedupFTL(tiny_config)
        for lpn in range(24):
            ftl.write(lpn, fp(lpn % 7))
        assert audit(ftl) == []
        # Name a live page for a value it does not hold.
        ftl._live_index[fp(9999)] = ftl.live_ppn_of(fp(0))
        assert kinds_of(audit(ftl)) == {"dedup.live-index"}


class TestStrandedPlane:
    def test_room_only_behind_the_gc_block(self):
        """A drive below the viability floor ends with its plane's only
        room in the GC block's tail, out of a host write's reach, and its
        only garbage in a victim too full to relocate there: every write
        raises, and the audit names the stranded plane."""
        config = SSDConfig(
            channels=1, chips_per_channel=1, dies_per_chip=1,
            planes_per_die=1, blocks_per_plane=8, pages_per_block=4,
            overprovision=0.15,
        )
        ftl = BaseFTL(config)
        for lpn in range(config.logical_pages):
            ftl.write(lpn, fp(lpn))
        with pytest.raises(OutOfSpaceError):
            for i in range(config.total_pages * 4):
                ftl.write(i % config.logical_pages, fp(10_000 + i))
        allocator = ftl.allocator
        assert allocator.free_block_count(0) == 0
        assert allocator.writable_pages(0) > 0  # the GC block's tail
        assert kinds_of(audit(ftl)) == {"gc.stranded-plane"}
        with pytest.raises(OutOfSpaceError):
            ftl.write(0, fp(1))


class TestCheckerHarness:
    def test_interval_validated(self):
        with pytest.raises(ValueError):
            InvariantChecker(interval=0)

    def test_audits_fire_on_interval(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=MQDeadValuePool(32))
        checker = InvariantChecker(interval=10)
        ftl.attach_checker(checker)
        for i in range(25):
            ftl.write(i % 8, fp(i))
        assert checker.events == 25
        assert checker.audits == 2

    def test_checker_raises_on_live_corruption(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        ftl.attach_checker(InvariantChecker(interval=5))
        ftl.array.valid_pages += 3  # skew the conservation law
        with pytest.raises(InvariantViolation) as excinfo:
            ftl.write(0, fp(12345))
        assert excinfo.value.kind == "array.accounting"
        assert "accounted" in excinfo.value.diff

    def test_violation_message_carries_diff(self):
        violation = InvariantViolation(
            "pool.orphan-ppn", "detail text", {"ppn": 7}
        )
        assert "[pool.orphan-ppn]" in str(violation)
        assert "ppn = 7" in str(violation)

    def test_gc_hook_fires(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=MQDeadValuePool(32))
        ftl.attach_checker(InvariantChecker(interval=10_000))
        for i in range(2500):
            ftl.write(i % 20, fp(i))
        assert ftl.counters.gc_erases > 0
        assert ftl.checker.gc_checks > 0


class TestOracle:
    def test_lockstep_matches_device(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=MQDeadValuePool(32))
        oracle = OracleFTL()
        ftl.attach_checker(InvariantChecker(interval=50, oracle=oracle))
        for i in range(200):
            ftl.write(i % 16, fp(i % 5))
            ftl.read(i % 16)
        ftl.trim(3)
        assert oracle.value_at(3) is None
        assert len(oracle) == len(ftl.mapping.forward_items())

    def test_sync_from_adopts_prefilled_state(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        oracle = OracleFTL()
        oracle.sync_from(ftl)
        assert len(oracle) == len(ftl.mapping.forward_items())
        lpn = next(iter(ftl.mapping.forward_items()))
        assert oracle.value_at(lpn) == ftl._ppn_fp[ftl.mapping.lookup(lpn)]

    def test_detects_lost_data(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        oracle = OracleFTL()
        ftl.attach_checker(InvariantChecker(interval=10_000, oracle=oracle))
        lpn = next(iter(ftl.mapping.forward_items()))
        # Silently drop the mapping: the next read returns the zero page
        # where the oracle knows data was written.
        ftl.mapping.unmap(lpn)
        with pytest.raises(InvariantViolation) as excinfo:
            ftl.read(lpn)
        assert excinfo.value.kind == "oracle.read"

    def test_detects_wrong_revival(self, tiny_config):
        ftl = healthy_ftl(tiny_config)
        oracle = OracleFTL()
        ftl.attach_checker(InvariantChecker(interval=10_000, oracle=oracle))
        # Corrupt the content index under every page the pool tracks for
        # one fingerprint, then write that fingerprint: whichever page
        # the pool revives serves the wrong bytes.
        target_fp = next(iter(ftl.pool.tracked_items()))[0]
        for pool_fp, ppn in list(ftl.pool.tracked_items()):
            if pool_fp == target_fp:
                ftl._ppn_fp[ppn] = fp(424242)
        with pytest.raises(InvariantViolation) as excinfo:
            ftl.write(1, target_fp)
        assert excinfo.value.kind in ("oracle.revival", "oracle.program")
