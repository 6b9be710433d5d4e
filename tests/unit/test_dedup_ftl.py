"""Unit tests for the deduplicating FTL and DVP+Dedup composition."""

import pytest

from repro.check import audit
from repro.core.dvp import MQDeadValuePool
from repro.core.hashing import fingerprint_of_value as fp
from repro.flash.block import PageState
from repro.ftl.dedup import DedupFTL


@pytest.fixture
def dedup(tiny_config):
    return DedupFTL(tiny_config)


@pytest.fixture
def dvp_dedup(tiny_config):
    return DedupFTL(tiny_config, pool=MQDeadValuePool(64))


class TestLiveDedup:
    def test_duplicate_write_is_pointer_only(self, dedup):
        first = dedup.write(0, fp(1))
        second = dedup.write(1, fp(1))
        assert first.programmed
        assert second.dedup_hit
        assert not second.programmed
        assert dedup.counters.dedup_hits == 1
        assert dedup.mapping.lookup(0) == dedup.mapping.lookup(1)
        assert dedup.mapping.refcount(first.program_ppn) == 2

    def test_hashing_always_on(self, dedup):
        assert dedup.write(0, fp(1)).hashed
        assert dedup.content_aware

    def test_page_dies_only_at_refcount_zero(self, dedup):
        first = dedup.write(0, fp(1))
        dedup.write(1, fp(1))
        dedup.write(0, fp(2))     # refcount 2 -> 1
        assert dedup.array.state_of(first.program_ppn) is PageState.VALID
        assert dedup.counters.invalidations == 0
        dedup.write(1, fp(3))     # refcount 1 -> 0: death
        assert dedup.array.state_of(first.program_ppn) is PageState.INVALID
        assert dedup.counters.invalidations == 1

    def test_live_index_tracks_values(self, dedup):
        dedup.write(0, fp(1))
        dedup.write(1, fp(2))
        assert dedup.live_value_count() == 2
        dedup.write(0, fp(2))  # fp(1) dies
        assert dedup.live_value_count() == 1
        assert dedup.live_ppn_of(fp(1)) is None

    def test_rewrite_same_content_same_lpn_is_noop(self, dedup):
        first = dedup.write(0, fp(1))
        second = dedup.write(0, fp(1))
        assert second.dedup_hit
        assert dedup.mapping.lookup(0) == first.program_ppn
        assert dedup.counters.programs == 1


class TestFigure13Semantics:
    """The Figure 13 timeline: Dedup covers writes while 'D' is live;
    DVP+Dedup also covers the window after D's death (t3 .. t4)."""

    def test_dedup_alone_reprograms_after_death(self, dedup):
        dedup.write(0, fp(100))      # t0: D written
        dedup.write(1, fp(100))      # W2: dedup hit
        dedup.write(2, fp(100))      # W3: dedup hit
        dedup.write(0, fp(1)); dedup.write(1, fp(2)); dedup.write(2, fp(3))
        # D is now garbage.  A dedup-only store must program again:
        w4 = dedup.write(3, fp(100))
        assert w4.programmed
        assert not w4.dedup_hit

    def test_dvp_dedup_revives_after_death(self, dvp_dedup):
        d0 = dvp_dedup.write(0, fp(100))
        dvp_dedup.write(1, fp(100))
        dvp_dedup.write(2, fp(100))
        dvp_dedup.write(0, fp(1))
        dvp_dedup.write(1, fp(2))
        dvp_dedup.write(2, fp(3))    # D dies here (refcount 0)
        w4 = dvp_dedup.write(3, fp(100))
        assert w4.short_circuited
        assert w4.revived_ppn == d0.program_ppn
        assert dvp_dedup.live_ppn_of(fp(100)) == d0.program_ppn


class TestDVPDedupCoherence:
    def test_revived_page_rejoins_live_index(self, dvp_dedup):
        dvp_dedup.write(0, fp(1))
        dvp_dedup.write(0, fp(2))           # fp(1) dies
        dvp_dedup.write(1, fp(1))           # revived
        third = dvp_dedup.write(2, fp(1))   # now a plain dedup hit
        assert third.dedup_hit

    def test_gc_keeps_live_index_valid(self, tiny_config):
        ftl = DedupFTL(tiny_config, pool=MQDeadValuePool(64))
        ws = tiny_config.logical_pages // 2
        for i in range(tiny_config.total_pages * 2):
            ftl.write(i % ws, fp(1000 + i))
        assert not audit(ftl)
        assert ftl.counters.gc_erases > 0

    def test_dedup_reduces_programs_vs_plain(self, tiny_config):
        from repro.ftl.ftl import BaseFTL

        plain = BaseFTL(tiny_config)
        dedup = DedupFTL(tiny_config)
        ws = tiny_config.logical_pages // 2
        for i in range(600):
            lpn, value = i % ws, fp(i % 7)
            plain.write(lpn, value)
            dedup.write(lpn, value)
        assert dedup.counters.programs < plain.counters.programs
