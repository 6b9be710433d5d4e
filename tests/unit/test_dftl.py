"""Unit tests for the demand-paged (DFTL-style) mapping layer."""

import pytest

from repro.check import InvariantChecker, audit
from repro.core.dvp import InfiniteDeadValuePool
from repro.core.hashing import fingerprint_of_value as fp
from repro.ftl.dftl import (
    ENTRIES_PER_TRANSLATION_PAGE,
    CachedMappingTable,
    DFTLFtl,
)
from repro.sim.request import IORequest, OpType
from repro.sim.ssd import SimulatedSSD

from ..reference import ReferenceDFTLFtl


class TestCachedMappingTable:
    def test_first_access_misses(self):
        cmt = CachedMappingTable(4)
        assert cmt.access(0, dirty=False) == (1, 0)
        assert cmt.stats.misses == 1

    def test_second_access_hits(self):
        cmt = CachedMappingTable(4)
        cmt.access(0, dirty=False)
        assert cmt.access(0, dirty=True) == (0, 0)
        assert cmt.stats.hits == 1

    def test_clean_eviction_is_free(self):
        cmt = CachedMappingTable(2)
        cmt.access(0, dirty=False)
        cmt.access(1, dirty=False)
        reads, writes = cmt.access(2, dirty=False)
        assert (reads, writes) == (1, 0)

    def test_dirty_eviction_writes_back(self):
        cmt = CachedMappingTable(2)
        cmt.access(0, dirty=True)
        cmt.access(1, dirty=False)
        reads, writes = cmt.access(2, dirty=False)
        assert (reads, writes) == (1, 1)
        assert cmt.stats.writebacks == 1

    def test_batched_writeback_cleans_siblings(self):
        """Evicting one dirty entry programs its translation page once and
        cleans every cached entry of the same page."""
        cmt = CachedMappingTable(3)
        cmt.access(0, dirty=True)   # tpage 0
        cmt.access(1, dirty=True)   # tpage 0 (sibling)
        cmt.access(5000, dirty=False)
        _, writes = cmt.access(6000, dirty=False)  # evicts lpn 0 (dirty)
        assert writes == 1
        # sibling entry 1 is now clean: evicting it costs nothing
        _, writes = cmt.access(7000, dirty=False)  # evicts lpn 1
        assert writes == 0

    def test_translation_page_of(self):
        assert CachedMappingTable.translation_page_of(0) == 0
        assert CachedMappingTable.translation_page_of(
            ENTRIES_PER_TRANSLATION_PAGE
        ) == 1

    def test_flush(self):
        cmt = CachedMappingTable(8)
        cmt.access(0, dirty=True)                            # tpage 0
        cmt.access(ENTRIES_PER_TRANSLATION_PAGE, dirty=True)  # tpage 1
        assert cmt.flush() == 2
        assert cmt.flush() == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CachedMappingTable(0)

    def test_hit_rate(self):
        cmt = CachedMappingTable(4)
        cmt.access(0, dirty=False)
        cmt.access(0, dirty=False)
        assert cmt.stats.hit_rate == 0.5

    def test_update_in_place_is_not_a_host_hit(self):
        """Regression: GC-internal CMT touches used to go through
        ``access``, inflating ``hit_rate`` with traffic the host never
        issued."""
        cmt = CachedMappingTable(4)
        cmt.access(0, dirty=False)
        cmt.update_in_place(0)
        assert cmt.stats.hits == 0
        assert cmt.stats.gc_updates == 1
        assert cmt.stats.hit_rate == 0.0
        # ...but the entry did become dirty: evicting it writes back.
        cmt2 = CachedMappingTable(1)
        cmt2.access(0, dirty=False)
        cmt2.update_in_place(0)
        _, writes = cmt2.access(1, dirty=False)
        assert writes == 1

    def test_update_in_place_does_not_promote_to_mru(self):
        """Regression: the old path promoted GC-touched entries to MRU,
        letting background GC evict the host's genuinely hot entries."""
        cmt = CachedMappingTable(2)
        cmt.access(0, dirty=False)   # LRU after the next access
        cmt.access(1, dirty=False)   # MRU (host-hot)
        cmt.update_in_place(0)       # GC touch must NOT refresh recency
        cmt.access(2, dirty=False)   # evicts exactly one entry
        assert 0 not in cmt          # GC-touched entry stayed LRU
        assert 1 in cmt              # host-hot entry survived

    def test_update_in_place_uncached_is_noop(self):
        cmt = CachedMappingTable(2)
        cmt.update_in_place(42)
        assert len(cmt) == 0
        assert cmt.stats.gc_updates == 0
        assert cmt.stats.misses == 0


class RecordingChecker(InvariantChecker):
    """Notes each outcome's translation traffic as the checker sees it."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def after_write(self, ftl, lpn, fp, outcome):
        self.seen.append(
            (outcome.translation_reads, outcome.translation_writes)
        )
        super().after_write(ftl, lpn, fp, outcome)

    def after_read(self, ftl, lpn, outcome):
        self.seen.append(
            (outcome.translation_reads, outcome.translation_writes)
        )
        super().after_read(ftl, lpn, outcome)


class TestDFTLFtl:
    @pytest.mark.parametrize(
        "cls", [DFTLFtl, ReferenceDFTLFtl], ids=["fused", "per-call"]
    )
    def test_checker_sees_translation_traffic(self, tiny_config, cls):
        """The CMT is touched before the write or read runs, so the
        checker already sees the traffic the outcome reports."""
        ftl = cls(tiny_config, cmt_entries=4)
        ftl.attach_checker(RecordingChecker())
        returned = []
        for i in range(40):
            lpn = (i * 7) % 24
            out = ftl.write(lpn, fp(i))
            returned.append((out.translation_reads, out.translation_writes))
            out = ftl.read(lpn + 1)
            returned.append((out.translation_reads, out.translation_writes))
        assert ftl.checker.seen == returned
        assert any(reads for reads, _ in returned)
        assert any(writes for _, writes in returned)

    def test_write_reports_translation_traffic(self, tiny_config):
        ftl = DFTLFtl(tiny_config, cmt_entries=4)
        outcome = ftl.write(0, fp(1))
        assert outcome.translation_reads == 1  # cold CMT
        second = ftl.write(0, fp(2))
        assert second.translation_reads == 0   # now cached

    def test_read_reports_translation_traffic(self, tiny_config):
        ftl = DFTLFtl(tiny_config, cmt_entries=4)
        ftl.write(0, fp(1))
        out = ftl.read(0)
        assert out.translation_reads == 0      # entry cached by the write
        far = ftl.read(600)                    # different translation page
        assert far.translation_reads == 1

    def test_default_cmt_sized_to_logical_space(self, tiny_config):
        ftl = DFTLFtl(tiny_config)
        assert ftl.translation.capacity >= ENTRIES_PER_TRANSLATION_PAGE

    def test_data_path_unchanged(self, tiny_config):
        """The CMT adds cost, never different data placement."""
        from repro.ftl.ftl import BaseFTL

        plain = BaseFTL(tiny_config)
        dftl = DFTLFtl(tiny_config, cmt_entries=8)
        for i in range(300):
            lpn, value = i % 50, fp(i % 20)
            a = plain.write(lpn, value)
            b = dftl.write(lpn, value)
            assert a.program_ppn == b.program_ppn
        assert not audit(dftl)

    def test_composes_with_dead_value_pool(self, tiny_config):
        ftl = DFTLFtl(
            tiny_config, pool=InfiniteDeadValuePool(), cmt_entries=16
        )
        ftl.write(0, fp(1))
        ftl.write(0, fp(2))
        outcome = ftl.write(1, fp(1))
        assert outcome.short_circuited

    def test_gc_marks_relocated_translations_dirty(self, tiny_config):
        ftl = DFTLFtl(tiny_config, cmt_entries=1024)
        ws = tiny_config.logical_pages // 2
        for i in range(tiny_config.total_pages * 2):
            ftl.write(i % ws, fp(1_000 + i))
        assert ftl.counters.gc_erases > 0
        assert not audit(ftl)

    def test_gc_touches_split_out_of_host_stats(self, tiny_config):
        """Regression: GC relocations no longer count as host hits, so
        hits+misses equals exactly the host ops issued.

        Hot overwrites interleaved with live cold data force victims
        with live pages, so GC actually relocates (a pure sequential
        overwrite produces only fully-dead victims)."""
        ftl = DFTLFtl(tiny_config, cmt_entries=1024)
        cold, host_ops = 100, 0
        for i in range(tiny_config.total_pages * 3):
            if i % 8 == 0 and cold < 300:
                ftl.write(cold, fp(10_000 + cold))
                cold += 1
            else:
                ftl.write(i % 8, fp(2_000 + i))
            host_ops += 1
        assert ftl.counters.gc_relocations > 0
        stats = ftl.translation.stats
        assert stats.gc_updates > 0
        assert stats.hits + stats.misses == host_ops
        assert not audit(ftl)

    def test_simulator_charges_translation_ops(self, tiny_config):
        ftl = DFTLFtl(tiny_config, cmt_entries=4)
        device = SimulatedSSD(ftl)
        done = device.submit(IORequest(0.0, OpType.WRITE, 0, 1))
        t = tiny_config.timing
        # mapping + translation-page read + xfer + program + xfer
        floor = (
            t.mapping_us + t.read_us + t.channel_xfer_us
            + t.program_us + t.channel_xfer_us
        )
        assert done.latency_us >= floor

    def test_cmt_misses_make_dftl_slower_than_flat(self, tiny_config):
        from repro.ftl.ftl import BaseFTL

        def total_latency(ftl):
            device = SimulatedSSD(ftl)
            total = 0.0
            # widely-spread LPNs so the tiny CMT keeps missing
            for i in range(60):
                done = device.submit(IORequest(
                    i * 10_000.0, OpType.WRITE, (i * 37) % 600, i,
                ))
                total += done.latency_us
            return total

        flat = total_latency(BaseFTL(tiny_config))
        paged = total_latency(DFTLFtl(tiny_config, cmt_entries=4))
        assert paged > flat
