"""Unit tests for the base FTL: writes, updates, revival, GC interplay."""

import pytest

from repro.core.dvp import InfiniteDeadValuePool, MQDeadValuePool
from repro.core.hashing import fingerprint_of_value as fp
from repro.faults import FaultConfig, FaultModel
from repro.flash.block import PageState
from repro.ftl.dedup import DedupFTL
from repro.ftl.dftl import DFTLFtl
from repro.ftl.dvp_ftl import SYSTEMS, build_system
from repro.ftl.ftl import BaseFTL

from ..reference import as_reference


@pytest.fixture
def ftl(tiny_config):
    return BaseFTL(tiny_config)


@pytest.fixture
def dvp_ftl(tiny_config):
    return BaseFTL(tiny_config, pool=InfiniteDeadValuePool())


class TestBasicWriteRead:
    def test_write_programs_a_page(self, ftl):
        outcome = ftl.write(0, fp(1))
        assert outcome.programmed
        assert not outcome.hashed          # baseline has no hashing
        assert ftl.counters.programs == 1
        assert ftl.mapping.lookup(0) == outcome.program_ppn

    def test_read_mapped_page(self, ftl):
        out_w = ftl.write(0, fp(1))
        out_r = ftl.read(0)
        assert out_r.flash_read
        assert out_r.ppn == out_w.program_ppn
        assert ftl.counters.flash_reads == 1

    def test_read_unmapped_is_free(self, ftl):
        out = ftl.read(5)
        assert not out.flash_read
        assert ftl.counters.flash_reads == 0

    def test_lpn_bounds_enforced(self, ftl, tiny_config):
        with pytest.raises(ValueError):
            ftl.write(tiny_config.logical_pages, fp(1))
        with pytest.raises(ValueError):
            ftl.read(-1)

    def test_update_invalidates_old_page(self, ftl):
        first = ftl.write(0, fp(1))
        ftl.write(0, fp(2))
        assert ftl.array.state_of(first.program_ppn) is PageState.INVALID
        assert ftl.counters.invalidations == 1

    def test_write_clock_counts_writes(self, ftl):
        ftl.write(0, fp(1))
        ftl.read(0)
        ftl.write(1, fp(2))
        assert ftl.write_clock == 2

    def test_popularity_tracked_per_value(self, ftl):
        for _ in range(3):
            ftl.write(0, fp(7))
        assert ftl.write_popularity_of(fp(7)) == 3
        assert ftl.mapping.popularity(0) == 3


class TestDeadValuePoolIntegration:
    def test_death_inserts_into_pool(self, dvp_ftl):
        first = dvp_ftl.write(0, fp(1))
        dvp_ftl.write(0, fp(2))
        assert fp(1) in dvp_ftl.pool
        assert dvp_ftl.pool.stats.insertions == 1

    def test_rebirth_short_circuits_write(self, dvp_ftl):
        first = dvp_ftl.write(0, fp(1))
        dvp_ftl.write(0, fp(2))              # fp(1) dies
        outcome = dvp_ftl.write(1, fp(1))    # fp(1) reborn
        assert outcome.short_circuited
        assert outcome.revived_ppn == first.program_ppn
        assert not outcome.programmed
        assert dvp_ftl.counters.short_circuits == 1
        assert dvp_ftl.array.state_of(first.program_ppn) is PageState.VALID
        assert dvp_ftl.mapping.lookup(1) == first.program_ppn

    def test_revived_page_leaves_pool(self, dvp_ftl):
        dvp_ftl.write(0, fp(1))
        dvp_ftl.write(0, fp(2))
        dvp_ftl.write(1, fp(1))
        assert fp(1) not in dvp_ftl.pool

    def test_same_content_overwrite_revives_in_place(self, dvp_ftl):
        """Rewriting identical content to the same LPN: the dying copy is
        itself the rebirth candidate — zero flash programs."""
        first = dvp_ftl.write(0, fp(1))
        outcome = dvp_ftl.write(0, fp(1))
        assert outcome.short_circuited
        assert outcome.revived_ppn == first.program_ppn
        assert dvp_ftl.mapping.lookup(0) == first.program_ppn
        assert dvp_ftl.counters.programs == 1

    def test_content_aware_writes_are_hashed(self, dvp_ftl):
        assert dvp_ftl.write(0, fp(1)).hashed

    def test_read_data_integrity_through_revival(self, dvp_ftl):
        """After any mix of writes, each LPN's mapped page must hold the
        fingerprint most recently written to it."""
        dvp_ftl.write(0, fp(1))
        dvp_ftl.write(0, fp(2))
        dvp_ftl.write(1, fp(1))   # revival
        dvp_ftl.write(2, fp(2))
        assert dvp_ftl.fingerprint_at(dvp_ftl.mapping.lookup(0)) == fp(2)
        assert dvp_ftl.fingerprint_at(dvp_ftl.mapping.lookup(1)) == fp(1)
        assert dvp_ftl.fingerprint_at(dvp_ftl.mapping.lookup(2)) == fp(2)

    def test_pool_popularity_comes_from_write_counts(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=MQDeadValuePool(64))
        for _ in range(5):
            ftl.write(0, fp(9))   # popularity of value 9 climbs
        ftl.write(0, fp(1))       # fp(9) dies, inserted with popularity 6?
        entry = ftl.pool.mq.entry(fp(9))
        assert entry is not None
        assert entry.popularity >= 5


class TestGCIntegration:
    def _churn(self, ftl, tiny_config, writes):
        """Overwrite a small working set to force GC."""
        ws = tiny_config.logical_pages // 2
        for i in range(writes):
            ftl.write(i % ws, fp(1_000_000 + i))

    def test_gc_triggers_under_churn(self, ftl, tiny_config):
        self._churn(ftl, tiny_config, tiny_config.total_pages * 2)
        assert ftl.counters.gc_erases > 0
        ftl.check_invariants()

    def test_gc_preserves_mapping_integrity(self, ftl, tiny_config):
        self._churn(ftl, tiny_config, tiny_config.total_pages * 2)
        ws = tiny_config.logical_pages // 2
        for lpn in range(ws):
            ppn = ftl.mapping.lookup(lpn)
            assert ppn is not None
            assert ftl.array.state_of(ppn) is PageState.VALID

    def test_gc_discards_pool_entries_of_erased_pages(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=InfiniteDeadValuePool())
        self._churn(ftl, tiny_config, tiny_config.total_pages * 2)
        # every pool-tracked PPN must still be a real INVALID page
        pool = ftl.pool
        for fp_key, entry in list(pool._entries.items()):
            for ppn in entry.ppns:
                assert ftl.array.state_of(ppn) is PageState.INVALID
        assert pool.stats.gc_removals > 0

    def test_relocation_counter_matches_work(self, ftl, tiny_config):
        self._churn(ftl, tiny_config, tiny_config.total_pages * 2)
        assert ftl.counters.gc_relocations >= 0
        assert ftl.counters.gc_erases > 0

    def test_popularity_aware_gc_runs(self, tiny_config):
        ftl = BaseFTL(
            tiny_config, pool=MQDeadValuePool(64), popularity_aware_gc=True
        )
        self._churn(ftl, tiny_config, tiny_config.total_pages * 2)
        assert ftl.counters.gc_erases > 0
        ftl.check_invariants()


class TestReadPopularity:
    def test_reads_tracked_when_enabled(self, tiny_config):
        from repro.core.dvp import LBARecencyPool

        ftl = BaseFTL(
            tiny_config, pool=LBARecencyPool(16), combine_read_popularity=True
        )
        ftl.write(0, fp(1))
        for _ in range(4):
            ftl.read(0)
        assert ftl._read_popularity[fp(1)] == 4

    def test_reads_not_tracked_by_default(self, dvp_ftl):
        dvp_ftl.write(0, fp(1))
        dvp_ftl.read(0)
        assert fp(1) not in dvp_ftl._read_popularity


def twin_drives(tiny_config, system, setup):
    """A ``system`` drive (base, dedup or dftl over an MQ pool) and its
    per-call reference model, each passed through ``setup``."""
    drives = []
    for make in (lambda ftl: ftl, as_reference):
        pool = MQDeadValuePool(64)
        if system == "dedup":
            ftl = DedupFTL(tiny_config, pool=pool)
        elif system == "dftl":
            ftl = DFTLFtl(tiny_config, pool=pool)
        else:
            ftl = BaseFTL(tiny_config, pool=pool)
        drives.append(setup(make(ftl)))
    return drives


def arm(system):
    """The drive setup of ``system``: faults, a checker or read-only."""
    def setup(ftl):
        if system == "faults":
            ftl.attach_faults(FaultModel(FaultConfig(
                seed=0, program_failure_prob=0.05, erase_failure_prob=0.05,
            )))
        elif system == "checker":
            from repro.check import InvariantChecker

            ftl.attach_checker(InvariantChecker())
        elif system == "read-only":
            ftl.enter_read_only()
        return ftl
    return setup


class TestWriteRouting:
    """Every write runs the one fused path: plain ``BaseFTL``, dedup and
    DFTL (data slots, not overrides), a fault-injected or read-only
    drive, and a ``setattr``-wrapped ``write`` (which sees every call)
    all leave exactly what the per-call reference model leaves."""

    @staticmethod
    def _churn(ftl, config):
        """Three overwrite passes: fresh values force GC, and every fourth
        LPN flips between two shared values, which revives dead copies."""
        outcomes = []
        for rnd in range(3):
            for lpn in range(config.logical_pages):
                value = rnd % 2 if lpn % 4 == 0 else 1000 * (rnd + 1) + lpn
                outcomes.append(ftl.write(lpn, fp(value)))
        return outcomes

    @staticmethod
    def _count(monkeypatch, owner, attr):
        calls = []
        original = owner.__dict__[attr]

        def counted(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(owner, attr, counted)
        return calls

    @pytest.mark.parametrize("system", [
        "base", "dedup", "dftl", "faults", "read-only", "wrapped-write",
    ])
    def test_which_writes_run_fused(self, tiny_config, monkeypatch, system):
        ftl, reference = twin_drives(tiny_config, system, arm(system))
        calls = None
        if system == "wrapped-write":
            # What a layer probe does: wrap the class attribute in place.
            calls = self._count(monkeypatch, BaseFTL, "write")
        hashed = ftl.content_aware and not ftl.read_only
        outcome = ftl.write(0, fp(1))
        assert outcome == reference.write(0, fp(1))
        assert self._churn(ftl, tiny_config) == self._churn(
            reference, tiny_config
        )
        assert ftl.counters == reference.counters
        assert list(ftl.mapping.forward_items().items()) == list(
            reference.mapping.forward_items().items()
        )
        assert outcome.hashed == hashed
        if system == "faults":
            assert ftl.faults.stats.summary() == (
                reference.faults.stats.summary()
            )
            assert ftl.faults.stats.program_failures > 0
        if calls is not None:
            assert len(calls) == ftl.counters.host_writes

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_every_system_runs_fused(self, tiny_config, system):
        """Every in-tree system preloads in the bulk loop on a fault-free
        drive, and its writes and trims keep the drive consistent."""
        preloaded = build_system(system, tiny_config, 64)
        fallback = []
        preloaded.write = lambda lpn, value: fallback.append(lpn)
        pages = tiny_config.logical_pages // 2
        assert preloaded.preload(
            fp(1000 + lpn) for lpn in range(pages)
        ) == pages
        assert fallback == []
        preloaded.check_invariants()
        ftl = build_system(system, tiny_config, 64)
        self._churn(ftl, tiny_config)
        for lpn in range(0, tiny_config.logical_pages, 3):
            ftl.trim(lpn)
        assert ftl.counters.gc_erases > 0 and ftl.counters.host_trims > 0
        ftl.check_invariants()


class TestTrimRouting:
    """Every trim runs the one fused path: plain ``BaseFTL``, dedup and
    DFTL, with faults, a checker or a read-only drive, and a wrapped
    ``trim`` or ``write``; each leaves what the per-call reference model
    leaves."""

    @pytest.mark.parametrize("system", [
        "base", "dedup", "dftl", "faults", "checker", "read-only",
        "wrapped-trim", "wrapped-write", "wrapped-invalidate",
    ])
    def test_which_trims_run_fused(self, tiny_config, monkeypatch, system):
        ftl, reference = twin_drives(tiny_config, system, lambda ftl: ftl)
        for drive in (ftl, reference):
            for lpn in range(0, tiny_config.logical_pages, 3):
                drive.write(lpn, fp(lpn % 5))
            arm(system)(drive)
        calls = None
        if system.startswith("wrapped-"):
            attr = {"wrapped-trim": "trim", "wrapped-write": "write",
                    "wrapped-invalidate": "_kill_fused"}[system]
            calls = TestWriteRouting._count(monkeypatch, BaseFTL, attr)
        invalidations = ftl.counters.invalidations
        for drive in (ftl, reference):
            for lpn in range(0, tiny_config.logical_pages, 2):
                drive.trim(lpn)
        trims = ftl.counters.host_trims
        assert trims == len(range(0, tiny_config.logical_pages, 2))
        assert ftl.counters == reference.counters
        assert ftl._oob_trims == reference._oob_trims
        assert ftl._oob_seq == reference._oob_seq
        assert list(ftl.pool.tracked_items()) == list(
            reference.pool.tracked_items()
        )
        if system == "wrapped-trim":
            assert len(calls) == trims
        elif system == "wrapped-invalidate":
            # One kill per trimmed LPN that was mapped: the LPNs that are
            # multiples of both 2 and 3.
            kills = ftl.counters.invalidations - invalidations
            assert len(calls) == kills == len(
                range(0, tiny_config.logical_pages, 6)
            )

    def test_fused_trim_keeps_content_revivable(self, tiny_config):
        ftl = BaseFTL(tiny_config, pool=MQDeadValuePool(64))
        ppn = ftl.write(7, fp(42)).program_ppn
        ftl.trim(7)
        ftl.trim(7)   # already unmapped: journalled, nothing dies twice
        assert ftl.mapping.lookup(7) is None
        assert ftl.counters.invalidations == 1
        assert ftl._oob_trims[7] == ftl._oob_seq
        assert ftl.write(9, fp(42)).revived_ppn == ppn
        ftl.check_invariants()

    def test_out_of_range_trim_raises(self, tiny_config):
        ftl = BaseFTL(tiny_config)
        with pytest.raises(ValueError, match="outside exported capacity"):
            ftl.trim(tiny_config.logical_pages)


class TestOOBAllocation:
    """The OOB journal is two per-PPN int columns, so a program, revival
    or relocation leaves no GC-tracked object behind (a tuple per program
    fed CPython's cyclic collector inside replay)."""

    def test_writes_leave_no_tracked_objects(self, small_config):
        import gc
        import random

        writes = 10_000
        ftl = BaseFTL(small_config)
        rng = random.Random(7)
        ops = [(rng.randrange(small_config.logical_pages), fp(value))
               for value in range(writes)]
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            for lpn, value in ops:
                ftl.write(lpn, value)
            # Counted before the next collection: a full collection
            # untracks tuples of plain ints, which would hide exactly the
            # per-program objects that trigger collections in replay.
            after = len(gc.get_objects())
        finally:
            if was_enabled:
                gc.enable()
        assert ftl.counters.gc_relocations > 0
        assert after - before < writes // 100
        ftl.check_invariants()
