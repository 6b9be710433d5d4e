"""The Flash Translation Layer, with optional dead-value pool integration.

:class:`BaseFTL` implements the paper's FTL (Section IV): page-level
LPN→PPN mapping, out-of-place updates, watermark-driven garbage collection
and — when constructed with a :class:`~repro.core.dvp.DeadValuePool` — the
full MQ-DVP write/update/eviction/GC protocol of Section IV-C/D:

* **Writes**: the content hash is computed and looked up in the pool; on a
  hit, the matching garbage page is flipped back to valid and the LPN is
  remapped to it — the program operation is skipped entirely.  On a miss
  the write takes the normal path.  Popularity is updated either way.
* **Updates**: the page previously mapped at the LPN is invalidated and its
  (hash, PPN, popularity) inserted into the pool.
* **GC**: erasing a block removes its garbage pages from the pool; victim
  selection can be made popularity-aware (Section IV-D) so blocks rich in
  popular garbage are spared.

Systems from the paper map onto constructor arguments (see
:mod:`repro.ftl.dvp_ftl` for ready-made factories): Baseline has no pool;
MQ-DVP uses :class:`MQDeadValuePool`; Ideal uses the infinite pool; LX-SSD
uses the LBA-recency pool with combined read+write popularity.
"""

from __future__ import annotations

import itertools
from array import array as _array
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from ..core.dvp import DeadValuePool
from ..core.hashing import Fingerprint
from ..flash.array import FlashArray
from ..flash.block import PageState
from ..flash.config import SSDConfig
from .allocator import BadBlockManager, PageAllocator

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from ..faults.model import FaultModel
    from .dftl import CachedMappingTable
from .gc import (
    GarbageCollector,
    GCWork,
    GreedyVictimPolicy,
    PopularityAwareVictimPolicy,
)
from .mapping import MappingTable, POPULARITY_MAX, _unmapped_column
from .wear import WearTracker

__all__ = ["FTLCounters", "WriteOutcome", "ReadOutcome", "BaseFTL"]

#: ``Block.states`` bytes the fused write path tests and sets directly.
_VALID = PageState.VALID.value
_INVALID = PageState.INVALID.value


@dataclass
class FTLCounters:
    """Everything the evaluation section reports, counted exactly once."""

    host_writes: int = 0
    host_reads: int = 0
    programs: int = 0            # actual flash page programs (host data)
    short_circuits: int = 0      # writes served by reviving garbage (DVP)
    dedup_hits: int = 0          # writes removed by live-value dedup
    invalidations: int = 0       # value deaths (pages turned to garbage)
    host_trims: int = 0
    flash_reads: int = 0
    gc_relocations: int = 0      # GC valid-page moves (each = read+program)
    gc_erases: int = 0

    @property
    def total_programs(self) -> int:
        """Host programs plus GC relocation programs (drive write traffic)."""
        return self.programs + self.gc_relocations


@dataclass(slots=True)
class WriteOutcome:
    """What one host write physically did (the simulator prices this)."""

    lpn: int
    hashed: bool = False
    short_circuited: bool = False
    dedup_hit: bool = False
    program_ppn: Optional[int] = None
    revived_ppn: Optional[int] = None
    #: PPN read back to byte-verify a hash match (set when verify_hits).
    verify_read_ppn: Optional[int] = None
    #: Translation-page traffic (only the demand-paged DFTL variant sets
    #: these; see repro.ftl.dftl).
    translation_reads: int = 0
    translation_writes: int = 0
    #: Fault layer: PPNs burned by failed program attempts (each still
    #: costs a full program latency), and whether the write was dropped
    #: (retries exhausted, or the drive is read-only).  ``None`` rather
    #: than an empty list keeps the fault-free hot path allocation-free.
    failed_program_ppns: Optional[List[int]] = None
    rejected: bool = False
    #: Collection work the write triggered; ``None`` (not an empty
    #: ``GCWork``) on the common no-GC path keeps host writes
    #: allocation-free.
    gc: Optional[GCWork] = None

    @property
    def programmed(self) -> bool:
        return self.program_ppn is not None


@dataclass(slots=True)
class ReadOutcome:
    """What one host read physically did."""

    lpn: int
    ppn: Optional[int]   # None → LPN unmapped, served from the zero page
    translation_reads: int = 0
    translation_writes: int = 0

    @property
    def flash_read(self) -> bool:
        return self.ppn is not None


class BaseFTL:
    """Page-mapping FTL with optional dead-value pool.

    Parameters
    ----------
    config:
        Drive geometry and timing.
    pool:
        Dead-value pool, or ``None`` for the baseline system.
    popularity_aware_gc:
        Use the Section IV-D victim metric instead of plain greedy.
    gc_weight:
        Popularity penalty weight of the popularity-aware policy.
    combine_read_popularity:
        Feed read+write popularity into pool insertions — the LX-SSD
        behaviour the paper critiques; the proposal tracks writes only
        (footnote 3).
    wear_levelling:
        Apply the static wear-levelling guard during victim selection
        (blocks far above the mean erase count are deprioritised).
    verify_hits:
        Read the matching page back and byte-compare before trusting a
        16B-hash match (CAFTL's collision safety).  Adds one flash read
        to every revival and dedup hit; the paper assumes collision-free
        hashes, so this is off by default.
    """

    def __init__(
        self,
        config: SSDConfig,
        pool: Optional[DeadValuePool] = None,
        popularity_aware_gc: bool = False,
        gc_weight: float = 1.0,
        combine_read_popularity: bool = False,
        wear_levelling: bool = False,
        wear_guard_margin: int = 8,
        verify_hits: bool = False,
    ):
        self.config = config
        self.array = FlashArray(config)
        self.allocator = PageAllocator(self.array)
        self.mapping = MappingTable(config.logical_pages, config.total_pages)
        # Exported capacity, cached: ``config.logical_pages`` is a derived
        # property chain and ``_check_lpn`` runs on every host operation.
        self._logical_pages = config.logical_pages
        self.pool = pool
        self.combine_read_popularity = combine_read_popularity
        policy = (
            PopularityAwareVictimPolicy(gc_weight)
            if popularity_aware_gc
            else GreedyVictimPolicy()
        )
        self.wear = WearTracker(self.array, guard_margin=wear_guard_margin)
        self.gc = GarbageCollector(
            self.array,
            self.allocator,
            policy,
            delegate=self,
            garbage_popularity_of=self._block_garbage_popularity,
            wear_guard=self.wear.allows_erase if wear_levelling else None,
        )
        self.verify_hits = verify_hits
        if pool is not None:
            pool.drop_listener = self._clear_garbage_pop
        self.counters = FTLCounters()
        self.write_clock = 0
        #: Optional :class:`~repro.check.InvariantChecker`
        #: (``attach_checker`` sets it).  ``None`` keeps the hot paths to
        #: one ``is None`` test per operation.
        self.checker = None
        #: Fault layer (``attach_faults`` sets these).  ``None`` keeps the
        #: fault-free path to one ``is None`` test per program.
        self.faults: Optional["FaultModel"] = None
        self.badblocks: Optional[BadBlockManager] = None
        #: Spare-block pool exhausted: every further host write is rejected.
        self.read_only = False
        # Out-of-band metadata journal: what a real FTL writes into each
        # page's spare area.  Two per-PPN ``array('q')`` columns record
        # which LPN the page was written for and a monotonic sequence
        # number (-1 in both: no record), and ``_oob_trims[lpn]`` the seq
        # at which the LPN was last trimmed.  Flat int columns leave no
        # object behind per program (DESIGN.md §10); readers outside this
        # class go through :meth:`oob_records`.  Crash recovery
        # (repro.faults.recovery) rebuilds the L2P mapping purely from
        # this journal: newest VALID copy per LPN wins.
        self._oob_lpns = _unmapped_column(config.total_pages)
        self._oob_seqs = _unmapped_column(config.total_pages)
        self._oob_trims: Dict[int, int] = {}
        self._oob_seq = 0
        # Content bookkeeping: fingerprint stored at each programmed PPN.
        self._ppn_fp: Dict[int, Fingerprint] = {}
        # Exact per-value write popularity, saturating at the 1-byte budget
        # the paper allots in the LPN-to-PPN table (Section IV-C).
        self._write_popularity: Dict[Fingerprint, int] = {}
        self._read_popularity: Dict[Fingerprint, int] = {}
        # Popularity mass of pool-tracked garbage, per block (GC metric).
        self._block_garbage_pop: Dict[int, int] = {}
        self._garbage_pop_of_ppn: Dict[int, int] = {}
        #: Dedup's live store, value -> the one PPN holding it (``DedupFTL``
        #: sets it), and DFTL's cached mapping table (``DFTLFtl``): data
        #: every path tests with ``is None``, not overrides.
        self._live_index: Optional[Dict[Fingerprint, int]] = None
        self.translation: Optional["CachedMappingTable"] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def content_aware(self) -> bool:
        """Whether writes pay the hashing latency (any content machinery)."""
        return self.pool is not None or self._live_index is not None

    def fingerprint_at(self, ppn: int) -> Optional[Fingerprint]:
        return self._ppn_fp.get(ppn)

    def write_popularity_of(self, fp: Fingerprint) -> int:
        return self._write_popularity.get(fp, 0)

    def _block_garbage_popularity(self, block_global: int) -> int:
        return self._block_garbage_pop.get(block_global, 0)

    def oob_records(self) -> Iterator[Tuple[int, Tuple[int, int]]]:
        """The OOB journal's page records, ``(ppn, (lpn, seq))`` in PPN
        order: the one reader of the per-PPN columns outside this class."""
        lpns = self._oob_lpns
        for ppn, seq in enumerate(self._oob_seqs):
            if seq >= 0:
                yield ppn, (lpns[ppn], seq)

    # ------------------------------------------------------------------
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------

    def attach_faults(self, model: "FaultModel") -> "BaseFTL":
        """Arm fault injection on a live FTL.  Returns ``self``.

        Called *after* prefill, so cached prefill snapshots stay
        fault-free and shareable across fault and fault-free runs.  The
        spare pool is sized per plane — ``spare_block_fraction`` of each
        plane's blocks, at least one — because a spare can only absorb
        retirements in its own plane (see
        :class:`~repro.ftl.allocator.BadBlockManager`).
        """
        self.faults = model
        geometry = self.array.geometry
        spares_per_plane = max(
            1,
            int(
                geometry.blocks_per_plane
                * model.config.spare_block_fraction
            ),
        )
        self.badblocks = BadBlockManager(
            model.stats,
            spares_per_plane=spares_per_plane,
            retire_threshold=model.config.program_failure_retire_threshold,
            plane_of_block=geometry.plane_of_block,
            planes=geometry.total_planes,
        )
        return self

    def enter_read_only(self) -> None:
        """Degrade to read-only (spare-block pool exhausted)."""
        self.read_only = True

    # ------------------------------------------------------------------
    # Correctness tooling (repro.check)
    # ------------------------------------------------------------------

    def attach_checker(self, checker) -> "BaseFTL":
        """Arm an :class:`~repro.check.InvariantChecker` on a live FTL.

        Like ``attach_faults``, safe to call after preconditioning: the
        checker (and its oracle, if any) adopts the current state as the
        audited baseline.  Returns ``self`` for chaining.
        """
        self.checker = checker
        self.gc.checker = checker
        checker.on_attach(self)
        return self

    # ------------------------------------------------------------------
    # Host operations
    # ------------------------------------------------------------------

    def write(self, lpn: int, fp: Fingerprint) -> WriteOutcome:
        """Service one 4KB host write of content ``fp`` at ``lpn``.

        One method runs the whole protocol: the CMT access
        (``translation``), the range check, the read-only rejection, the
        popularity bump, the live-index test (``_live_index``), old-copy
        invalidation (:meth:`_kill_fused`, shared with :meth:`trim`),
        pool lookup/revival, allocation with the fault layer's retries
        (``faults``), ``map`` and the OOB record, with every check an
        illegal state needs (it falls back to the method that raises).
        The pool stays behind its ``lookup_for_write``/``insert_garbage``
        calls, and GC is entered through ``gc.maybe_collect`` whenever
        the target plane is below the watermark.  Each optional layer is a
        slot tested with ``is None``.
        """
        pool = self.pool
        live_index = self._live_index
        outcome = WriteOutcome(lpn)
        translation = self.translation
        if translation is not None:
            # Touched before anything else, even by a write that fails.
            outcome.translation_reads, outcome.translation_writes = (
                translation.access(lpn, dirty=True)
            )
        if not 0 <= lpn < self._logical_pages:
            self._check_lpn(lpn)  # raises
        self.write_clock = clock = self.write_clock + 1
        counters = self.counters
        counters.host_writes += 1
        if self.read_only:
            # End-of-life degradation: the write fails before it touches
            # any state (the old copy at ``lpn`` survives).
            return self._reject(lpn, fp, outcome)
        outcome.hashed = pool is not None or live_index is not None
        mapping = self.mapping
        # Saturating popularity bump; the LPN's popularity byte follows.
        write_pop = self._write_popularity
        popularity = write_pop.get(fp, 0) + 1
        if popularity > POPULARITY_MAX:
            popularity = POPULARITY_MAX
        write_pop[fp] = popularity
        mapping._pop[lpn] = popularity
        if live_index is not None:
            live = live_index.get(fp)
            if live is not None:
                self._dedup_hit(lpn, live, outcome)
                if self.checker is not None:
                    self.checker.after_write(self, lpn, fp, outcome)
                return outcome
        l2p = mapping._l2p
        array = self.array
        blocks = array.blocks
        per_block = array._pages_per_block
        owner = mapping._owner

        # Out-of-place update: kill the copy previously mapped at ``lpn``.
        old_ppn = l2p[lpn]
        if old_ppn >= 0:
            self._kill_fused(
                lpn, old_ppn, mapping, l2p, owner, array, blocks, per_block,
                counters, pool, live_index,
            )

        # Place the new data: revive a dead copy from the pool, or program
        # a page.
        revived = None
        if pool is not None:
            revived = pool.lookup_for_write(fp, clock)
        if revived is not None:
            if self.verify_hits:
                # CAFTL-style collision safety: read the page back and
                # byte-compare before trusting the 16B hash match.
                outcome.verify_read_ppn = revived
                counters.flash_reads += 1
            block_index, page = divmod(revived, per_block)
            block = blocks[block_index]
            if block.states[page] != _INVALID:
                array.revive(revived)  # raises the state mismatch
            block.states[page] = _VALID
            block.invalid_count -= 1
            block.valid_count += 1
            array.invalid_pages -= 1
            array.valid_pages += 1
            garbage_pop = self._garbage_pop_of_ppn.pop(revived, None)
            if garbage_pop is not None:
                block_garbage_pop = self._block_garbage_pop
                remaining = block_garbage_pop.get(block_index, 0) - garbage_pop
                if remaining > 0:
                    block_garbage_pop[block_index] = remaining
                else:
                    block_garbage_pop.pop(block_index, None)
            ppn = revived
        else:
            allocator = self.allocator
            plane = allocator._next_plane
            gc = self.gc
            # Collect *before* allocating, so the target plane always has
            # room for this write and for any relocations GC itself needs.
            # The watermark test is maybe_collect's own early return.
            if len(allocator.free_blocks[plane]) < gc.low_watermark:
                work = gc.maybe_collect(plane)
                if work.erased_blocks or work.relocations or work.retired_blocks:
                    counters.gc_erases += len(work.erased_blocks)
                    counters.gc_relocations += len(work.relocations)
                    outcome.gc = work
                if self.read_only:
                    # The pass just degraded the drive (spare pool
                    # exhausted, or a retirement would have stranded the
                    # plane): reject before touching allocator state.
                    return self._reject(lpn, fp, outcome)
            # Program the next page of the plane's active block.
            allocator._next_plane = (plane + 1) % allocator._planes
            actives = allocator._active
            block_index = actives[plane]
            if (
                block_index is None
                or blocks[block_index].write_pointer >= per_block
            ):
                block_index = allocator._open_block(plane, actives)
            block = blocks[block_index]
            page = block.write_pointer
            if block.retired or page >= block.pages_per_block:
                array.program_in_block(block_index)  # raises
            block.states[page] = _VALID
            block.write_pointer = page + 1
            block.valid_count += 1
            array.free_pages -= 1
            array.valid_pages += 1
            array.total_programs += 1
            if page + 1 >= block.pages_per_block:
                actives[plane] = None
            ppn = block_index * per_block + page
            faults = self.faults
            if faults is not None and faults.injects_program_failures:
                attempts = 1
                while faults.program_fails():
                    # The page is burned: it becomes garbage for GC to
                    # reclaim (not a value death, no pool insertion), and
                    # its block takes a strike toward retirement.
                    array.invalidate(ppn)
                    if outcome.failed_program_ppns is None:
                        outcome.failed_program_ppns = []
                    outcome.failed_program_ppns.append(ppn)
                    self.badblocks.note_program_failure(ppn // per_block)
                    if attempts >= faults.config.max_program_retries:
                        return self._reject(lpn, fp, outcome)
                    attempts += 1
                    # Retry within the same plane; the collection above
                    # left it a free block, so a few retries cannot
                    # strand it.
                    ppn = allocator.allocate_in_plane(plane)

        if owner[ppn] == -1 and l2p[lpn] < 0:
            l2p[lpn] = ppn
            mapping._mapped += 1
            owner[ppn] = lpn
        else:
            mapping.map(lpn, ppn)  # shares, or raises "already mapped"
        self._oob_seq = seq = self._oob_seq + 1
        self._oob_lpns[ppn] = lpn
        self._oob_seqs[ppn] = seq
        if revived is not None:
            counters.short_circuits += 1
            outcome.short_circuited = True
            outcome.revived_ppn = ppn
        else:
            self._ppn_fp[ppn] = fp
            counters.programs += 1
            outcome.program_ppn = ppn
        if live_index is not None:
            live_index[fp] = ppn
        if self.checker is not None:
            self.checker.after_write(self, lpn, fp, outcome)
        return outcome

    def _reject(
        self, lpn: int, fp: Fingerprint, outcome: WriteOutcome
    ) -> WriteOutcome:
        """Drop a write the drive cannot take: read-only, or every program
        attempt failed.  Counted, never raised."""
        if self.faults is not None:
            self.faults.stats.rejected_writes += 1
        outcome.rejected = True
        if self.checker is not None:
            self.checker.after_write(self, lpn, fp, outcome)
        return outcome

    def _dedup_hit(self, lpn: int, live: int, outcome: WriteOutcome) -> None:
        """Live-value dedup hit: point ``lpn`` at ``live``, the page
        already holding the value, without a program.  It runs *before*
        the old copy dies, so rewriting identical content in place is a
        pure no-op."""
        counters = self.counters
        if self.verify_hits:
            outcome.verify_read_ppn = live
            counters.flash_reads += 1
        mapping = self.mapping
        l2p = mapping._l2p
        old_ppn = l2p[lpn]
        if old_ppn != live:
            if old_ppn >= 0:
                array = self.array
                self._kill_fused(
                    lpn, old_ppn, mapping, l2p, mapping._owner, array,
                    array.blocks, array._pages_per_block, counters,
                    self.pool, self._live_index,
                )
            mapping.map(lpn, live)
        counters.dedup_hits += 1
        outcome.dedup_hit = True

    def preload(self, fingerprints: Iterable[Fingerprint]) -> int:
        """Write local page ``i`` with the ``i``-th fingerprint; return the
        page count.

        Equal, state for state, to ``self.write(i, fp)`` over
        ``enumerate(fingerprints)``.  On a fresh drive (nothing ever
        programmed, nothing mapped, ``write_clock == 0``, an empty pool,
        no faults, checker or read-only state) :meth:`_fill` writes a bulk
        prefix in closed form.  Every later page, and every page of a
        drive that is not fresh, goes through :meth:`write`, lazily.
        """
        pages: Iterator[Fingerprint] = iter(fingerprints)
        lpn = 0
        pool = self.pool
        if (
            self.faults is None
            and self.checker is None
            and not self.read_only
            and self.write_clock == 0
            and self.mapping._mapped == 0
            and self.array.total_programs == 0
            and (pool is None or len(pool) == 0)
        ):
            lpn, pages = self._fill(pages)
        write = self.write
        for fp in pages:
            write(lpn, fp)
            lpn += 1
        return lpn

    def _fill(
        self, pages: Iterator[Fingerprint]
    ) -> Tuple[int, Iterator[Fingerprint]]:
        """Write a fresh drive's bulk prefix of ``pages`` at LPNs ``0..n-1``
        in closed form; return ``n`` and the pages left for :meth:`write`.

        The prefix is read up front and ends at the first of: the exported
        capacity, the first page whose plane fails the pre-write watermark
        check (a plane with ``F`` free blocks passes it for
        ``(F - low_watermark) * pages_per_block + 1`` pages) and the first
        repeated fingerprint.  Page ``k`` lands on plane ``(start + k) % P``
        at that plane's next page, so each plane fills whole blocks off its
        free list in order: every table is written by column slices once
        per block, or in one call (the dicts in LPN order, as the FTL's own).
        """
        mapping = self.mapping
        l2p = mapping._l2p
        flash = self.array
        per_block = flash._pages_per_block
        allocator = self.allocator
        planes = allocator._planes
        start = allocator._next_plane
        limit = min(self._logical_pages, len(l2p))
        for plane, free in enumerate(allocator.free_blocks):
            passes = max(0, (len(free) - self.gc.low_watermark) * per_block + 1)
            limit = min(limit, (plane - start) % planes + passes * planes)
        fps = list(itertools.islice(pages, limit))
        write_pop = dict.fromkeys(fps, 1)
        if len(write_pop) < len(fps):
            # A repeat needs a write's popularity bump and live-index test:
            # the prefix ends where the first-seen order breaks.
            cut = next(
                (i for i, (fp, first) in enumerate(zip(fps, write_pop))
                 if fp != first),
                len(write_pop),
            )
            pages = itertools.chain(fps[cut:], pages)
            write_pop = dict.fromkeys(itertools.islice(fps, cut), 1)
        del fps  # freed early: ``write_pop`` holds the prefix, in order
        n = len(write_pop)
        seq = self._oob_seq + 1  # LPN k's journal record is seq + k
        valid = bytes([_VALID]) * per_block
        # Every column slice is a slice of one ramp 0, 1, 2, ...
        ramp = _array("q", range(max(len(mapping._owner), seq + n)))
        for plane, free in enumerate(allocator.free_blocks):
            lpn = (plane - start) % planes  # the plane's first LPN
            taken = len(range(lpn, n, planes))
            for done in range(0, taken, per_block):
                block_index = free.popleft()
                count = min(per_block, taken - done)
                block = flash.blocks[block_index]
                block.states[:count] = valid[:count]
                block.write_pointer = block.valid_count = count
                first = block_index * per_block
                ppns = slice(first, first + count)
                end = lpn + count * planes
                l2p[lpn:end:planes] = ramp[ppns]
                mapping._owner[ppns] = self._oob_lpns[ppns] = ramp[lpn:end:planes]
                self._oob_seqs[ppns] = ramp[seq + lpn:seq + end:planes]
                lpn = end
            if taken % per_block:
                # A partly written last block stays the plane's append point.
                allocator._active[plane] = block_index
        allocator._next_plane = (start + n) % planes
        mapping._pop[:n] = bytes([1]) * n
        mapping._mapped += n
        flash.free_pages -= n
        flash.valid_pages += n
        flash.total_programs += n
        self.counters.host_writes += n
        self.counters.programs += n
        self.write_clock += n
        self._oob_seq += n
        self._write_popularity = write_pop
        self._ppn_fp = dict(zip(l2p, write_pop))
        self._fill_slots(n)
        return n, pages

    def _fill_slots(self, pages: int) -> None:
        """Bring the slots in step with a fill of ``pages`` fresh pages (a
        prefill-cache restore calls this too): dedup's live index is
        ``_ppn_fp`` inverted, the CMT sees every access, and the pool
        counts one missed lookup per page."""
        if self._live_index is not None:
            self._live_index = dict(zip(self._ppn_fp.values(), self._ppn_fp))
        if self.translation is not None:
            access = self.translation.access
            for lpn in range(pages):
                access(lpn, dirty=True)
        if self.pool is not None:
            self.pool.skip_missed_lookups(pages)

    def trim(self, lpn: int) -> None:
        """Host discard: drop ``lpn``'s mapping.

        The freed physical page becomes garbage — and, with a dead-value
        pool, its content stays *revivable*: a later write of the same
        data can still resurrect the trimmed page.  This is TRIM's natural
        interaction with the paper's mechanism (not evaluated there).
        The invalidation and pool insertion are :meth:`_kill_fused`, the
        write path's own kill block.
        """
        if not 0 <= lpn < self._logical_pages:
            self._check_lpn(lpn)  # raises
        counters = self.counters
        counters.host_trims += 1
        mapping = self.mapping
        l2p = mapping._l2p
        old_ppn = l2p[lpn]
        if old_ppn >= 0:
            array = self.array
            self._kill_fused(
                lpn, old_ppn, mapping, l2p, mapping._owner, array,
                array.blocks, array._pages_per_block, counters, self.pool,
                self._live_index,
            )
        # Journal the trim so crash recovery does not resurrect the LPN
        # from its (still newest) dead copy.
        self._oob_seq = seq = self._oob_seq + 1
        self._oob_trims[lpn] = seq
        if self.checker is not None:
            self.checker.after_trim(self, lpn)

    def read(self, lpn: int) -> ReadOutcome:
        """Service one 4KB host read (after the CMT access, with DFTL)."""
        translation = self.translation
        cost = None if translation is None else translation.access(lpn, dirty=False)
        if not 0 <= lpn < self._logical_pages:
            self._check_lpn(lpn)  # raises
        counters = self.counters
        counters.host_reads += 1
        ppn = self.mapping._l2p[lpn]
        if ppn < 0:
            ppn = None
        else:
            counters.flash_reads += 1
            if self.combine_read_popularity:
                fp = self._ppn_fp.get(ppn)
                if fp is not None:
                    count = self._read_popularity.get(fp, 0) + 1
                    self._read_popularity[fp] = min(count, POPULARITY_MAX)
        outcome = (
            ReadOutcome(lpn, ppn) if cost is None else ReadOutcome(lpn, ppn, *cost)
        )
        if self.checker is not None:
            self.checker.after_read(self, lpn, outcome)
        return outcome

    # ------------------------------------------------------------------
    # Write-path mechanics
    # ------------------------------------------------------------------

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self._logical_pages:
            raise ValueError(
                f"LPN {lpn} outside exported capacity "
                f"({self._logical_pages} pages)"
            )

    def _record_oob(self, ppn: int, lpn: int) -> None:
        """Journal (lpn, seq) into ``ppn``'s out-of-band area."""
        self._oob_seq += 1
        self._oob_lpns[ppn] = lpn
        self._oob_seqs[ppn] = self._oob_seq

    def _kill_fused(
        self, lpn: int, old_ppn: int, mapping: MappingTable,
        l2p: List[int], owner: List[int], array: FlashArray,
        blocks: list, per_block: int, counters: FTLCounters,
        pool: Optional[DeadValuePool],
        live_index: Optional[Dict[Fingerprint, int]],
    ) -> None:
        """The out-of-place kill of ``lpn``, mapped at ``old_ppn``, shared
        by :meth:`write`, :meth:`trim` and :meth:`_dedup_hit`: unmap it,
        and unless other LPNs still share the page (dedup), turn the page
        to garbage, drop its live-index entry and offer it to the pool
        (an illegal state falls back to the method that raises).  Callers
        pass the tables and slots they hold: one call, no attribute
        lookups.  Pool insertions carry ``write_clock``."""
        if owner[old_ppn] == lpn:
            l2p[lpn] = -1
            mapping._mapped -= 1
            owner[old_ppn] = -1
        else:
            mapping.unmap(lpn)
            if mapping.refcount(old_ppn) > 0:
                return  # deduplicated store: no death
        block_index, page = divmod(old_ppn, per_block)
        block = blocks[block_index]
        if block.states[page] != _VALID:
            array.invalidate(old_ppn)  # raises the state mismatch
        block.states[page] = _INVALID
        block.valid_count -= 1
        block.invalid_count += 1
        array.valid_pages -= 1
        array.invalid_pages += 1
        counters.invalidations += 1
        if live_index is not None:
            old_fp = self._ppn_fp.get(old_ppn)
            if old_fp is not None and live_index.get(old_fp) == old_ppn:
                del live_index[old_fp]
        if pool is None:
            return
        old_fp = self._ppn_fp.get(old_ppn)
        if old_fp is None:
            return
        pool_pop = self._write_popularity.get(old_fp, 1)
        if self.combine_read_popularity:
            pool_pop = min(
                pool_pop + self._read_popularity.get(old_fp, 0),
                POPULARITY_MAX,
            )
        dropped = pool.insert_garbage(
            old_fp, old_ppn, self.write_clock, popularity=pool_pop, lpn=lpn
        )
        self._garbage_pop_of_ppn[old_ppn] = pool_pop
        block_garbage_pop = self._block_garbage_pop
        block_garbage_pop[block_index] = (
            block_garbage_pop.get(block_index, 0) + pool_pop
        )
        for dropped_ppn in dropped:
            self._clear_garbage_pop(dropped_ppn)

    # ------------------------------------------------------------------
    # Popularity mass per block (input to popularity-aware GC)
    # ------------------------------------------------------------------

    def _clear_garbage_pop(self, ppn: int) -> None:
        popularity = self._garbage_pop_of_ppn.pop(ppn, None)
        if popularity is None:
            return
        block = self.array.geometry.block_of_ppn(ppn)
        remaining = self._block_garbage_pop.get(block, 0) - popularity
        if remaining > 0:
            self._block_garbage_pop[block] = remaining
        else:
            self._block_garbage_pop.pop(block, None)

    # ------------------------------------------------------------------
    # GC delegate protocol (called by GarbageCollector)
    # ------------------------------------------------------------------

    def relocate_page(self, old_ppn: int, new_ppn: int) -> None:
        if self.translation is not None:
            # Cached translations of the moved data are dirtied in place,
            # with no MRU promotion or host hit (uncached ones are updated
            # lazily on the next miss, as real DFTL does via the GTD).
            for lpn in self.mapping.lpns_of(old_ppn):
                self.translation.update_in_place(lpn)
        self.mapping.remap_ppn(old_ppn, new_ppn)
        fp = self._ppn_fp.pop(old_ppn, None)
        if fp is not None:
            self._ppn_fp[new_ppn] = fp
            live_index = self._live_index
            if live_index is not None and live_index.get(fp) == old_ppn:
                live_index[fp] = new_ppn
        if self._oob_seqs[old_ppn] >= 0:
            # GC rewrote the page, so its OOB area is rewritten too; the
            # old copy's record goes with the victim's erase
            # (:meth:`erase_cleanup`).
            self._record_oob(new_ppn, self._oob_lpns[old_ppn])

    def erase_cleanup(self, block_global: int, invalid_ppns: List[int]) -> None:
        for ppn in invalid_ppns:
            fp = self._ppn_fp.pop(ppn, None)
            if fp is not None and self.pool is not None:
                self.pool.discard_ppn(fp, ppn)
            self._clear_garbage_pop(ppn)
        # The erase takes the whole block's OOB area with it: garbage
        # pages and the old copies of the pages just relocated.
        per_block = self.array._pages_per_block
        start = block_global * per_block
        cleared = _unmapped_column(per_block)
        self._oob_lpns[start:start + per_block] = cleared
        self._oob_seqs[start:start + per_block] = cleared

    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Deep cross-structure consistency check (test hook)."""
        self.array.check_invariants()
        self.mapping.check_invariants()
        self.allocator.check_invariants()
        for ppn in self.mapping.mapped_ppns():
            assert self.array.state_of(ppn) is PageState.VALID, (
                f"mapped PPN {ppn} is not VALID"
            )
            assert ppn in self._ppn_fp, f"mapped PPN {ppn} has no fingerprint"
            assert self._oob_seqs[ppn] >= 0, (
                f"mapped PPN {ppn} has no OOB record"
            )
        for fp, ppn in (self._live_index or {}).items():
            assert self._ppn_fp.get(ppn) == fp, f"stale live entry at PPN {ppn}"
            state = self.array.state_of(ppn)
            assert state is PageState.VALID, f"live index PPN {ppn} is {state}"
