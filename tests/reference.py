"""Frozen reference models of the FTL write path and the replay loop.

``BaseFTL.write``/``trim`` and ``SimulatedSSD.service`` each run one
fused body.  The code here is the step-by-step form they replaced, kept
as it shipped so the differentials in ``tests/property`` can hold the one
path to it, outcome for outcome and table for table:

* :class:`PerCallWrites` is the FTL protocol of the paper's Section
  IV-C as one method per step: ``write`` → ``_handle_write`` →
  ``_service_write`` → ``_program``/``_revive``, ``_invalidate_lpn`` →
  ``_on_page_death``, and ``trim`` through the same kill.  Mixed in
  before an FTL class (:func:`as_reference` does it to a built drive) it
  replaces that class's ``write`` and ``trim``; everything else, GC and
  the pool included, is the shipped code.
* :class:`PerRequestReplay` is the per-request replay chain: ``submit``
  → ``_submit_write``/``_submit_read``/``_submit_trim``, each request
  priced through ``TimelineSet.chip_op``/``hash_op``, and a ``service``
  that loops over ``submit``.  In this chain ``submit`` does not count
  toward ``requests_served``; only ``service`` does.

Do not edit these bodies to follow a change in the shipped paths: a
difference is what the differentials exist to catch.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.core.hashing import Fingerprint
from repro.ftl.dedup import DedupFTL
from repro.ftl.dftl import DFTLFtl
from repro.ftl.ftl import BaseFTL, WriteOutcome
from repro.ftl.mapping import POPULARITY_MAX
from repro.sim.background import BackgroundGCSSD
from repro.sim.request import CompletedRequest, IORequest, OpType, Row
from repro.sim.ssd import SimulatedSSD

__all__ = [
    "PerCallWrites", "ReferenceFTL", "ReferenceDedupFTL", "ReferenceDFTLFtl",
    "as_reference", "PerRequestReplay", "ReferenceSSD",
    "ReferenceBackgroundGCSSD",
]


class PerCallWrites:
    """The FTL write and trim, one method call per step."""

    def write(self, lpn: int, fp: Fingerprint) -> WriteOutcome:
        outcome = WriteOutcome(lpn)
        if self.translation is not None:
            outcome.translation_reads, outcome.translation_writes = (
                self.translation.access(lpn, dirty=True)
            )
        self._check_lpn(lpn)
        self.write_clock += 1
        self.counters.host_writes += 1
        if self.read_only:
            # End-of-life degradation: the write fails before it touches
            # any state (the old copy at ``lpn`` survives).
            if self.faults is not None:
                self.faults.stats.rejected_writes += 1
            outcome.rejected = True
            if self.checker is not None:
                self.checker.after_write(self, lpn, fp, outcome)
            return outcome
        write_pop = self._write_popularity
        popularity = write_pop.get(fp, 0) + 1
        if popularity > POPULARITY_MAX:
            popularity = POPULARITY_MAX
        write_pop[fp] = popularity
        self.mapping.set_popularity(lpn, popularity)
        outcome.hashed = self.content_aware
        self._handle_write(lpn, fp, outcome)
        if self.checker is not None:
            self.checker.after_write(self, lpn, fp, outcome)
        return outcome

    def _handle_write(
        self, lpn: int, fp: Fingerprint, outcome: WriteOutcome
    ) -> None:
        """Invalidate the old copy, place the new data and store its home
        in the live index; a live-index hit is :meth:`_dedup_hit`."""
        live_index = self._live_index
        if live_index is not None:
            live = live_index.get(fp)
            if live is not None:
                self._dedup_hit(lpn, live, outcome)
                return
        self._invalidate_lpn(lpn)
        self._service_write(lpn, fp, outcome)
        if live_index is not None:
            home = outcome.revived_ppn
            if home is None:
                home = outcome.program_ppn
            if home is not None:
                live_index[fp] = home

    def _dedup_hit(self, lpn: int, live: int, outcome: WriteOutcome) -> None:
        """Live-value dedup hit: point ``lpn`` at ``live`` without a
        program, before the old copy dies."""
        if self.verify_hits:
            outcome.verify_read_ppn = live
            self.counters.flash_reads += 1
        if self.mapping.lookup(lpn) != live:
            self._invalidate_lpn(lpn)
            self.mapping.map(lpn, live)
        self.counters.dedup_hits += 1
        outcome.dedup_hit = True

    def _service_write(
        self, lpn: int, fp: Fingerprint, outcome: WriteOutcome
    ) -> None:
        """Place the new data: revive from the pool, or program a page."""
        revived = None
        if self.pool is not None:
            revived = self.pool.lookup_for_write(fp, self.write_clock)
        if revived is not None:
            self._revive(lpn, revived, outcome)
            outcome.short_circuited = True
            outcome.revived_ppn = revived
        else:
            outcome.program_ppn = self._program(lpn, fp, outcome)

    def trim(self, lpn: int) -> None:
        self._check_lpn(lpn)
        self.counters.host_trims += 1
        self._invalidate_lpn(lpn)
        # Journal the trim so crash recovery does not resurrect the LPN
        # from its (still newest) dead copy.
        self._oob_seq += 1
        self._oob_trims[lpn] = self._oob_seq
        if self.checker is not None:
            self.checker.after_trim(self, lpn)

    def _pool_popularity(self, fp: Fingerprint) -> int:
        """Popularity degree handed to the pool on insertion."""
        pop = self._write_popularity.get(fp, 1)
        if self.combine_read_popularity:
            pop = min(pop + self._read_popularity.get(fp, 0), POPULARITY_MAX)
        return pop

    def _program(
        self, lpn: int, fp: Fingerprint, outcome: WriteOutcome
    ) -> Optional[int]:
        # Collect *before* allocating, so the target plane always has room
        # for this write and for any relocations GC itself needs.
        plane = self.allocator.plane_of_next_write()
        work = self.gc.maybe_collect(plane)
        if work.erased_blocks or work.relocations or work.retired_blocks:
            self.counters.gc_erases += len(work.erased_blocks)
            self.counters.gc_relocations += len(work.relocations)
            outcome.gc = work
        if self.read_only:
            # The collection pass just degraded the drive: reject the
            # in-flight write before touching allocator state.
            if self.faults is not None:
                self.faults.stats.rejected_writes += 1
            outcome.rejected = True
            return None
        ppn = self.allocator.allocate()
        faults = self.faults
        if faults is not None and faults.injects_program_failures:
            attempts = 1
            while faults.program_fails():
                # The page is burned: garbage for GC to reclaim (not a
                # value death), and the block takes a strike.
                self.array.invalidate(ppn)
                if outcome.failed_program_ppns is None:
                    outcome.failed_program_ppns = []
                outcome.failed_program_ppns.append(ppn)
                if self.badblocks is not None:
                    self.badblocks.note_program_failure(
                        self.array.geometry.block_of_ppn(ppn)
                    )
                if attempts >= faults.config.max_program_retries:
                    faults.stats.rejected_writes += 1
                    outcome.rejected = True
                    return None
                attempts += 1
                ppn = self.allocator.allocate_in_plane(plane)
        self.mapping.map(lpn, ppn)
        self._ppn_fp[ppn] = fp
        self._record_oob(ppn, lpn)
        self.counters.programs += 1
        return ppn

    def _revive(self, lpn: int, ppn: int, outcome: WriteOutcome) -> None:
        """Dead-value-pool hit: garbage page back to life, no program."""
        if self.verify_hits:
            outcome.verify_read_ppn = ppn
            self.counters.flash_reads += 1
        self.array.revive(ppn)
        self._clear_garbage_pop(ppn)
        self.mapping.map(lpn, ppn)
        self._record_oob(ppn, lpn)
        self.counters.short_circuits += 1

    def _invalidate_lpn(self, lpn: int) -> None:
        """Out-of-place update: kill the copy previously mapped at ``lpn``."""
        old_ppn = self.mapping.unmap(lpn)
        if old_ppn is None:
            return
        if self.mapping.refcount(old_ppn) > 0:
            # Deduplicated store: other LPNs still point here — no death.
            return
        self.array.invalidate(old_ppn)
        self.counters.invalidations += 1
        fp = self._ppn_fp.get(old_ppn)
        if fp is not None:
            self._on_page_death(old_ppn, fp, lpn)

    def _on_page_death(self, ppn: int, fp: Fingerprint, lpn: int) -> None:
        """A physical page just became garbage: drop its live-index entry
        and offer it to the pool."""
        live_index = self._live_index
        if live_index is not None and live_index.get(fp) == ppn:
            del live_index[fp]
        if self.pool is None:
            return
        popularity = self._pool_popularity(fp)
        dropped = self.pool.insert_garbage(
            fp, ppn, self.write_clock, popularity=popularity, lpn=lpn
        )
        self._add_garbage_pop(ppn, popularity)
        for dropped_ppn in dropped:
            self._clear_garbage_pop(dropped_ppn)

    def _add_garbage_pop(self, ppn: int, popularity: int) -> None:
        block = self.array.geometry.block_of_ppn(ppn)
        self._garbage_pop_of_ppn[ppn] = popularity
        self._block_garbage_pop[block] = (
            self._block_garbage_pop.get(block, 0) + popularity
        )


class ReferenceFTL(PerCallWrites, BaseFTL):
    pass


class ReferenceDedupFTL(PerCallWrites, DedupFTL):
    pass


class ReferenceDFTLFtl(PerCallWrites, DFTLFtl):
    pass


_REFERENCE_OF = {
    BaseFTL: ReferenceFTL,
    DedupFTL: ReferenceDedupFTL,
    DFTLFtl: ReferenceDFTLFtl,
}


def as_reference(ftl: BaseFTL) -> BaseFTL:
    """Switch a built drive (any ``build_system`` FTL) to its reference
    model in place; the models add methods, no state.  Returns ``ftl``."""
    ftl.__class__ = _REFERENCE_OF[type(ftl)]
    return ftl


class PerRequestReplay:
    """The replay loop as one ``submit`` call per request."""

    def submit(self, request: IORequest) -> CompletedRequest:
        """Service one request; returns its completion record."""
        start = self.host_queue.admit(request.arrival_us)
        if request.op is OpType.TRIM:
            completed = self._submit_trim(request, start)
        elif request.is_write:
            completed = self._submit_write(request, start)
            self.writes.record(completed.latency_us)
        else:
            completed = self._submit_read(request, start)
            self.reads.record(completed.latency_us)
        self.host_queue.register(completed.finish_us)
        if self.log is not None:
            self.log.record(completed)
        if completed.finish_us > self._horizon_us:
            self._horizon_us = completed.finish_us
        if self.observer is not None:
            self.observer.on_request(completed.finish_us)
        return completed

    def _submit_write(self, request: IORequest, start: float) -> CompletedRequest:
        outcome = self.ftl.write(request.lpn, request.fingerprint)
        now = start
        if outcome.hashed:
            now = self.timelines.hash_op(now, self.timing.hash_us)
        now += self.timing.mapping_us
        now = self._charge_translation(request.lpn, outcome, now)
        if outcome.verify_read_ppn is not None:
            chip = self.geometry.chip_of_ppn(outcome.verify_read_ppn)
            now = self.timelines.chip_op(
                chip, now, self.timing.read_us, self.timing.channel_xfer_us
            )
        if outcome.program_ppn is not None or outcome.failed_program_ppns:
            if outcome.gc is not None:
                self._charge_gc(outcome.gc, now)
            finish = now
            if outcome.failed_program_ppns:
                for ppn in outcome.failed_program_ppns:
                    chip = self.geometry.chip_of_ppn(ppn)
                    finish = self.timelines.chip_op(
                        chip,
                        finish,
                        self.timing.program_us,
                        self.timing.channel_xfer_us,
                    )
            if outcome.program_ppn is not None:
                chip = self.geometry.chip_of_ppn(outcome.program_ppn)
                finish = self.timelines.chip_op(
                    chip,
                    finish,
                    self.timing.program_us,
                    self.timing.channel_xfer_us,
                )
        else:
            finish = now
        return CompletedRequest(
            request=request,
            start_us=start,
            finish_us=finish,
            short_circuited=outcome.short_circuited,
            dedup_hit=outcome.dedup_hit,
        )

    def _submit_trim(self, request: IORequest, start: float) -> CompletedRequest:
        self.ftl.trim(request.lpn)
        finish = start + self.timing.mapping_us
        return CompletedRequest(request=request, start_us=start, finish_us=finish)

    def _submit_read(self, request: IORequest, start: float) -> CompletedRequest:
        outcome = self.ftl.read(request.lpn)
        now = start + self.timing.mapping_us
        now = self._charge_translation(request.lpn, outcome, now)
        if outcome.flash_read:
            read_us = self.timing.read_us
            faults = self.ftl.faults
            if faults is not None:
                read_us = self.timing.read_service_us(faults.read_retry_rounds())
            chip = self.geometry.chip_of_ppn(outcome.ppn)
            finish = self.timelines.chip_op(
                chip, now, read_us, self.timing.channel_xfer_us
            )
        else:
            finish = now
        return CompletedRequest(request=request, start_us=start, finish_us=finish)

    def service(
        self,
        rows: Iterable[Row],
        progress: Optional[Callable[[int], None]] = None,
    ) -> int:
        faults = self.ftl.faults
        crash_after = (
            faults.config.crash_after_requests if faults is not None else None
        )
        count = 0
        for row in rows:
            self.submit(IORequest(*row))
            index = self.requests_served
            self.requests_served += 1
            count += 1
            if crash_after is not None and self.requests_served == crash_after:
                self.power_loss()
            if progress is not None and index % 10000 == 0:
                progress(index)
        return count


class ReferenceSSD(PerRequestReplay, SimulatedSSD):
    pass


class ReferenceBackgroundGCSSD(PerRequestReplay, BackgroundGCSSD):
    """Background collection as a ``submit`` override: one pass at each
    request's arrival, then the request."""

    def submit(self, request: IORequest) -> CompletedRequest:
        self._background_pass(request.arrival_us)
        return super().submit(request)
