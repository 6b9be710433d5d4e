"""The simulated SSD: trace-driven timing on top of the FTL state machine.

This is the reproduction of the paper's evaluation platform — a modified
SSDSim (Section V-A).  The FTL (:mod:`repro.ftl`) decides *what* physical
work each host request causes; this module decides *when* it happens, by
charging every operation to per-chip, per-channel and hash-unit FIFO
timelines (:mod:`repro.flash.timing`):

* a write is hashed first when the system is content-aware (12µs on the
  hash unit, which serialises with other incoming writes — "we modeled its
  impact on the queuing latency of the incoming write requests");
* a short-circuited or dedup-hit write costs only mapping-table updates;
* a programmed write pays a channel transfer plus the 400µs array program
  on its target chip;
* GC triggered by a write appends relocation reads/programs and the 3.8ms
  erase to the victim chip's timeline, so later requests landing on that
  chip queue behind collection — the latency spikes the paper attacks;
* reads pay 75µs on their chip and can get stuck behind all of the above.

Requests are replayed in trace order (open loop), optionally throttled by a
host queue depth.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional

from ..core.hashing import fingerprint_of_value
from ..flash.timing import TimelineSet
from ..ftl.ftl import BaseFTL
from ..ftl.gc import GCWork
from .logging import CompletionLog
from .metrics import LatencyStats, RunResult
from .request import CompletedRequest, IORequest, OpType, Row, rows_of
from .scheduler import HostQueue

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.sampler import TimeSeriesSampler

__all__ = ["SimulatedSSD", "replay"]


class SimulatedSSD:
    """Couples an FTL with the timing model and runs requests through both."""

    def __init__(
        self,
        ftl: BaseFTL,
        queue_depth: Optional[int] = None,
        log: Optional[CompletionLog] = None,
        observer: Optional["TimeSeriesSampler"] = None,
    ):
        self.ftl = ftl
        self.log = log
        #: Optional :class:`~repro.obs.TimeSeriesSampler`, ticked once
        #: per completed host request with the completion time.
        self.observer = observer
        if observer is not None:
            observer.attach(ftl)
        config = ftl.config
        self.timing = config.timing
        self.geometry = ftl.array.geometry
        self.timelines = TimelineSet(
            config.total_chips, config.channels, config.chips_per_channel
        )
        self.host_queue = HostQueue(queue_depth)
        self.reads = LatencyStats()
        self.writes = LatencyStats()
        self._horizon_us = 0.0
        #: Host requests serviced so far (across every :meth:`service`
        #: batch and :meth:`submit`) — the global index crash injection
        #: counts against.
        self.requests_served = 0
        #: :class:`~repro.faults.recovery.RecoveryReport` per power-loss
        #: event injected during :meth:`run`.
        self.recovery_reports: list = []
        #: Work run before each request at its arrival time, given that
        #: time (:class:`~repro.sim.background.BackgroundGCSSD` sets its
        #: idle-time collection pass); ``None`` runs nothing.
        self.background: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------

    @property
    def horizon_us(self) -> float:
        """Completion time of the last request serviced so far."""
        return self._horizon_us

    def submit(self, request: IORequest) -> CompletedRequest:
        """Service one request; returns its completion record.

        The :meth:`service` loop over the request's row, so it counts
        toward ``requests_served`` (and crash injection) like any other.
        """
        log = self.log
        completed: List[CompletedRequest] = []

        def record(done: CompletedRequest) -> None:
            completed.append(done)
            if log is not None:
                log.record(done)

        self._replay(rows_of((request,)), None, record)
        return completed[0]

    def _charge_translation(self, lpn: int, outcome, now: float) -> float:
        """Price DFTL translation-page traffic, if the FTL produced any.

        Translation pages live in a reserved area; their flash ops are
        charged to a chip derived from the translation-page index, so hot
        mapping regions contend realistically.
        """
        reads = outcome.translation_reads
        writes = outcome.translation_writes
        if not reads and not writes:
            return now
        chip = (lpn // 512) % len(self.timelines.chips)
        for _ in range(reads):
            now = self.timelines.chip_op(
                chip, now, self.timing.read_us, self.timing.channel_xfer_us
            )
        for _ in range(writes):
            now = self.timelines.chip_op(
                chip, now, self.timing.program_us, self.timing.channel_xfer_us
            )
        return now

    def _charge_gc(self, work: GCWork, start: float) -> None:
        """Append GC's physical ops to the victim chip's timeline.

        Each relocation is a read then a program on the victim chip, both
        arriving at ``start``: ``chip_op`` inlined, in its float
        operation order (as in :meth:`_replay`).
        """
        timing = self.timing
        xfer_us = timing.channel_xfer_us
        ops = (timing.read_us, timing.program_us)
        chips = self.timelines.chips
        channels = self.timelines.channels
        chips_per_channel = self.timelines._chips_per_channel
        pages_per_chip = self.geometry.pages_per_chip
        for old_ppn, _ in work.relocations:
            chip = old_ppn // pages_per_chip
            channel = channels[chip // chips_per_channel]
            timeline = chips[chip]
            for flash_us in ops:
                busy = channel.busy_until
                end = (busy if busy > start else start) + xfer_us
                channel.busy_until = end
                channel.busy_time += xfer_us
                channel.op_count += 1
                busy = timeline.busy_until
                end = (busy if busy > end else end) + flash_us
                timeline.busy_until = end
                timeline.busy_time += flash_us
                timeline.op_count += 1
        erase_us = timing.erase_us
        chip_of_block = self.geometry.chip_of_block
        for block in work.erased_blocks:
            chips[chip_of_block(block)].schedule(start, erase_us)
        for block in work.retired_blocks:
            # The failed (or skipped-because-marked) erase attempt still
            # occupied the chip before the block could be retired.
            chips[chip_of_block(block)].schedule(start, erase_us)

    # ------------------------------------------------------------------

    def service(
        self,
        rows: Iterable[Row],
        progress: Optional[Callable[[int], None]] = None,
    ) -> int:
        """Service a batch of request rows (``(arrival_us, op, lpn,
        value_id)``, see :meth:`~repro.sim.request.Trace.rows`); returns
        how many were serviced.  Records go through :meth:`run` or
        :meth:`submit`.

        Batches compose: feeding a trace through several ``service`` calls
        is observably identical to one :meth:`run` over the whole trace —
        ``requests_served`` carries the global request index across
        batches, so crash injection (``crash_after_requests``) and the
        progress cadence count from the start of the *run*, not the
        batch.  This is what lets the fleet layer stream chunked request
        batches through a long-lived device without perturbing digests.
        """
        log = self.log
        return self._replay(
            rows, progress, log.record if log is not None else None
        )

    def _replay(
        self,
        rows: Iterable[Row],
        progress: Optional[Callable[[int], None]],
        record: Optional[Callable[[CompletedRequest], None]],
    ) -> int:
        """The replay loop behind :meth:`service` and :meth:`submit`:
        host-queue admission, the FTL operation, the timeline charging
        (``chip_op``/``hash_op``/``schedule`` inlined) and latency
        recording, with every constant hoisted once per batch.

        Every timeline gets its ``busy_until``/``busy_time``/``op_count``
        updates in :class:`~repro.flash.timing.TimelineSet`'s float
        operation order (``max(a, b)`` is ``b if b > a else a``).  Rare
        work (GC, DFTL translation traffic, hit verification, failed
        programs) goes through the methods.  The ``background`` slot, when
        set, runs before each request at its arrival time.  An
        :class:`IORequest` and its :class:`CompletedRequest` are built
        only for ``record``.
        """
        ftl = self.ftl
        ftl_write, ftl_read, ftl_trim = ftl.write, ftl.read, ftl.trim
        fingerprint = fingerprint_of_value
        translating = ftl.translation is not None
        faults = ftl.faults
        crash_after = None
        retry_rounds = None
        if faults is not None:
            crash_after = faults.config.crash_after_requests
            retry_rounds = faults.read_retry_rounds
        timing = self.timing
        read_us = timing.read_us
        program_us = timing.program_us
        hash_us = timing.hash_us
        xfer_us = timing.channel_xfer_us
        mapping_us = timing.mapping_us
        retry_us = timing.read_retry_us
        pages_per_chip = self.geometry.pages_per_chip
        timelines = self.timelines
        chips = timelines.chips
        channels = timelines.channels
        chips_per_channel = timelines._chips_per_channel
        hash_unit = timelines.hash_unit
        chip_op = timelines.chip_op
        charge_translation = self._charge_translation
        charge_gc = self._charge_gc
        host_queue = self.host_queue
        heap = host_queue._completions
        depth = host_queue.depth
        max_observed = host_queue.max_observed
        write_samples = self.writes._samples
        read_samples = self.reads._samples
        background = self.background
        observer = self.observer
        horizon = self._horizon_us
        first = served = self.requests_served
        WRITE, TRIM = OpType.WRITE, OpType.TRIM
        for arrival, op, lpn, value_id in rows:
            if background is not None:
                background(arrival)
            while heap and heap[0] <= arrival:
                heappop(heap)
            if depth is None or len(heap) < depth:
                start = arrival
            else:
                start = heappop(heap)
            if op is WRITE:
                outcome = ftl_write(lpn, fingerprint(value_id))
                now = start
                if outcome.hashed:
                    busy = hash_unit.busy_until
                    now = (busy if busy > now else now) + hash_us
                    hash_unit.busy_until = now
                    hash_unit.busy_time += hash_us
                    hash_unit.op_count += 1
                now += mapping_us
                if translating and (
                    outcome.translation_reads or outcome.translation_writes
                ):
                    now = charge_translation(lpn, outcome, now)
                if outcome.verify_read_ppn is not None:
                    now = chip_op(
                        outcome.verify_read_ppn // pages_per_chip,
                        now,
                        read_us,
                        xfer_us,
                    )
                finish = now
                ppn = outcome.program_ppn
                failed = outcome.failed_program_ppns
                if ppn is not None or failed:
                    if outcome.gc is not None:
                        charge_gc(outcome.gc, now)
                    if failed:
                        for bad in failed:
                            finish = chip_op(
                                bad // pages_per_chip, finish, program_us, xfer_us
                            )
                    if ppn is not None:
                        chip = ppn // pages_per_chip
                        channel = channels[chip // chips_per_channel]
                        busy = channel.busy_until
                        finish = (busy if busy > finish else finish) + xfer_us
                        channel.busy_until = finish
                        channel.busy_time += xfer_us
                        channel.op_count += 1
                        timeline = chips[chip]
                        busy = timeline.busy_until
                        finish = (busy if busy > finish else finish) + program_us
                        timeline.busy_until = finish
                        timeline.busy_time += program_us
                        timeline.op_count += 1
                latency = finish - arrival
                if not latency >= 0:
                    raise ValueError("latency must be non-negative")
                write_samples.append(latency)
            elif op is TRIM:
                ftl_trim(lpn)
                finish = start + mapping_us
            else:
                outcome = ftl_read(lpn)
                finish = start + mapping_us
                if translating and (
                    outcome.translation_reads or outcome.translation_writes
                ):
                    finish = charge_translation(lpn, outcome, finish)
                ppn = outcome.ppn
                if ppn is not None:
                    flash_us = read_us
                    if retry_rounds is not None:
                        # ECC read-retry (TimingParams.read_service_us).
                        flash_us = read_us + retry_rounds() * retry_us
                    chip = ppn // pages_per_chip
                    channel = channels[chip // chips_per_channel]
                    busy = channel.busy_until
                    finish = (busy if busy > finish else finish) + xfer_us
                    channel.busy_until = finish
                    channel.busy_time += xfer_us
                    channel.op_count += 1
                    timeline = chips[chip]
                    busy = timeline.busy_until
                    finish = (busy if busy > finish else finish) + flash_us
                    timeline.busy_until = finish
                    timeline.busy_time += flash_us
                    timeline.op_count += 1
                latency = finish - arrival
                if not latency >= 0:
                    raise ValueError("latency must be non-negative")
                read_samples.append(latency)
            heappush(heap, finish)
            if len(heap) > max_observed:
                max_observed = host_queue.max_observed = len(heap)
            if record is not None:
                request = IORequest(arrival, op, lpn, value_id)
                if op is WRITE:
                    record(CompletedRequest(
                        request, start, finish,
                        outcome.short_circuited, outcome.dedup_hit,
                    ))
                else:
                    record(CompletedRequest(request, start, finish))
            if finish > horizon:
                horizon = self._horizon_us = finish
            if observer is not None:
                observer.on_request(finish)
            index = served
            served += 1
            self.requests_served = served
            if crash_after is not None and served == crash_after:
                self.power_loss()
            if progress is not None and index % 10000 == 0:
                progress(index)
        return served - first

    def result(self, system: str = "", workload: str = "") -> RunResult:
        """Package everything serviced so far as a :class:`RunResult`."""
        pool_stats = None
        if self.ftl.pool is not None:
            stats = self.ftl.pool.stats
            pool_stats = {
                "lookups": stats.lookups,
                "hits": stats.hits,
                "hit_rate": stats.hit_rate,
                "insertions": stats.insertions,
                "evictions": stats.evictions,
            }
        return RunResult(
            system=system,
            workload=workload,
            counters=self.ftl.counters,
            reads=self.reads,
            writes=self.writes,
            horizon_us=self._horizon_us,
            pool_stats=pool_stats,
            fault_stats=(
                self.ftl.faults.stats.summary()
                if self.ftl.faults is not None
                else None
            ),
        )

    def run(
        self,
        requests: Iterable[IORequest],
        system: str = "",
        workload: str = "",
        progress: Optional[Callable[[int], None]] = None,
    ) -> RunResult:
        """Replay a whole trace (a :class:`~repro.sim.request.Trace` or
        any records) and package the results."""
        self.service(rows_of(requests), progress=progress)
        return self.result(system=system, workload=workload)

    def power_loss(self):
        """Inject a power-loss event *now*: volatile FTL state is gone and
        the drive replays crash recovery (OOB scan) before servicing
        anything else.  Returns the
        :class:`~repro.faults.recovery.RecoveryReport`.
        """
        from ..faults.recovery import crash_and_recover

        report = crash_and_recover(self.ftl, at_us=self._horizon_us)
        # Nothing — host or GC — can start until the scan finishes.
        self.timelines.stall_all(self._horizon_us + report.recovery_us)
        self.recovery_reports.append(report)
        return report


def replay(
    ftl: BaseFTL,
    requests: Iterable[IORequest],
    system: str = "",
    workload: str = "",
    queue_depth: Optional[int] = None,
) -> RunResult:
    """One-shot convenience: build the device, run the trace, return results."""
    device = SimulatedSSD(ftl, queue_depth=queue_depth)
    return device.run(requests, system=system, workload=workload)
