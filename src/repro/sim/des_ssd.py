"""Event-driven SSD model with pluggable per-chip schedulers.

The timeline model (:class:`~repro.sim.ssd.SimulatedSSD`) serves every
resource FIFO.  SSDSim — the paper's platform — is event-driven with
request schedulers; some of the paper's related work (HIOS [11]) is about
exactly such scheduling.  This module rebuilds the device on the
:class:`~repro.sim.engine.EventEngine` so the per-chip service *order*
becomes a policy:

``fifo``
    Serve chip operations in submission order — semantically identical to
    the timeline model (the cross-validation tests assert equal results).
``read-priority``
    Queued host reads overtake queued programs/erases (an ongoing
    operation is never preempted).  This is the classic mitigation for
    the read-behind-write/GC interference the paper measures; the
    benchmark ``test_ablation_read_priority.py`` quantifies how much of
    the paper's latency win it does (and does not) replace.

The FTL is shared unchanged: state mutates at request arrival (same as
the timeline model), the DES prices the physical work.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Iterable, Optional

from ..ftl.ftl import BaseFTL
from ..ftl.gc import GCWork
from .engine import EventEngine
from .logging import CompletionLog
from .metrics import LatencyStats, RunResult
from .request import CompletedRequest, IORequest, OpType

__all__ = ["ChipOp", "ChipServer", "EventDrivenSSD"]


@dataclass(slots=True)
class ChipOp:
    """One flash-array operation queued at a chip."""

    kind: str                 # 'read' | 'program' | 'erase'
    duration_us: float
    on_complete: Callable[[float], None] = field(
        default=lambda _t: None
    )
    is_host_read: bool = False


class ChipServer:
    """A chip with a queue and a scheduling policy."""

    def __init__(self, engine: EventEngine, policy: str = "fifo"):
        if policy not in ("fifo", "read-priority"):
            raise ValueError(f"unknown policy {policy!r}")
        self.engine = engine
        self.policy = policy
        self.queue: Deque[ChipOp] = deque()
        self.busy = False
        self.busy_time = 0.0
        self.op_count = 0

    def submit(self, op: ChipOp) -> None:
        self.queue.append(op)
        if not self.busy:
            self._start_next()

    def _pick(self) -> ChipOp:
        if self.policy == "read-priority":
            for index, op in enumerate(self.queue):
                if op.is_host_read:
                    del self.queue[index]
                    return op
        return self.queue.popleft()

    def _start_next(self) -> None:
        if not self.queue:
            return
        op = self._pick()
        self.busy = True
        self.busy_time += op.duration_us
        self.op_count += 1

        def complete() -> None:
            self.busy = False
            op.on_complete(self.engine.now)
            self._start_next()

        self.engine.schedule_in(op.duration_us, complete)

    @property
    def idle(self) -> bool:
        return not self.busy and not self.queue


class EventDrivenSSD:
    """The event-driven counterpart of :class:`~repro.sim.ssd.SimulatedSSD`.

    Channels and the hash unit stay FIFO (there is no sensible reordering
    for a wire); chips take the configurable policy.
    """

    def __init__(
        self,
        ftl: BaseFTL,
        chip_policy: str = "fifo",
        log: Optional[CompletionLog] = None,
    ):
        self.ftl = ftl
        config = ftl.config
        self.timing = config.timing
        self.geometry = ftl.array.geometry
        self.engine = EventEngine()
        self.chips = [
            ChipServer(self.engine, chip_policy)
            for _ in range(config.total_chips)
        ]
        self.channels = [
            ChipServer(self.engine, "fifo") for _ in range(config.channels)
        ]
        self.hash_unit = ChipServer(self.engine, "fifo")
        self._chips_per_channel = config.chips_per_channel
        self.log = log
        self.reads = LatencyStats()
        self.writes = LatencyStats()
        self.horizon_us = 0.0

    # ------------------------------------------------------------------
    # Op-chain plumbing
    # ------------------------------------------------------------------

    def _channel_of(self, chip: int) -> ChipServer:
        return self.channels[chip // self._chips_per_channel]

    def _chip_op(
        self,
        chip: int,
        kind: str,
        flash_us: float,
        then: Callable[[float], None],
        is_host_read: bool = False,
    ) -> None:
        """Channel transfer followed by the chip array operation."""

        def after_xfer(_t: float) -> None:
            self.chips[chip].submit(ChipOp(
                kind=kind, duration_us=flash_us, on_complete=then,
                is_host_read=is_host_read,
            ))

        self._channel_of(chip).submit(ChipOp(
            kind="xfer", duration_us=self.timing.channel_xfer_us,
            on_complete=after_xfer,
        ))

    def _erase_op(
        self, chip: int, then: Callable[[float], None]
    ) -> None:
        self.chips[chip].submit(ChipOp(
            kind="erase", duration_us=self.timing.erase_us, on_complete=then,
        ))

    def _charge_gc(self, work: GCWork) -> None:
        for old_ppn, _new_ppn in work.relocations:
            chip = self.geometry.chip_of_ppn(old_ppn)
            self._chip_op(chip, "read", self.timing.read_us, lambda _t: None)
            self._chip_op(
                chip, "program", self.timing.program_us, lambda _t: None
            )
        for block in work.erased_blocks:
            self._erase_op(self.geometry.chip_of_block(block), lambda _t: None)

    # ------------------------------------------------------------------
    # Request handling (fires inside arrival events)
    # ------------------------------------------------------------------

    def _finish(self, request: IORequest, finish_us: float,
                short_circuited: bool = False, dedup_hit: bool = False) -> None:
        completed = CompletedRequest(
            request=request, start_us=request.arrival_us,
            finish_us=finish_us, short_circuited=short_circuited,
            dedup_hit=dedup_hit,
        )
        latency = completed.latency_us
        if request.op is OpType.WRITE:
            self.writes.record(latency)
        elif request.op is OpType.READ:
            self.reads.record(latency)
        if self.log is not None:
            self.log.record(completed)
        if finish_us > self.horizon_us:
            self.horizon_us = finish_us

    def _on_write(self, request: IORequest) -> None:
        outcome = self.ftl.write(request.lpn, request.fingerprint)

        def place() -> None:
            """Mapping tables are updated; move the data (or don't)."""
            if outcome.program_ppn is None:
                self._finish(
                    request, self.engine.now,
                    short_circuited=outcome.short_circuited,
                    dedup_hit=outcome.dedup_hit,
                )
                return
            # GC ran before the allocation: its ops occupy the chip first.
            if outcome.gc is not None:
                self._charge_gc(outcome.gc)
            chip = self.geometry.chip_of_ppn(outcome.program_ppn)
            self._chip_op(
                chip, "program", self.timing.program_us,
                lambda finish: self._finish(request, finish),
            )

        def after_mapping() -> None:
            if outcome.verify_read_ppn is not None:
                chip = self.geometry.chip_of_ppn(outcome.verify_read_ppn)
                self._chip_op(
                    chip, "read", self.timing.read_us, lambda _t: place()
                )
            else:
                place()

        def after_hash(_t: float) -> None:
            self.engine.schedule_in(self.timing.mapping_us, after_mapping)

        if outcome.hashed:
            self.hash_unit.submit(ChipOp(
                kind="hash", duration_us=self.timing.hash_us,
                on_complete=after_hash,
            ))
        else:
            after_hash(self.engine.now)

    def _on_read(self, request: IORequest) -> None:
        outcome = self.ftl.read(request.lpn)
        if outcome.ppn is None:
            self._finish(request, self.engine.now + self.timing.mapping_us)
            return

        def after_mapping() -> None:
            chip = self.geometry.chip_of_ppn(outcome.ppn)
            self._chip_op(
                chip, "read", self.timing.read_us,
                lambda finish: self._finish(request, finish),
                is_host_read=True,
            )

        self.engine.schedule_in(self.timing.mapping_us, after_mapping)

    def _on_trim(self, request: IORequest) -> None:
        self.ftl.trim(request.lpn)
        self._finish(request, self.engine.now + self.timing.mapping_us)

    # ------------------------------------------------------------------

    def run(
        self,
        requests: Iterable[IORequest],
        system: str = "",
        workload: str = "",
    ) -> RunResult:
        """Replay a whole trace through the event loop."""
        handlers = {
            OpType.WRITE: self._on_write,
            OpType.READ: self._on_read,
            OpType.TRIM: self._on_trim,
        }
        for request in requests:
            self.engine.schedule(
                request.arrival_us,
                lambda r=request: handlers[r.op](r),
            )
        self.engine.run()
        return RunResult(
            system=system,
            workload=workload,
            counters=self.ftl.counters,
            reads=self.reads,
            writes=self.writes,
            horizon_us=self.horizon_us,
        )
