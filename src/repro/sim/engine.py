"""A minimal discrete-event simulation engine.

The timeline model in :mod:`repro.sim.ssd` prices operations analytically
(FIFO resources, start = max(arrival, busy_until)).  That is fast and
exact for FIFO service, but cannot express *scheduling decisions* — e.g. a
chip that lets queued reads overtake queued GC writes.  This engine is the
general substrate: a classic event loop (heap of timestamped callbacks,
deterministic FIFO tie-breaking) on which :mod:`repro.sim.des_ssd` builds
an event-driven device with pluggable per-chip schedulers.

The engine is intentionally tiny and fully deterministic: two events at
the same timestamp fire in scheduling order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional

__all__ = ["EventHandle", "EventEngine"]


@dataclass(order=True, slots=True)
class _ScheduledEvent:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class EventHandle:
    """Opaque handle returned by :meth:`EventEngine.schedule`."""

    _event: _ScheduledEvent

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


#: Cancelled events are lazily dropped when popped; once more than this
#: many (and more than half the heap) are dead, the heap is compacted so
#: cancel-heavy workloads don't leak memory or slow the heap operations.
_PURGE_MIN_CANCELLED = 64


class EventEngine:
    """Deterministic event loop."""

    def __init__(self) -> None:
        self._heap: List[_ScheduledEvent] = []
        self._seq = 0
        self._now = 0.0
        self.events_fired = 0
        self.events_cancelled = 0
        self._pending = 0        # live (not-fired, not-cancelled) events
        self._dead_in_heap = 0   # cancelled events still in the heap

    @property
    def now(self) -> float:
        """Current simulation time (µs, by this package's convention)."""
        return self._now

    def schedule(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` to fire at ``time`` (>= now)."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} before now ({self._now})"
            )
        event = _ScheduledEvent(time=time, seq=self._seq, callback=callback)
        self._seq += 1
        heapq.heappush(self._heap, event)
        self._pending += 1
        return EventHandle(event)

    def schedule_in(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule(self._now + delay, callback)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending event (firing a cancelled event is a no-op)."""
        event = handle._event
        if event.cancelled:
            return
        event.cancelled = True
        self._pending -= 1
        self._dead_in_heap += 1
        self.events_cancelled += 1
        self._maybe_purge()

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events (O(1))."""
        return self._pending

    def _maybe_purge(self) -> None:
        """Rebuild the heap without cancelled events once they dominate."""
        if (
            self._dead_in_heap > _PURGE_MIN_CANCELLED
            and self._dead_in_heap * 2 > len(self._heap)
        ):
            self._heap = [e for e in self._heap if not e.cancelled]
            heapq.heapify(self._heap)
            self._dead_in_heap = 0

    def step(self) -> bool:
        """Fire the next event; returns False when the heap is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._dead_in_heap -= 1
                continue
            self._now = event.time
            self.events_fired += 1
            self._pending -= 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None) -> None:
        """Fire events until the heap empties (or past ``until``).

        With ``until``, events strictly after it remain pending and the
        clock advances to exactly ``until``.
        """
        while self._heap:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                self._dead_in_heap -= 1
                continue
            if until is not None and head.time > until:
                break
            self.step()
        if until is not None and until > self._now:
            self._now = until
