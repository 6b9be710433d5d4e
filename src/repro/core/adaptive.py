"""Adaptive-capacity MQ dead-value pool (the paper's stated future work).

Section V-A, footnote 5: *"In the future, we are planing to add more
capabilities to our design, such as dynamically tuning the total capacity
for MQ, in order to adapt itself to any changes in the workload."*

:class:`AdaptiveMQDeadValuePool` implements that extension.  It watches a
sliding window of pool activity and resizes the underlying multi-queue:

* **grow** when the pool is under capacity pressure — a meaningful share
  of the window's insertions caused evictions while lookups were hitting
  (the pool is earning its memory and losing candidates);
* **shrink** when the pool is over-provisioned — no evictions occurred
  and occupancy sits well below capacity, so RAM can be handed back.

Both moves are multiplicative (×``grow_factor`` / ÷``grow_factor``) and
clamped to ``[min_entries, max_entries]``.  Shrinking evicts coldest-first
through the MQ machinery, so popular dead values survive a downsize.

Counters (`resizes_up`, `resizes_down`, `capacity_high_water`) are exposed
for the ablation benchmark (``benchmarks/test_ablation_adaptive.py``).
"""

from __future__ import annotations

from typing import List, Optional

from .dvp import MQDeadValuePool
from .hashing import Fingerprint

__all__ = ["AdaptiveMQDeadValuePool"]


class AdaptiveMQDeadValuePool(MQDeadValuePool):
    """An MQ dead-value pool that tunes its own capacity.

    Parameters
    ----------
    initial_entries:
        Starting capacity.
    min_entries / max_entries:
        Hard clamps on the adaptation (the RAM budget).
    window:
        Number of pool events (lookups + insertions) per adaptation step.
    grow_factor:
        Multiplicative step for both directions.
    pressure_threshold:
        Fraction of window insertions that must cause evictions before
        the pool grows.
    slack_threshold:
        Maximum occupancy/capacity ratio at which the pool shrinks
        (given the window also saw zero evictions).
    """

    def __init__(
        self,
        initial_entries: int,
        min_entries: Optional[int] = None,
        max_entries: Optional[int] = None,
        num_queues: int = 8,
        window: int = 2048,
        grow_factor: float = 1.5,
        pressure_threshold: float = 0.05,
        slack_threshold: float = 0.5,
    ):
        super().__init__(initial_entries, num_queues=num_queues)
        if window <= 0:
            raise ValueError("window must be positive")
        if grow_factor <= 1.0:
            raise ValueError("grow_factor must exceed 1")
        if not 0.0 <= pressure_threshold <= 1.0:
            raise ValueError("pressure_threshold must be in [0, 1]")
        if not 0.0 < slack_threshold < 1.0:
            raise ValueError("slack_threshold must be in (0, 1)")
        self.min_entries = min_entries or max(64, initial_entries // 8)
        self.max_entries = max_entries or initial_entries * 8
        if not self.min_entries <= initial_entries <= self.max_entries:
            raise ValueError("initial capacity outside [min, max]")
        self.window = window
        self.grow_factor = grow_factor
        self.pressure_threshold = pressure_threshold
        self.slack_threshold = slack_threshold
        # Window accumulators and adaptation telemetry.
        self._window_events = 0
        self._window_insertions = 0
        self._window_evictions = 0
        self.resizes_up = 0
        self.resizes_down = 0
        self.capacity_high_water = initial_entries

    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._mq.capacity

    def lookup_for_write(self, fp: Fingerprint, now: int) -> Optional[int]:
        hit = super().lookup_for_write(fp, now)
        self._tick()
        return hit

    def insert_garbage(
        self,
        fp: Fingerprint,
        ppn: int,
        now: int,
        popularity: int = 1,
        lpn: Optional[int] = None,
    ) -> List[int]:
        before = self.stats.evictions
        dropped = super().insert_garbage(fp, ppn, now, popularity, lpn)
        self._window_insertions += 1
        self._window_evictions += self.stats.evictions - before
        self._tick()
        return dropped

    def clear_volatile(self) -> None:
        """Power loss: drop entries and the in-flight adaptation window.

        The current capacity is kept (it is a firmware sizing decision,
        re-derivable but harmless to retain); telemetry counters survive
        as measurements.
        """
        super().clear_volatile()
        self._window_events = 0
        self._window_insertions = 0
        self._window_evictions = 0

    def skip_missed_lookups(self, count: int) -> None:
        """Also move the adaptation window as ``count`` misses would."""
        super().skip_missed_lookups(count)
        closing = self.window - self._window_events
        if count >= closing:  # the open window closes on what it holds
            self._window_events = self.window - 1
            self._tick()
            count -= closing
        # Later windows close on zero insertions, a no-op: only the phase moves.
        self._window_events = (self._window_events + count) % self.window

    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._window_events += 1
        if self._window_events < self.window:
            return
        self._adapt()
        self._window_events = 0
        self._window_insertions = 0
        self._window_evictions = 0

    def _adapt(self) -> None:
        insertions = self._window_insertions
        if insertions == 0:
            return
        pressure = self._window_evictions / insertions
        if pressure > self.pressure_threshold:
            self._resize(min(
                self.max_entries, int(self.capacity * self.grow_factor)
            ))
        elif (
            self._window_evictions == 0
            and len(self) < self.capacity * self.slack_threshold
        ):
            self._resize(max(
                self.min_entries, int(self.capacity / self.grow_factor)
            ))

    def _resize(self, new_capacity: int) -> None:
        if new_capacity == self.capacity:
            return
        if new_capacity > self.capacity:
            self.resizes_up += 1
        else:
            self.resizes_down += 1
        evicted = self._mq.set_capacity(new_capacity)
        garbage_pop = self.garbage_pop
        for _, entry in evicted:
            self.stats.evictions += 1
            self.stats.evicted_ppns += len(entry.ppns)
            self._tracked -= len(entry.ppns)
            if garbage_pop is not None:
                for ppn in entry.ppns:
                    garbage_pop.drop(ppn)
        if new_capacity > self.capacity_high_water:
            self.capacity_high_water = new_capacity
