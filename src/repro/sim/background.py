"""Background (idle-time) garbage collection on top of the timeline model.

The paper's simulator — like most FTL studies — runs GC *on demand*: a
write that finds its plane below the watermark performs collection in the
foreground and every queued request eats the erase latency.  Real drives
hide much of this by collecting while the device is idle.

:class:`BackgroundGCSSD` approximates idle-time GC within the trace-driven
timeline model: before servicing each request (the simulator's
``background`` slot, which it fills) it probes a few planes in
round-robin order, and any plane below the *background* watermark gets one
block collected, with the flash operations charged to the plane's chip
starting at the current arrival time.  When the drive is genuinely idle
those operations complete inside the gap and cost nothing observable; when
it is busy they queue like any other work (we deliberately do not model
preemption — the remaining pessimism keeps the comparison honest).

The on-demand watermark machinery stays armed underneath, so a burst that
outruns the background collector still cannot strand a plane.

This is an *extension* relative to the paper; the ablation benchmark
(``benchmarks/test_ablation_background_gc.py``) quantifies how much of the
dead-value pool's tail-latency win survives when the baseline is given
this stronger GC.
"""

from __future__ import annotations

from typing import Optional

from ..ftl.ftl import BaseFTL
from .logging import CompletionLog
from .ssd import SimulatedSSD

__all__ = ["BackgroundGCSSD"]


class BackgroundGCSSD(SimulatedSSD):
    """SimulatedSSD with opportunistic idle-time collection.

    Parameters
    ----------
    background_watermark:
        Free-block level each plane is kept topped up to (must exceed the
        FTL's on-demand low watermark).
    planes_per_probe:
        How many planes are examined per host request; the probe cursor is
        round-robin, so every plane is visited regularly.
    """

    def __init__(
        self,
        ftl: BaseFTL,
        queue_depth: Optional[int] = None,
        log: Optional[CompletionLog] = None,
        background_watermark: int = 4,
        planes_per_probe: int = 2,
    ):
        super().__init__(ftl, queue_depth=queue_depth, log=log)
        if planes_per_probe <= 0:
            raise ValueError("planes_per_probe must be positive")
        if background_watermark <= ftl.gc.low_watermark:
            raise ValueError(
                "background watermark must exceed the on-demand watermark"
            )
        self.background_watermark = background_watermark
        self.planes_per_probe = planes_per_probe
        self._probe_cursor = 0
        self.background_erases = 0
        self.background_relocations = 0
        self.background = self._background_pass

    def _background_pass(self, now_us: float) -> None:
        """Probe the next ``planes_per_probe`` planes at ``now_us`` (a
        request's arrival) and collect one block in each idle one below
        the background watermark."""
        geometry = self.ftl.array.geometry
        total_planes = geometry.total_planes
        planes_per_chip = geometry.planes_per_chip
        for _ in range(self.planes_per_probe):
            plane = self._probe_cursor
            self._probe_cursor = (self._probe_cursor + 1) % total_planes
            # Only collect when the plane's chip is genuinely idle right
            # now — that is what makes this *background* work.
            chip = plane // planes_per_chip
            if self.timelines.chips[chip].busy_until > now_us:
                continue
            work = self.ftl.gc.background_collect(
                self.ftl, plane, self.background_watermark
            )
            if work.erase_count or work.relocation_count:
                self.ftl.counters.gc_erases += work.erase_count
                self.ftl.counters.gc_relocations += work.relocation_count
                self.background_erases += work.erase_count
                self.background_relocations += work.relocation_count
                self._charge_gc(work, now_us)
