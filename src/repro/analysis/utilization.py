"""Device utilisation and load-balance statistics.

The paper's latency arguments are queueing arguments: programs and erases
occupy chips, and everything behind them waits.  This module extracts the
resource-occupancy picture from a finished simulation — per-chip busy
fractions and op counts, channel and hash-unit utilisation — so
experiments can show *why* a configuration's latency moved, not just that
it did.

Works with both device models (the timeline model's
:class:`~repro.flash.timing.ResourceTimeline` and the event model's
:class:`~repro.sim.des_ssd.ChipServer` expose ``busy_time``/``op_count``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["ResourceUsage", "UtilisationReport", "utilisation_report"]


@dataclass(frozen=True)
class ResourceUsage:
    """Busy time and operation count of one resource."""

    name: str
    busy_time_us: float
    op_count: int

    def utilisation(self, horizon_us: float) -> float:
        if horizon_us <= 0:
            return 0.0
        return min(1.0, self.busy_time_us / horizon_us)


@dataclass(frozen=True)
class UtilisationReport:
    """Occupancy summary of a finished run."""

    horizon_us: float
    chips: List[ResourceUsage]
    channels: List[ResourceUsage]
    hash_unit: ResourceUsage

    @property
    def mean_chip_utilisation(self) -> float:
        if not self.chips:
            return 0.0
        return sum(
            c.utilisation(self.horizon_us) for c in self.chips
        ) / len(self.chips)

    def rows(self) -> List[Sequence[object]]:
        """Table rows for :func:`repro.analysis.report.render_table`."""
        out: List[Sequence[object]] = [
            (c.name, f"{c.utilisation(self.horizon_us):.3f}", c.op_count)
            for c in self.chips
        ]
        out += [
            (ch.name, f"{ch.utilisation(self.horizon_us):.3f}", ch.op_count)
            for ch in self.channels
        ]
        out.append((
            self.hash_unit.name,
            f"{self.hash_unit.utilisation(self.horizon_us):.3f}",
            self.hash_unit.op_count,
        ))
        return out


def utilisation_report(device) -> UtilisationReport:
    """Build a report from a finished simulated device.

    Accepts a :class:`~repro.sim.ssd.SimulatedSSD` (timelines) or an
    :class:`~repro.sim.des_ssd.EventDrivenSSD` (chip servers).
    """
    if hasattr(device, "timelines"):          # timeline model
        chips = device.timelines.chips
        channels = device.timelines.channels
        hash_unit = device.timelines.hash_unit
        horizon = device.horizon_us
        def usage(name, r):
            return ResourceUsage(name, r.busy_time, r.op_count)
    else:                                     # event-driven model
        chips = device.chips
        channels = device.channels
        hash_unit = device.hash_unit
        horizon = device.horizon_us
        def usage(name, r):
            return ResourceUsage(name, r.busy_time, r.op_count)
    return UtilisationReport(
        horizon_us=horizon,
        chips=[usage(f"chip{i}", c) for i, c in enumerate(chips)],
        channels=[usage(f"chan{i}", c) for i, c in enumerate(channels)],
        hash_unit=usage("hash", hash_unit),
    )
