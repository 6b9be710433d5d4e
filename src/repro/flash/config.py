"""SSD configuration (paper Table I) and scaled variants for fast runs.

The paper's modeled SSD: 8 channels × 8 chips, 4 dies/chip, 2 planes/die,
256 pages/block, 4KB pages, 1TB capacity, 15% over-provisioning, with
read/program/erase latencies of 75µs/400µs/3.8ms and a 12µs hashing latency
charged to every incoming write when content hashing is enabled.

A full 1TB geometry is far too large for a pure-Python trace replay, so
:func:`SSDConfig.scaled` produces geometrically-similar small drives: same
channel/chip parallelism ratios and the same timing, with block counts sized
to the workload's footprint.  EXPERIMENTS.md records the scale used for each
reproduced figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["TimingParams", "SSDConfig", "paper_config", "scaled_config"]


@dataclass(frozen=True)
class TimingParams:
    """Flash and controller latencies, in microseconds (Table I)."""

    read_us: float = 75.0
    program_us: float = 400.0
    erase_us: float = 3800.0
    hash_us: float = 12.0          # Helion-style hardware hash core [35]
    channel_xfer_us: float = 10.0  # ONFi 4.0 transfer of a 4KB page
    mapping_us: float = 1.0        # FTL table lookup/update on the controller
    read_retry_us: float = 40.0    # one ECC read-retry round (shifted Vref sense)

    def __post_init__(self) -> None:
        for name in (
            "read_us",
            "program_us",
            "erase_us",
            "hash_us",
            "channel_xfer_us",
            "mapping_us",
            "read_retry_us",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def read_service_us(self, retry_rounds: int = 0) -> float:
        """Array time of one read including ``retry_rounds`` ECC retries."""
        return self.read_us + retry_rounds * self.read_retry_us


@dataclass(frozen=True)
class SSDConfig:
    """Geometry and policy knobs of the simulated drive."""

    channels: int = 8
    chips_per_channel: int = 8
    dies_per_chip: int = 4
    planes_per_die: int = 2
    # Not listed in Table I; derived from the 1TB raw capacity:
    # 2048 blocks x 256 pages x 4KB x 512 planes = 1TB.
    blocks_per_plane: int = 2048
    pages_per_block: int = 256
    page_size: int = 4096
    overprovision: float = 0.15
    timing: TimingParams = field(default_factory=TimingParams)
    # GC policy: start collecting when the free-page fraction of the raw
    # capacity drops below ``gc_threshold``; collect until ``gc_target``.
    gc_threshold: float = 0.05
    gc_target: float = 0.07

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.overprovision < 1.0:
            raise ValueError("overprovision must be in [0, 1)")
        if not 0.0 < self.gc_threshold <= self.gc_target < 1.0:
            raise ValueError("require 0 < gc_threshold <= gc_target < 1")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------

    @property
    def total_chips(self) -> int:
        return self.channels * self.chips_per_channel

    @property
    def planes_per_chip(self) -> int:
        return self.dies_per_chip * self.planes_per_die

    @property
    def total_planes(self) -> int:
        return self.total_chips * self.planes_per_chip

    @property
    def total_blocks(self) -> int:
        return self.total_planes * self.blocks_per_plane

    @property
    def total_pages(self) -> int:
        """Raw physical pages."""
        return self.total_blocks * self.pages_per_block

    @property
    def logical_pages(self) -> int:
        """Pages exported to the host after over-provisioning."""
        return int(self.total_pages * (1.0 - self.overprovision))

    @property
    def raw_capacity_bytes(self) -> int:
        return self.total_pages * self.page_size

    def with_timing(self, **kwargs: float) -> "SSDConfig":
        """A copy with some timing parameters overridden."""
        return replace(self, timing=replace(self.timing, **kwargs))


def paper_config() -> SSDConfig:
    """The exact Table I drive (1TB raw; impractical to simulate fully)."""
    return SSDConfig()


def scaled_config(
    logical_pages: int,
    channels: int = 4,
    chips_per_channel: int = 2,
    dies_per_chip: int = 1,
    planes_per_die: int = 1,
    pages_per_block: int = 64,
    overprovision: float = 0.15,
) -> SSDConfig:
    """A small drive with the paper's timing and ratios, sized to a workload.

    ``logical_pages`` is the host-visible footprint needed; the block count
    per plane is derived so the raw capacity covers it plus
    over-provisioning.  The default geometry keeps the paper's channel/chip
    parallelism but collapses dies and planes to one each, so every plane
    has enough blocks for GC watermarks to behave like a real drive even at
    small capacities.
    """
    if logical_pages <= 0:
        raise ValueError("logical_pages must be positive")
    planes = channels * chips_per_channel * dies_per_chip * planes_per_die
    raw_pages_needed = int(logical_pages / (1.0 - overprovision)) + 1
    blocks_needed = -(-raw_pages_needed // pages_per_block)  # ceil div
    # Floor of 16 blocks/plane: a plane must fit two active blocks
    # (host + GC relocation) plus the GC watermark with room to spare.
    blocks_per_plane = max(16, -(-blocks_needed // planes))
    return SSDConfig(
        channels=channels,
        chips_per_channel=chips_per_channel,
        dies_per_chip=dies_per_chip,
        planes_per_die=planes_per_die,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=pages_per_block,
        overprovision=overprovision,
    )
