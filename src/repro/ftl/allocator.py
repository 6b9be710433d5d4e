"""Page allocation: active blocks, per-plane free lists, channel striping.

Writes are striped round-robin across planes (and therefore channels and
chips) so independent requests land on independent resources — the
"dynamic allocation" scheme SSDSim uses to expose internal parallelism.
GC relocations stay inside the victim's plane, which is how real drives
avoid cross-channel copy traffic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set

from ..flash.array import FlashArray

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from ..faults.model import FaultModel, FaultStats

__all__ = ["OutOfSpaceError", "PageAllocator", "BadBlockManager"]


class OutOfSpaceError(RuntimeError):
    """Raised when a plane has neither free pages nor reclaimable garbage."""


class PageAllocator:
    """Tracks one active block per plane and the free-block lists."""

    def __init__(self, array: FlashArray):
        self.array = array
        geometry = array.geometry
        self._planes = geometry.total_planes
        self._blocks_per_plane = geometry.blocks_per_plane
        # Free blocks per plane, as flat block indexes.
        self.free_blocks: List[Deque[int]] = []
        for plane in range(self._planes):
            base = plane * self._blocks_per_plane
            self.free_blocks.append(
                deque(range(base, base + self._blocks_per_plane))
            )
        # Separate append points for host data and GC relocations: mixing
        # hot host writes with cold relocated pages in one block is the
        # classic write-amplification trap, so each plane keeps two active
        # blocks (SSDSim's hot/cold separation).
        self._active: List[Optional[int]] = [None] * self._planes
        self._active_gc: List[Optional[int]] = [None] * self._planes
        self._next_plane = 0

    # ------------------------------------------------------------------

    def free_block_count(self, plane: int) -> int:
        return len(self.free_blocks[plane])

    def writable_pages(self, plane: int) -> int:
        """Pages still programmable in ``plane`` without reclaiming space:
        both active blocks' free tails plus all free-listed blocks."""
        block = self._active[plane]
        host_tail = 0 if block is None else self.array.block(block).free_pages
        return host_tail + self.relocatable_pages(plane)

    def relocatable_pages(self, plane: int) -> int:
        """Pages GC relocation can reach in ``plane``: the relocation
        block's free tail plus all free-listed blocks (not the host's)."""
        pages = len(self.free_blocks[plane]) * self.array.config.pages_per_block
        block = self._active_gc[plane]
        if block is not None:
            pages += self.array.block(block).free_pages
        return pages

    def plane_of_next_write(self) -> int:
        """Which plane the next host write will be striped to."""
        return self._next_plane

    def _open_block(self, plane: int, actives: List[Optional[int]]) -> int:
        if not self.free_blocks[plane]:
            raise OutOfSpaceError(f"plane {plane} has no free blocks")
        block = self.free_blocks[plane].popleft()
        actives[plane] = block
        return block

    def allocate(self) -> int:
        """Program one host page on the round-robin plane; return its PPN."""
        plane = self._next_plane
        self._next_plane = (self._next_plane + 1) % self._planes
        return self.allocate_in_plane(plane)

    def allocate_in_plane(self, plane: int, for_gc: bool = False) -> int:
        """Program one page in a specific plane.

        ``for_gc`` selects the plane's relocation block, so cold relocated
        pages never share a block with fresh host data (the hot/cold
        separation real FTLs use to keep write amplification down).
        """
        actives = self._active_gc if for_gc else self._active
        blocks = self.array.blocks
        block = actives[plane]
        if block is None or blocks[block].write_pointer >= blocks[block].pages_per_block:
            block = self._open_block(plane, actives)
        b = blocks[block]
        ppn = self.array.program_in_block(block)
        if b.write_pointer >= b.pages_per_block:
            actives[plane] = None
        return ppn

    def release_block(self, block_global: int) -> None:
        """Return an erased block to its plane's free list."""
        plane = self.array.geometry.plane_of_block(block_global)
        self.free_blocks[plane].append(block_global)

    def is_active(self, block_global: int) -> bool:
        plane = self.array.geometry.plane_of_block(block_global)
        return (
            self._active[plane] == block_global
            or self._active_gc[plane] == block_global
        )

    def actives_of_plane(self, plane: int):
        """Both append points of ``plane`` as ``(host, gc)`` (may be None).

        Lets a per-plane scan test activeness with two scalar compares
        instead of :meth:`is_active`'s per-block plane division.
        """
        return self._active[plane], self._active_gc[plane]

    def check_invariants(self) -> None:
        """Free-listed blocks must be fully erased; actives must be open."""
        for plane, blocks in enumerate(self.free_blocks):
            for block in blocks:
                b = self.array.block(block)
                assert not b.retired, (
                    f"retired block {block} on a free list"
                )
                assert b.write_pointer == 0, (
                    f"free-listed block {block} has programmed pages"
                )
        for actives in (self._active, self._active_gc):
            for plane, block in enumerate(actives):
                if block is not None:
                    assert not self.array.block(block).is_full, (
                        f"active block {block} is full"
                    )


class BadBlockManager:
    """Grown-bad-block bookkeeping: spare budget, retirement, degradation.

    Real drives ship a reserved pool of spare blocks *per plane* (a spare
    can only remap failures within its own plane's rotation) and remap
    grown-bad blocks onto it transparently.  The reproduction models the
    budget virtually: a retired block simply leaves its plane's rotation
    (it is never free-listed again) and is charged against that plane's
    ``spares_per_plane`` share; while the share lasts, the capacity loss
    is what a remap onto a spare would have absorbed.  Once any plane's
    retirements exceed its share, that plane has lost real exported
    capacity — and because host writes stripe round-robin over *all*
    planes, the drive degrades to read-only as a whole, exactly the
    end-of-life behaviour of a real SSD.  (A global budget would be
    wrong twice over: it lets one unlucky plane bleed out its free-block
    slack while the drive still looks healthy, which ends in a hard
    out-of-space failure mid-GC instead of a graceful rejection.)

    The manager is pure bookkeeping: the :class:`~repro.ftl.gc.GarbageCollector`
    asks :meth:`should_retire` at erase time and performs the physical
    retirement; the FTL reports program failures via
    :meth:`note_program_failure` as they happen.
    """

    def __init__(
        self,
        stats: "FaultStats",
        spares_per_plane: int,
        retire_threshold: int,
        plane_of_block: Callable[[int], int],
        planes: int,
    ):
        if spares_per_plane < 0:
            raise ValueError("spares_per_plane must be non-negative")
        if retire_threshold < 1:
            raise ValueError("retire_threshold must be at least 1")
        if planes < 1:
            raise ValueError("planes must be at least 1")
        self.stats = stats
        self.spares_per_plane = spares_per_plane
        self.retire_threshold = retire_threshold
        self.plane_of_block = plane_of_block
        self.planes = planes
        self.retired: Set[int] = set()
        self._retired_in_plane: Dict[int, int] = {}
        self._program_failures: Dict[int, int] = {}
        self._marked: Set[int] = set()

    @property
    def spare_blocks(self) -> int:
        """Total spare budget across all planes."""
        return self.spares_per_plane * self.planes

    @property
    def spares_remaining(self) -> int:
        """Unspent spares, summed over planes (each share is captive)."""
        spent = sum(
            min(count, self.spares_per_plane)
            for count in self._retired_in_plane.values()
        )
        return self.spare_blocks - spent

    @property
    def exhausted(self) -> bool:
        """Whether any plane has outspent its spare share."""
        return any(
            count > self.spares_per_plane
            for count in self._retired_in_plane.values()
        )

    def retired_in_plane(self, plane: int) -> int:
        return self._retired_in_plane.get(plane, 0)

    def note_program_failure(self, block_global: int) -> None:
        """A page program failed in this block; mark the block for
        retirement once failures reach the threshold."""
        count = self._program_failures.get(block_global, 0) + 1
        self._program_failures[block_global] = count
        if count >= self.retire_threshold:
            self._marked.add(block_global)

    def marked_for_retirement(self, block_global: int) -> bool:
        return block_global in self._marked

    def should_retire(
        self, block_global: int, faults: "Optional[FaultModel]"
    ) -> bool:
        """Decide at erase time: retire if the block accumulated enough
        program failures, or if the erase itself fails (one seeded draw)."""
        if block_global in self._marked:
            return True
        return faults is not None and faults.erase_fails()

    def retire(self, block_global: int) -> bool:
        """Record a retirement.  Returns ``True`` while the block's
        plane still has spare share to cover it (a remap), ``False``
        once that plane's reserve is exhausted and the drive must
        degrade to read-only."""
        self.retired.add(block_global)
        self._marked.discard(block_global)
        self._program_failures.pop(block_global, None)
        self.stats.retired_blocks += 1
        plane = self.plane_of_block(block_global)
        count = self._retired_in_plane.get(plane, 0) + 1
        self._retired_in_plane[plane] = count
        if count <= self.spares_per_plane:
            self.stats.remaps += 1
            return True
        return False
