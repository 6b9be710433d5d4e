"""Garbage collection: victim selection policies and the collection loop.

Two victim-selection policies from the paper:

``GreedyVictimPolicy``
    The classic baseline: pick the full block with the most invalid pages
    (maximum immediate space reclaim, minimum relocation work).

``PopularityAwareVictimPolicy``
    Section IV-D: a popularity-unaware GC "is very likely to obliviously
    select a block with many popular pages (currently garbage but very
    likely to get recycled soon)".  This policy discounts each candidate's
    reclaim benefit by the weighted sum of the popularity degrees of its
    garbage pages, delaying the erasure of popular dead values.

The :class:`GarbageCollector` runs per-plane (relocations stay in-plane)
whenever the plane's free-block count drops below a watermark, relocating
valid pages and erasing the victim.  It reports every physical operation so
the simulator can charge read/program/erase latencies to the chip
timelines, and calls back into the owning FTL for mapping and dead-value
pool bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Tuple

from ..flash.array import FlashArray
from .allocator import OutOfSpaceError, PageAllocator
from .mapping import POPULARITY_MAX

__all__ = [
    "GCWork",
    "VictimPolicy",
    "GreedyVictimPolicy",
    "PopularityAwareVictimPolicy",
    "GCDelegate",
    "GarbageCollector",
]


@dataclass(slots=True)
class GCWork:
    """Physical work performed by one collection pass."""

    relocations: List[Tuple[int, int]] = field(default_factory=list)
    erased_blocks: List[int] = field(default_factory=list)
    #: Victims whose erase failed (or that were marked bad): removed from
    #: service instead of being reclaimed.  Fault layer only.
    retired_blocks: List[int] = field(default_factory=list)
    reclaimed_pages: int = 0

    @property
    def erase_count(self) -> int:
        return len(self.erased_blocks)

    @property
    def relocation_count(self) -> int:
        return len(self.relocations)

    def merge(self, other: "GCWork") -> None:
        self.relocations.extend(other.relocations)
        self.erased_blocks.extend(other.erased_blocks)
        self.retired_blocks.extend(other.retired_blocks)
        self.reclaimed_pages += other.reclaimed_pages


#: Immutable-by-convention empty result for collection passes that decline
#: to run (the common case); saves one GCWork + three list allocations per
#: host write.
_NO_WORK = GCWork()


class VictimPolicy(Protocol):
    """Chooses which block a plane should erase next."""

    def select(
        self,
        candidates: List[int],
        array: FlashArray,
        garbage_popularity_of: Callable[[int], int],
    ) -> Optional[int]:
        """Return the victim block (flat index), or ``None`` to decline."""


class GreedyVictimPolicy:
    """Maximise invalid pages reclaimed; break ties toward low wear."""

    def select(
        self,
        candidates: List[int],
        array: FlashArray,
        garbage_popularity_of: Callable[[int], int],
    ) -> Optional[int]:
        best = None
        best_key = None
        for block in candidates:
            b = array.block(block)
            if b.invalid_count == 0:
                continue
            key = (b.invalid_count, -b.erase_count)
            if best_key is None or key > best_key:
                best, best_key = block, key
        return best


class PopularityAwareVictimPolicy:
    """Greedy benefit discounted by garbage-page popularity (Section IV-D).

    The score of a candidate is::

        invalid_count - weight * (popularity_sum / POPULARITY_MAX)

    i.e. each fully-popular garbage page cancels ``weight`` pages' worth of
    reclaim benefit, steering GC away from blocks dense in soon-to-be-reborn
    values.
    """

    def __init__(self, weight: float = 1.0):
        if weight < 0:
            raise ValueError("weight must be non-negative")
        self.weight = weight

    def select(
        self,
        candidates: List[int],
        array: FlashArray,
        garbage_popularity_of: Callable[[int], int],
    ) -> Optional[int]:
        best = None
        best_score = None
        for block in candidates:
            b = array.block(block)
            if b.invalid_count == 0:
                continue
            penalty = self.weight * garbage_popularity_of(block) / POPULARITY_MAX
            score = b.invalid_count - penalty
            key = (score, -b.erase_count)
            if best_score is None or key > best_score:
                best, best_score = block, key
        return best


class GCDelegate(Protocol):
    """Bookkeeping hooks the owning FTL provides to the collector."""

    def relocate_page(self, old_ppn: int, new_ppn: int) -> None:
        """A valid page moved: fix mapping tables and fingerprint indexes."""

    def erase_cleanup(self, block_global: int, invalid_ppns: List[int]) -> None:
        """A block is about to be erased: drop pool entries for its garbage."""


class GarbageCollector:
    """Per-plane watermark-driven collection."""

    def __init__(
        self,
        array: FlashArray,
        allocator: PageAllocator,
        policy: VictimPolicy,
        delegate: GCDelegate,
        garbage_popularity_of: Callable[[int], int],
        low_watermark: int = 2,
        max_blocks_per_invocation: int = 1,
        wear_guard: Optional[Callable[[int], bool]] = None,
    ):
        if low_watermark <= 0:
            raise ValueError("low_watermark must be positive")
        if max_blocks_per_invocation <= 0:
            raise ValueError("max_blocks_per_invocation must be positive")
        self.array = array
        self.allocator = allocator
        self.policy = policy
        self.delegate = delegate
        self.garbage_popularity_of = garbage_popularity_of
        self.low_watermark = low_watermark
        self.max_blocks_per_invocation = max_blocks_per_invocation
        #: Optional wear-levelling predicate (block -> may erase?).  Vetoed
        #: blocks are only excluded while unvetoed candidates exist —
        #: levelling shapes preference, never correctness.
        self.wear_guard = wear_guard
        self.invocations = 0
        #: Optional :class:`~repro.check.InvariantChecker` postcondition
        #: hook (set via ``BaseFTL.attach_checker``).
        self.checker = None

    # ------------------------------------------------------------------

    def needs_collection(self, plane: int) -> bool:
        return self.allocator.free_block_count(plane) < self.low_watermark

    def _victim(self, plane: int) -> Optional[int]:
        """The policy's pick among the plane's collectible blocks."""
        return self.policy.select(
            self._candidates(plane), self.array, self.garbage_popularity_of
        )

    def _candidates(self, plane: int) -> List[int]:
        """Collectible blocks: full, non-active, with garbage to reclaim,
        and whose valid pages fit in the room relocation can reach (the
        relocation block's tail and the free blocks, not the host block's
        tail), so relocation can never strand the plane."""
        capacity = self.allocator.relocatable_pages(plane)
        blocks_per_plane = self.array.geometry.blocks_per_plane
        base = plane * blocks_per_plane
        blocks = self.array.blocks
        active, active_gc = self.allocator.actives_of_plane(plane)
        out = []
        for block in range(base, base + blocks_per_plane):
            b = blocks[block]
            if (
                b.invalid_count > 0
                and b.write_pointer >= b.pages_per_block
                and b.valid_count <= capacity
                and block != active
                and block != active_gc
            ):
                out.append(block)
        if self.wear_guard is not None:
            levelled = [b for b in out if self.wear_guard(b)]
            if levelled:
                return levelled
        return out

    def maybe_collect(self, plane: int) -> GCWork:
        """Incremental collection: when the plane is below the watermark,
        reclaim up to ``max_blocks_per_invocation`` victims.

        Called *before* each page allocation.  Collecting a bounded number
        of blocks per write amortises GC instead of erasing dozens of
        blocks in one burst: every collected victim reclaims at least one
        page while the triggering write consumes exactly one, so free space
        converges without multi-millisecond stop-the-world episodes.
        """
        if len(self.allocator.free_blocks[plane]) >= self.low_watermark:
            # Shared empty result for the common above-watermark path;
            # callers treat returned work as read-only.
            return _NO_WORK
        work = GCWork()
        self.invocations += 1
        self._collect_to_watermark(plane, work)
        if self.checker is not None:
            self.checker.after_gc(self.delegate, plane, work)
        return work

    def _collect_to_watermark(self, plane: int, work: GCWork) -> None:
        for _ in range(self.max_blocks_per_invocation):
            if not self.needs_collection(plane) or getattr(
                self.delegate, "read_only", False
            ):
                break
            victim = self._victim(plane)
            if victim is None:
                break
            work.merge(self._collect_block(victim, plane))
        # Emergency mode: the plane must always end an invocation with at
        # least one free block, or the *next* write could strand it (two
        # active blocks — host and relocation — may each need to open one).
        # Keep collecting past the per-invocation bound until that reserve
        # exists or nothing is collectible.  A drive that went read-only
        # mid-invocation stops instead: writes are rejected from here on,
        # so the reserve no longer needs restoring.
        while (
            self.allocator.free_block_count(plane) == 0
            and not getattr(self.delegate, "read_only", False)
        ):
            victim = self._victim(plane)
            if victim is None:
                break
            work.merge(self._collect_block(victim, plane))

    def background_collect(self, plane: int, watermark: int) -> GCWork:
        """Opportunistic collection during idle time.

        Unlike :meth:`maybe_collect` (which runs only when the plane is
        about to run out), background collection keeps planes topped up to
        a *higher* watermark whenever the device has spare time, so
        foreground writes rarely observe GC at all.  Collects at most one
        block per call; the caller decides when idle time exists.
        """
        if watermark <= self.low_watermark:
            raise ValueError("background watermark must exceed the low one")
        work = GCWork()
        if self.allocator.free_block_count(plane) >= watermark:
            return work
        victim = self._victim(plane)
        if victim is not None:
            work.merge(self._collect_block(victim, plane))
        if self.checker is not None:
            self.checker.after_gc(self.delegate, plane, work)
        return work

    def _collect_block(self, victim: int, plane: int) -> GCWork:
        work = GCWork()
        geometry = self.array.geometry
        block = self.array.block(victim)
        base_ppn = geometry.first_ppn_of_block(victim)
        # Relocate valid pages within the plane.
        for page in block.valid_page_indexes():
            old_ppn = base_ppn + page
            try:
                new_ppn = self.allocator.allocate_in_plane(plane, for_gc=True)
            except OutOfSpaceError as exc:
                raise OutOfSpaceError(
                    f"plane {plane}: no room to relocate during GC"
                ) from exc
            self.delegate.relocate_page(old_ppn, new_ppn)
            self.array.invalidate(old_ppn)
            work.relocations.append((old_ppn, new_ppn))
        invalid_ppns = [base_ppn + p for p in block.invalid_page_indexes()]
        self.delegate.erase_cleanup(victim, invalid_ppns)
        # Fault layer: a victim marked bad (repeat program failures) or
        # whose erase fails is retired instead of reclaimed.  The delegate
        # attributes are absent on bare FTLs, so the fault-free path pays
        # two getattr calls per victim and nothing else.
        badblocks = getattr(self.delegate, "badblocks", None)
        if badblocks is not None and badblocks.should_retire(
            victim, getattr(self.delegate, "faults", None)
        ):
            if self.allocator.free_block_count(plane) == 0:
                # Retiring this victim would consume the plane's last bit
                # of relocation headroom: a collection pass that ends with
                # zero free blocks leaves the *next* pass unable to open a
                # relocation block (hard OutOfSpaceError mid-GC).  Keep
                # the invariant that every pass returns a block to the
                # plane — degrade to read-only instead and reclaim the
                # victim normally; the bad block staying in rotation is
                # harmless because all future writes are rejected.
                self.delegate.enter_read_only()
                work.reclaimed_pages += self.array.erase(victim)
                self.allocator.release_block(victim)
                work.erased_blocks.append(victim)
            else:
                self.array.retire_block(victim)
                work.retired_blocks.append(victim)
                if not badblocks.retire(victim):
                    # Spare pool exhausted: degrade to read-only.
                    self.delegate.enter_read_only()
        else:
            work.reclaimed_pages += self.array.erase(victim)
            self.allocator.release_block(victim)
            work.erased_blocks.append(victim)
        return work
