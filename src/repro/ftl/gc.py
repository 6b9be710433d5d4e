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

Both compare plain scalars per candidate (invalid count or score, then
wear), with the first candidate winning a tie.

The :class:`GarbageCollector` runs per-plane (relocations stay in-plane)
whenever the plane's free-block count drops below a watermark.  Each
victim costs two calls into the FTL it collects for (passed to each pass,
never stored): ``relocate_block`` moves every valid page to the plane's
GC append point in one loop, and ``erase_cleanup`` drops the victim's
content and pool bookkeeping; then the collector erases or (fault layer)
retires the block.  It reports every physical operation so the simulator
can charge read/program/erase latencies to the chip timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Protocol, Tuple

from ..flash.array import FlashArray
from .mapping import POPULARITY_MAX

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a runtime cycle
    from .ftl import BaseFTL

__all__ = [
    "GCWork",
    "VictimPolicy",
    "GreedyVictimPolicy",
    "PopularityAwareVictimPolicy",
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
        blocks = array.blocks
        best = None
        best_invalid = best_wear = 0
        for block in candidates:
            b = blocks[block]
            invalid = b.invalid_count
            if invalid == 0:
                continue
            # Key (invalid, -wear), first candidate wins a tie.
            if (
                best is None
                or invalid > best_invalid
                or (invalid == best_invalid and b.erase_count < best_wear)
            ):
                best, best_invalid, best_wear = block, invalid, b.erase_count
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
        blocks = array.blocks
        weight = self.weight
        best = None
        best_score = 0.0
        best_wear = 0
        for block in candidates:
            b = blocks[block]
            if b.invalid_count == 0:
                continue
            penalty = weight * garbage_popularity_of(block) / POPULARITY_MAX
            score = b.invalid_count - penalty
            # Key (score, -wear), first candidate wins a tie.
            if (
                best is None
                or score > best_score
                or (score == best_score and b.erase_count < best_wear)
            ):
                best, best_score, best_wear = block, score, b.erase_count
        return best


class GarbageCollector:
    """Per-plane watermark-driven collection.

    The collector holds only its policy and knobs: every pass takes the
    FTL it collects for and reads the flash array, allocator,
    garbage-popularity table, fault layer and checker from it, so nothing
    below the FTL refers back to it (DESIGN.md §10, ownership).  The FTL
    owns the relocation itself (``relocate_block``: its mapping, content,
    OOB and append-point state move together); the collector owns victim
    choice, the erase and the fault layer's retirement.
    """

    def __init__(
        self,
        policy: VictimPolicy,
        low_watermark: int = 2,
        max_blocks_per_invocation: int = 1,
        wear_guard: Optional[Callable[[int], bool]] = None,
    ):
        if low_watermark <= 0:
            raise ValueError("low_watermark must be positive")
        if max_blocks_per_invocation <= 0:
            raise ValueError("max_blocks_per_invocation must be positive")
        self.policy = policy
        self.low_watermark = low_watermark
        self.max_blocks_per_invocation = max_blocks_per_invocation
        #: Optional wear-levelling predicate (block -> may erase?).  Vetoed
        #: blocks are only excluded while unvetoed candidates exist —
        #: levelling shapes preference, never correctness.
        self.wear_guard = wear_guard
        self.invocations = 0

    # ------------------------------------------------------------------

    def _victim(self, ftl: "BaseFTL", plane: int) -> Optional[int]:
        """The policy's pick among the plane's collectible blocks."""
        return self.policy.select(
            self._candidates(ftl, plane), ftl.array, ftl.garbage_pop.of
        )

    def _candidates(self, ftl: "BaseFTL", plane: int) -> List[int]:
        """Collectible blocks: full, non-active, with garbage to reclaim,
        and whose valid pages fit in the room relocation can reach (the
        relocation block's tail and the free blocks, not the host block's
        tail), so relocation can never strand the plane."""
        capacity = ftl.allocator.relocatable_pages(plane)
        blocks_per_plane = ftl.array.geometry.blocks_per_plane
        base = plane * blocks_per_plane
        blocks = ftl.array.blocks
        active, active_gc = ftl.allocator.actives_of_plane(plane)
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

    def maybe_collect(self, ftl: "BaseFTL", plane: int) -> GCWork:
        """Incremental collection: when ``ftl``'s plane is below the
        watermark, reclaim up to ``max_blocks_per_invocation`` victims.

        Called *before* each page allocation.  Collecting a bounded number
        of blocks per write amortises GC instead of erasing dozens of
        blocks in one burst: every collected victim reclaims at least one
        page while the triggering write consumes exactly one, so free space
        converges without multi-millisecond stop-the-world episodes.
        """
        if len(ftl.allocator.free_blocks[plane]) >= self.low_watermark:
            # Shared empty result for the common above-watermark path;
            # callers treat returned work as read-only.
            return _NO_WORK
        work = GCWork()
        self.invocations += 1
        self._collect_to_watermark(ftl, plane, work)
        if ftl.checker is not None:
            ftl.checker.after_gc(ftl, plane, work)
        return work

    def _collect_to_watermark(
        self, ftl: "BaseFTL", plane: int, work: GCWork
    ) -> None:
        allocator = ftl.allocator
        for _ in range(self.max_blocks_per_invocation):
            if (
                allocator.free_block_count(plane) >= self.low_watermark
                or ftl.read_only
            ):
                break
            victim = self._victim(ftl, plane)
            if victim is None:
                break
            work.merge(self._collect_block(ftl, victim, plane))
        # Emergency mode: the plane must always end an invocation with at
        # least one free block, or the *next* write could strand it (two
        # active blocks — host and relocation — may each need to open one).
        # Keep collecting past the per-invocation bound until that reserve
        # exists or nothing is collectible.  A drive that went read-only
        # mid-invocation stops instead: writes are rejected from here on,
        # so the reserve no longer needs restoring.
        while allocator.free_block_count(plane) == 0 and not ftl.read_only:
            victim = self._victim(ftl, plane)
            if victim is None:
                break
            work.merge(self._collect_block(ftl, victim, plane))
        if allocator.free_block_count(plane) == 0 and ftl.badblocks is not None:
            # The reserve could not be restored: retirements wore the plane
            # down until nothing left is collectible.  Under the fault layer
            # that is end of life, so degrade to read-only rather than let
            # the next block open raise OutOfSpaceError.  A fault-free drive
            # in this state is mis-provisioned and still raises.
            ftl.enter_read_only()

    def background_collect(
        self, ftl: "BaseFTL", plane: int, watermark: int
    ) -> GCWork:
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
        if ftl.allocator.free_block_count(plane) >= watermark:
            return work
        victim = self._victim(ftl, plane)
        if victim is not None:
            work.merge(self._collect_block(ftl, victim, plane))
        if ftl.checker is not None:
            ftl.checker.after_gc(ftl, plane, work)
        return work

    def _collect_block(self, ftl: "BaseFTL", victim: int, plane: int) -> GCWork:
        work = GCWork()
        array = ftl.array
        allocator = ftl.allocator
        base_ppn = victim * array._pages_per_block
        # The victim's garbage, taken before relocation turns the pages it
        # moves to garbage too (their content went with them).
        invalid_ppns = [
            base_ppn + p for p in array.blocks[victim].invalid_page_indexes()
        ]
        # Relocate valid pages within the plane, in one FTL call.
        ftl.relocate_block(victim, plane, work.relocations)
        ftl.erase_cleanup(victim, invalid_ppns)
        # Fault layer: a victim marked bad (repeat program failures) or
        # whose erase fails is retired instead of reclaimed.
        badblocks = ftl.badblocks
        if badblocks is not None and badblocks.should_retire(victim, ftl.faults):
            if allocator.free_block_count(plane) == 0:
                # Retiring this victim would consume the plane's last bit
                # of relocation headroom: a collection pass that ends with
                # zero free blocks leaves the *next* pass unable to open a
                # relocation block (hard OutOfSpaceError mid-GC).  Keep
                # the invariant that every pass returns a block to the
                # plane — degrade to read-only instead and reclaim the
                # victim normally; the bad block staying in rotation is
                # harmless because all future writes are rejected.
                ftl.enter_read_only()
                work.reclaimed_pages += array.erase(victim)
                allocator.release_block(victim)
                work.erased_blocks.append(victim)
            else:
                array.retire_block(victim)
                work.retired_blocks.append(victim)
                if not badblocks.retire(victim):
                    # Spare pool exhausted: degrade to read-only.
                    ftl.enter_read_only()
        else:
            work.reclaimed_pages += array.erase(victim)
            allocator.release_block(victim)
            work.erased_blocks.append(victim)
        return work
