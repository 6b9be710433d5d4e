"""Unit tests for GC victim policies and the collection loop."""

from typing import List, Tuple

import pytest

from repro.flash.array import FlashArray
from repro.ftl.allocator import PageAllocator
from repro.ftl.gc import (
    GarbageCollector,
    GCWork,
    GreedyVictimPolicy,
    PopularityAwareVictimPolicy,
)
from repro.ftl.mapping import POPULARITY_MAX


class RecordingDelegate:
    """Minimal GC delegate that records calls and keeps a reverse map."""

    def __init__(self):
        self.relocations: List[Tuple[int, int]] = []
        self.erased: List[Tuple[int, List[int]]] = []

    def relocate_page(self, old_ppn: int, new_ppn: int) -> None:
        self.relocations.append((old_ppn, new_ppn))

    def erase_cleanup(self, block_global: int, invalid_ppns: List[int]) -> None:
        self.erased.append((block_global, list(invalid_ppns)))


def fill_block(array: FlashArray, allocator: PageAllocator, plane: int,
               invalid_pages: int) -> int:
    """Fill one block in ``plane``; invalidate its first N pages."""
    ppb = array.config.pages_per_block
    ppns = [allocator.allocate_in_plane(plane) for _ in range(ppb)]
    for ppn in ppns[:invalid_pages]:
        array.invalidate(ppn)
    return array.geometry.block_of_ppn(ppns[0])


@pytest.fixture
def setup(tiny_config):
    array = FlashArray(tiny_config)
    allocator = PageAllocator(array)
    delegate = RecordingDelegate()
    pop = {}
    collector = GarbageCollector(
        array, allocator, GreedyVictimPolicy(), delegate,
        garbage_popularity_of=lambda b: pop.get(b, 0),
    )
    return array, allocator, delegate, collector, pop


class TestGreedyPolicy:
    def test_picks_most_invalid(self, setup):
        array, allocator, _, _, _ = setup
        b1 = fill_block(array, allocator, 0, invalid_pages=3)
        b2 = fill_block(array, allocator, 0, invalid_pages=10)
        policy = GreedyVictimPolicy()
        assert policy.select([b1, b2], array, lambda b: 0) == b2

    def test_skips_fully_valid(self, setup):
        array, allocator, _, _, _ = setup
        b1 = fill_block(array, allocator, 0, invalid_pages=0)
        policy = GreedyVictimPolicy()
        assert policy.select([b1], array, lambda b: 0) is None

    def test_empty_candidates(self, setup):
        array, _, _, _, _ = setup
        assert GreedyVictimPolicy().select([], array, lambda b: 0) is None


class TestPopularityAwarePolicy:
    def test_avoids_popular_garbage(self, setup):
        """Section IV-D: between equal-invalid blocks, prefer the one whose
        garbage is unpopular (its dead values are unlikely to be reborn)."""
        array, allocator, _, _, _ = setup
        b1 = fill_block(array, allocator, 0, invalid_pages=5)
        b2 = fill_block(array, allocator, 0, invalid_pages=5)
        pop = {b1: 5 * 255, b2: 0}  # b1's garbage is maximally popular
        policy = PopularityAwareVictimPolicy(weight=1.0)
        assert policy.select([b1, b2], array, lambda b: pop.get(b, 0)) == b2

    def test_reclaim_benefit_still_dominates(self, setup):
        """A much fuller victim wins when its garbage is only moderately
        popular: each fully-popular (255) garbage page cancels one page of
        reclaim benefit, so 12 pages at popularity 100 cost ~4.7 pages."""
        array, allocator, _, _, _ = setup
        b1 = fill_block(array, allocator, 0, invalid_pages=12)
        b2 = fill_block(array, allocator, 0, invalid_pages=2)
        pop = {b1: 12 * 100, b2: 0}
        policy = PopularityAwareVictimPolicy(weight=1.0)
        assert policy.select([b1, b2], array, lambda b: pop.get(b, 0)) == b1

    def test_weight_zero_reduces_to_greedy(self, setup):
        array, allocator, _, _, _ = setup
        b1 = fill_block(array, allocator, 0, invalid_pages=5)
        b2 = fill_block(array, allocator, 0, invalid_pages=6)
        pop = {b2: 6 * 255}
        policy = PopularityAwareVictimPolicy(weight=0.0)
        assert policy.select([b1, b2], array, lambda b: pop.get(b, 0)) == b2

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PopularityAwareVictimPolicy(weight=-1.0)


class TestCollectionLoop:
    def test_no_collection_above_watermark(self, setup):
        array, allocator, delegate, collector, _ = setup
        work = collector.maybe_collect(0)
        assert work.erase_count == 0
        assert collector.invocations == 0

    def _drain_plane(self, array, allocator, tiny_config, plane=0):
        """Consume free blocks until the watermark trips."""
        while allocator.free_block_count(plane) >= 2:
            fill_block(array, allocator, plane, invalid_pages=8)

    def test_collects_when_low(self, setup, tiny_config):
        array, allocator, delegate, collector, _ = setup
        self._drain_plane(array, allocator, tiny_config)
        work = collector.maybe_collect(0)
        assert work.erase_count >= 1
        assert work.reclaimed_pages > 0
        assert collector.invocations == 1

    def test_relocations_preserve_valid_data(self, setup, tiny_config):
        array, allocator, delegate, collector, _ = setup
        self._drain_plane(array, allocator, tiny_config)
        before_valid = array.valid_pages
        work = collector.maybe_collect(0)
        assert array.valid_pages == before_valid  # relocation conserves
        assert delegate.relocations == work.relocations
        # every relocation's destination is valid and in the same plane
        for old, new in work.relocations:
            assert array.geometry.split_ppn(old)[0] == array.geometry.split_ppn(new)[0]

    def test_erase_cleanup_reports_garbage_ppns(self, setup, tiny_config):
        array, allocator, delegate, collector, _ = setup
        self._drain_plane(array, allocator, tiny_config)
        collector.maybe_collect(0)
        assert delegate.erased
        block, invalid_ppns = delegate.erased[0]
        assert invalid_ppns  # the victim had garbage
        first = array.geometry.first_ppn_of_block(block)
        assert all(first <= p < first + tiny_config.pages_per_block
                   for p in invalid_ppns)

    def test_incremental_bound(self, setup, tiny_config):
        array, allocator, delegate, collector, _ = setup
        self._drain_plane(array, allocator, tiny_config)
        work = collector.maybe_collect(0)
        assert work.erase_count <= collector.max_blocks_per_invocation

    def test_validation(self, setup):
        array, allocator, delegate, _, _ = setup
        with pytest.raises(ValueError):
            GarbageCollector(array, allocator, GreedyVictimPolicy(), delegate,
                             lambda b: 0, low_watermark=0)
        with pytest.raises(ValueError):
            GarbageCollector(array, allocator, GreedyVictimPolicy(), delegate,
                             lambda b: 0, max_blocks_per_invocation=0)

    def test_gcwork_merge(self):
        a = GCWork(relocations=[(1, 2)], erased_blocks=[0], reclaimed_pages=4)
        b = GCWork(relocations=[(3, 4)], erased_blocks=[1], reclaimed_pages=2)
        a.merge(b)
        assert a.relocation_count == 2
        assert a.erase_count == 2
        assert a.reclaimed_pages == 6


class TestRelocationRoom:
    """Victims are screened against the room relocation can reach: the
    relocation block's tail and the free blocks.  The host block's free
    tail is writable but out of GC's reach."""

    def _plane_with_host_room(self, array, allocator, victims):
        """Fill plane 0 with ``victims`` (invalid page counts) and fully
        valid blocks, then open a relocation block with a 12-page tail and
        a host block with a 14-page tail: no free block is left."""
        ppb = array.config.pages_per_block
        blocks = [fill_block(array, allocator, 0, n) for n in victims]
        while allocator.free_block_count(0) > 2:
            fill_block(array, allocator, 0, invalid_pages=0)
        for _ in range(ppb - 12):
            allocator.allocate_in_plane(0, for_gc=True)
        for _ in range(ppb - 14):
            allocator.allocate_in_plane(0)
        assert allocator.free_block_count(0) == 0
        assert allocator.relocatable_pages(0) == 12
        assert allocator.writable_pages(0) == 26
        return blocks

    def test_declines_a_victim_it_cannot_move(self, setup):
        array, allocator, delegate, collector, _ = setup
        (victim,) = self._plane_with_host_room(array, allocator, [3])
        assert array.block(victim).valid_count == 13
        work = collector.maybe_collect(0)   # used to raise OutOfSpaceError
        assert work.erase_count == 0
        assert delegate.relocations == []

    def test_moves_the_best_victim_that_fits(self, setup):
        array, allocator, delegate, _, pop = setup
        collector = GarbageCollector(
            array, allocator, PopularityAwareVictimPolicy(), delegate,
            garbage_popularity_of=lambda b: pop.get(b, 0),
        )
        best, movable = self._plane_with_host_room(array, allocator, [3, 5])
        pop[movable] = 3 * POPULARITY_MAX   # scores 2 against best's 3
        assert PopularityAwareVictimPolicy().select(
            [best, movable], array, collector.garbage_popularity_of
        ) == best
        work = collector.maybe_collect(0)
        assert work.erased_blocks == [movable]
        assert work.relocation_count == 11
