"""Unit tests for page allocation (striping, hot/cold separation)."""

import pytest

from repro.flash.array import FlashArray
from repro.ftl.allocator import OutOfSpaceError, PageAllocator

from ..reference import allocate, plane_of_next_write


@pytest.fixture
def array(tiny_config):
    return FlashArray(tiny_config)


@pytest.fixture
def allocator(array):
    return PageAllocator(array)


class TestStriping:
    def test_round_robin_over_planes(self, allocator, array):
        planes = [
            array.geometry.split_ppn(allocate(allocator))[0]
            for _ in range(array.geometry.total_planes * 2)
        ]
        first = planes[: array.geometry.total_planes]
        assert first == list(range(array.geometry.total_planes))
        assert planes[array.geometry.total_planes:] == first

    def test_plane_of_next_write_peeks(self, allocator, array):
        peeked = plane_of_next_write(allocator)
        ppn = allocate(allocator)
        assert array.geometry.split_ppn(ppn)[0] == peeked

    def test_sequential_pages_within_active_block(self, allocator, array):
        first = allocator.allocate_in_plane(0)
        second = allocator.allocate_in_plane(0)
        assert second == first + 1


class TestBlockLifecycle:
    def test_opens_new_block_when_active_full(self, allocator, array, tiny_config):
        ppb = tiny_config.pages_per_block
        ppns = [allocator.allocate_in_plane(0) for _ in range(ppb + 1)]
        blocks = {array.geometry.block_of_ppn(p) for p in ppns}
        assert len(blocks) == 2

    def test_free_block_count_decreases(self, allocator, tiny_config):
        before = allocator.free_block_count(0)
        allocator.allocate_in_plane(0)
        assert allocator.free_block_count(0) == before - 1

    def test_release_block_returns_to_pool(self, allocator, array, tiny_config):
        ppb = tiny_config.pages_per_block
        for _ in range(ppb):
            array.invalidate(allocator.allocate_in_plane(0))
        block = array.geometry.block_of_ppn(0)
        array.erase(block)
        before = allocator.free_block_count(0)
        allocator.release_block(block)
        assert allocator.free_block_count(0) == before + 1

    def test_out_of_space(self, allocator, tiny_config):
        total_in_plane = tiny_config.blocks_per_plane * tiny_config.pages_per_block
        for _ in range(total_in_plane):
            allocator.allocate_in_plane(0)
        with pytest.raises(OutOfSpaceError):
            allocator.allocate_in_plane(0)


class TestHotColdSeparation:
    def test_gc_writes_use_separate_block(self, allocator, array):
        host = allocator.allocate_in_plane(0)
        gc = allocator.allocate_in_plane(0, for_gc=True)
        assert array.geometry.block_of_ppn(host) != array.geometry.block_of_ppn(gc)

    def test_both_actives_counted_in_writable_pages(self, allocator, array, tiny_config):
        total = tiny_config.blocks_per_plane * tiny_config.pages_per_block
        assert allocator.writable_pages(0) == total
        allocator.allocate_in_plane(0)
        allocator.allocate_in_plane(0, for_gc=True)
        assert allocator.writable_pages(0) == total - 2

    def test_is_active_covers_both(self, allocator, array):
        host = allocator.allocate_in_plane(0)
        gc = allocator.allocate_in_plane(0, for_gc=True)
        assert allocator.is_active(array.geometry.block_of_ppn(host))
        assert allocator.is_active(array.geometry.block_of_ppn(gc))

    def test_invariants(self, allocator):
        for _ in range(5):
            allocate(allocator)
        allocator.allocate_in_plane(0, for_gc=True)
        allocator.check_invariants()
