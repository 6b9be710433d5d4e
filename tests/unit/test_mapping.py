"""Unit tests for the LPN-to-PPN mapping table."""

import pytest

from repro.ftl.mapping import POPULARITY_MAX, MappingTable


class TestForwardMapping:
    def test_map_and_lookup(self):
        table = MappingTable()
        table.map(5, 100)
        assert table.lookup(5) == 100

    def test_unmapped_returns_none(self):
        assert MappingTable().lookup(5) is None

    def test_double_map_refused(self):
        table = MappingTable()
        table.map(5, 100)
        with pytest.raises(RuntimeError):
            table.map(5, 200)

    def test_unmap_returns_ppn(self):
        table = MappingTable()
        table.map(5, 100)
        assert table.unmap(5) == 100
        assert table.lookup(5) is None

    def test_unmap_missing_returns_none(self):
        assert MappingTable().unmap(5) is None

    def test_remap_after_unmap(self):
        table = MappingTable()
        table.map(5, 100)
        table.unmap(5)
        table.map(5, 200)
        assert table.lookup(5) == 200


class TestReverseMapping:
    def test_refcount_single(self):
        table = MappingTable()
        table.map(5, 100)
        assert table.refcount(100) == 1
        assert table.lpns_of(100) == {5}

    def test_many_to_one(self):
        """Dedup: several LPNs share one physical page."""
        table = MappingTable()
        table.map(1, 100)
        table.map(2, 100)
        table.map(3, 100)
        assert table.refcount(100) == 3
        table.unmap(2)
        assert table.refcount(100) == 2
        assert table.lpns_of(100) == {1, 3}

    def test_remap_ppn_moves_all_lpns(self):
        table = MappingTable()
        table.map(1, 100)
        table.map(2, 100)
        moved = table.remap_ppn(100, 200)
        assert moved == 2
        assert table.lookup(1) == 200
        assert table.lookup(2) == 200
        assert table.refcount(100) == 0
        assert table.refcount(200) == 2

    def test_remap_unreferenced_ppn_is_noop(self):
        table = MappingTable()
        assert table.remap_ppn(100, 200) == 0

    def test_mapped_lpn_count(self):
        table = MappingTable()
        table.map(1, 100)
        table.map(2, 100)
        assert table.mapped_lpn_count() == 2

    def test_invariants(self):
        table = MappingTable()
        for lpn in range(10):
            table.map(lpn, 100 + lpn % 3)
        table.unmap(4)
        assert table.mapped_lpn_count() == 9
        assert [table.lpns_of(ppn) for ppn in (100, 101, 102)] == [
            {0, 3, 6, 9}, {1, 7}, {2, 5, 8},
        ]
        assert table.mapped_ppns() == [100, 101, 102]


class TestPopularityByte:
    def test_default_zero(self):
        assert MappingTable().popularity(7) == 0

    def test_bump_saturates_at_one_byte(self):
        table = MappingTable()
        for _ in range(300):
            table.bump_popularity(7)
        assert table.popularity(7) == POPULARITY_MAX == 255

    def test_set_clamps(self):
        table = MappingTable()
        table.set_popularity(7, 999)
        assert table.popularity(7) == 255
        table.set_popularity(7, -5)
        assert table.popularity(7) == 0

    def test_popularity_survives_unmap(self):
        """The point of the byte: popularity outlives any single mapping."""
        table = MappingTable()
        table.map(7, 100)
        table.bump_popularity(7)
        table.unmap(7)
        assert table.popularity(7) == 1
