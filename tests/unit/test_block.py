"""Unit tests for the per-block state machine (NAND constraints)."""

import pytest

from repro.flash.block import Block, PageState


class TestProgramming:
    def test_programs_in_order(self):
        block = Block(4)
        assert [block.program_next() for _ in range(4)] == [0, 1, 2, 3]

    def test_program_full_block_raises(self):
        block = Block(2)
        block.program_next()
        block.program_next()
        with pytest.raises(RuntimeError):
            block.program_next()

    def test_counters_track_programs(self):
        block = Block(8)
        block.program_next()
        block.program_next()
        assert block.valid_count == 2
        assert block.free_pages == 6
        assert not block.is_full


class TestInvalidation:
    def test_valid_to_invalid(self):
        block = Block(4)
        page = block.program_next()
        block.invalidate(page)
        assert block.state_of(page) is PageState.INVALID
        assert block.valid_count == 0
        assert block.invalid_count == 1

    def test_cannot_invalidate_free_page(self):
        block = Block(4)
        with pytest.raises(RuntimeError):
            block.invalidate(0)

    def test_cannot_invalidate_twice(self):
        block = Block(4)
        page = block.program_next()
        block.invalidate(page)
        with pytest.raises(RuntimeError):
            block.invalidate(page)


class TestRevival:
    def test_invalid_back_to_valid(self):
        """The dead-value-pool hit path: INVALID -> VALID, no flash op."""
        block = Block(4)
        page = block.program_next()
        block.invalidate(page)
        block.revive(page)
        assert block.state_of(page) is PageState.VALID
        assert block.valid_count == 1
        assert block.invalid_count == 0

    def test_cannot_revive_valid_page(self):
        block = Block(4)
        page = block.program_next()
        with pytest.raises(RuntimeError):
            block.revive(page)

    def test_cannot_revive_free_page(self):
        block = Block(4)
        with pytest.raises(RuntimeError):
            block.revive(0)

    def test_revive_then_invalidate_again(self):
        block = Block(4)
        page = block.program_next()
        block.invalidate(page)
        block.revive(page)
        block.invalidate(page)
        assert block.invalid_count == 1


class TestErase:
    def test_erase_resets_everything(self):
        block = Block(4)
        for _ in range(4):
            block.invalidate(block.program_next())
        block.erase()
        assert block.valid_count == 0
        assert block.invalid_count == 0
        assert block.write_pointer == 0
        assert block.erase_count == 1
        # States are packed bytes; erase must memset them all back to FREE.
        assert bytes(block.states) == bytes(block.pages_per_block)
        assert all(
            block.state_of(page) is PageState.FREE
            for page in range(block.pages_per_block)
        )

    def test_erase_with_valid_data_refused(self):
        block = Block(4)
        block.program_next()
        with pytest.raises(RuntimeError):
            block.erase()

    def test_erase_count_accumulates_wear(self):
        block = Block(2)
        for _ in range(3):
            block.invalidate(block.program_next())
            block.invalidate(block.program_next())
            block.erase()
        assert block.erase_count == 3

    def test_reprogram_after_erase(self):
        block = Block(2)
        block.invalidate(block.program_next())
        block.invalidate(block.program_next())
        block.erase()
        assert block.program_next() == 0


class TestPageIndexes:
    def test_valid_and_invalid_page_indexes(self):
        block = Block(6)
        pages = [block.program_next() for _ in range(4)]
        block.invalidate(pages[1])
        block.invalidate(pages[3])
        assert block.valid_page_indexes() == [0, 2]
        assert block.invalid_page_indexes() == [1, 3]

    def test_invariants_hold(self):
        block = Block(8)
        for _ in range(5):
            block.program_next()
        block.invalidate(2)
        states = [block.state_of(page) for page in range(8)]
        assert block.valid_count == states.count(PageState.VALID) == 4
        assert block.invalid_count == states.count(PageState.INVALID) == 1
        assert states[block.write_pointer:] == [PageState.FREE] * 3

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Block(0)
