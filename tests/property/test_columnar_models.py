"""Model-based round trips: columnar MappingTable/Block vs naive references.

ISSUE 6 replaced the dict-backed mapping table and the enum-list block
states with packed columns (``array('q')`` + ``bytearray``).  These tests
drive random operation streams through the columnar structures and through
deliberately naive reference models (plain dicts, plain lists — the PR-5
semantics), asserting the observable behaviour never diverges.  The
reference models are too slow to simulate with but trivially correct, so
any representation bug in the packed columns (sentinel confusion, shared
spill/collapse, memset bounds) shows up as a divergence here long before
it would corrupt a digest.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.block import Block, PageState
from repro.ftl.mapping import _SHARED, POPULARITY_MAX, MappingTable

LPNS = 48
PPNS = 96


# ----------------------------------------------------------------------
# Reference models (PR-5 semantics, naively stored)
# ----------------------------------------------------------------------


class DictMapping:
    """The pre-columnar mapping semantics: two dicts, a set per PPN."""

    def __init__(self):
        self.forward = {}
        self.reverse = {}
        self.pop = {}

    def lookup(self, lpn):
        return self.forward.get(lpn)

    def map(self, lpn, ppn):
        assert lpn not in self.forward
        self.forward[lpn] = ppn
        self.reverse.setdefault(ppn, set()).add(lpn)

    def unmap(self, lpn):
        ppn = self.forward.pop(lpn, None)
        if ppn is None:
            return None
        lpns = self.reverse[ppn]
        lpns.discard(lpn)
        if not lpns:
            del self.reverse[ppn]
        return ppn

    def remap_ppn(self, old_ppn, new_ppn):
        lpns = self.reverse.pop(old_ppn, set())
        for lpn in lpns:
            self.forward[lpn] = new_ppn
            self.reverse.setdefault(new_ppn, set()).add(lpn)
        return len(lpns)

    def lpns_of(self, ppn):
        return set(self.reverse.get(ppn, ()))

    def refcount(self, ppn):
        return len(self.reverse.get(ppn, ()))

    def mapped_lpn_count(self):
        return len(self.forward)

    def mapped_ppns(self):
        return sorted(self.reverse)

    def forward_items(self):
        return dict(sorted(self.forward.items()))

    def popularity(self, lpn):
        return self.pop.get(lpn, 0)

    def set_popularity(self, lpn, value):
        self.pop[lpn] = min(max(value, 0), POPULARITY_MAX)

    def bump_popularity(self, lpn):
        value = min(self.pop.get(lpn, 0) + 1, POPULARITY_MAX)
        self.pop[lpn] = value
        return value


class ListBlock:
    """The pre-columnar block semantics: a plain list of PageState."""

    def __init__(self, pages):
        self.pages_per_block = pages
        self.states = [PageState.FREE] * pages
        self.write_pointer = 0
        self.erase_count = 0

    def program_next(self):
        page = self.write_pointer
        assert page < self.pages_per_block
        self.states[page] = PageState.VALID
        self.write_pointer = page + 1
        return page

    def invalidate(self, page):
        assert self.states[page] is PageState.VALID
        self.states[page] = PageState.INVALID

    def revive(self, page):
        assert self.states[page] is PageState.INVALID
        self.states[page] = PageState.VALID

    def erase(self):
        assert self.valid_count == 0
        self.states = [PageState.FREE] * self.pages_per_block
        self.write_pointer = 0
        self.erase_count += 1

    @property
    def valid_count(self):
        return self.states.count(PageState.VALID)

    @property
    def invalid_count(self):
        return self.states.count(PageState.INVALID)

    def valid_page_indexes(self):
        return [
            i
            for i in range(self.write_pointer)
            if self.states[i] is PageState.VALID
        ]


# ----------------------------------------------------------------------
# Operation streams
# ----------------------------------------------------------------------

lpn_st = st.integers(min_value=0, max_value=LPNS - 1)
ppn_st = st.integers(min_value=0, max_value=PPNS - 1)

mapping_ops = st.lists(
    st.one_of(
        st.tuples(st.just("map"), lpn_st, ppn_st),
        st.tuples(st.just("unmap"), lpn_st, st.just(0)),
        st.tuples(st.just("remap"), ppn_st, ppn_st),
        st.tuples(st.just("bump"), lpn_st, st.just(0)),
        st.tuples(st.just("setpop"), lpn_st, st.integers(0, 400)),
    ),
    max_size=300,
)


def mapping_observation(table):
    """Everything externally observable about a mapping table."""
    return {
        "forward": dict(table.forward_items()),
        "count": table.mapped_lpn_count(),
        "ppns": list(table.mapped_ppns()),
        "lpns_of": {p: table.lpns_of(p) for p in range(PPNS)},
        "refcount": [table.refcount(p) for p in range(PPNS)],
        "lookup": [table.lookup(lpn) for lpn in range(LPNS)],
        "pop": [table.popularity(lpn) for lpn in range(LPNS)],
    }


def assert_table_consistent(table):
    """The forward column, the owner column and the spill store agree.

    Every mapping is in the reverse map, the reverse map holds no stale
    LPN, and a PPN sits in the spill store only while the owner column
    marks it shared and two or more LPNs map to it (at one owner it
    collapses back into the dense column)."""
    for ppn, lpns in table._shared.items():
        assert table._owner[ppn] == _SHARED, (ppn, lpns)
        assert len(lpns) >= 2, (ppn, lpns)
    forward = table.forward_items()
    for lpn, ppn in forward.items():
        assert lpn in table.lpns_of(ppn), (lpn, ppn)
    assert len(forward) == table.mapped_lpn_count()
    assert sum(table.refcount(p) for p in table.mapped_ppns()) == len(forward)


class TestMappingModel:
    @given(operations=mapping_ops)
    @settings(max_examples=60, deadline=None)
    def test_columnar_matches_dict_reference(self, operations):
        columnar = MappingTable(LPNS, PPNS)
        reference = DictMapping()
        for op, a, b in operations:
            if op == "map":
                # Keep the stream legal: PR-5 also forbade double-mapping.
                if reference.lookup(a) is not None:
                    continue
                columnar.map(a, b)
                reference.map(a, b)
            elif op == "unmap":
                assert columnar.unmap(a) == reference.unmap(a)
            elif op == "remap":
                if a == b:
                    continue
                assert columnar.remap_ppn(a, b) == reference.remap_ppn(a, b)
            elif op == "bump":
                assert columnar.bump_popularity(a) == (
                    reference.bump_popularity(a)
                )
            elif op == "setpop":
                columnar.set_popularity(a, b)
                reference.set_popularity(a, b)
            assert columnar.mapped_lpn_count() == reference.mapped_lpn_count()
            assert_table_consistent(columnar)
        assert mapping_observation(columnar) == mapping_observation(reference)

    @given(operations=mapping_ops)
    @settings(max_examples=20, deadline=None)
    def test_lazy_table_matches_preallocated(self, operations):
        """Auto-growing columns behave exactly like preallocated ones."""
        lazy = MappingTable()
        sized = MappingTable(LPNS, PPNS)
        for op, a, b in operations:
            if op == "map":
                if sized.lookup(a) is not None:
                    continue
                lazy.map(a, b)
                sized.map(a, b)
            elif op == "unmap":
                assert lazy.unmap(a) == sized.unmap(a)
            elif op == "remap":
                if a == b:
                    continue
                assert lazy.remap_ppn(a, b) == sized.remap_ppn(a, b)
            elif op == "bump":
                assert lazy.bump_popularity(a) == sized.bump_popularity(a)
            elif op == "setpop":
                lazy.set_popularity(a, b)
                sized.set_popularity(a, b)
            assert lazy.mapped_lpn_count() == sized.mapped_lpn_count()
            assert_table_consistent(lazy)
        assert mapping_observation(lazy) == mapping_observation(sized)

    def test_shared_spill_and_collapse(self):
        """Dedup path: refcount 1 → 2 spills, 2 → 1 collapses back dense."""
        table = MappingTable(8, 8)
        table.map(0, 5)
        assert table._owner[5] == 0 and 5 not in table._shared
        table.map(1, 5)
        assert 5 in table._shared  # spilled
        table.map(2, 5)
        assert table.refcount(5) == 3
        table.unmap(1)
        table.unmap(0)
        assert 5 not in table._shared  # collapsed back to single owner
        assert table._owner[5] == 2
        assert table.lpns_of(5) == {2} and table.mapped_lpn_count() == 1
        assert_table_consistent(table)


PAGES = 16

block_ops = st.lists(
    st.one_of(
        st.tuples(st.just("program"), st.just(0)),
        st.tuples(st.just("invalidate"), st.integers(0, PAGES - 1)),
        st.tuples(st.just("revive"), st.integers(0, PAGES - 1)),
        st.tuples(st.just("erase"), st.just(0)),
    ),
    max_size=200,
)


class TestBlockModel:
    @given(operations=block_ops)
    @settings(max_examples=60, deadline=None)
    def test_packed_states_match_list_reference(self, operations):
        packed = Block(PAGES)
        reference = ListBlock(PAGES)
        for op, page in operations:
            if op == "program":
                if reference.write_pointer >= PAGES:
                    continue
                assert packed.program_next() == reference.program_next()
            elif op == "invalidate":
                if reference.states[page] is not PageState.VALID:
                    continue
                packed.invalidate(page)
                reference.invalidate(page)
            elif op == "revive":
                if reference.states[page] is not PageState.INVALID:
                    continue
                packed.revive(page)
                reference.revive(page)
            elif op == "erase":
                if reference.valid_count != 0:
                    continue
                packed.erase()
                reference.erase()
            assert [packed.state_of(i) for i in range(PAGES)] == (
                reference.states
            )
            assert packed.valid_count == reference.valid_count
            assert packed.invalid_count == reference.invalid_count
            assert packed.write_pointer == reference.write_pointer
        assert [packed.state_of(i) for i in range(PAGES)] == reference.states
        assert packed.valid_page_indexes() == reference.valid_page_indexes()
        assert packed.erase_count == reference.erase_count

    def test_erase_resets_storage_in_place(self):
        """ISSUE 6 satellite: erase must memset the same buffer, not
        reallocate it (the FlashArray shares no buffer, but in-place reset
        is what keeps erase O(programmed prefix) and allocation-free)."""
        block = Block(PAGES)
        buffer_before = block.states
        for _ in range(PAGES):
            block.program_next()
        for page in range(PAGES):
            block.invalidate(page)
        block.erase()
        assert block.states is buffer_before
        assert not any(block.states)
        assert block.valid_count == block.invalid_count == 0
        assert block.write_pointer == 0

    def test_retire_resets_storage_in_place(self):
        block = Block(PAGES)
        buffer_before = block.states
        block.program_next()
        block.invalidate(0)
        block.retire()
        assert block.states is buffer_before
        assert block.retired
        with pytest.raises(RuntimeError):
            block.program_next()


class TestRemapDeterminism:
    def test_shared_remap_is_ascending(self):
        """GC relocation of a deduplicated PPN must touch LPNs in
        ascending order regardless of insertion order — the digest
        contract depends on it (ISSUE 6 satellite)."""
        for insertion in ([3, 1, 2], [2, 3, 1], [1, 2, 3]):
            table = MappingTable(8, 8)
            for lpn in insertion:
                table.map(lpn, 4)
            moved = table.remap_ppn(4, 5)
            assert moved == 3
            assert table.lpns_of(5) == {1, 2, 3}
            assert table.refcount(4) == 0 and 4 not in table._shared
            assert_table_consistent(table)
