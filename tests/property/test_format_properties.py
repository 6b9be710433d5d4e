"""Property-based tests: trace formats, geometry and allocation."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.array import FlashArray
from repro.flash.config import SSDConfig
from repro.flash.geometry import Geometry
from repro.ftl.allocator import PageAllocator
from repro.sim.request import IORequest, OpType
from repro.traces.fiu import iter_fiu_requests, write_fiu

from ..reference import allocate


requests_strategy = st.lists(
    st.builds(
        IORequest,
        arrival_us=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        op=st.sampled_from([OpType.READ, OpType.WRITE]),
        lpn=st.integers(min_value=0, max_value=10**7),
        value_id=st.integers(min_value=0, max_value=10**6),
    ),
    max_size=60,
)


@given(requests=requests_strategy)
@settings(max_examples=60)
def test_fiu_roundtrip_preserves_structure(requests):
    """Writing then parsing an FIU file preserves LPNs, ops and the
    equality structure of value ids (interning renumbers, never merges
    or splits)."""
    buffer = io.StringIO()
    write_fiu(buffer, requests)
    buffer.seek(0)
    parsed = list(iter_fiu_requests(buffer))
    assert len(parsed) == len(requests)
    mapping = {}
    for original, back in zip(requests, parsed):
        assert back.lpn == original.lpn
        assert back.op == original.op
        previous = mapping.setdefault(original.value_id, back.value_id)
        assert previous == back.value_id


configs = st.builds(
    SSDConfig,
    channels=st.integers(min_value=1, max_value=4),
    chips_per_channel=st.integers(min_value=1, max_value=3),
    dies_per_chip=st.integers(min_value=1, max_value=2),
    planes_per_die=st.integers(min_value=1, max_value=2),
    blocks_per_plane=st.integers(min_value=4, max_value=12),
    pages_per_block=st.integers(min_value=2, max_value=16),
)


@given(config=configs, sample=st.data())
@settings(max_examples=60)
def test_geometry_roundtrip_any_config(config, sample):
    geometry = Geometry(config)
    ppn = sample.draw(
        st.integers(min_value=0, max_value=geometry.total_pages - 1)
    )
    plane, block, page = geometry.split_ppn(ppn)
    assert geometry.ppn_of(plane, block, page) == ppn
    chip = geometry.chip_of_ppn(ppn)
    assert 0 <= chip < config.total_chips
    addr = geometry.decode(ppn)
    flat_chip = addr.channel * config.chips_per_channel + addr.chip
    assert flat_chip == chip


@given(config=configs, allocations=st.integers(min_value=0, max_value=120))
@settings(max_examples=40)
def test_allocator_never_duplicates_pages(config, allocations):
    """Every allocated PPN is unique and valid until the drive fills."""
    array = FlashArray(config)
    allocator = PageAllocator(array)
    seen = set()
    for i in range(min(allocations, config.total_pages)):
        ppn = allocate(allocator)
        assert ppn not in seen
        seen.add(ppn)
        assert 0 <= ppn < config.total_pages
    allocator.check_invariants()
    array.check_invariants()


@given(
    config=configs,
    gc_ratio=st.floats(min_value=0.0, max_value=1.0),
    count=st.integers(min_value=0, max_value=60),
)
@settings(max_examples=40)
def test_hot_cold_streams_never_share_a_block(config, gc_ratio, count):
    array = FlashArray(config)
    allocator = PageAllocator(array)
    host_blocks, gc_blocks = set(), set()
    import random

    plane_pages = config.blocks_per_plane * config.pages_per_block
    rng = random.Random(int(gc_ratio * 1000))
    for i in range(min(count, plane_pages // 2)):
        for_gc = rng.random() < gc_ratio
        ppn = allocator.allocate_in_plane(0, for_gc=for_gc)
        block = array.geometry.block_of_ppn(ppn)
        (gc_blocks if for_gc else host_blocks).add(block)
    assert not (host_blocks & gc_blocks)
