"""Property tests for the KV front end's hot paths.

``KVStore.translate`` is one flat loop over the per-op helpers; the zoo
draws sizes and zipf ranks from tables built once per stream; sealed
pack pages fold a per-slot term.  Each must behave exactly like the
straightforward code it replaced.
"""

import copy
import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kv.inline import InlineSlot, pack_value_id
from repro.kv.requests import KVOp, KVRequest, key_to_int, mix64
from repro.kv.store import KVStore
from repro.kv.zoo import (
    KV_WORKLOADS,
    _size_drawer,
    interleave_kv_tenants,
)

# ---------------------------------------------------------------------------
# The flat translate loop vs a fold of the public per-op generators
# ---------------------------------------------------------------------------

#: Small pages, so a few PUTs seal a pack page and repacks cascade.
#: Most sizes are inline (below page_bytes // 2); the rest straddle the
#: threshold and span multi-page extents that grow and shrink.
PAGE_BYTES = 512
INLINE_SIZES = [1, 40, 100, 150, 200, 255]
EXTENT_SIZES = [256, 300, 512, 513, 1100, 1800]
sizes = st.one_of(
    st.sampled_from(INLINE_SIZES), st.sampled_from(INLINE_SIZES),
    st.sampled_from(EXTENT_SIZES),
)

int_keys = st.integers(min_value=0, max_value=9)
keys = st.one_of(int_keys, int_keys, st.sampled_from(["a", "b", "user/7"]))


@st.composite
def kv_requests(draw):
    """One keyed op; PUTs dominate so state builds up, GETs and DELETEs
    may name keys that were never written, SCANs cover gaps."""
    op = draw(st.sampled_from(
        [KVOp.PUT] * 4 + [KVOp.GET] * 3 + [KVOp.DELETE, KVOp.SCAN]
    ))
    arrival = float(draw(st.integers(min_value=0, max_value=10**6)))
    if op is KVOp.PUT:
        return KVRequest(arrival, op, draw(keys), draw(sizes),
                         draw(st.integers(min_value=0, max_value=9)))
    if op is KVOp.SCAN:
        return KVRequest(arrival, op, draw(int_keys), scan_length=draw(
            st.integers(min_value=1, max_value=8)))
    return KVRequest(arrival, op, draw(keys))


def public_fold(store, stream):
    """The reference: every request through the public generator of its
    op, one call at a time."""
    out = []
    for request in stream:
        if request.op is KVOp.PUT:
            out += store.put(request.key, request.value_bytes,
                             request.content_id, request.arrival_us)
        elif request.op is KVOp.GET:
            out += store.get(request.key, request.arrival_us)
        elif request.op is KVOp.DELETE:
            out += store.delete(request.key, request.arrival_us)
        else:
            out += store.scan(request.key, request.scan_length,
                              request.arrival_us)
    return out


def store_state(store):
    """Everything an op can touch, in iteration order where it has one."""
    packer = store.packer
    return {
        "stats": store.stats,
        "packer_stats": packer.stats,
        "free": list(store._free),
        "next_lpn": store._next_lpn,
        "extents": list(store._extents.items()),
        "open": list(packer._open.items()),
        "open_bytes": packer._open_bytes,
        "home": list(packer._home.items()),
        "sealed": [
            (lpn, page.lpn, page.members, list(page.live.items()))
            for lpn, page in packer._sealed.items()
        ],
    }


#: Always run: a GET of a key whose pack page sealed after the stream
#: began (a loop holding on to the packer's open buffer misses it).
SEAL_THEN_GET = [
    KVRequest(0.0, KVOp.PUT, key, 200, key) for key in range(3)
] + [KVRequest(1.0, KVOp.GET, 0)]


@given(
    stream=st.lists(kv_requests(), min_size=1, max_size=120),
    repack_threshold=st.sampled_from([0.0, 0.3, 0.5, 0.9]),
)
@example(stream=SEAL_THEN_GET, repack_threshold=0.5)
@settings(max_examples=150, deadline=None)
def test_translate_matches_public_ops(stream, repack_threshold):
    """Same page requests, in the same order, and the same store, packer
    and allocator state after every request."""
    flat = KVStore(page_bytes=PAGE_BYTES, repack_threshold=repack_threshold)
    reference = KVStore(page_bytes=PAGE_BYTES,
                        repack_threshold=repack_threshold)
    # One translate generator over the whole stream (a loop that caches
    # store or packer state goes stale on a later request).  It pulls
    # request i + 1 only once request i is done, so the state seen then
    # is the state after request i.
    flat_states = []

    def probe():
        for index, request in enumerate(stream):
            if index:
                flat_states.append(copy.deepcopy(store_state(flat)))
            yield request

    flat_pages = list(flat.translate(probe()))
    flat_states.append(copy.deepcopy(store_state(flat)))
    reference_pages, reference_states = [], []
    for request in stream:
        reference_pages += public_fold(reference, [request])
        reference_states.append(copy.deepcopy(store_state(reference)))
    assert flat_pages == reference_pages
    assert flat_states == reference_states
    assert flat.counters() == reference.counters()


def test_translate_stream_exercises_every_transition():
    """A fixed stream hits what the strategy above is built to reach:
    extent→inline, shrinking extents, buffer hits, misses, scans over
    gaps and a repack that re-seals its survivors."""
    store = KVStore(page_bytes=PAGE_BYTES, repack_threshold=0.6)
    stream = [KVRequest(0.0, KVOp.PUT, key, 200, key) for key in range(6)]
    stream += [
        KVRequest(1.0, KVOp.PUT, 0, 1800, 7),       # inline → extent
        KVRequest(2.0, KVOp.PUT, 0, 600, 8),        # extent shrinks
        KVRequest(3.0, KVOp.PUT, 0, 100, 9),        # extent → inline
        KVRequest(4.0, KVOp.PUT, 1, 100, 1),        # kill: sparse page
        KVRequest(5.0, KVOp.GET, 5),
        KVRequest(6.0, KVOp.GET, "missing"),
        KVRequest(7.0, KVOp.DELETE, "missing"),
        KVRequest(8.0, KVOp.SCAN, 0, scan_length=9),
    ]
    list(store.translate(stream))
    counters = store.counters()
    assert counters["pack_repacks"] >= 1
    assert counters["buffer_hits"] >= 1
    assert counters["get_misses"] == counters["delete_misses"] == 1
    assert counters["flash_trims"] >= 3
    assert 0 < counters["scanned_keys"] < 9


# ---------------------------------------------------------------------------
# Pack identities: the per-slot term is the three-mix64 summand, folded once
# ---------------------------------------------------------------------------


def reference_pack_value_id(members):
    """The fold as it was: three ``mix64`` per member at every seal."""
    acc = 0x9E3779B97F4A7C15
    for key_int, content_id, size in members:
        acc = mix64(acc ^ mix64(key_int) ^ mix64(content_id * 2 + 1) ^ size)
    return acc


@given(st.lists(
    st.tuples(
        st.one_of(st.integers(min_value=0, max_value=2**40), st.text()),
        st.integers(min_value=0, max_value=2**45),
        st.integers(min_value=1, max_value=4096),
    ),
    max_size=40,
))
def test_pack_term_folds_like_the_three_mix_summand(members):
    members = [
        (key_to_int(key), content_id, size)
        for key, content_id, size in members
    ]
    slots = [InlineSlot(*member) for member in members]
    assert pack_value_id(slots) == reference_pack_value_id(members)
    assert pack_value_id(iter(slots)) == pack_value_id(slots)


# ---------------------------------------------------------------------------
# Zoo draws: the cumulative-weight table is ``random.choices``' own path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(KV_WORKLOADS))
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_size_drawer_matches_choices(name, seed):
    workload = KV_WORKLOADS[name]
    table, reference = random.Random(seed), random.Random(seed)
    draw = _size_drawer(workload, table)
    for _ in range(50):
        assert draw() == reference.choices(
            workload.value_sizes, weights=workload.value_size_weights,
        )[0]
    assert table.getstate() == reference.getstate()


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=10**5),
                   min_size=1, max_size=6),
    weights=st.lists(st.floats(min_value=0.0, max_value=1e6),
                     min_size=6, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_size_drawer_matches_choices_on_any_table(sizes, weights, seed):
    weights = weights[:len(sizes)]
    if sum(weights) <= 0.0:
        weights[0] = 1.0
    workload = dataclasses.replace(
        KV_WORKLOADS["ycsb-a"], value_sizes=tuple(sizes),
        value_size_weights=tuple(weights),
    )
    table, reference = random.Random(seed), random.Random(seed)
    draw = _size_drawer(workload, table)
    for _ in range(20):
        assert draw() == reference.choices(sizes, weights=weights)[0]


class ScriptedRandom(random.Random):
    """``random()`` replays a script: lands draws exactly on boundaries."""

    def __init__(self, script):
        super().__init__(0)
        self._script = iter(script)

    def random(self):
        return next(self._script)


def test_size_drawer_breaks_ties_like_choices():
    """A draw exactly on a cumulative boundary goes where ``choices``
    sends it, zero-weight sizes included."""
    workload = dataclasses.replace(
        KV_WORKLOADS["ycsb-a"], value_sizes=(1, 2, 3, 4, 5),
        value_size_weights=(1.0, 0.0, 1.0, 1.0, 1.0),
    )
    script = [0.0, 0.25, 0.5, 0.75, 0.999]
    draw = _size_drawer(workload, ScriptedRandom(script))
    reference = ScriptedRandom(script)
    for _ in script:
        assert draw() == reference.choices(
            workload.value_sizes, weights=workload.value_size_weights,
        )[0]


@given(seed=st.integers(min_value=0, max_value=2**32))
def test_inlined_expovariate_matches_the_stdlib(seed):
    """The zoo's arrival gaps inline ``rng.expovariate(1.0)``."""
    inlined, reference = random.Random(seed), random.Random(seed)
    for _ in range(20):
        assert -math.log(1.0 - inlined.random()) == reference.expovariate(1.0)


def test_size_drawer_rejects_an_all_zero_table():
    workload = dataclasses.replace(
        KV_WORKLOADS["ycsb-a"], value_size_weights=(0.0,) * 5,
    )
    with pytest.raises(ValueError, match="positive, finite"):
        _size_drawer(workload, random.Random(0))


# ---------------------------------------------------------------------------
# Tenant interleaving builds the shifted request directly
# ---------------------------------------------------------------------------


def replace_reference(streams, key_space, content_space, share_contents):
    """The pre-change construction: ``dataclasses.replace`` per request."""
    shifted = []
    for index, stream in enumerate(streams):
        for request in stream:
            if isinstance(request.key, int):
                key = request.key + index * key_space
            else:
                key = f"tenant{index}/{request.key}"
            content_id = request.content_id
            if request.op is KVOp.PUT and not share_contents:
                content_id += index * content_space
            shifted.append(dataclasses.replace(
                request, key=key, content_id=content_id,
            ))
    return sorted(shifted, key=lambda request: request.arrival_us)


@given(
    streams=st.lists(
        st.lists(kv_requests(), max_size=20).map(
            lambda requests: sorted(requests, key=lambda r: r.arrival_us)
        ),
        min_size=1, max_size=4,
    ),
    share_contents=st.booleans(),
)
def test_interleave_matches_replace(streams, share_contents):
    merged = list(interleave_kv_tenants(
        streams, key_space=16, content_space=10,
        share_contents=share_contents,
    ))
    assert merged == replace_reference(streams, 16, 10, share_contents)


def test_interleave_errors_stay_lazy():
    """Both namespace errors surface at the offending request, after
    every request before it was yielded."""
    ok = KVRequest(0.0, KVOp.PUT, 1, 10, 1)
    for bad, match in (
        (KVRequest(1.0, KVOp.GET, 16), "private key space"),
        (KVRequest(1.0, KVOp.PUT, 1, 10, 10), "private namespace"),
    ):
        merged = interleave_kv_tenants(
            [[ok, bad]], key_space=16, content_space=10,
        )
        assert next(merged) == ok
        with pytest.raises(ValueError, match=match):
            next(merged)
