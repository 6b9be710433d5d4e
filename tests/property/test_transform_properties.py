"""Property-based tests for trace transforms and generators.

Two contracts from the transforms module docstring, checked over random
inputs rather than hand-picked traces:

1. every transform's output is in arrival order whenever its input is —
   the simulator's event loop assumes non-decreasing arrivals, so an
   order-breaking transform corrupts every downstream latency number;
2. generation is deterministic under reseeding — the same profile (seed
   included) always yields the identical stream, and the lazy stream
   matches the materialised list, so digests are reproducible whether a
   trace is replayed from memory or regenerated on the fly.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.request import IORequest, OpType, rows_of
from repro.traces.profiles import PROFILES
from repro.traces.synthetic import generate_trace
from repro.traces.transforms import (
    filter_ops,
    interleave_tenants,
    merge_traces,
    scale_time,
    shift_lpns,
    take,
    window,
    with_trims,
)

#: Bounds chosen so interleave_tenants' namespace validation passes and
#: the traces stay multi-tenant-composable.
MAX_LPN = 63
MAX_VALUE = 255


def arrival_ordered_traces(max_size=40):
    """Traces that honour the non-decreasing-arrival invariant, built
    from deltas so hypothesis can shrink without breaking the order."""

    def build(rows):
        requests, clock = [], 0.0
        for delta, op, lpn, value_id in rows:
            clock += delta
            requests.append(
                IORequest(
                    arrival_us=clock, op=op, lpn=lpn, value_id=value_id
                )
            )
        return requests

    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            st.sampled_from([OpType.READ, OpType.WRITE, OpType.TRIM]),
            st.integers(min_value=0, max_value=MAX_LPN),
            st.integers(min_value=0, max_value=MAX_VALUE),
        ),
        max_size=max_size,
    ).map(build)


def assert_arrival_ordered(trace):
    arrivals = [request.arrival_us for request in trace]
    assert arrivals == sorted(arrivals)


class TestTransformsPreserveArrivalOrder:
    @given(
        trace=arrival_ordered_traces(),
        factor=st.floats(min_value=0.01, max_value=100.0),
        start=st.floats(min_value=0.0, max_value=1e5),
        span=st.floats(min_value=1.0, max_value=1e5),
        count=st.integers(min_value=0, max_value=50),
        offset=st.integers(min_value=0, max_value=1000),
        every=st.integers(min_value=1, max_value=7),
        op=st.sampled_from([OpType.READ, OpType.WRITE, OpType.TRIM]),
    )
    @settings(max_examples=80)
    def test_every_single_input_transform(
        self, trace, factor, start, span, count, offset, every, op
    ):
        for output in (
            scale_time(trace, factor),
            window(trace, start, start + span),
            take(trace, count),
            filter_ops(trace, op),
            shift_lpns(trace, offset),
            (IORequest(*row) for row in with_trims(rows_of(trace), every)),
        ):
            assert_arrival_ordered(list(output))

    @given(traces=st.lists(arrival_ordered_traces(max_size=20), max_size=4))
    @settings(max_examples=60)
    def test_merge_traces(self, traces):
        assert_arrival_ordered(list(merge_traces(*traces)))

    @given(tenants=st.lists(arrival_ordered_traces(max_size=20), max_size=3))
    @settings(max_examples=60)
    def test_interleave_tenants(self, tenants):
        out = interleave_tenants(
            tenants,
            pages_per_tenant=MAX_LPN + 1,
            value_space=MAX_VALUE + 1,
        )
        assert_arrival_ordered(out)
        # Interleaving is a merge: nothing is dropped or invented.
        assert len(out) == sum(len(tenant) for tenant in tenants)

    @given(
        trace=arrival_ordered_traces(),
        factor=st.floats(min_value=0.01, max_value=100.0),
        every=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60)
    def test_composition_stays_ordered(self, trace, factor, every):
        """Transforms chain (the way experiments actually use them)."""
        out = [
            IORequest(*row)
            for row in with_trims(rows_of(scale_time(trace, factor)), every)
        ]
        assert_arrival_ordered(out)


class TestGeneratorDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        name=st.sampled_from(sorted(PROFILES)),
    )
    @settings(max_examples=12, deadline=None)
    def test_reseeded_profile_regenerates_identically(self, seed, name):
        """Same profile + same seed = the same stream, every time; the
        columns and the records built from them agree request-for-request."""
        profile = replace(PROFILES[name].scaled(0.002), seed=seed)
        first = generate_trace(profile)
        second = generate_trace(profile)
        assert first == second
        assert list(first) == list(second)
        assert_arrival_ordered(list(first))

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=12, deadline=None)
    def test_reseeding_changes_only_the_seeded_draws(self, seed):
        """A reseed yields a different (but internally deterministic)
        stream of the same length — the shape comes from the profile,
        the randomness from the seed."""
        base = PROFILES["mail"].scaled(0.002)
        a = generate_trace(replace(base, seed=seed))
        b = generate_trace(replace(base, seed=seed + 1))
        assert len(a) == len(b) == base.num_requests
        assert a != b
