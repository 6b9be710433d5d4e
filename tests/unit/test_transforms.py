"""Unit tests for trace transforms."""

import pytest

from repro.sim.request import IORequest, OpType, rows_of
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


def w(t, lpn, value=0):
    return IORequest(t, OpType.WRITE, lpn, value)


def r(t, lpn):
    return IORequest(t, OpType.READ, lpn, 0)


TRACE = [w(0.0, 0, 1), r(10.0, 0), w(20.0, 1, 2), w(30.0, 2, 3)]


class TestScaleTime:
    def test_compression(self):
        out = list(scale_time(TRACE, 0.5))
        assert [x.arrival_us for x in out] == [0.0, 5.0, 10.0, 15.0]
        assert [x.lpn for x in out] == [x.lpn for x in TRACE]

    def test_stretch(self):
        out = list(scale_time(TRACE, 2.0))
        assert out[-1].arrival_us == 60.0

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            list(scale_time(TRACE, 0.0))


class TestWindow:
    def test_selects_and_rebases(self):
        out = list(window(TRACE, 10.0, 30.0))
        assert [x.arrival_us for x in out] == [0.0, 10.0]
        assert [x.lpn for x in out] == [0, 1]

    def test_empty_window(self):
        assert list(window(TRACE, 100.0, 200.0)) == []

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            list(window(TRACE, 10.0, 10.0))


class TestTakeAndFilter:
    def test_take(self):
        assert len(list(take(TRACE, 2))) == 2
        assert list(take(TRACE, 0)) == []
        assert len(list(take(TRACE, 99))) == len(TRACE)

    def test_take_negative(self):
        with pytest.raises(ValueError):
            list(take(TRACE, -1))

    def test_filter_ops(self):
        writes = list(filter_ops(TRACE, OpType.WRITE))
        reads = list(filter_ops(TRACE, OpType.READ))
        assert len(writes) == 3
        assert len(reads) == 1
        assert all(x.op is OpType.WRITE for x in writes)


class TestShiftLpns:
    def test_shift(self):
        out = list(shift_lpns(TRACE, 100))
        assert [x.lpn for x in out] == [100, 100, 101, 102]

    def test_negative_result_rejected(self):
        with pytest.raises(ValueError):
            list(shift_lpns(TRACE, -5))


class TestMerge:
    def test_merge_keeps_time_order(self):
        a = [w(0.0, 0), w(20.0, 1)]
        b = [w(10.0, 5), w(30.0, 6)]
        merged = list(merge_traces(a, b))
        assert [x.arrival_us for x in merged] == [0.0, 10.0, 20.0, 30.0]

    def test_merge_is_lazy_and_variadic(self):
        def gen(base):
            for i in range(3):
                yield w(base + i * 10.0, 0)

        merged = list(merge_traces(gen(0.0), gen(1.0), gen(2.0)))
        assert len(merged) == 9
        times = [x.arrival_us for x in merged]
        assert times == sorted(times)


class TestInterleaveTenants:
    def test_disjoint_addresses_and_values(self):
        a = [w(0.0, 0, 1), w(20.0, 1, 2)]
        b = [w(10.0, 0, 1), w(30.0, 1, 2)]
        out = interleave_tenants([a, b], pages_per_tenant=100)
        assert [x.lpn for x in out] == [0, 100, 1, 101]
        values = {x.value_id for x in out}
        assert len(values) == 4  # identical tenant contents kept distinct

    def test_lpn_range_enforced(self):
        with pytest.raises(ValueError):
            interleave_tenants([[w(0.0, 150, 1)]], pages_per_tenant=100)

    def test_single_tenant_passthrough_lpns(self):
        a = [w(0.0, 3, 7)]
        out = interleave_tenants([a], pages_per_tenant=10)
        assert out[0].lpn == 3

    def test_invalid_pages_per_tenant(self):
        with pytest.raises(ValueError):
            interleave_tenants([[]], pages_per_tenant=0)

    def test_value_id_overflowing_namespace_raises(self):
        # tenant 0's value_id 7 with value_space=4 would land on tenant
        # 1's private id 3 after the shift — reject instead of colliding.
        a = [w(0.0, 0, 7)]
        b = [w(1.0, 0, 3)]
        with pytest.raises(ValueError, match="private namespace"):
            interleave_tenants([a, b], pages_per_tenant=16, value_space=4)

    def test_overflow_allowed_when_values_shared(self):
        a = [w(0.0, 0, 7)]
        b = [w(1.0, 0, 3)]
        out = interleave_tenants(
            [a, b], pages_per_tenant=16, value_space=4, share_values=True,
        )
        assert [x.value_id for x in out] == [7, 3]

    def test_invalid_value_space(self):
        with pytest.raises(ValueError):
            interleave_tenants([[]], pages_per_tenant=16, value_space=0)

    def test_namespace_collision_caused_spurious_revival(self, tiny_config):
        """Regression for the silent-collision bug: before validation, a
        tenant value_id >= value_space aliased another tenant's private id
        and the pool revived garbage across supposedly isolated tenants."""
        from repro.core.dvp import InfiniteDeadValuePool
        from repro.ftl.ftl import BaseFTL

        value_space = 4
        # Tenant 0 writes id 7 (= value_space + 3) then overwrites it, so
        # content 7 becomes pool garbage; tenant 1 then writes its private
        # id 3.  Under the old shift, both map to global id 7: tenant 1's
        # write short-circuits against tenant 0's dead page.
        tenant_a = [w(0.0, 0, 7), w(10.0, 0, 1)]
        tenant_b = [w(20.0, 0, 3)]

        def replay(trace):
            ftl = BaseFTL(tiny_config, pool=InfiniteDeadValuePool())
            for request in trace:
                ftl.write(request.lpn, request.fingerprint)
            return ftl.counters.short_circuits

        buggy_shift = [
            IORequest(
                arrival_us=req.arrival_us, op=req.op,
                lpn=req.lpn + index * 16,
                value_id=req.value_id + index * value_space,
            )
            for index, tenant in enumerate([tenant_a, tenant_b])
            for req in tenant
        ]
        assert replay(sorted(buggy_shift, key=lambda r: r.arrival_us)) == 1

        with pytest.raises(ValueError):
            interleave_tenants(
                [tenant_a, tenant_b], pages_per_tenant=16,
                value_space=value_space,
            )

    def test_shared_values_enable_cross_tenant_revival(self, tiny_config):
        """With share_values=True, one tenant's dead content can serve
        another tenant's write through the pool."""
        from repro.core.dvp import InfiniteDeadValuePool
        from repro.ftl.ftl import BaseFTL

        tenant_a = [w(0.0, 0, 777), w(10.0, 0, 1)]    # 777 dies at t=10
        tenant_b = [w(20.0, 0, 777)]                   # b writes the same
        for shared, expect in ((True, 1), (False, 0)):
            trace = interleave_tenants(
                [tenant_a, tenant_b], pages_per_tenant=64,
                share_values=shared,
            )
            ftl = BaseFTL(tiny_config, pool=InfiniteDeadValuePool())
            for request in trace:
                ftl.write(request.lpn, request.fingerprint)
            assert ftl.counters.short_circuits == expect


class TestTransformsFeedTheSimulator:
    def test_compressed_trace_raises_load(self, tiny_config):
        """End-to-end: compressing arrivals increases queueing latency."""
        from repro.ftl.ftl import BaseFTL
        from repro.sim.ssd import replay

        base = [w(i * 2000.0, i % 8, i) for i in range(200)]
        relaxed = replay(BaseFTL(tiny_config), base)
        compressed = replay(
            BaseFTL(tiny_config), list(scale_time(base, 0.05))
        )
        assert compressed.mean_latency_us >= relaxed.mean_latency_us


def trimmed(trace, every):
    """``with_trims`` over the records' rows, read back as records."""
    return (IORequest(*row) for row in with_trims(rows_of(trace), every))


class TestWithTrims:
    def test_trims_follow_every_nth_write(self):
        out = trimmed(TRACE, 2)
        # Writes at index 0, 2, 3; the 2nd write (lpn 1) gets a TRIM.
        ops = [(req.op, req.lpn) for req in out]
        assert ops == [
            (OpType.WRITE, 0), (OpType.READ, 0),
            (OpType.WRITE, 1), (OpType.TRIM, 1),
            (OpType.WRITE, 2),
        ]

    def test_trim_shares_arrival_time(self):
        out = trimmed(TRACE, 2)
        trim = next(req for req in out if req.op is OpType.TRIM)
        assert trim.arrival_us == 20.0

    def test_every_write_trimmed(self):
        out = trimmed(TRACE, 1)
        trims = [req for req in out if req.op is OpType.TRIM]
        assert [t.lpn for t in trims] == [0, 1, 2]

    def test_reads_do_not_count(self):
        out = trimmed([r(0.0, 5), r(1.0, 6)], 1)
        assert all(req.op is OpType.READ for req in out)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            list(trimmed(TRACE, 0))

    def test_lazy_never_materialises(self):
        """Streams like every other transform: pulling a prefix of the
        output must not consume the whole (here: unbounded) input."""
        def endless():
            i = 0
            while True:
                yield w(float(i), i % 8, i)
                i += 1

        out = trimmed(endless(), 2)
        head = [next(out) for _ in range(6)]
        ops = [req.op for req in head]
        assert OpType.TRIM in ops
        assert len(head) == 6  # and we returned at all
