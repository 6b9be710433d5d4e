"""Unit tests for the synthetic trace generator."""

import pytest

from repro.sim.request import OpType
from repro.traces.synthetic import (
    INITIAL_VALUE_BASE,
    generate_trace,
    initial_value_of,
)

from ..conftest import make_profile


class TestDeterminism:
    def test_same_profile_same_trace(self):
        profile = make_profile()
        assert generate_trace(profile) == generate_trace(profile)

    def test_different_seed_different_trace(self):
        assert generate_trace(make_profile(seed=1)) != generate_trace(
            make_profile(seed=2)
        )

    def test_records_equal_rows(self):
        trace = generate_trace(make_profile(num_requests=500))
        records = [(r.arrival_us, r.op, r.lpn, r.value_id) for r in trace]
        assert records == list(trace.rows())
        assert [trace[i] for i in range(len(trace))] == list(trace)

    def test_iterable_protocol(self):
        profile = make_profile(num_requests=100)
        assert len(list(generate_trace(profile))) == 100


class TestShape:
    def test_request_count(self):
        assert len(generate_trace(make_profile(num_requests=1234))) == 1234

    def test_timestamps_monotonic(self):
        trace = generate_trace(make_profile())
        times = [request.arrival_us for request in trace]
        assert times == sorted(times)
        assert times[0] > 0

    def test_lpns_within_total_pages(self):
        profile = make_profile()
        trace = generate_trace(profile)
        assert all(0 <= req.lpn < profile.total_pages for req in trace)

    def test_writes_confined_to_working_set(self):
        profile = make_profile(cold_region_factor=3.0)
        trace = generate_trace(profile)
        writes = [r for r in trace if r.op is OpType.WRITE]
        assert all(r.lpn < profile.working_set_pages for r in writes)

    def test_mean_interarrival_roughly_matches(self):
        profile = make_profile(num_requests=20_000, mean_interarrival_us=50.0)
        trace = generate_trace(profile)
        mean_gap = trace[-1].arrival_us / len(trace)
        assert mean_gap == pytest.approx(50.0, rel=0.1)


class TestContentModel:
    def test_reads_return_current_content(self):
        """Every read's value must equal the most recent write to that LPN
        (or the page's initial value if never written)."""
        profile = make_profile(num_requests=5000)
        content = {}
        for req in generate_trace(profile):
            if req.op is OpType.WRITE:
                content[req.lpn] = req.value_id
            else:
                expected = content.get(req.lpn, initial_value_of(req.lpn))
                assert req.value_id == expected

    def test_initial_values_distinct_from_trace_values(self):
        profile = make_profile()
        trace = generate_trace(profile)
        write_values = {r.value_id for r in trace if r.op is OpType.WRITE}
        assert all(v < INITIAL_VALUE_BASE for v in write_values)
        assert initial_value_of(0) == INITIAL_VALUE_BASE

    def test_value_reuse_creates_redundancy(self):
        profile = make_profile(new_value_prob=0.1, num_requests=5000)
        trace = generate_trace(profile)
        writes = [r for r in trace if r.op is OpType.WRITE]
        distinct = len({r.value_id for r in writes})
        assert distinct < len(writes) * 0.3

    def test_new_value_prob_one_makes_all_unique(self):
        profile = make_profile(new_value_prob=1.0, num_requests=2000)
        writes = [
            r for r in generate_trace(profile) if r.op is OpType.WRITE
        ]
        assert len({r.value_id for r in writes}) == len(writes)

    def test_write_ratio_respected(self):
        profile = make_profile(num_requests=20_000)
        trace = generate_trace(profile)
        writes = sum(1 for r in trace if r.op is OpType.WRITE)
        assert writes / len(trace) == pytest.approx(
            profile.targets.write_ratio, abs=0.02
        )


class TestScanBursts:
    def test_disabled_by_default(self):
        profile = make_profile()
        assert profile.scan_every_writes == 0

    def test_scan_emits_unique_sequential_writes(self):
        profile = make_profile(
            num_requests=4000, scan_every_writes=500, scan_length=100,
            targets=__import__(
                "repro.traces.profiles", fromlist=["TableIITargets"]
            ).TableIITargets(1.0, 0.3, 0.5),
        )
        trace = generate_trace(profile)
        # find a scan: 100 consecutive writes with strictly sequential LPNs
        runs = 0
        longest = 0
        for a, b in zip(trace, trace[1:]):
            if (b.lpn - a.lpn) % profile.working_set_pages == 1:
                runs += 1
                longest = max(longest, runs)
            else:
                runs = 0
        assert longest >= profile.scan_length - 2

    def test_scan_values_are_fresh(self):
        profile = make_profile(
            num_requests=3000, scan_every_writes=400, scan_length=50,
        )
        trace = generate_trace(profile)
        seen = set()
        duplicated = 0
        for req in trace:
            if req.op is OpType.WRITE:
                if req.value_id in seen:
                    duplicated += 1
                seen.add(req.value_id)
        # bursts only add unique values; redundancy still exists elsewhere
        assert duplicated > 0

    def test_scan_validation(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            make_profile(scan_every_writes=100, scan_length=100)
        with _pytest.raises(ValueError):
            make_profile(scan_every_writes=-1)

    def test_scans_off_reproduces_previous_stream(self):
        """The scan machinery must not perturb generation when disabled."""
        a = generate_trace(make_profile(seed=9))
        b = generate_trace(make_profile(seed=9, scan_every_writes=0))
        assert a == b
