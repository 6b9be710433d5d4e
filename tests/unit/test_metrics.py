"""Unit tests for latency statistics and run results."""

import pickle

import pytest

from repro.ftl.ftl import FTLCounters
from repro.sim.metrics import LatencyStats, RunResult, percent_improvement


class TestLatencyStats:
    def test_empty_stats(self):
        stats = LatencyStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.p99 == 0.0
        assert stats.maximum == 0.0

    def test_mean(self):
        stats = LatencyStats()
        for v in (10.0, 20.0, 30.0):
            stats.record(v)
        assert stats.mean == 20.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record(-1.0)

    def test_percentile_nearest_rank(self):
        stats = LatencyStats()
        for v in range(1, 101):
            stats.record(float(v))
        assert stats.percentile(50) == 50.0
        assert stats.percentile(99) == 99.0
        assert stats.percentile(100) == 100.0

    def test_percentile_small_sample(self):
        stats = LatencyStats()
        stats.record(5.0)
        assert stats.percentile(99) == 5.0
        assert stats.percentile(1) == 5.0

    def test_percentile_bounds(self):
        stats = LatencyStats()
        stats.record(1.0)
        with pytest.raises(ValueError):
            stats.percentile(0)
        with pytest.raises(ValueError):
            stats.percentile(101)

    def test_p99_dominated_by_tail(self):
        stats = LatencyStats()
        for _ in range(99):
            stats.record(1.0)
        stats.record(1000.0)
        assert stats.p99 == 1000.0 or stats.p99 == 1.0  # nearest-rank at N=100
        for _ in range(100):
            stats.record(1000.0)
        assert stats.p99 == 1000.0

    def test_merged(self):
        a, b = LatencyStats(), LatencyStats()
        a.record(1.0)
        b.record(3.0)
        merged = a.merged_with(b)
        assert merged.count == 2
        assert merged.mean == 2.0
        # merging does not mutate the parents
        assert a.count == 1 and b.count == 1

    def test_unsorted_insertion_order(self):
        stats = LatencyStats()
        for v in (30.0, 10.0, 20.0):
            stats.record(v)
        assert stats.percentile(33) == 10.0  # ceil(0.33*3)=1 -> smallest

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record(float("nan"))

    def test_pickle_omits_sort_cache(self):
        stats = LatencyStats()
        for v in (3.0, 1.0, 2.0):
            stats.record(v)
        cold = pickle.dumps(stats)
        stats.percentile(50)
        assert pickle.dumps(stats) == cold
        restored = pickle.loads(cold)
        assert restored.samples == [3.0, 1.0, 2.0]
        assert restored.percentile(50) == 2.0

    # Pickles of the class as it was before the sort cache: ``_sorted``
    # was ``None`` after any record and a full sorted copy after a query.
    # Both hold the samples [30.0, 10.0, 20.0, 40.0].
    LEGACY_UNQUERIED = (
        b"\x80\x05\x95l\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro.sim.metrics"
        b"\x94\x8c\x0cLatencyStats\x94\x93\x94)\x81\x94}\x94(\x8c\x08_samples"
        b"\x94]\x94(G@>\x00\x00\x00\x00\x00\x00G@$\x00\x00\x00\x00\x00\x00"
        b"G@4\x00\x00\x00\x00\x00\x00G@D\x00\x00\x00\x00\x00\x00e"
        b"\x8c\x07_sorted\x94Nub."
    )
    LEGACY_QUERIED = (
        b"\x80\x05\x95\x93\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro.sim.metrics"
        b"\x94\x8c\x0cLatencyStats\x94\x93\x94)\x81\x94}\x94(\x8c\x08_samples"
        b"\x94]\x94(G@>\x00\x00\x00\x00\x00\x00G@$\x00\x00\x00\x00\x00\x00"
        b"G@4\x00\x00\x00\x00\x00\x00G@D\x00\x00\x00\x00\x00\x00e"
        b"\x8c\x07_sorted\x94]\x94(G@$\x00\x00\x00\x00\x00\x00"
        b"G@4\x00\x00\x00\x00\x00\x00G@>\x00\x00\x00\x00\x00\x00"
        b"G@D\x00\x00\x00\x00\x00\x00eub."
    )

    @pytest.mark.parametrize("blob", [LEGACY_UNQUERIED, LEGACY_QUERIED])
    def test_restores_pickles_from_before_the_sort_cache(self, blob):
        stats = pickle.loads(blob)
        assert stats.samples == [30.0, 10.0, 20.0, 40.0]
        assert stats.p99 == 40.0
        assert stats.percentile(50) == 20.0
        assert stats.percentile(25) == 10.0
        stats.record(5.0)
        assert stats.percentile(20) == 5.0
        assert stats.mean == 21.0


class TestRunResult:
    def _result(self):
        counters = FTLCounters(
            host_writes=100, host_reads=50, programs=80,
            short_circuits=20, gc_relocations=10, gc_erases=3,
        )
        result = RunResult(system="s", workload="w", counters=counters)
        result.writes.record(400.0)
        result.reads.record(100.0)
        return result

    def test_flash_writes_is_programs(self):
        assert self._result().flash_writes == 80

    def test_total_programs_includes_relocations(self):
        assert self._result().counters.total_programs == 90

    def test_combined_latency(self):
        result = self._result()
        assert result.mean_latency_us == 250.0
        assert result.all_requests.count == 2

    def test_summary_keys(self):
        summary = self._result().summary()
        for key in (
            "host_writes", "flash_writes", "erases",
            "mean_latency_us", "p99_latency_us",
        ):
            assert key in summary
        assert summary["erases"] == 3

    def test_summary_merges_reads_and_writes_once(self, monkeypatch):
        result = self._result()
        calls = []
        merged_with = LatencyStats.merged_with

        def counting(self, other):
            calls.append(other)
            return merged_with(self, other)

        monkeypatch.setattr(LatencyStats, "merged_with", counting)
        summary = result.summary()
        assert len(calls) == 1
        assert summary["mean_latency_us"] == 250.0
        assert summary["p99_latency_us"] == 400.0


class TestPercentImprovement:
    def test_reduction(self):
        assert percent_improvement(100.0, 75.0) == 25.0

    def test_no_change(self):
        assert percent_improvement(100.0, 100.0) == 0.0

    def test_regression_is_negative(self):
        assert percent_improvement(100.0, 110.0) == -10.0

    def test_zero_baseline(self):
        assert percent_improvement(0.0, 10.0) == 0.0
