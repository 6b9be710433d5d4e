"""Unit tests for CDF helpers."""

import pytest

from repro.analysis.cdf import bucket_means, empirical_cdf, lorenz_share


class TestEmpiricalCDF:
    def test_empty(self):
        assert empirical_cdf([]) == []

    def test_single_value(self):
        assert empirical_cdf([5]) == [(5, 1.0)]

    def test_sorted_and_cumulative(self):
        cdf = empirical_cdf([1, 1, 2, 3])
        assert cdf == [(1, 0.5), (2, 0.75), (3, 1.0)]

    def test_last_point_is_one(self):
        cdf = empirical_cdf([9, 3, 7, 3])
        assert cdf[-1][1] == 1.0


class TestBucketMeans:
    def test_means_per_bucket(self):
        pairs = [(1, 10.0), (1, 20.0), (2, 5.0)]
        means = bucket_means(pairs, num_buckets=5)
        assert means[1] == 15.0
        assert means[2] == 5.0

    def test_clamping_into_last_bucket(self):
        pairs = [(100, 1.0), (200, 3.0)]
        means = bucket_means(pairs, num_buckets=10)
        assert means == {10: 2.0}

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            bucket_means([], num_buckets=0)

    def test_empty(self):
        assert bucket_means([]) == {}


class TestLorenzShare:
    def test_pareto_8020(self):
        counts = [80] + [20 // 4] * 4  # top 20% of 5 items holds 80%
        assert lorenz_share(counts, 0.2) == pytest.approx(0.8)

    def test_uniform(self):
        assert lorenz_share([1] * 100, 0.3) == pytest.approx(0.3)

    def test_unsorted_input(self):
        assert lorenz_share([1, 100, 1], 1 / 3) == pytest.approx(100 / 102)

    def test_empty_and_zero(self):
        assert lorenz_share([], 0.2) == 0.0
        assert lorenz_share([0, 0], 0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            lorenz_share([1], 0)
