"""Unit tests for Zipf sampling."""

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.traces.zipf import (
    ZipfSampler,
    top_fraction_share,
    zipf_rank,
    zipf_rank_legacy,
    zipf_ranker,
)


class TestZipfRank:
    def test_bounds(self):
        rng = random.Random(1)
        for n in (1, 2, 10, 1000):
            for _ in range(200):
                assert 1 <= zipf_rank(rng, n, 1.1) <= n

    def test_n_one_always_one(self):
        rng = random.Random(1)
        assert all(zipf_rank(rng, 1, 1.0) == 1 for _ in range(10))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            zipf_rank(random.Random(1), 0, 1.0)

    def test_skew_concentrates_on_low_ranks(self):
        rng = random.Random(42)
        draws = [zipf_rank(rng, 1000, 1.2) for _ in range(20_000)]
        counts = Counter(draws)
        top10 = sum(counts[r] for r in range(1, 11))
        assert top10 / len(draws) > 0.4

    def test_s1_log_branch(self):
        rng = random.Random(42)
        draws = [zipf_rank(rng, 1000, 1.0) for _ in range(20_000)]
        counts = Counter(draws)
        assert counts[1] > counts.get(500, 0)

    def test_higher_s_more_skew(self):
        rng1, rng2 = random.Random(7), random.Random(7)
        mild = [zipf_rank(rng1, 1000, 0.8) for _ in range(20_000)]
        steep = [zipf_rank(rng2, 1000, 1.5) for _ in range(20_000)]
        assert Counter(steep)[1] > Counter(mild)[1]


class TestZipfRankTruncationFix:
    """The corrected inverse floors over ``[1, n+1)``; the legacy draw
    truncated over ``[1, n)``, making rank ``n`` almost unreachable and
    over-weighting rank 1 (regression for the truncation-bias bug)."""

    def test_rank_n_reachable(self):
        rng = random.Random(7)
        assert any(zipf_rank(rng, 2, 0.5) == 2 for _ in range(2_000))

    def test_legacy_truncation_starves_rank_n(self):
        # With n=2 the legacy draw lives in [1, 2) and int() can only ever
        # produce rank 1 — rank 2 is literally unreachable.
        rng = random.Random(7)
        assert all(zipf_rank_legacy(rng, 2, 0.5) == 1 for _ in range(2_000))

    def test_rank_one_share_not_inflated(self):
        # Same uniform sequence: the legacy normalisation over [1, n)
        # concentrates strictly more mass on rank 1 than the corrected
        # one over [1, n+1).
        n, draws = 5, 50_000
        rng_fixed, rng_legacy = random.Random(3), random.Random(3)
        fixed = Counter(
            zipf_rank(rng_fixed, n, 1.15) for _ in range(draws)
        )
        legacy = Counter(
            zipf_rank_legacy(rng_legacy, n, 1.15) for _ in range(draws)
        )
        assert fixed[1] < legacy[1]
        assert fixed[n] > legacy[n]

    def test_mail_skew_pins_figure_3a_share(self):
        # Figure 3a: ~20% of values absorb ~80% of the writes.  Draw ranks
        # under the mail profile's value skew (value_zipf_s=1.15) and check
        # the top-20% share lands in the figure's neighbourhood.
        rng = random.Random(1234)
        n = 2_000
        counts = Counter(zipf_rank(rng, n, 1.15) for _ in range(60_000))
        share = top_fraction_share(
            [counts.get(rank, 0) for rank in range(1, n + 1)], 0.2
        )
        assert 0.78 <= share <= 0.95

    def test_legacy_bounds_and_validation(self):
        rng = random.Random(1)
        for n in (1, 2, 10, 1000):
            for _ in range(100):
                assert 1 <= zipf_rank_legacy(rng, n, 1.1) <= n
        with pytest.raises(ValueError):
            zipf_rank_legacy(random.Random(1), 0, 1.0)


class TestZipfRanker:
    """``zipf_ranker(rng, s)(n)`` is ``zipf_rank(rng, n, s)``, draw for draw."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        s=st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.0 + 1e-12, 1.15, 2.5]),
        # Runs of one n (the cached term) and changes of n, including the
        # n == 1 case that consumes no randomness.
        ns=st.lists(
            st.tuples(st.integers(min_value=1, max_value=10**6),
                      st.integers(min_value=1, max_value=5)),
            min_size=1, max_size=30,
        ),
    )
    def test_matches_zipf_rank(self, seed, s, ns):
        cached, reference = random.Random(seed), random.Random(seed)
        draw = zipf_ranker(cached, s)
        for n, repeats in ns:
            for _ in range(repeats):
                assert draw(n) == zipf_rank(reference, n, s)
        assert cached.getstate() == reference.getstate()

    @pytest.mark.parametrize("s", [1.0, 1.1])
    def test_invalid_n(self, s):
        for first in (True, False):
            draw = zipf_ranker(random.Random(1), s)
            if not first:
                assert draw(3) >= 1
            for n in (0, -1):
                with pytest.raises(ValueError):
                    draw(n)


class TestZipfSampler:
    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(100, 1.0)
        total = sum(sampler.probability(i) for i in range(100))
        assert total == pytest.approx(1.0)

    def test_rank_zero_most_probable(self):
        sampler = ZipfSampler(100, 1.0)
        assert sampler.probability(0) > sampler.probability(1)

    def test_sample_in_range(self):
        sampler = ZipfSampler(50, 1.2)
        rng = random.Random(3)
        assert all(0 <= sampler.sample(rng) < 50 for _ in range(1000))

    def test_s_zero_is_uniform(self):
        sampler = ZipfSampler(10, 0.0)
        assert sampler.probability(0) == pytest.approx(0.1)
        assert sampler.probability(9) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)
        with pytest.raises(ValueError):
            ZipfSampler(10, -0.1)
        with pytest.raises(IndexError):
            ZipfSampler(10, 1.0).probability(10)

    def test_empirical_matches_theoretical(self):
        sampler = ZipfSampler(20, 1.0)
        rng = random.Random(11)
        counts = Counter(sampler.sample(rng) for _ in range(50_000))
        assert counts[0] / 50_000 == pytest.approx(sampler.probability(0), rel=0.1)


class TestTopFractionShare:
    def test_uniform_counts(self):
        assert top_fraction_share([10] * 10, 0.2) == pytest.approx(0.2)

    def test_all_mass_on_one(self):
        counts = [100] + [0] * 9
        assert top_fraction_share(counts, 0.1) == 1.0

    def test_empty(self):
        assert top_fraction_share([], 0.2) == 0.0

    def test_zero_total(self):
        assert top_fraction_share([0, 0, 0], 0.5) == 0.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            top_fraction_share([1], 0.0)
        with pytest.raises(ValueError):
            top_fraction_share([1], 1.5)
