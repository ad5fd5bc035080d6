"""Statistical primitives: KS distances, rate regression, correlation.

The KS statistics and the rate fit are cross-checked against scipy on
random data; the small exact values are enumerated by hand from the ECDF
breakpoints.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import stdtrit

from quartic_lab import stats
from quartic_lab.errors import DomainError
from quartic_lab.stats import (
    CorrelationResult,
    RateFit,
    correlation,
    ks_one_sample_normal,
    ks_two_sample,
    loglog_rate,
)


class TestKsTwoSample:
    def test_identical_samples_give_zero(self):
        a = [0.3, -1.2, 4.0, 0.0]
        assert ks_two_sample(a, a) == 0.0

    def test_disjoint_singletons_give_one(self):
        assert ks_two_sample([0.0], [1.0]) == 1.0

    def test_three_vs_two_interleaved(self):
        # ECDF gaps at the 5 breakpoints: 1/3, 1/6, 1/3, 1/6, 0.
        assert ks_two_sample([1.0, 2.0, 3.0], [1.5, 2.5]) == pytest.approx(1.0 / 3.0)

    def test_symmetry(self):
        rng = np.random.default_rng(101)
        a = rng.normal(size=37)
        b = rng.normal(loc=0.3, size=53)
        assert ks_two_sample(a, b) == ks_two_sample(b, a)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(102)
        a = rng.normal(size=40)
        b = rng.normal(size=25)
        base = ks_two_sample(a, b)
        warp = lambda x: np.expm1(x) + 3.0 * x
        assert ks_two_sample(warp(a), warp(b)) == base

    def test_matches_scipy(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            a = rng.normal(size=rng.integers(5, 80))
            b = rng.normal(loc=0.4, size=rng.integers(5, 80))
            ref = sps.ks_2samp(a, b, method="exact").statistic
            assert ks_two_sample(a, b) == pytest.approx(ref, abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError):
            ks_two_sample([], [1.0])
        with pytest.raises(DomainError):
            ks_two_sample([1.0], [])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            ks_two_sample([1.0, float("nan")], [0.0])


class TestKsOneSampleNormal:
    def test_single_point_at_mean(self):
        assert ks_one_sample_normal([0.0]) == 0.5

    def test_large_standard_normal_sample_is_close(self):
        a = np.random.default_rng(104).normal(size=10_000)
        assert ks_one_sample_normal(a) <= 0.02

    def test_matches_scipy_kstest(self):
        a = np.random.default_rng(105).normal(size=64)
        ref = sps.kstest(a, "norm").statistic
        assert ks_one_sample_normal(a) == pytest.approx(ref, abs=1e-12)


class TestLoglogRate:
    def test_exact_inverse_square(self):
        xs = np.array([4.0, 8.0, 16.0, 32.0])
        fit = loglog_rate(xs, xs**-2)
        assert fit.slope == pytest.approx(-2.0, abs=1e-10)
        assert fit.stderr < 1e-8
        assert fit.ci_low <= -2.0 <= fit.ci_high

    def test_exact_scaled_square_root(self):
        xs = np.array([10.0, 100.0, 1000.0])
        fit = loglog_rate(xs, 7.3 * xs**-0.5)
        assert fit.slope == pytest.approx(-0.5, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(7.3), abs=1e-10)

    def test_noisy_slope_ci_covers_truth(self):
        rng = np.random.default_rng(107)
        xs = 2.0 ** np.arange(3, 11)
        ys = xs**-1.0 * np.exp(rng.normal(scale=0.1, size=xs.size))
        fit = loglog_rate(xs, ys)
        assert fit.ci_low <= -1.0 <= fit.ci_high
        assert abs(fit.slope + 1.0) < 0.15

    def test_matches_scipy_linregress(self):
        rng = np.random.default_rng(108)
        xs = np.array([16.0, 64.0, 256.0, 1024.0, 4096.0])
        ys = xs**-0.75 * np.exp(rng.normal(scale=0.05, size=xs.size))
        fit = loglog_rate(xs, ys)
        ref = sps.linregress(np.log(xs), np.log(ys))
        assert fit.slope == pytest.approx(ref.slope, abs=1e-12)
        assert fit.stderr == pytest.approx(ref.stderr, abs=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            loglog_rate([1.0, 2.0], [1.0, 0.5])

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            loglog_rate([1.0, 2.0, 4.0], [1.0, 0.0, 0.25])
        with pytest.raises(DomainError):
            loglog_rate([-1.0, 2.0, 4.0], [1.0, 0.5, 0.25])

    def test_quantile_is_bitwise_scipy_stats_t_ppf(self):
        """The CI's quantile, stdtrit, is what scipy.stats.t.ppf returns, bit for bit."""
        dof = np.arange(1, 51)
        ours = np.array([stdtrit(d, 0.975) for d in dof])
        assert np.array_equal(ours.view(np.uint64), sps.t.ppf(0.975, dof).view(np.uint64))

    def test_quantile_table_is_bitwise_stdtrit(self):
        """The committed quantiles for dof 1 .. 30 are stdtrit's, bit for bit."""
        dof = np.arange(1, len(stats._T975) + 1)
        table = np.array(stats._T975)
        assert np.array_equal(table.view(np.uint64), stdtrit(dof, 0.975).view(np.uint64))

    @pytest.mark.parametrize("sizes", [3, 32, 33, 40])
    def test_ci_uses_the_t_quantile_of_its_dof(self, sizes):
        """Up to 32 sizes from the table, beyond from stdtrit: the same quantile either way."""
        xs = 2.0 ** np.arange(3, 3 + sizes)
        ys = xs**-0.5 * np.exp(np.random.default_rng(sizes).normal(scale=0.1, size=sizes))
        fit = loglog_rate(xs, ys)
        assert fit.ci_high == fit.slope + float(stdtrit(sizes - 2, 0.975)) * fit.stderr

    def test_to_dict_round_trip(self):
        fit = loglog_rate([2.0, 4.0, 8.0], [1.0, 0.5, 0.25])
        d = fit.to_dict()
        assert RateFit(**d) == fit


class TestCorrelation:
    def test_matches_numpy(self):
        rng = np.random.default_rng(109)
        a = rng.normal(size=50)
        b = 0.6 * a + rng.normal(size=50)
        res = correlation(a, b)
        assert res.r == pytest.approx(np.corrcoef(a, b)[0, 1], abs=1e-12)
        assert res.count == 50

    def test_fisher_interval_by_hand(self):
        rng = np.random.default_rng(110)
        a = rng.normal(size=28)
        b = a + rng.normal(size=28)
        res = correlation(a, b)
        half = 1.959963984540054 / math.sqrt(25.0)
        assert res.ci_low == pytest.approx(math.tanh(math.atanh(res.r) - half))
        assert res.ci_high == pytest.approx(math.tanh(math.atanh(res.r) + half))
        assert res.ci_low < res.r < res.ci_high

    def test_perfect_correlation_collapses_interval(self):
        a = np.arange(10.0)
        res = correlation(a, 3.0 * a + 1.0)
        assert res.r == 1.0
        assert res.ci_low == res.ci_high == 1.0
        res = correlation(a, -2.0 * a)
        assert res.r == -1.0

    def test_constant_sample_rejected(self):
        with pytest.raises(DomainError):
            correlation([1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0])

    def test_size_requirements(self):
        with pytest.raises(DomainError):
            correlation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            correlation([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_to_dict_round_trip(self):
        rng = np.random.default_rng(111)
        a = rng.normal(size=12)
        res = correlation(a, rng.normal(size=12))
        assert CorrelationResult(**res.to_dict()) == res

