"""Constants, Hermite algebra, the exact Gaussian-moment oracle, tables.

Everything here is deterministic.  Wherever possible the expected value is
computed inside the test by an independent route (telescoping sums, hand
Wick pairings, Fraction arithmetic) rather than frozen as a bare float.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from quartic_lab import kernels
from quartic_lab.analytic import (
    GaussianMoments,
    audit_cov_table,
    binom,
    discrete_cov_table,
    gamma,
    gauss_taylor,
    hermite_poly,
    kappa,
    kappa_reference,
    multi_binom,
    offset_increment_cov,
    poly_add,
    poly_diff,
    poly_from_coeffs,
    poly_mul,
    poly_scale,
)
from quartic_lab.errors import DomainError
from quartic_lab.functions import builtin
from quartic_lab.kernels import rho_heat
from quartic_lab.stats import loglog_rate


def _embed(poly, var, nvars):
    """Lift a univariate sparse polynomial into variable `var` of `nvars`."""
    out = {}
    for (k,), coeff in poly.items():
        key = [0] * nvars
        key[var] = k
        out[tuple(key)] = coeff
    return out


class TestGamma:
    def test_first_value(self):
        assert gamma(1) == pytest.approx(2.0 - math.sqrt(2), abs=1e-15)

    def test_positive_and_bounded(self):
        js = np.arange(1, 5000)
        vals = gamma(js)
        assert np.all(vals > 0)
        assert np.all(vals <= js**-1.5 / math.sqrt(2) + 1e-15)

    def test_partial_sum_telescopes(self):
        """sum_{j<=J} gamma_j = 1 + sqrt(J) - sqrt(J+1), exactly."""
        for J in (1, 2, 3, 10, 137, 1000):
            direct = float(np.sum(gamma(np.arange(1, J + 1))))
            assert direct == pytest.approx(1.0 + math.sqrt(J) - math.sqrt(J + 1), abs=1e-13)

    def test_partial_sum_example(self):
        assert float(np.sum(gamma(np.arange(1, 4)))) == pytest.approx(0.7320508, abs=5e-8)

    def test_sum_converges_to_one(self):
        """The tail beyond J is sqrt(J+1) - sqrt(J) < 1 / (2 sqrt(J))."""
        assert float(np.sum(gamma(np.arange(1, 10**6 + 1)))) == pytest.approx(1.0, abs=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma(0)
        with pytest.raises(DomainError):
            gamma(-3)


class TestKappa:
    def test_bracket_window(self):
        assert 1.02 < kappa(1e-6).value < 1.04

    def test_tight_window(self):
        res = kappa(1e-6)
        assert 1.0285 <= res.value <= 1.0295
        assert res.bound <= 1e-6

    def test_regression_pin(self):
        # deterministic, so pinned to the digit
        assert kappa(1e-6).value == pytest.approx(1.0293453852266576, abs=1e-15)

    def test_stabilization(self):
        assert abs(kappa(1e-4).value - kappa(1e-10).value) <= 1e-4 + 1e-10

    def test_certified_interval_nests(self):
        """The tol interval always contains the tol/100 value."""
        for tol in (1e-3, 1e-5, 1e-7):
            outer = kappa(tol)
            inner = kappa(tol / 100).value
            assert outer.value - outer.bound <= inner <= outer.value + outer.bound

    def test_reference_is_cached_high_precision(self):
        ref = kappa_reference()
        assert abs(ref - kappa(1e-12).value) == 0.0

    def test_tol_domain(self):
        with pytest.raises(DomainError):
            kappa(0.0)
        with pytest.raises(DomainError):
            kappa(-1e-3)

    def test_tightest_tol_holds_against_a_40_digit_value(self):
        res = kappa(1e-15)
        exact = Fraction("1.029345385378218106582346")
        assert abs(Fraction(res.value) - exact) <= Fraction(res.bound)

    def test_tol_float64_cannot_certify_is_refused(self):
        # The bound would be 4.9e-17, but the float64 value is 7.4e-17 off.
        with pytest.raises(DomainError, match="float64 cannot certify"):
            kappa(1e-16)

    def test_series_beyond_physical_memory_is_refused(self, monkeypatch):
        monkeypatch.setattr(kernels, "_physical_memory_bytes", lambda: 2**20)
        with pytest.raises(DomainError, match="physical memory"):
            kappa(1e-12)


class TestHermite:
    def test_coefficient_tables(self):
        assert hermite_poly(0) == {(0,): 1}
        assert hermite_poly(1) == {(1,): 1}
        assert hermite_poly(2) == {(2,): 1, (0,): -1}
        assert hermite_poly(3) == {(3,): 1, (1,): -3}
        assert hermite_poly(4) == {(4,): 1, (2,): -6, (0,): 3}

    def test_eval_matches_coefficients(self):
        """gauss_bump's n-th derivative is (-1)^n h_n(x) exp(-x^2/2), h_n from the table."""
        bump = builtin("gauss_bump")
        # h_2(2) = 3, h_3(1) = -2 and h_4(2) = -5.
        assert bump.dx(2, 2.0, 0.0) == pytest.approx(3.0 * math.exp(-2.0), rel=1e-12)
        assert bump.dx(3, 1.0, 0.0) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-12)
        assert bump.dx(4, 2.0, 0.0) == pytest.approx(-5.0 * math.exp(-2.0), rel=1e-12)
        rng = np.random.default_rng(1)
        xs = rng.uniform(-3, 3, size=8)
        for n in range(10):
            poly = hermite_poly(n)
            for x in xs:
                h = sum(c * x**k for (k,), c in poly.items())
                direct = (-1) ** n * h * math.exp(-0.5 * x * x)
                assert bump.dx(n, x, 0.0) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_derivative_identity(self):
        """h_n' = n h_{n-1} as polynomials with integer coefficients."""
        for n in range(1, 12):
            assert poly_diff(hermite_poly(n), 0) == poly_scale(hermite_poly(n - 1), n)

    def test_monomial_reconstruction(self):
        """x^n = sum_j C(n,2j) E[Z^2j] h_{n-2j}, exact integer algebra."""
        z = GaussianMoments(((1,),))
        for n in range(0, 12):
            acc = {}
            for j in range(n // 2 + 1):
                coeff = binom(n, 2 * j) * z.monomial((2 * j,))
                acc = poly_add(acc, poly_scale(hermite_poly(n - 2 * j), coeff))
            assert acc == {(n,): 1}


class TestGaussianMoments:
    def test_single_variable_moments(self):
        gm = GaussianMoments(((Fraction(1),),))
        x = {(1,): Fraction(1)}
        assert gm.expectation(x) == 0
        assert gm.expectation(poly_mul(x, x)) == 1
        assert gm.expectation({(4,): Fraction(1)}) == 3
        assert gm.expectation({(6,): Fraction(1)}) == 15
        assert gm.expectation({(3,): Fraction(1)}) == 0

    def test_scaled_variance(self):
        gm = GaussianMoments(((Fraction(5, 7),),))
        assert gm.expectation({(2,): Fraction(1)}) == Fraction(5, 7)
        assert gm.expectation({(4,): Fraction(1)}) == 3 * Fraction(5, 7) ** 2

    def test_hand_wick_cross_moments(self):
        r = Fraction(2, 5)
        gm = GaussianMoments(((Fraction(1), r), (r, Fraction(1))))
        assert gm.expectation({(1, 1): Fraction(1)}) == r
        assert gm.expectation({(2, 2): Fraction(1)}) == 1 + 2 * r**2
        # E[X^3 Y^3] enumerates to 9r + 6r^3 by hand pairing count
        assert gm.expectation({(3, 3): Fraction(1)}) == 9 * r + 6 * r**3
        assert gm.expectation({(2, 1): Fraction(1)}) == 0

    def test_symmetry_required(self):
        with pytest.raises(DomainError):
            GaussianMoments(((1, 2), (3, 1)))

    def test_degree_guard(self):
        gm = GaussianMoments(((Fraction(1),),))
        with pytest.raises(DomainError):
            gm.expectation({(18,): Fraction(1)})

    def test_orthogonality_full_table(self):
        """E[h_n(X) h_m(Y)] = delta_nm n! r^n, exactly in Fractions."""
        rs = [Fraction(-9, 10), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(9, 10)]
        for r in rs:
            gm = GaussianMoments(((Fraction(1), r), (r, Fraction(1))))
            for n in range(9):
                for m in range(9):
                    value = gm.expectation(
                        poly_mul(_embed(hermite_poly(n), 0, 2), _embed(hermite_poly(m), 1, 2))
                    )
                    expect = Fraction(math.factorial(n)) * r**n if n == m else Fraction(0)
                    assert value == expect

    def test_reduction_identity(self):
        """E[g(X) h_n(Y)] = r E[g'(X) h_{n-1}(Y)] for polynomial g."""
        rng = np.random.default_rng(7)
        rs = [Fraction(-3, 4), Fraction(1, 3), Fraction(9, 10)]
        for trial in range(4):
            coeffs = [Fraction(int(c)) for c in rng.integers(-5, 6, size=9)]
            g = poly_from_coeffs(coeffs)
            for r in rs:
                gm = GaussianMoments(((Fraction(1), r), (r, Fraction(1))))
                for n in range(1, 8):
                    lhs = gm.expectation(
                        poly_mul(_embed(g, 0, 2), _embed(hermite_poly(n), 1, 2))
                    )
                    rhs = r * gm.expectation(
                        poly_mul(_embed(poly_diff(g, 0), 0, 2), _embed(hermite_poly(n - 1), 1, 2))
                    )
                    assert lhs == rhs

    def test_covariance_derivative_identity(self):
        """d/dr E[g(X_r)h(Y_r)] = E[g'(X_r)h'(Y_r)], slope-2 FD agreement."""
        g = poly_from_coeffs([0, 1, 0, 1])  # x + x^3
        h = poly_from_coeffs([0, 0, 0, 1])  # y^3

        def f(r):
            gm = GaussianMoments(((Fraction(1), r), (r, Fraction(1))))
            return gm.expectation(poly_mul(_embed(g, 0, 2), _embed(h, 1, 2)))

        r0 = Fraction(3, 10)
        gm0 = GaussianMoments(((Fraction(1), r0), (r0, Fraction(1))))
        target = gm0.expectation(
            poly_mul(_embed(poly_diff(g, 0), 0, 2), _embed(poly_diff(h, 0), 1, 2))
        )
        steps = [Fraction(1, 25), Fraction(1, 50), Fraction(1, 100), Fraction(1, 200)]
        errs = [abs((f(r0 + s) - f(r0 - s)) / (2 * s) - target) for s in steps]
        fit = loglog_rate([float(s) for s in steps], [float(e) for e in errs])
        assert abs(fit.slope - 2.0) <= 0.1

    def test_quartic_observable_time_derivative(self):
        """d/dt E[X_t^4] = (1/2) (dV/dt) E[12 X_t^2] under the heat kernel."""
        phi4 = {(4,): Fraction(1)}
        for t in (0.5, 1.0, 2.0):
            h = 1e-5 * t

            def vphi(tt):
                return float(GaussianMoments(((rho_heat(tt, tt),),)).expectation(phi4))

            lhs = (vphi(t + h) - vphi(t - h)) / (2 * h)
            vprime = (rho_heat(t + h, t + h) - rho_heat(t - h, t - h)) / (2 * h)
            rhs = 0.5 * vprime * 12.0 * rho_heat(t, t)
            assert lhs == pytest.approx(rhs, rel=1e-4)


class TestGaussTaylor:
    def test_linear_case_exact(self):
        r = Fraction(1, 3)
        res = gauss_taylor({(1,): Fraction(1)}, {(1,): Fraction(1)}, ((Fraction(1),),), (r,), 1)
        assert res.expansion == r
        assert res.exact == r
        assert res.remainder == 0

    def test_square_case_exact_at_order_two(self):
        r = Fraction(2, 7)
        res = gauss_taylor({(2,): Fraction(1)}, {(2,): Fraction(1)}, ((Fraction(1),),), (r,), 2)
        assert res.exact == 1 + 2 * r**2
        assert res.remainder == 0

    def test_quartic_remainder_is_quadratic_in_rho(self):
        rhos = [Fraction(1, 10), Fraction(1, 20), Fraction(1, 40)]
        rems = []
        for rho in rhos:
            res = gauss_taylor(
                {(4,): Fraction(1)}, {(2,): Fraction(1)}, ((Fraction(1),),), (rho,), 1
            )
            assert res.exact == 3 + 12 * rho**2
            rems.append(abs(res.remainder))
        assert rems == [Fraction(3, 25), Fraction(3, 100), Fraction(3, 400)]
        fit = loglog_rate([float(r) for r in rhos], [float(e) for e in rems])
        assert abs(fit.slope - 2.0) <= 0.1

    def test_two_variable_expansion(self):
        # f(x1,x2) = x1*x2 against h(y) = y^2: exact E = 2 r1 r2 + c12
        r1, r2, c12 = Fraction(1, 4), Fraction(1, 5), Fraction(1, 6)
        f = {(1, 1): Fraction(1)}
        h = {(2,): Fraction(1)}
        cov = ((Fraction(1), c12), (c12, Fraction(1)))
        res = gauss_taylor(f, h, cov, (r1, r2), 2)
        assert res.exact == c12 + 2 * r1 * r2
        assert res.remainder == 0

    def test_zero_f_gives_zero(self):
        # The zero polynomial times h is the zero polynomial, not h.
        res = gauss_taylor({}, {(2,): Fraction(1)}, ((Fraction(1),),), (Fraction(1, 3),), 2)
        assert (res.expansion, res.exact, res.remainder) == (0, 0, 0)

    def test_validation(self):
        one = ((Fraction(1),),)
        with pytest.raises(DomainError):
            gauss_taylor({(1,): Fraction(1)}, {(1,): Fraction(1)}, one, (1, 2), 1)
        with pytest.raises(DomainError):
            gauss_taylor({(1,): Fraction(1)}, {(1,): Fraction(1)}, one, (Fraction(1, 2),), -1)
        with pytest.raises(DomainError):
            gauss_taylor({(10,): Fraction(1)}, {(8,): Fraction(1)}, one, (Fraction(1, 2),), 1)


class TestCombinatorics:
    def test_binomial_conventions(self):
        assert binom(5, 3) == 10
        assert binom(3, 5) == 0
        assert binom(4, -1) == 0
        assert binom(0, 0) == 1

    def test_multi_binom(self):
        assert multi_binom((2, 1), (1, 0)) == 2
        assert multi_binom((2, 1), (2, 1)) == 1
        assert multi_binom((2, 1), (0, 2)) == 0

    def test_vandermonde_identity(self):
        """sum_j C(b, b-j) C(c, j) = C(b+c, b) for all splits of a <= 8."""
        for a in range(9):
            for b in range(a + 1):
                c = a - b
                total = sum(binom(b, b - j) * binom(c, j) for j in range(a + 1))
                assert total == binom(a, b)

    def test_multi_index_layer_sums(self):
        """sum_{|alpha|=m, alpha<=gamma} (gamma over alpha) = C(|gamma|, m)."""
        import itertools

        def compositions(total):
            if total == 0:
                yield ()
                return
            for head in range(1, total + 1):
                for rest in compositions(total - head):
                    yield (head,) + rest

        for tot in range(9):
            for gam in compositions(tot):
                for m in range(tot + 1):
                    layer = 0
                    for alpha in itertools.product(*(range(g + 1) for g in gam)):
                        if sum(alpha) == m:
                            layer += multi_binom(gam, alpha)
                    assert layer == binom(tot, m)


class TestDiscreteCovTable:
    def test_single_step_variance(self):
        table = discrete_cov_table(1, maxj=1)
        assert table.sigma_sq[0] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-15)
        assert table.sigma_hat[0] == 0.0

    def test_entries_match_direct_bilinearity(self):
        n = 4
        table = discrete_cov_table(n)
        t = np.arange(n + 1) / n
        for j in range(1, n + 1):
            sig = rho_heat(t[j], t[j]) - 2 * rho_heat(t[j - 1], t[j]) + rho_heat(t[j - 1], t[j - 1])
            hat = rho_heat(t[j - 1], t[j]) - rho_heat(t[j - 1], t[j - 1])
            assert table.sigma_sq[j - 1] == pytest.approx(sig, abs=1e-15)
            assert table.sigma_hat[j - 1] == pytest.approx(hat, abs=1e-15)

    def test_cross_matches_matrix_route(self):
        """Increment covariances against a padded level-covariance matrix."""
        from quartic_lab.kernels import Grid, build_cov_matrix, heat_kernel

        n = 8
        table = discrete_cov_table(n)
        levels = np.zeros((n + 1, n + 1))
        levels[1:, 1:] = build_cov_matrix(heat_kernel(), Grid(n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                want = (
                    levels[i, j] - levels[i - 1, j] - levels[i, j - 1] + levels[i - 1, j - 1]
                )
                got = table.cross[i - 1, j - i - 1]
                assert got == pytest.approx(want, abs=1e-15)

    def test_positivity_and_negativity(self):
        table = discrete_cov_table(1024, maxj=256)
        assert np.all(table.sigma_sq > 0)
        valid = ~np.isnan(table.cross)
        assert np.all(table.cross[valid] < 0)
        # the spot pair singled out in review notes
        assert table.cross[9, 9] < 0  # i = 10, j = 20

    def test_lag_window_shape(self):
        table = discrete_cov_table(64, maxj=32, lag=5)
        assert table.cross.shape == (32, 5)
        assert np.isnan(table.cross[31, 0])  # j = 33 > maxj

    def test_validation(self):
        with pytest.raises(DomainError):
            discrete_cov_table(0)
        with pytest.raises(DomainError):
            discrete_cov_table(4, maxj=0)
        # The audit sizes its own work arrays before it builds the table.
        with pytest.raises(DomainError, match="covariance audit .* physical memory"):
            audit_cov_table(64, maxj=2**40)

    @pytest.mark.parametrize("n", [64.5, math.nan], ids=str)
    def test_step_count_follows_the_grid_rule(self, n):
        # A table at a resolution that `Grid` refuses would compute nothing
        # a sampled path can be compared with.
        with pytest.raises(DomainError):
            kernels.Grid(n)
        with pytest.raises(DomainError, match="must be an integer"):
            discrete_cov_table(n)
        with pytest.raises(DomainError, match="must be an integer"):
            audit_cov_table(n)


class TestOffsetIncrementCov:
    def test_reduces_to_sigma_hat(self):
        n = 16
        table = discrete_cov_table(n)
        for j in range(1, n + 1):
            assert offset_increment_cov(n, 0, j, j) == pytest.approx(
                table.sigma_hat[j - 1], abs=1e-15
            )

    def test_matrix_route(self):
        from quartic_lab.kernels import Grid, build_cov_matrix, heat_kernel

        n = 8
        levels = np.zeros((n + 1, n + 1))
        levels[1:, 1:] = build_cov_matrix(heat_kernel(), Grid(n))
        for c, i, j in [(0, 2, 5), (1, 3, 3), (2, 4, 7), (3, 4, 4)]:
            want = levels[i - 1, j] - levels[i - 1, j - 1] - levels[c, j] + levels[c, j - 1]
            assert offset_increment_cov(n, c, i, j) == pytest.approx(want, abs=1e-15)

    def test_ordering_validated(self):
        with pytest.raises(DomainError):
            offset_increment_cov(8, 2, 2, 5)
        with pytest.raises(DomainError):
            offset_increment_cov(8, 0, 5, 4)

    def test_fractional_step_count_refused(self):
        with pytest.raises(DomainError, match="must be an integer"):
            offset_increment_cov(64.5, 0, 1, 2)


class TestCovAudit:
    def test_small_audit_passes(self):
        report = audit_cov_table(256)
        assert report.ok
        assert report.sig2_violations == ()
        assert report.sig3_violations == ()
        assert report.cross_sign_violations == 0
        assert report.cross_lower_violations == 0
        assert 0 < report.sig2_max_ratio < 1
        assert report.sighat_sup_ratio > 0
        assert report.sigdel_sup_ratio > 0

    def test_report_serializes(self):
        report = audit_cov_table(64)
        rec = report.to_dict()
        assert rec["ok"] is True
        assert rec["n"] == 64
        assert set(rec) >= {
            "sig2_max_ratio",
            "sighat_sup_ratio",
            "sigdel_sup_ratio",
            "cross_worst_pair",
        }

    def test_ratio_stability_in_n(self):
        """Reported sup ratios stay bounded as n grows (no blow-up)."""
        ratios = [audit_cov_table(n).sighat_sup_ratio for n in (64, 256, 1024)]
        assert max(ratios) / min(ratios) < 1.05
