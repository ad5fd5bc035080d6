"""Covariance kernels: closed forms, the quadrature cross-check, grids.

Expected numbers are either exact closed forms evaluated inline or values
frozen from an independent route (adaptive quadrature of the spectral
integral, arbitrary-precision evaluation of the defining formulas).
"""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from quartic_lab.errors import DomainError
from quartic_lab.kernels import (
    FBM_HEAT_SCALE,
    CovKernel,
    Grid,
    build_cov_matrix,
    fbm_composite_kernel,
    fbm_quarter_kernel,
    finite_number,
    heat_kernel,
    rho_bm,
    rho_fbm_quarter,
    rho_heat,
    rho_xi_lei_nualart,
)


class TestHeatKernel:
    def test_zero_time_edge(self):
        assert rho_heat(0.0, 0.5) == 0.0
        assert rho_heat(0.5, 0.0) == 0.0

    def test_unit_variance_value(self):
        """rho(1,1) = 1/sqrt(pi), the variance of the process at t = 1."""
        assert rho_heat(1.0, 1.0) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-15)

    def test_off_diagonal_value(self):
        # frozen from 50-digit Decimal evaluation of the closed form
        assert rho_heat(0.5, 1.0) == pytest.approx(0.20650772012904178, abs=1e-15)

    def test_symmetry_on_lattice(self):
        ts = np.linspace(0.0, 2.0, 100)
        a = rho_heat(ts[:, None], ts[None, :])
        assert np.array_equal(a, a.T)

    def test_rejects_negative_times(self):
        with pytest.raises(DomainError):
            rho_heat(-0.1, 1.0)
        with pytest.raises(DomainError):
            rho_heat(1.0, -1e-12)

    def test_increment_variance_band(self):
        """E|F(t)-F(s)|^2 lies in [|t-s|^(1/2)/sqrt(pi), 2|t-s|^(1/2)]."""
        grid = Grid(64)
        ts = grid.times()
        s = ts[:, None]
        t = ts[None, :]
        inc = rho_heat(t, t) - 2.0 * rho_heat(s, t) + rho_heat(s, s)
        gap = np.sqrt(np.abs(t - s))
        mask = ~np.eye(len(ts), dtype=bool)
        assert np.all(inc[mask] >= gap[mask] / math.sqrt(math.pi) - 1e-12)
        assert np.all(inc[mask] <= 2.0 * gap[mask] + 1e-12)


def spde_increment_cov(n, L, K, rate=0.5, tail=True):
    """Increment covariances at lags 0, 1, 2 of u(0, t) for u_t = rate * u_xx + W' on a circle.

    The grid is j/n, j = 0..n; entry i of lag l is the covariance of the
    increments over steps i and i + l.  u starts at 0 on a circle of
    length L.  Its constant mode is a Brownian motion of variance t/L and
    cosine mode k an Ornstein-Uhlenbeck process of rate
    lam_k = rate * (2 pi k / L)^2 (Walsh 1986, LNM 1180), so
    cov(u(0, s), u(0, t)) = min(s, t)/L
        + (2/L) sum_k (exp(-lam_k |t-s|) - exp(-lam_k (t+s))) / (2 lam_k).
    Modes 1..K are summed exactly.  Above K, where lam_k / n is large, a
    mode adds (2/L)/lam_k to an increment's variance (half of it to the
    first increment's) and half of that, negated, to a lag-1 covariance;
    summed, T = (2/L) sum_{k>K} 1/lam_k = L psi'(K+1) / (2 pi^2 rate).
    tail=False drops T.  An independent route to `rho_heat` at rate 1/2:
    the heat slice from its equation, not from its closed form.
    """
    from scipy.special import polygamma

    dt = 1.0 / n
    lam = rate * (2.0 * np.pi * np.arange(1, K + 1) / L) ** 2
    a = -np.expm1(-lam * dt)
    w = (2.0 / L) * a * a / (2.0 * lam)
    # e[j] = sum_k w_k exp(-lam_k j dt), in blocks of j to keep the (j, k) table small.
    e = np.concatenate([np.exp(-np.multiply.outer(j * dt, lam)) @ w
                        for j in np.array_split(np.arange(2 * n), 16)])
    i = np.arange(n)
    lags = [dt / L + (2.0 / L) * np.sum(a / lam) - e[2 * i]]
    lags += [-e[lag - 1] - e[2 * i[:n - lag] + lag] for lag in (1, 2)]
    if tail:
        t = L * polygamma(1, K + 1) / (2.0 * np.pi**2 * rate)
        lags[0] += t
        lags[0][0] -= t / 2.0
        lags[1] -= t / 2.0
    return lags


def _heat_increment_cov(n):
    """`spde_increment_cov`'s lags from `rho_heat`."""
    t = np.arange(n + 1) / n
    return [
        rho_heat(t[1:n + 1 - lag], t[lag + 1:]) - rho_heat(t[:n - lag], t[lag + 1:])
        - rho_heat(t[1:n + 1 - lag], t[lag:n]) + rho_heat(t[:n - lag], t[lag:n])
        for lag in range(3)
    ]


class TestHeatFromItsEquation:
    """ROADMAP item 9, stage 1: `rho_heat` is the covariance of u_t = u_xx/2 + W' at x = 0.

    L = 16 leaves the circle's images at order exp(-L^2/4); K puts
    lam_K dt at 60 or more.  Measured errors, relative to the largest
    increment variance: 5.0e-15, 1.2e-14 and 2.5e-14 at n = 256, 1024
    and 4096 (K = 447, 893, 1786).
    """

    L = 16.0

    def _error(self, n, **mutation):
        K = math.ceil(self.L * math.sqrt(120 * n) / (2 * math.pi))
        heat = _heat_increment_cov(n)
        spde = spde_increment_cov(n, self.L, K, **mutation)
        return max(np.max(np.abs(x - y)) for x, y in zip(spde, heat)) / np.max(heat[0])

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_increment_covariances_match_rho_heat(self, n):
        assert self._error(n) <= 1e-12

    @pytest.mark.parametrize(
        "mutation, off",
        [({"tail": False}, 7.3e-2), ({"rate": 1.0}, 1.0 - 1.0 / math.sqrt(2.0))],
        ids=["tail-dropped", "laplacian-without-half"],
    )
    def test_a_wrong_equation_fails_the_gate(self, mutation, off):
        assert self._error(256, **mutation) == pytest.approx(off, rel=0.01)


def xi_cov_quadrature(s, t, epsabs=1e-10):
    """Remainder-process covariance by direct quadrature of its spectrum.

    Integrates (16*pi)^(-1/2) * (1-exp(-u*s)) * (1-exp(-u*t)) * u^(-3/2)
    over u in (0, inf), mapped to v in (0, 1) via u = v/(1-v): an
    independent check on `rho_xi_lei_nualart`.
    """
    from scipy.integrate import quad

    s = float(s)
    t = float(t)
    if s == 0.0 or t == 0.0:
        return 0.0
    front = 1.0 / math.sqrt(16.0 * math.pi)

    def integrand(v):
        u = v / (1.0 - v)
        # (1 - e^{-us})(1 - e^{-ut}) u^{-3/2} du, du = dv / (1-v)^2
        return (
            front
            * (-math.expm1(-u * s))
            * (-math.expm1(-u * t))
            * u ** -1.5
            / (1.0 - v) ** 2
        )

    value, _err = quad(integrand, 0.0, 1.0, epsabs=epsabs, limit=200)
    return value


class TestXiKernel:
    def test_zero_time_edge(self):
        assert rho_xi_lei_nualart(0.0, 1.0) == 0.0

    def test_unit_time_value(self):
        assert rho_xi_lei_nualart(1.0, 1.0) == pytest.approx(1.0 - math.sqrt(2) / 2, abs=1e-15)

    def test_one_four_value(self):
        assert rho_xi_lei_nualart(1.0, 4.0) == pytest.approx(0.5 * (3.0 - math.sqrt(5)), abs=1e-15)
        assert rho_xi_lei_nualart(1.0, 4.0) == pytest.approx(0.3819660, abs=5e-8)

    def test_closed_form_matches_quadrature(self):
        """The production closed form against direct spectral quadrature."""
        pts = [(0.1, 0.1), (0.25, 1.0), (1.0, 1.0), (1.0, 4.0), (0.5, 2.5), (3.0, 3.0)]
        for s, t in pts:
            assert abs(rho_xi_lei_nualart(s, t) - xi_cov_quadrature(s, t)) <= 1e-8

    def test_quadrature_zero_edge(self):
        assert xi_cov_quadrature(0.0, 1.0) == 0.0


class TestFbmQuarterKernel:
    def test_values(self):
        assert rho_fbm_quarter(1.0, 1.0) == 1.0
        assert rho_fbm_quarter(0.0, 0.7) == 0.0
        assert rho_fbm_quarter(1.0, 4.0) == pytest.approx(0.5 * (3.0 - math.sqrt(3)), abs=1e-15)
        assert rho_fbm_quarter(1.0, 4.0) == pytest.approx(0.6339746, abs=5e-8)

    def test_decomposition_identity(self):
        """c^2*heat + xi = fbm_quarter pointwise, c = (pi/2)^(1/4)."""
        ts = np.linspace(0.0, 2.0, 50)
        s = ts[:, None]
        t = ts[None, :]
        lhs = FBM_HEAT_SCALE**2 * rho_heat(s, t) + rho_xi_lei_nualart(s, t)
        np.testing.assert_allclose(lhs, rho_fbm_quarter(s, t), atol=1e-12, rtol=0)

    def test_composite_kernel_matches_direct(self):
        k = fbm_composite_kernel()
        direct = fbm_quarter_kernel()
        ts = np.linspace(0.0, 1.5, 40)
        np.testing.assert_allclose(
            k.rho(ts[:, None], ts[None, :]),
            direct.rho(ts[:, None], ts[None, :]),
            atol=1e-12,
            rtol=0,
        )


class TestBrownianKernel:
    def test_min_kernel(self):
        assert rho_bm(0.5, 1.0) == 0.5
        assert rho_bm(1.0, 0.5) == 0.5
        assert rho_bm(2.0, 2.0) == 2.0


class TestGrid:
    def test_basic_layout(self):
        grid = Grid(4)
        assert grid.nsteps == 4
        assert grid.dt == 0.25
        np.testing.assert_array_equal(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_fractional_horizon_floors(self):
        grid = Grid(4, horizon=0.6)
        assert grid.nsteps == 2
        np.testing.assert_array_equal(grid.times(), [0.0, 0.25, 0.5])

    def test_index_at_heals_float_times(self):
        grid = Grid(10)
        for j in range(11):
            assert grid.index_at(j / 10) == j
        # strictly interior points floor
        assert grid.index_at(0.349999) == 3
        # beyond the horizon clips to N
        assert grid.index_at(5.0) == 10

    def test_index_at_rejects_negative(self):
        with pytest.raises(DomainError):
            Grid(4).index_at(-0.5)

    @pytest.mark.parametrize("t", [math.nan, math.inf], ids=str)
    def test_index_at_rejects_non_finite_times(self, t):
        with pytest.raises(DomainError, match="finite"):
            Grid(64).index_at(t)

    def test_too_short_grid_rejected(self):
        with pytest.raises(DomainError):
            Grid(1)
        with pytest.raises(DomainError):
            Grid(2, horizon=0.6)
        with pytest.raises(DomainError):
            Grid(0)

    @pytest.mark.parametrize("n", [256.5, 256.0], ids=str)
    def test_non_integer_n_rejected(self, n):
        """A float n, even a whole one, is refused by name before dt = 1/n is used."""
        with pytest.raises(DomainError, match=f"must be an integer, got {n}"):
            Grid(n)


class TestCovKernel:
    def test_kind_validation(self):
        with pytest.raises(DomainError):
            CovKernel("weird")
        with pytest.raises(DomainError):
            CovKernel("heat", c=1.0)
        with pytest.raises(DomainError):
            CovKernel("composite")  # needs c
        with pytest.raises(DomainError):
            CovKernel("heat", mean_coeffs=(0.0, 1.0))

    def test_composite_does_not_nest(self):
        inner = fbm_composite_kernel()
        with pytest.raises(DomainError):
            CovKernel("composite", c=1.0, components=(inner,))

    def test_mean_polynomial(self):
        k = CovKernel("composite", c=0.0, components=(CovKernel("heat"),), mean_coeffs=(1.0, 2.0, 3.0))
        assert k.mean_at(0.0) == 1.0
        assert k.mean_at(2.0) == 1.0 + 4.0 + 12.0
        np.testing.assert_allclose(k.mean_at(np.array([0.0, 1.0])), [1.0, 6.0])

    def test_canonical_ids_distinct(self):
        ids = {
            heat_kernel().canonical_id(),
            fbm_quarter_kernel().canonical_id(),
            fbm_composite_kernel().canonical_id(),
            CovKernel("bm").canonical_id(),
        }
        assert len(ids) == 4

    def test_serialization_round_trip(self):
        for k in (heat_kernel(), fbm_composite_kernel(),
                  CovKernel("composite", c=0.5, components=(CovKernel("heat"),), mean_coeffs=(0.0, 1.0))):
            assert CovKernel.from_dict(k.to_dict()) == k

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(DomainError):
            CovKernel.from_dict({"kind": "heat", "scale": 2.0})
        with pytest.raises(DomainError):
            CovKernel.from_dict({"kind": "composite", "c": 1.0, "components": [], "extra": 1})
        with pytest.raises(DomainError):
            CovKernel.from_dict(["heat"])

    @pytest.mark.parametrize("c, mean_coeffs", [
        (math.nan, ()), (math.inf, ()), (1.0, (0.0, math.nan)), (1.0, (-math.inf,)),
        ("x", ()), (True, ()), ([1.0], ()), (1.0, (False,)),
    ], ids=["c-nan", "c-inf", "mean-nan", "mean-inf", "c-text", "c-bool", "c-list",
            "mean-bool"])
    def test_composite_numbers_must_be_finite(self, c, mean_coeffs):
        with pytest.raises(DomainError, match="must be finite"):
            CovKernel("composite", c=c, components=(CovKernel("heat"),), mean_coeffs=mean_coeffs)

    @pytest.mark.parametrize("extra", [
        {"c": "x"}, {"mean_coeffs": ["a"]}, {"mean_coeffs": 5}, {"c": 10**400},
        {"c": "1.5"}, {"c": True}, {"mean_coeffs": [True, "2"]}, {"mean_coeffs": "12"},
        {"c": math.nan}, {"mean_coeffs": [math.inf]},
    ], ids=["c-text", "mean-text", "mean-scalar", "c-beyond-float", "c-numeric-text", "c-bool",
            "mean-bool-text", "mean-string", "c-nan", "mean-inf"])
    def test_from_dict_non_numbers_are_domain_errors(self, extra):
        rec = {"kind": "composite", "c": 1.0, "components": [{"kind": "heat"}]} | extra
        with pytest.raises(DomainError, match="must be numbers"):
            CovKernel.from_dict(rec)

    @pytest.mark.parametrize("components", [5, "heat", {"kind": "heat"}])
    def test_from_dict_components_must_be_a_list(self, components):
        with pytest.raises(DomainError, match="components must be a list"):
            CovKernel.from_dict({"kind": "composite", "c": 1.0, "components": components})

    def test_from_dict_int_scale_keeps_the_float_id(self):
        rec = {"kind": "composite", "c": 1, "components": [{"kind": "heat"}], "mean_coeffs": [0]}
        kernel = CovKernel.from_dict(rec)
        assert kernel.c == 1.0 and kernel.mean_coeffs == (0.0,)
        assert kernel.canonical_id() == "composite(c=1.0;heat)|mean=[0.0]"


@pytest.mark.parametrize("value, ok", [
    (0, True), (-2.5, True), (np.float64(1e300), True), (np.int64(7), True),
    (sys.float_info.max, True), (10**308, True), (10**400, False), (math.nan, False),
    (-math.inf, False), (True, False), (np.bool_(False), False), ("1", False), (None, False),
    (1j, False),
])
def test_finite_number_is_the_one_number_rule(value, ok):
    assert finite_number(value) is ok


_DENSE_KERNELS = (heat_kernel(), CovKernel("xi"), fbm_quarter_kernel(), CovKernel("bm"), fbm_composite_kernel())
DENSE_KERNELS = pytest.mark.parametrize("kernel", _DENSE_KERNELS, ids=lambda k: k.kind)


def _rho_on_grid(kernel, grid):
    ts = grid.times()[1:]
    return kernel.rho(ts[:, None], ts[None, :])


class TestBuildCovMatrix:
    def test_brownian_two_step(self):
        mat = build_cov_matrix(CovKernel("bm"), Grid(2))
        np.testing.assert_array_equal(mat, [[0.5, 0.5], [0.5, 1.0]])

    def test_exact_symmetry(self):
        for kernel in _DENSE_KERNELS:
            for grid in (Grid(32), Grid(100, 2.5)):
                mat = build_cov_matrix(kernel, grid)
                assert np.array_equal(mat, mat.T)

    @DENSE_KERNELS
    @pytest.mark.parametrize("n", [256, 1024])
    def test_bitwise_equal_to_rho_on_dyadic_grids(self, kernel, n):
        grid = Grid(n)
        assert np.array_equal(build_cov_matrix(kernel, grid), _rho_on_grid(kernel, grid))

    @DENSE_KERNELS
    @pytest.mark.parametrize("grid", [Grid(1000), Grid(100, 2.5)], ids=["n1000", "n100_h2.5"])
    def test_within_8_ulp_of_rho(self, kernel, grid):
        exact = _rho_on_grid(kernel, grid)
        err = np.max(np.abs(build_cov_matrix(kernel, grid) - exact))
        assert err <= 8 * np.spacing(np.max(np.abs(exact)))

    def test_oversized_matrix_refused_before_allocating(self):
        size = 2**20
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=rf"'heat' at N={size} needs {8 * size * size} bytes.*circulant"):
                build_cov_matrix(heat_kernel(), Grid(size))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_heat_diagonal(self):
        grid = Grid(8)
        mat = build_cov_matrix(heat_kernel(), grid)
        ts = grid.times()[1:]
        np.testing.assert_allclose(np.diag(mat), np.sqrt(ts / math.pi), atol=1e-15)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_positive_semidefinite(self, n):
        for kernel in (heat_kernel(), fbm_quarter_kernel(), fbm_composite_kernel()):
            mat = build_cov_matrix(kernel, Grid(n))
            eigs = np.linalg.eigvalsh(mat)
            assert eigs[0] >= -1e-8 * eigs[-1]
