"""Discrete functionals against naive loop references and hand values.

The reference implementations below are deliberately plain Python loops
written straight from the defining index sets, so the vectorized module
code is checked against an independent reading of the same definitions.
"""

import math

import numpy as np
import pytest

from quartic_lab.analytic import kappa_reference
from quartic_lab.errors import DomainError
from quartic_lab.functions import builtin
from quartic_lab.kernels import Grid, fbm_quarter_kernel, heat_kernel
from quartic_lab.simulate import cached_factor, sample_paths
from quartic_lab.sums import (
    alt_qv_weighted_ensemble,
    bn_process_ensemble,
    bn_smoothed_ensemble,
    floor_fourth_root,
    midpoint_sum_ensemble,
    offset_midpoint_sum_ensemble,
    power_sum_ensemble,
    qn_process_ensemble,
    trapezoid_sum_ensemble,
)

CONST = builtin("const")
LINEAR = builtin("linear")
SQUARE = builtin("square")
AFFINE = builtin("poly_k", coeffs=[1.0, 1.0])  # 1 + x


# --- naive references, one loop per definition ---------------------------

def naive_midpoint(path, n, t, g, deriv):
    total = 0.0
    for j in range(1, int(math.floor(n * t + 1e-9)) // 2 + 1):
        ti = (2 * j - 1) / n
        total += float(g.dx(deriv, path[2 * j - 1], ti)) * (path[2 * j] - path[2 * j - 2])
    return total


def naive_offset(path, n, t, g, deriv):
    total = 0.0
    top = len(path) - 1
    for j in range(1, int(math.floor(n * t + 1e-9)) // 2 + 1):
        if 2 * j + 1 > top:
            break
        ti = (2 * j) / n
        total += float(g.dx(deriv, path[2 * j], ti)) * (path[2 * j + 1] - path[2 * j - 1])
    return total


def naive_trapezoid(path, n, t, g, deriv):
    total = 0.0
    for j in range(1, int(math.floor(n * t + 1e-9)) + 1):
        left = float(g.dx(deriv, path[j - 1], (j - 1) / n))
        right = float(g.dx(deriv, path[j], j / n))
        total += 0.5 * (left + right) * (path[j] - path[j - 1])
    return total


def naive_alt_qv(path, n, t, g, deriv):
    total = 0.0
    count = 2 * (int(math.floor(n * t + 1e-9)) // 2)
    for j in range(1, count + 1):
        sign = 1.0 if j % 2 == 0 else -1.0
        total += (
            float(g.dx(deriv, path[j - 1], (j - 1) / n))
            * (path[j] - path[j - 1]) ** 2
            * sign
        )
    return total


def naive_power(path, n, t, g, p, parity, eval_point, deriv):
    total = 0.0
    for j in range(1, int(math.floor(n * t + 1e-9)) + 1):
        if parity == "odd" and j % 2 == 0:
            continue
        if parity == "even" and j % 2 == 1:
            continue
        idx = j - 1 if eval_point == "left" else j
        total += float(g.dx(deriv, path[idx], idx / n)) * (path[j] - path[j - 1]) ** p
    return total


def _random_path(nsteps, seed):
    return np.random.default_rng(seed).normal(size=nsteps + 1).cumsum() * 0.5


def _one(fn, path, grid, *args, **kwargs):
    """A functional of one path: row 0 of its one-row ensemble."""
    return fn(path[None, :], grid, *args, **kwargs)[0]


def _probes(grid):
    ts = list(grid.times())
    interior = [0.3 * grid.horizon, 0.77 * grid.horizon]
    return ts + interior


class TestAgainstNaiveLoops:
    @pytest.mark.parametrize("n,horizon", [(2, 1.0), (3, 1.0), (4, 1.0), (5, 1.0), (16, 1.0), (4, 1.3), (5, 0.8)])
    def test_all_functionals(self, n, horizon):
        grid = Grid(n, horizon)
        path = _random_path(grid.nsteps, seed=100 * n + int(10 * horizon))
        for t in _probes(grid):
            k = grid.index_at(t)
            tg = grid.times()[k]  # naive loops take exact grid times
            assert _one(midpoint_sum_ensemble, path, grid, AFFINE)[k] == pytest.approx(
                naive_midpoint(path, n, tg, AFFINE, 0), abs=1e-12
            )
            assert _one(offset_midpoint_sum_ensemble, path, grid, AFFINE)[k] == pytest.approx(
                naive_offset(path, n, tg, AFFINE, 0), abs=1e-12
            )
            assert _one(
                trapezoid_sum_ensemble, path, grid, SQUARE, deriv_order=1
            )[k] == pytest.approx(naive_trapezoid(path, n, tg, SQUARE, 1), abs=1e-12)
            assert _one(alt_qv_weighted_ensemble, path, grid, AFFINE)[k] == pytest.approx(
                naive_alt_qv(path, n, tg, AFFINE, 0), abs=1e-12
            )
            for parity in ("odd", "even", "all"):
                for point in ("left", "right"):
                    assert _one(
                        power_sum_ensemble, path, grid, LINEAR, 3, parity, point
                    )[k] == pytest.approx(
                        naive_power(path, n, tg, LINEAR, 3, parity, point, 0), abs=1e-12
                    )

    def test_qn_and_bn_match_alt_qv_with_unit_weight(self):
        grid = Grid(6)
        path = _random_path(6, seed=42)
        jn = _one(alt_qv_weighted_ensemble, path, grid, CONST)
        qn = _one(qn_process_ensemble, path, grid)
        bn = _one(bn_process_ensemble, path, grid)
        np.testing.assert_array_equal(qn, jn)
        np.testing.assert_allclose(bn, jn / kappa_reference(), atol=0)


@pytest.mark.parametrize("kernel", [heat_kernel(), fbm_quarter_kernel()], ids=lambda k: k.kind)
@pytest.mark.parametrize("n", [16, 33, 256, 1000])
def test_qn_is_bitwise_the_unit_weighted_alternating_sum(kernel, n):
    grid = Grid(n)
    values = sample_paths(cached_factor(kernel, grid), 8, seed=3)
    qn = qn_process_ensemble(values, grid)
    jn = alt_qv_weighted_ensemble(values, grid, CONST)
    assert np.array_equal(qn.view(np.uint64), jn.view(np.uint64))


class TestHandValues:
    """The worked five-point path: X = (0, 1, -1, 2, 0), n = 4, t = 1."""

    PATH = np.array([0.0, 1.0, -1.0, 2.0, 0.0])
    GRID = Grid(4)

    def test_midpoint(self):
        series = _one(midpoint_sum_ensemble, self.PATH, self.GRID, LINEAR)
        assert series[self.GRID.index_at(1.0)] == 1.0

    def test_offset(self):
        series = _one(offset_midpoint_sum_ensemble, self.PATH, self.GRID, LINEAR)
        assert series[self.GRID.index_at(1.0)] == -1.0

    def test_trapezoid(self):
        series = _one(trapezoid_sum_ensemble, self.PATH, self.GRID, LINEAR)
        assert series[self.GRID.index_at(1.0)] == 0.0

    def test_two_step_weighted_alternating(self):
        a, b = 0.7, -0.3
        grid = Grid(2)
        series = _one(alt_qv_weighted_ensemble, np.array([0.0, a, b]), grid, AFFINE)
        want = -(1.0 + 0.0) * a**2 + (1.0 + a) * (b - a) ** 2
        assert series[grid.index_at(1.0)] == pytest.approx(want, abs=1e-15)

    def test_two_step_bn(self):
        a, b = 1.5, 0.5
        grid = Grid(2)
        series = _one(bn_process_ensemble, np.array([0.0, a, b]), grid)
        want = (-(a**2) + (b - a) ** 2) / kappa_reference()
        assert series[grid.index_at(1.0)] == pytest.approx(want, abs=1e-15)


class TestEmptyPrefixes:
    def test_values_start_at_zero(self):
        grid = Grid(8)
        path = _random_path(8, seed=1)
        for series in (
            _one(midpoint_sum_ensemble, path, grid, SQUARE),
            _one(offset_midpoint_sum_ensemble, path, grid, SQUARE),
            _one(trapezoid_sum_ensemble, path, grid, SQUARE),
            _one(alt_qv_weighted_ensemble, path, grid, SQUARE),
            _one(qn_process_ensemble, path, grid),
            _one(bn_process_ensemble, path, grid),
            _one(power_sum_ensemble, path, grid, SQUARE, 4),
        ):
            assert series[0] == 0.0
            assert series[grid.index_at(0.0)] == 0.0

    def test_pairwise_functionals_vanish_before_first_pair(self):
        grid = Grid(8)
        path = _random_path(8, seed=2)
        k = grid.index_at(1.9 / 8)  # before t_2
        assert _one(midpoint_sum_ensemble, path, grid, SQUARE)[k] == 0.0
        assert _one(offset_midpoint_sum_ensemble, path, grid, SQUARE)[k] == 0.0
        assert _one(qn_process_ensemble, path, grid)[k] == 0.0


class TestTelescoping:
    def test_midpoint_unit_integrand(self):
        grid = Grid(5)
        path = _random_path(5, seed=3)
        series = _one(midpoint_sum_ensemble, path, grid, CONST)
        for t in _probes(grid):
            k = 2 * (grid.index_at(t) // 2)
            assert series[grid.index_at(t)] == pytest.approx(path[k] - path[0], abs=1e-12)

    def test_offset_unit_integrand(self):
        grid = Grid(9)
        path = _random_path(9, seed=4)
        series = _one(offset_midpoint_sum_ensemble, path, grid, CONST)
        for i in range(10):
            pairs = min(i // 2, (9 - 1) // 2)
            want = path[2 * pairs + 1] - path[1] if pairs >= 1 else 0.0
            assert series[i] == pytest.approx(want, abs=1e-12)

    def test_trapezoid_unit_integrand(self):
        grid = Grid(7)
        path = _random_path(7, seed=5)
        series = _one(trapezoid_sum_ensemble, path, grid, CONST)
        for i in range(8):
            assert series[i] == pytest.approx(path[i] - path[0], abs=1e-12)

    def test_trapezoid_exact_for_quadratic(self):
        """With integrand x the trapezoid sum telescopes to (X_k^2-X_0^2)/2."""
        grid = Grid(16)
        path = _random_path(16, seed=6)
        series = _one(trapezoid_sum_ensemble, path, grid, LINEAR)
        np.testing.assert_allclose(series, (path**2 - path[0] ** 2) / 2, atol=1e-12)

    def test_midpoint_plus_alternating_telescopes(self):
        """2 I_n(x, t) + Q_n(t) = X(t_2k)^2 - X(0)^2 for every t, per pair."""
        for n, seed in ((4, 7), (9, 8), (16, 9)):
            grid = Grid(n)
            path = _random_path(n, seed=seed)
            mid = _one(midpoint_sum_ensemble, path, grid, LINEAR)
            qn = _one(qn_process_ensemble, path, grid)
            for i in range(n + 1):
                k = 2 * (i // 2)
                assert 2 * mid[i] + qn[i] == pytest.approx(
                    path[k] ** 2 - path[0] ** 2, abs=1e-10
                )


class TestAlgebraicStructure:
    def test_linearity_in_the_integrand(self):
        grid = Grid(12)
        path = _random_path(12, seed=10)
        g1 = builtin("poly_k", coeffs=[0.0, 2.0, 1.0])
        g2 = builtin("poly_k", coeffs=[1.0, -1.0, 0.0, 0.5])
        combined = builtin("poly_k", coeffs=[1.0, 1.0, 1.0, 0.5])
        for fn in (
            midpoint_sum_ensemble,
            offset_midpoint_sum_ensemble,
            trapezoid_sum_ensemble,
            alt_qv_weighted_ensemble,
        ):
            lhs = _one(fn, path, grid, combined)
            rhs = _one(fn, path, grid, g1) + _one(fn, path, grid, g2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_parity_decomposition_is_exact(self):
        grid = Grid(11)
        path = _random_path(11, seed=11)
        for p in (3, 4):
            for point in ("left", "right"):
                full = _one(power_sum_ensemble, path, grid, SQUARE, p, "all", point)
                odd = _one(power_sum_ensemble, path, grid, SQUARE, p, "odd", point)
                even = _one(power_sum_ensemble, path, grid, SQUARE, p, "even", point)
                assert np.array_equal(full, odd + even)

    def test_power_validation(self):
        grid = Grid(4)
        path = _random_path(4, seed=12)
        with pytest.raises(DomainError):
            _one(power_sum_ensemble, path, grid, CONST, 2)
        with pytest.raises(DomainError):
            _one(power_sum_ensemble, path, grid, CONST, 4, parity="both")
        with pytest.raises(DomainError):
            _one(power_sum_ensemble, path, grid, CONST, 4, eval_point="mid")

    def test_path_shape_validation(self):
        grid = Grid(4)
        with pytest.raises(DomainError):
            midpoint_sum_ensemble(np.zeros((1, 4)), grid, CONST)  # needs 5 columns
        with pytest.raises(DomainError):
            trapezoid_sum_ensemble(np.zeros(5), grid, CONST)  # needs a 2-D ensemble


class TestSmoothedAlternating:
    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            bn_smoothed_ensemble(np.zeros((1, 16)), Grid(15))

    def test_n16_full_horizon_matches_bn(self):
        grid = Grid(16)
        path = _random_path(16, seed=13)
        k = grid.index_at(1.0)
        assert _one(bn_smoothed_ensemble, path, grid)[k] == _one(bn_process_ensemble, path, grid)[k]

    def test_flat_before_first_jump(self):
        grid = Grid(81)  # m = 3, first jump at 2/3
        path = _random_path(81, seed=14)
        series = _one(bn_smoothed_ensemble, path, grid)
        assert series[grid.index_at(0.6)] == 0.0
        assert series[grid.index_at(0.67)] != 0.0

    def test_jump_times_are_multiples_of_two_over_m(self):
        grid = Grid(81)
        path = _random_path(81, seed=15)
        values = _one(bn_smoothed_ensemble, path, grid)
        jumps = np.nonzero(np.diff(values) != 0.0)[0] + 1
        m = 3
        for i in jumps:
            # the step lands when floor(m t_i / 2) increments
            assert (m * i) % (2 * grid.n) < m

    def test_fourth_root(self):
        assert floor_fourth_root(15) == 1
        assert floor_fourth_root(16) == 2
        assert floor_fourth_root(81) == 3
        assert floor_fourth_root(4095) == 7
        assert floor_fourth_root(4096) == 8
        for k in range(1, 30):
            assert floor_fourth_root(k**4) == k
            assert floor_fourth_root(k**4 + 1) == k
            assert floor_fourth_root(k**4 - 1) == k - 1


class TestEnsembleLimits:
    """Monte Carlo checks of the limit behavior, heat kernel paths."""

    def _values(self, n, m, seed):
        grid = Grid(n)
        factor = cached_factor(heat_kernel(), grid)
        return grid, sample_paths(factor, m, seed)

    def test_bn_variance_near_one(self):
        grid, values = self._values(4096, 500, seed=7)
        bn_final = bn_process_ensemble(values, grid)[:, -1]
        assert abs(bn_final.var(ddof=1) - 1.0) <= 0.15

    def test_trapezoid_is_midpoint_offset_average(self):
        """T_n - (I_n + offset I_n)/2 shrinks in mean square as n grows."""
        mses = []
        for n in (256, 1024, 4096):
            grid, values = self._values(n, 400, seed=17)
            trap = trapezoid_sum_ensemble(values, grid, SQUARE, deriv_order=1)[:, -1]
            mid = midpoint_sum_ensemble(values, grid, SQUARE, deriv_order=1)[:, -1]
            off = offset_midpoint_sum_ensemble(values, grid, SQUARE, deriv_order=1)[:, -1]
            mses.append(float(np.mean((trap - 0.5 * (mid + off)) ** 2)))
        assert mses[0] > mses[1] > mses[2]

    def test_smoothed_tracks_raw_uniformly(self):
        """sup_t |B_n - smoothed B_n| decreases across n in the mean.

        Restricted to n that are perfect fourth powers.  At other n the
        smoothed sum covers only floor(n**0.25)**4 of the n increments,
        leaving a gap at t = 1 that does not shrink monotonically (at
        n = 1024 it spans roughly half the horizon), so only the ladder
        with full coverage exhibits the decreasing trend at these sizes.
        """
        sups = []
        for n in (256, 1296, 4096):
            grid, values = self._values(n, 400, seed=18)
            raw = bn_process_ensemble(values, grid)
            smooth = bn_smoothed_ensemble(values, grid)
            sups.append(float(np.mean(np.max(np.abs(raw - smooth), axis=1))))
        assert sups[0] > sups[1] > sups[2]
