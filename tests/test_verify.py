"""The corrected chain-rule right-hand side and the four experiments.

Hand values use two-step paths where every term can be written out; the
closed-form reference moments are recomputed here by explicit Wick
pairings as an independent route.  Experiment runs are kept at small n
and loose tolerances; the strict full-scale runs live in the acceptance
module.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from quartic_lab import rng, simulate, sums, verify
from quartic_lab.analytic import audit_cov_table, kappa_reference
from quartic_lab.errors import ConfigError, DomainError
from quartic_lab.functions import TestFunction, builtin
from quartic_lab.kernels import (
    CovKernel,
    Grid,
    fbm_composite_kernel,
    fbm_quarter_kernel,
    heat_kernel,
)
from quartic_lab.simulate import cached_factor, sample_brownian, sample_paths
from quartic_lab.stats import correlation, ks_two_sample, loglog_rate
from quartic_lab.verify import (
    CheckResult,
    ExperimentReport,
    draw_ensemble,
    formula_reference_moments,
    head_reference_moments,
    ito_term_variance,
    rhs_formula_ensemble,
    trapezoid_target_ensemble,
    verify_bn_limit,
    verify_expansion_residual,
    verify_fbm_window,
    verify_ito_formula,
    verify_trapezoid_ucp,
)

SQUARE = builtin("square")
LINEAR = builtin("linear")
CUBE = builtin("cube")


def _time_only():
    def dx(j, x, t):
        x = np.asarray(x, dtype=float)
        return t * np.ones_like(x) if j == 0 else np.zeros_like(x)

    def dtdx(j, x, t):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x) if j == 0 else np.zeros_like(x)

    return TestFunction("time_only", (9, 4), dx, dtdx)


def _x_times_t():
    def dx(j, x, t):
        x = np.asarray(x, dtype=float)
        if j == 0:
            return x * t
        if j == 1:
            return t * np.ones_like(x)
        return np.zeros_like(x)

    def dtdx(j, x, t):
        x = np.asarray(x, dtype=float)
        if j == 0:
            return x * np.ones_like(t * x)
        if j == 1:
            return np.ones_like(x)
        return np.zeros_like(x)

    return TestFunction("x_times_t", (9, 4), dx, dtdx)


class TestRhsFormula:
    def test_hand_path_square(self):
        """n = 2, X = (0,1,2): the left-point sum telescopes to kappa*b2."""
        grid = Grid(2)
        x = np.array([0.0, 1.0, 2.0])
        b = np.array([0.0, 0.3, -0.7])
        kap = kappa_reference()
        got = rhs_formula_ensemble(x[None, :], b[None, :], grid, SQUARE, 1.0)[0]
        assert got == pytest.approx(4.0 - kap * (-0.7), rel=1e-14)

    def test_hand_path_square_window(self):
        grid = Grid(2)
        x = np.array([0.0, 1.0, 2.0])
        b = np.array([0.0, 0.3, -0.7])
        kap = kappa_reference()
        rhs = rhs_formula_ensemble(x[None, :], b[None, :], grid, SQUARE, 1.0, t_start=0.5)
        assert rhs[0] == pytest.approx(3.0 - kap * (-0.7 - 0.3), rel=1e-14)

    def test_scale_factor_enters_squared(self):
        grid = Grid(2)
        x = np.array([0.0, 1.0, 2.0])
        b = np.array([0.0, 0.3, -0.7])
        kap = kappa_reference()
        got = rhs_formula_ensemble(x[None, :], b[None, :], grid, SQUARE, 1.0, c=0.5)[0]
        assert got == pytest.approx(4.0 - 0.25 * kap * (-0.7), rel=1e-14)

    def test_linear_g_is_the_path_increment(self):
        """Both integral terms vanish; the RHS is exactly X(t_k) - X(0)."""
        grid = Grid(64)
        x_ens, b_ens = draw_ensemble(heat_kernel(), grid, 50, 3), sample_brownian(grid, 50, 3)
        rhs = rhs_formula_ensemble(x_ens.values, b_ens.values, x_ens.grid, LINEAR, 1.0)
        assert np.array_equal(rhs, x_ens.values[:, 64] - x_ens.values[:, 0])
        mid = sums.midpoint_sum_ensemble(x_ens.values, grid, LINEAR, 1)[:, 64]
        np.testing.assert_allclose(mid, rhs, atol=1e-13)
        assert ks_two_sample(mid, rhs) <= 2.0 / 50.0

    def test_time_only_g_cancels_exactly(self):
        grid = Grid(32)
        x_ens, b_ens = draw_ensemble(heat_kernel(), grid, 8, 5), sample_brownian(grid, 8, 5)
        rhs = rhs_formula_ensemble(x_ens.values, b_ens.values, x_ens.grid, _time_only(), 1.0)
        assert np.all(rhs == 0.0)

    def test_scalar_second_derivative_broadcasts(self):
        """A g whose dx(2) is a Python float gives the full-shape correction."""

        def dx(j, x, t):
            return (0.5 * x**2, x, 1.0)[j] if j < 3 else 0.0

        half_square = TestFunction("half_square", (9, 4), dx, lambda j, x, t: 0.0)
        grid = Grid(32)
        x_ens, b_ens = draw_ensemble(heat_kernel(), grid, 8, 5), sample_brownian(grid, 8, 5)
        rhs = rhs_formula_ensemble(x_ens.values, b_ens.values, grid, half_square, 1.0, c=0.5)
        x, b = x_ens.values, b_ens.values
        ito = np.sum(np.ones((8, 32)) * np.diff(b, axis=1), axis=1)
        head = 0.5 * x[:, 32] ** 2 - 0.5 * x[:, 0] ** 2
        assert np.array_equal(rhs, head - 0.5 * kappa_reference() * 0.25 * ito)

    def test_zero_scale_drops_the_correction(self):
        grid = Grid(32)
        x_ens, b_ens = draw_ensemble(heat_kernel(), grid, 8, 5), sample_brownian(grid, 8, 5)
        rhs = rhs_formula_ensemble(x_ens.values, b_ens.values, x_ens.grid, SQUARE, 1.0, c=0.0)
        target = trapezoid_target_ensemble(x_ens.values, grid, SQUARE, 1.0)
        assert np.array_equal(rhs, target)

    def test_metadata_snaps_to_grid(self):
        grid = Grid(8)
        x = np.zeros(9)
        b = np.zeros(9)
        out = rhs_formula_ensemble(x[None, :], b[None, :], grid, SQUARE, 0.7, t_start=0.2)
        assert out[0] == 0.0
        x_ens, b_ens = draw_ensemble(heat_kernel(), grid, 2, 1), sample_brownian(grid, 2, 1)
        paths = (x_ens.values, b_ens.values, grid, SQUARE)
        on_grid = rhs_formula_ensemble(*paths, 0.625, t_start=0.125)
        assert np.array_equal(rhs_formula_ensemble(*paths, 0.7, t_start=0.2), on_grid)

    def test_mismatched_shapes_rejected(self):
        grid = Grid(4)
        with pytest.raises(DomainError):
            rhs_formula_ensemble(np.zeros((1, 5)), np.zeros((1, 4)), grid, SQUARE, 1.0)

    def test_mismatched_grids_rejected(self):
        x_ens = draw_ensemble(heat_kernel(), Grid(8), 2, 1)
        b_ens = sample_brownian(Grid(16), 2, 1)
        with pytest.raises(DomainError):
            rhs_formula_ensemble(x_ens.values, b_ens.values, x_ens.grid, SQUARE, 1.0)

    def test_window_end_before_start_rejected(self):
        grid = Grid(8)
        with pytest.raises(DomainError):
            rhs_formula_ensemble(
                np.zeros((1, 9)), np.zeros((1, 9)), grid, SQUARE, 0.25, t_start=0.75
            )


class TestTrapezoidTarget:
    def test_hand_quadrature_x_times_t(self):
        """g = x*t on X = (0,1,2): 2 - trapezoid(0,1,2; dt=1/2) = 1."""
        grid = Grid(2)
        got = trapezoid_target_ensemble(np.array([[0.0, 1.0, 2.0]]), grid, _x_times_t(), 1.0)[0]
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_square_is_the_squared_increment(self):
        grid = Grid(16)
        x_ens = draw_ensemble(heat_kernel(), grid, 6, 2)
        target = trapezoid_target_ensemble(x_ens.values, grid, SQUARE, 1.0)
        assert np.array_equal(target, x_ens.values[:, 16] ** 2 - x_ens.values[:, 0] ** 2)

    def test_constant_g_gives_zero(self):
        grid = Grid(8)
        x = np.linspace(0.0, 2.0, 9)
        assert trapezoid_target_ensemble(x[None, :], grid, builtin("const"), 1.0)[0] == 0.0


class TestReferenceMoments:
    def test_heat_square_closed_form(self):
        kap = kappa_reference()
        grid = Grid(4096)
        mean, var = formula_reference_moments(heat_kernel(), SQUARE, grid, 1.0)
        assert mean == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
        assert var == pytest.approx(2.0 / math.pi + kap**2, rel=1e-12)

    def test_head_moments_heat_square(self):
        head = head_reference_moments(heat_kernel(), SQUARE, 1.0, 0.0)
        assert head[0] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
        assert head[1] == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_ito_variance_square_closed_form(self):
        # Constant second derivative: conditional isometry integrates to
        # kappa^2 * c^4 * t regardless of the kernel's variance profile.
        grid = Grid(64)
        kap = kappa_reference()
        got = ito_term_variance(heat_kernel(), SQUARE, grid, 1.0)
        assert got == pytest.approx(kap**2, rel=1e-12)
        got = ito_term_variance(heat_kernel(), SQUARE, grid, 1.0, c=0.5)
        assert got == pytest.approx(kap**2 * 0.5**4, rel=1e-12)

    def test_ito_variance_quartic_hand_sum(self):
        grid = Grid(256)
        kernel = heat_kernel()
        quartic = builtin("poly_k", coeffs=(0.0, 0.0, 0.0, 0.0, 1.0))
        kap = kappa_reference()
        tj = grid.times()[: grid.index_at(1.0)]
        v = np.asarray(kernel.rho(tj, tj))
        # dxx(x^4) = 12x^2, squared 144x^4, E[144 X^4] = 432 v^2 per node.
        hand = (0.5 * kap) ** 2 * grid.dt * float(np.sum(432.0 * v**2))
        assert ito_term_variance(kernel, quartic, grid, 1.0) == pytest.approx(hand, rel=1e-12)

    def test_ito_variance_degenerate_cases(self):
        grid = Grid(64)
        assert ito_term_variance(heat_kernel(), SQUARE, grid, 1.0, c=0.0) == 0.0
        assert ito_term_variance(heat_kernel(), SQUARE, grid, 0.5, t_start=0.5) == 0.0

    def test_non_polynomial_g_has_no_closed_form(self):
        grid = Grid(64)
        assert head_reference_moments(heat_kernel(), builtin("sine"), 1.0, 0.0) is None
        assert formula_reference_moments(heat_kernel(), builtin("sine"), grid, 1.0) is None
        assert ito_term_variance(heat_kernel(), builtin("sine"), grid, 1.0) is None

    def test_drifted_kernel_has_no_closed_form(self):
        drift = CovKernel(
            kind="composite", c=1.0, components=(heat_kernel(),), mean_coeffs=(0.0, 1.0)
        )
        grid = Grid(64)
        assert head_reference_moments(drift, SQUARE, 1.0, 0.0) is None
        assert formula_reference_moments(drift, SQUARE, grid, 1.0) is None

    def test_fbm_window_by_hand_wick(self):
        """Composite-kernel window moments recomputed by explicit pairings."""
        kernel = fbm_composite_kernel()
        grid = Grid(4096)
        kap = kappa_reference()
        mean, var = formula_reference_moments(kernel, SQUARE, grid, 1.0, t_start=0.1, c=kernel.c)
        times = grid.times()
        t0 = times[grid.index_at(0.1)]
        t1 = times[grid.index_at(1.0)]
        v1, v0, c01 = kernel.rho(t1, t1), kernel.rho(t0, t0), kernel.rho(t0, t1)
        assert mean == pytest.approx(v1 - v0, rel=1e-12)
        head_var = 2.0 * v1**2 + 2.0 * v0**2 - 4.0 * c01**2
        ito = (0.5 * kap * kernel.c**2) ** 2 * grid.dt * 4.0 * (grid.index_at(1.0) - grid.index_at(0.1))
        assert var == pytest.approx(head_var + ito, rel=1e-12)
        # Pinned values consumed by the windowed experiment at n = 4096.
        assert mean == pytest.approx(0.6840039309975517, abs=1e-14)
        assert var == pytest.approx(3.5629951081630793, abs=1e-13)


class TestItoExperiment:
    def test_small_run_passes_loose_tolerances(self):
        rep = verify_ito_formula(n=256, m=300, seeds=1, ks_tol=0.15, mean_tol=0.15, var_tol=0.3)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert "seed0/t=1/ks" in names
        assert "seed0/t=1/mean_diff" in names
        assert "seed0/t=1/var_ratio" in names
        assert names[-1] == "seeds_passed"
        per_seed = [c for c in rep.checks if c.name != "seeds_passed"]
        assert all(not c.gates for c in per_seed)
        assert rep.stats["passed_seeds"] == 1
        assert rep.stats["seeds"]["seed0"]["t=1"]["var_ref"] is not None

    def test_replicate_rows_and_columns(self):
        rep = verify_ito_formula(n=64, m=20, seeds=2, probes=(0.5, 1.0))
        assert rep.replicate_columns == ("seed", "replicate", "t", "midpoint_sum", "formula_rhs")
        assert len(rep.replicate_rows) == 2 * 2 * 20
        seeds_seen = {row[0] for row in rep.replicate_rows}
        assert seeds_seen == {7, 8}

    def test_rerun_is_byte_identical(self):
        a = verify_ito_formula(n=256, m=300, seeds=1)
        b = verify_ito_formula(n=256, m=300, seeds=1)
        assert a.summary_json() == b.summary_json()
        assert a.replicates_csv() == b.replicates_csv()

    def test_rhs_rows_pair_each_path_with_its_brownian_motion(self):
        """Chunked evaluation over three row blocks matches one full-ensemble RHS."""
        grid = Grid(32)
        rep = verify_ito_formula(n=32, m=600, seeds=1, seed=5)
        x_ens, b_ens = draw_ensemble(heat_kernel(), grid, 600, 5), sample_brownian(grid, 600, 5)
        full = rhs_formula_ensemble(x_ens.values, b_ens.values, x_ens.grid, SQUARE, 1.0)
        np.testing.assert_allclose([row[4] for row in rep.replicate_rows], full, rtol=0, atol=1e-12)

    def test_linear_g_identity_statistics(self):
        """Sample A equals sample B up to rounding, so KS sits at the floor."""
        rep = verify_ito_formula(g=LINEAR, n=64, m=50, seeds=1)
        ks_checks = [c for c in rep.checks if c.name.endswith("/ks")]
        mean_checks = [c for c in rep.checks if c.name.endswith("/mean_diff")]
        assert all(c.value <= 2.0 / 50.0 for c in ks_checks)
        assert all(c.value <= 1e-14 for c in mean_checks)

    def test_zero_scale_recovers_classical_chain_rule(self):
        """c = 0 with a smooth deterministic path: MSE drops like a quadrature error."""
        drift = CovKernel(
            kind="composite", c=0.0, components=(heat_kernel(),), mean_coeffs=(0.0, 0.25, 0.5)
        )
        mses = []
        for n in (64, 256, 1024):
            grid = Grid(n)
            x_ens, b_ens = draw_ensemble(drift, grid, 4, 3), sample_brownian(grid, 4, 3)
            mid = sums.midpoint_sum_ensemble(x_ens.values, grid, SQUARE, 1)[:, grid.index_at(1.0)]
            rhs = rhs_formula_ensemble(
                x_ens.values, b_ens.values, x_ens.grid, SQUARE, 1.0, c=0.0
            )
            mses.append(float(np.mean((mid - rhs) ** 2)))
        assert mses[0] > mses[1] > mses[2]
        assert mses[-1] < 1e-11

    def test_configuration_validation(self):
        with pytest.raises(ConfigError):
            verify_ito_formula(probes=())
        with pytest.raises(ConfigError):
            verify_ito_formula(probes=(0.5,), window_start=0.5)
        with pytest.raises(ConfigError):
            verify_ito_formula(probes=(2.0,), horizon=1.0)
        with pytest.raises(ConfigError):
            verify_ito_formula(seeds=0)

    def test_smoothness_tag_enforced(self):
        rough = TestFunction("rough", (5, 2), lambda j, x, t: np.zeros_like(x), lambda j, x, t: np.zeros_like(x))
        with pytest.raises(DomainError):
            verify_ito_formula(g=rough, n=16, m=2)


class TestBnExperiment:
    def test_small_run_structure_and_pass(self):
        rep = verify_bn_limit(n=512, m=400, probes=(0.5, 1.0), ks_tol=0.1, corr_tol=0.15)
        assert rep.passed
        names = {c.name for c in rep.checks}
        assert names == {
            "ks_normal@t=0.5",
            "path_corr@t=0.5",
            "ks_normal@t=1",
            "path_corr@t=1",
            "increment_corr",
        }
        assert rep.replicate_columns == ("replicate", "t", "bn", "path")
        assert len(rep.replicate_rows) == 2 * 400
        assert rep.stats["moment4_growth_constant"] > 0.0
        assert rep.stats["probes"]["t=1"]["bn_variance"] > 0.0

    def test_rerun_is_byte_identical(self):
        a = verify_bn_limit(n=256, m=300, probes=(1.0,))
        b = verify_bn_limit(n=256, m=300, probes=(1.0,))
        assert a.summary_json() == b.summary_json()
        assert a.replicates_csv() == b.replicates_csv()

    def test_probe_validation(self):
        with pytest.raises(ConfigError):
            verify_bn_limit(probes=())
        with pytest.raises(ConfigError):
            verify_bn_limit(probes=(0.0, 1.0))


class TestLadderExperiments:
    def test_trapezoid_square_telescopes_to_rounding(self):
        """The integrand 2x telescopes, so the MSE is pure float noise."""
        rep = verify_trapezoid_ucp(n_list=(64, 256), m=100)
        assert rep.passed
        assert all(v < 1e-28 for v in rep.stats["mse"]["t=1"])
        assert rep.stats["rate"] == {}

    def test_trapezoid_linear_integrand(self):
        rep = verify_trapezoid_ucp(g=LINEAR, n_list=(16, 32, 64), m=4, final_tol=1e-20)
        assert rep.passed
        assert all(v < 1e-28 for v in rep.stats["mse"]["t=1"])

    def test_trapezoid_cube_mse_decreases(self):
        rep = verify_trapezoid_ucp(g=CUBE, n_list=(64, 256, 1024), m=100, final_tol=0.05)
        assert rep.passed
        seq = rep.stats["mse"]["t=1"]
        assert seq[0] > seq[1] > seq[2]
        assert -1.5 < rep.stats["rate"]["t=1"]["slope"] < -0.25

    def test_trapezoid_final_gate_can_fail(self):
        """Negative control: a final_tol below the measured MSE fails only mse_final."""
        ladder = dict(g=CUBE, n_list=(64, 256, 1024), m=100)
        final = verify_trapezoid_ucp(**ladder, final_tol=0.05).stats["mse"]["t=1"][-1]
        rep = verify_trapezoid_ucp(**ladder, final_tol=0.5 * final)
        assert rep.passed is False
        assert [c.name for c in rep.checks if c.passed is False] == ["mse_final@t=1"]
        assert rep.stats["mse"]["t=1"][-1] == final

    def test_trapezoid_threshold_requires_closed_form(self):
        with pytest.raises(ConfigError):
            verify_trapezoid_ucp(g=builtin("sine"), n_list=(16, 32), m=2)
        rep = verify_trapezoid_ucp(g=builtin("sine"), n_list=(16, 32), m=8, final_tol=1.0)
        assert rep.experiment == "trapezoid"

    # A composite with a drift, so the ladder's draw_ensemble adds one.
    _DRIFTED = CovKernel(
        "composite", c=0.5, components=(CovKernel("heat"), CovKernel("bm")), mean_coeffs=(0.0, 1.0)
    )

    @pytest.mark.parametrize("kernel, n_list, probes", [
        (fbm_quarter_kernel(), (16, 32, 64), (1.0,)),
        (heat_kernel(), (16, 32, 64), (1.0,)),
        (_DRIFTED, (16, 32, 64), (1.0,)),
        # N = 2, 2 and 4: two grids read the same prefix of one block.
        (heat_kernel(), (8, 9, 16), (0.25,)),
    ], ids=["fbm", "heat", "composite-drift", "shared-N"])
    def test_each_rung_is_an_independent_draw(self, monkeypatch, kernel, n_list, probes):
        """The ladder's one normal block gives every grid the paths a fresh draw gives."""
        drawn = []

        def record(factor, m, seed, z=None):
            ens = sample_paths(factor, m, seed, z)
            # A copy: draw_ensemble adds a kernel's drift to the values in place.
            drawn.append((ens.grid, ens.values.copy()))
            return ens

        monkeypatch.setattr(verify, "sample_paths", record)
        verify_expansion_residual(kernel=kernel, n_list=n_list, m=5, probes=probes, seed=4)
        assert [grid.n for grid, _ in drawn] == list(n_list)
        for grid, values in drawn:
            alone = sample_paths(cached_factor(kernel, grid), 5, 4)
            assert np.array_equal(values.view(np.uint64), alone.values.view(np.uint64))

    def test_ladder_opens_one_stream_per_replicate(self, monkeypatch):
        opened = []
        open_stream = rng.stream

        def stream(key):
            opened.append(key)
            return open_stream(key)

        monkeypatch.setattr(rng, "stream", stream)
        verify_trapezoid_ucp(g=CUBE, n_list=(16, 32, 64), m=6, final_tol=1.0)
        assert len(opened) == 6

    # Small runs of the three experiment shapes, by kernel and replicate count.
    _RUNS = {
        "trapezoid": lambda kernel, m: verify_trapezoid_ucp(
            kernel=kernel, g=CUBE, n_list=(16, 32, 64), m=m, final_tol=1.0
        ),
        "ito": lambda kernel, m: verify_ito_formula(kernel=kernel, g=CUBE, n=64, m=m, seeds=1),
        "bn": lambda kernel, m: verify_bn_limit(kernel=kernel, n=64, m=m),
    }

    @pytest.mark.parametrize("run, kernel", [
        ("trapezoid", fbm_quarter_kernel()),
        ("trapezoid", CovKernel("bm")),
        ("ito", fbm_quarter_kernel()),
        ("ito", heat_kernel()),
        ("bn", fbm_quarter_kernel()),
        ("bn", heat_kernel()),
    ], ids=["fbm", "bm", "ito-fbm", "ito-heat", "bn-fbm", "bn-heat"])
    def test_ladder_report_does_not_depend_on_the_row_block(self, monkeypatch, run, kernel):
        """Row blocks of 2 and 3 replicates give the report of the default block."""

        def report():
            rep = self._RUNS[run](kernel, 7)
            return rep.summary_json(), rep.replicates_csv()

        default = report()
        for rows in (2, 3):
            monkeypatch.setattr(simulate, "_SYNTH_ROWS", rows)
            monkeypatch.setattr(simulate.CholeskyFactor, "block_rows", rows)
            blocks = simulate.row_blocks(cached_factor(kernel, Grid(64)), 7)
            assert len(blocks) == math.ceil(7 / rows)
            assert report() == default

    @pytest.mark.parametrize("run, sizes", [
        (
            lambda m: verify_trapezoid_ucp(
                kernel=fbm_quarter_kernel(), g=CUBE, n_list=(1024, 4096), m=m, final_tol=1.0
            ),
            (32, 256),
        ),
        (
            lambda m: verify_trapezoid_ucp(
                kernel=CovKernel("bm"), g=CUBE, n_list=(1024, 4096), m=m, final_tol=1.0
            ),
            (32, 256),
        ),
        (
            lambda m: verify_ito_formula(
                kernel=fbm_quarter_kernel(), g=builtin("sine"), n=4096, m=m, seeds=1
            ),
            (64, 512),
        ),
        (lambda m: verify_bn_limit(kernel=fbm_quarter_kernel(), n=4096, m=m), (64, 512)),
        (
            lambda m: verify_trapezoid_ucp(
                kernel=heat_kernel(), g=CUBE, n_list=(1024, 4096), m=m, final_tol=1.0
            ),
            (32, 256),
        ),
        (
            lambda m: verify_ito_formula(
                kernel=heat_kernel(), g=builtin("sine"), n=4096, m=m, seeds=1
            ),
            (64, 512),
        ),
    ], ids=["fbm", "bm", "ito-fbm", "bn-fbm", "heat", "ito-heat"])
    def test_ladder_memory_does_not_grow_with_m(self, run, sizes):
        """An O(N) sampler's experiment holds one row block of normals and paths, not all m."""
        run(sizes[0])  # factors are built and cached outside the trace
        peaks = {}
        for m in sizes:
            tracemalloc.start()
            try:
                run(m)
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[sizes[1]] <= 1.25 * peaks[sizes[0]]

    def test_ladder_validation(self):
        with pytest.raises(ConfigError):
            verify_trapezoid_ucp(n_list=(256,), m=2)
        with pytest.raises(ConfigError):
            verify_trapezoid_ucp(n_list=(256, 256), m=2)
        with pytest.raises(ConfigError):
            verify_expansion_residual(n_list=(1024, 256), m=2)

    def test_expansion_cube_mse_decreases(self):
        rep = verify_expansion_residual(g=CUBE, n_list=(64, 256), m=100)
        assert rep.passed
        seq = rep.stats["mse"]["t=1"]
        assert seq[0] > seq[1]
        assert rep.replicate_columns == ("n", "replicate", "t", "residual")
        assert len(rep.replicate_rows) == 2 * 100

    def test_expansion_linear_residual_is_rounding(self):
        rep = verify_expansion_residual(g=LINEAR, n_list=(16, 64), m=8)
        assert rep.passed
        assert all(v < 1e-28 for v in rep.stats["mse"]["t=1"])

    def test_expansion_single_replicate_deterministic(self):
        a = verify_expansion_residual(n_list=(16, 32), m=1)
        b = verify_expansion_residual(n_list=(16, 32), m=1)
        assert a.summary_json() == b.summary_json()
        assert a.replicates_csv() == b.replicates_csv()

    @pytest.mark.parametrize("probes", [(), (0.0,)], ids=["empty", "zero"])
    @pytest.mark.parametrize("run", [verify_trapezoid_ucp, verify_expansion_residual])
    def test_probes_must_be_positive(self, run, probes):
        with pytest.raises(ConfigError):
            run(n_list=(16, 32), m=2, probes=probes)

    def test_smoothness_tags_enforced(self):
        rough = TestFunction("rough", (5, 2), lambda j, x, t: np.zeros_like(x), lambda j, x, t: np.zeros_like(x))
        with pytest.raises(DomainError):
            verify_trapezoid_ucp(g=rough, n_list=(16, 32), m=2, final_tol=1.0)
        with pytest.raises(DomainError):
            verify_expansion_residual(g=rough, n_list=(16, 32), m=2)


class TestFbmWindowExperiment:
    def test_small_windowed_run(self):
        rep = verify_fbm_window(n=512, m=200, seeds=1, ks_tol=0.15, mean_tol=0.2, var_tol=0.4)
        assert rep.passed
        assert rep.experiment == "fbm-window"
        assert rep.config["experiment"] == "fbm-window"
        kernel = CovKernel.from_dict(rep.config["kernel"])
        assert kernel.kind == "composite"
        assert kernel.c == pytest.approx((math.pi / 2.0) ** 0.25)
        assert rep.config["window_start"] == 0.1
        assert rep.stats["seeds"]["seed0"]["t=1"]["var_ref"] is not None


class TestReportEmission:
    def _tiny_report(self):
        return verify_trapezoid_ucp(n_list=(16, 32), m=2)

    def test_passed_ignores_non_gating_checks(self):
        base = dict(value=1.0, threshold=0.5, flagged=False)
        gating_fail = CheckResult(name="a", passed=False, **base)
        advisory_fail = CheckResult(name="b", passed=False, gates=False, **base)
        report_only = CheckResult(name="c", passed=None, **base)
        ok = CheckResult(name="d", passed=True, **base)
        mk = lambda checks: ExperimentReport(
            experiment="x",
            config={},
            checks=tuple(checks),
            stats={},
            replicate_columns=("v",),
            replicate_rows=(),
        )
        assert mk([ok, report_only, advisory_fail]).passed
        assert not mk([ok, gating_fail]).passed

    def test_summary_json_shape(self):
        rep = self._tiny_report()
        text = rep.summary_json()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["schema"] == 1
        assert doc["experiment"] == "trapezoid"
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == {"mse_monotone@t=1", "mse_final@t=1"}
        assert doc["config"]["n_list"] == [16, 32]

    def test_csv_cells_round_trip(self):
        rep = self._tiny_report()
        lines = rep.replicates_csv().strip().split("\n")
        assert lines[0] == "n,replicate,t,trapezoid_sum,target"
        first = lines[1].split(",")
        assert first[0] == "16" and first[1] == "0"
        assert float(first[3]) == rep.replicate_rows[0][3]
        assert float(first[4]) == rep.replicate_rows[0][4]

    def test_write_emits_both_files(self, tmp_path):
        rep = self._tiny_report()
        summary_path, csv_path = rep.write(str(tmp_path / "out"))
        with open(summary_path, encoding="utf-8") as fh:
            assert fh.read() == rep.summary_json()
        with open(csv_path, encoding="utf-8") as fh:
            assert fh.read() == rep.replicates_csv()

    def test_check_result_serialization(self):
        ck = CheckResult(name="k", value=0.07, threshold=0.06, passed=False, flagged=True)
        assert ck.to_dict() == {
            "name": "k",
            "value": 0.07,
            "threshold": 0.06,
            "passed": False,
            "flagged": True,
            "gates": True,
        }


@pytest.mark.parametrize("record", [
    CheckResult("k", 0.07, 0.06, False, flagged=True),
    loglog_rate([2.0, 4.0, 8.0], [1.0, 0.5, 0.3]),
    correlation([1.0, 2.0, 3.0, 5.0], [2.0, 1.0, 4.0, 3.0]),
], ids=lambda r: type(r).__name__)
def test_record_dict_keys_are_its_fields(record):
    assert set(record.to_dict()) == {f.name for f in dataclasses.fields(record)}


def test_audit_dict_keys_are_its_fields_and_ok():
    report = audit_cov_table(32)
    fields = {f.name for f in dataclasses.fields(report)}
    assert set(report.to_dict()) == fields | {"ok"}
