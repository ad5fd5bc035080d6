"""The corrected chain-rule right-hand side and the four experiments.

Hand values use two-step paths where every term can be written out; the
closed-form reference moments are recomputed here by explicit Wick
pairings as an independent route.  Experiment runs are kept at small n
and loose tolerances; the strict full-scale runs live in the acceptance
module.
"""

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import NUMPY_LOG_IS_LIBM, rerun_under_libm_log
from quartic_lab import rng, simulate, sums, verify
from quartic_lab.analytic import audit_cov_table, kappa_reference
from quartic_lab.cli import EXPERIMENTS, main
from quartic_lab.errors import ConfigError, DomainError
from quartic_lab.functions import TestFunction, builtin
from quartic_lab.kernels import (
    FBM_HEAT_SCALE,
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

    def dt(x, t):
        return np.ones_like(np.asarray(x, dtype=float))

    return TestFunction("time_only", dx, dt)


def _x_times_t():
    def dx(j, x, t):
        x = np.asarray(x, dtype=float)
        if j == 0:
            return x * t
        if j == 1:
            return t * np.ones_like(x)
        return np.zeros_like(x)

    def dt(x, t):
        x = np.asarray(x, dtype=float)
        return x * np.ones_like(t * x)

    return TestFunction("x_times_t", dx, dt)


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
        x, b = draw_ensemble(heat_kernel(), grid, 50, 3), sample_brownian(grid, 50, 3)
        rhs = rhs_formula_ensemble(x, b, grid, LINEAR, 1.0)
        assert np.array_equal(rhs, x[:, 64] - x[:, 0])
        mid = sums.midpoint_sum_ensemble(x, grid, LINEAR, 1)[:, 64]
        np.testing.assert_allclose(mid, rhs, atol=1e-13)
        assert ks_two_sample(mid, rhs) <= 2.0 / 50.0

    def test_time_only_g_cancels_exactly(self):
        grid = Grid(32)
        x, b = draw_ensemble(heat_kernel(), grid, 8, 5), sample_brownian(grid, 8, 5)
        rhs = rhs_formula_ensemble(x, b, grid, _time_only(), 1.0)
        assert np.all(rhs == 0.0)

    def test_scalar_second_derivative_broadcasts(self):
        """A g whose dx(2) is a Python float gives the full-shape correction."""

        def dx(j, x, t):
            return (0.5 * x**2, x, 1.0)[j] if j < 3 else 0.0

        half_square = TestFunction("half_square", dx)
        grid = Grid(32)
        x, b = draw_ensemble(heat_kernel(), grid, 8, 5), sample_brownian(grid, 8, 5)
        rhs = rhs_formula_ensemble(x, b, grid, half_square, 1.0, c=0.5)
        ito = np.sum(np.ones((8, 32)) * np.diff(b, axis=1), axis=1)
        head = 0.5 * x[:, 32] ** 2 - 0.5 * x[:, 0] ** 2
        assert np.array_equal(rhs, head - 0.5 * kappa_reference() * 0.25 * ito)

    def test_zero_scale_drops_the_correction(self):
        grid = Grid(32)
        x, b = draw_ensemble(heat_kernel(), grid, 8, 5), sample_brownian(grid, 8, 5)
        rhs = rhs_formula_ensemble(x, b, grid, SQUARE, 1.0, c=0.0)
        target = trapezoid_target_ensemble(x, grid, SQUARE, 1.0)
        assert np.array_equal(rhs, target)

    def test_metadata_snaps_to_grid(self):
        grid = Grid(8)
        x = np.zeros(9)
        b = np.zeros(9)
        out = rhs_formula_ensemble(x[None, :], b[None, :], grid, SQUARE, 0.7, t_start=0.2)
        assert out[0] == 0.0
        x, b = draw_ensemble(heat_kernel(), grid, 2, 1), sample_brownian(grid, 2, 1)
        paths = (x, b, grid, SQUARE)
        on_grid = rhs_formula_ensemble(*paths, 0.625, t_start=0.125)
        assert np.array_equal(rhs_formula_ensemble(*paths, 0.7, t_start=0.2), on_grid)

    def test_mismatched_shapes_rejected(self):
        grid = Grid(4)
        with pytest.raises(DomainError):
            rhs_formula_ensemble(np.zeros((1, 5)), np.zeros((1, 4)), grid, SQUARE, 1.0)

    def test_mismatched_grids_rejected(self):
        x = draw_ensemble(heat_kernel(), Grid(8), 2, 1)
        b = sample_brownian(Grid(16), 2, 1)
        with pytest.raises(DomainError):
            rhs_formula_ensemble(x, b, Grid(8), SQUARE, 1.0)

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
        x = draw_ensemble(heat_kernel(), grid, 6, 2)
        target = trapezoid_target_ensemble(x, grid, SQUARE, 1.0)
        assert np.array_equal(target, x[:, 16] ** 2 - x[:, 0] ** 2)

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

    def test_zero_g_has_zero_moments(self):
        zero = builtin("poly_k", coeffs=[0.0])
        assert head_reference_moments(heat_kernel(), zero, 1.0, 0.25) == (0.0, 0.0)
        assert formula_reference_moments(heat_kernel(), zero, Grid(16), 1.0) == (0.0, 0.0)

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


# float.hex of (formula_reference_moments, head_reference_moments,
# ito_term_variance) on Grid(256) at t_end = 1, pinned so that a change to
# the exact-moment algebra cannot move a reference by one bit.  The
# degree-8 g puts E[Z^k] up to k = 12 under the Ito variance; sine has no
# closed form.
_POLY8 = builtin("poly_k", coeffs=[0.5, -1, 0, 2, 0, 0, -0.25, 0, 1])
_REFERENCE_PINS = {
    ("heat", "cube", 0.0): (("0x0.0p+0", "0x1.9143b7abdeabep+2"), ("0x0.0p+0", "0x1.58cea98a53debp+1"), "0x1.c9b8c5cd69790p+1"),
    ("heat", "cube", 0.25): (("0x0.0p+0", "0x1.7742cb7d75716p+2"), ("0x0.0p+0", "0x1.5d7b2c26fa491p+1"), "0x1.910a6ad3f099ap+1"),
    ("heat", "sine", 0.0): (None, None, None),
    ("heat", "sine", 0.25): (None, None, None),
    ("heat", "poly8", 0.0): (("0x1.3ee3834f6337ep+3", "0x1.4cfd5973f9c68p+16"), ("0x1.3ee3834f6337ep+3", "0x1.30d472f85c2a0p+14"), "0x1.00c83cb5e2bc0p+16"),
    ("heat", "poly8", 0.25): (("0x1.2c4e19c3f7584p+3", "0x1.4c375f42e52f0p+16"), ("0x1.2c4e19c3f7584p+3", "0x1.317c9389c9773p+14"), "0x1.ffb074c0e5a27p+15"),
    ("fbm-composite", "cube", 0.0): (("0x0.0p+0", "0x1.55694d8098ad8p+4"), ("0x0.0p+0", "0x1.e000000000000p+3"), "0x1.95a5360262b62p+2"),
    ("fbm-composite", "cube", 0.25): (("0x0.0p+0", "0x1.33177778ba56ep+4"), ("0x0.0p+0", "0x1.b47a0fcb6eb78p+3"), "0x1.6369be4c0bec7p+2"),
    ("fbm-composite", "sine", 0.0): (None, None, None),
    ("fbm-composite", "sine", 0.25): (None, None, None),
    ("fbm-composite", "poly8", 0.0): (("0x1.9500000000000p+6", "0x1.ec45ee75564e8p+21"), ("0x1.9500000000000p+6", "0x1.dc0d0a0000000p+20"), "0x1.fc7ed2eaac9d1p+20"),
    ("fbm-composite", "poly8", 0.25): (("0x1.7ca0000000000p+6", "0x1.ea8b9d618654cp+21"), ("0x1.7ca0000000000p+6", "0x1.da7b427c3d0e5p+20"), "0x1.fa9bf846cf9b2p+20"),
    ("bm", "cube", 0.0): (("0x0.0p+0", "0x1.3bfd5f904719ep+4"), ("0x0.0p+0", "0x1.e000000000000p+3"), "0x1.2ff57e411c679p+2"),
    ("bm", "cube", 0.25): (("0x0.0p+0", "0x1.260bd766fd706p+4"), ("0x0.0p+0", "0x1.bd80000000000p+3"), "0x1.1d2f5d9bf5c18p+2"),
    ("bm", "sine", 0.0): (None, None, None),
    ("bm", "sine", 0.25): (None, None, None),
    ("bm", "poly8", 0.0): (("0x1.9500000000000p+6", "0x1.7e5e9bf46e11cp+21"), ("0x1.9500000000000p+6", "0x1.dc0d0a0000000p+20"), "0x1.20b02de8dc238p+20"),
    ("bm", "poly8", 0.25): (("0x1.9398000000000p+6", "0x1.7e39d89d081d5p+21"), ("0x1.9398000000000p+6", "0x1.dbc78c0aa0000p+20"), "0x1.20ac252f703aap+20"),
}
_PIN_KERNELS = {"heat": heat_kernel(), "fbm-composite": fbm_composite_kernel(), "bm": CovKernel("bm")}
_PIN_GS = {"cube": CUBE, "sine": builtin("sine"), "poly8": _POLY8}


def _hex(value):
    if value is None or isinstance(value, float):
        return None if value is None else value.hex()
    return tuple(map(_hex, value))


@pytest.mark.parametrize("case", list(_REFERENCE_PINS), ids=lambda c: "-".join(map(str, c)))
def test_reference_moments_keep_their_pinned_bits(case):
    kernel, g, t_start = _PIN_KERNELS[case[0]], _PIN_GS[case[1]], case[2]
    grid = Grid(256)
    got = (
        formula_reference_moments(kernel, g, grid, 1.0, t_start),
        head_reference_moments(kernel, g, 1.0, t_start),
        ito_term_variance(kernel, g, grid, 1.0, t_start),
    )
    assert _hex(got) == _REFERENCE_PINS[case]


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
        x, b = draw_ensemble(heat_kernel(), grid, 600, 5), sample_brownian(grid, 600, 5)
        full = rhs_formula_ensemble(x, b, grid, SQUARE, 1.0)
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
            x, b = draw_ensemble(drift, grid, 4, 3), sample_brownian(grid, 4, 3)
            mid = sums.midpoint_sum_ensemble(x, grid, SQUARE, 1)[:, grid.index_at(1.0)]
            rhs = rhs_formula_ensemble(x, b, grid, SQUARE, 1.0, c=0.0)
            mses.append(float(np.mean((mid - rhs) ** 2)))
        assert mses[0] > mses[1] > mses[2]
        assert mses[-1] < 1e-11

    def test_configuration_validation(self):
        with pytest.raises(ConfigError):
            verify_ito_formula(probes=())
        with pytest.raises(ConfigError):
            verify_ito_formula(probes=(0.5,), window_start=0.5)
        with pytest.raises(ConfigError):
            verify_ito_formula(seeds=0)

    @pytest.mark.parametrize("kernel,scale", [
        (heat_kernel(), 1.0),
        (fbm_composite_kernel(), FBM_HEAT_SCALE),
        (fbm_quarter_kernel(), FBM_HEAT_SCALE),
        (CovKernel("bm"), 0.0),
        (CovKernel("xi"), 0.0),
        (CovKernel("composite", c=2.0, components=(CovKernel("xi"), heat_kernel())), 1.0),
        (CovKernel("composite", c=-0.5, components=(heat_kernel(),)), 0.5),
    ], ids=["heat", "fbm-composite", "fbm_quarter", "bm", "xi", "2xi+heat", "-0.5heat"])
    def test_default_c_is_the_heat_scale_of_the_kernel(self, kernel, scale):
        """The correction's c is the scale of the heat slice in the kernel's law, never negative."""
        rep = verify_ito_formula(kernel=kernel, n=16, m=2, seeds=1)
        assert rep.config["c"] == scale

    @pytest.mark.parametrize("kernel,c", [("heat", 0.0), ("bm", 1.0)])
    def test_a_wrong_correction_scale_exits_one(self, kernel, c, tmp_path):
        """Controls: the heat slice without its correction, Brownian motion with one.

        At n = 256, m = 400 and the default seed 7, the three seeds' KS
        distances read 0.325, 0.343 and 0.315 (heat, c = 0) and 0.250,
        0.253 and 0.250 (bm, c = 1) against ks_tol 0.10.  Over master seeds
        1 .. 60 no seed passed either control, its KS at least 0.295 (heat)
        and 0.193 (bm).
        """
        config = tmp_path / "control.json"
        config.write_text(json.dumps({"kernel": kernel, "c": c, "n": 256, "m": 400}))
        out = tmp_path / "out"
        assert main(["verify", "--experiment", "ito", "--config", str(config), "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["c"] == c and summary["stats"]["passed_seeds"] == 0


# Negative controls: config overrides, at n = 256 and m = 400, under which
# an experiment must exit 1 by failing every KS check.  ito's controls are
# TestItoExperiment::test_a_wrong_correction_scale_exits_one.  Measured at
# master seeds 7, 21 and 40:
# - fbm-window with no correction (c = 0): KS 0.18-0.23 against 0.10, no
#   seed passed; at the default c, 0.03-0.10.
# - bn on Brownian motion, whose bn is not N(0, t): every ks_normal
#   0.415-0.428 against 0.06; on the heat default, 0.03-0.06.  bn on
#   fbm_quarter is no control: N(0, pi/2) lies 0.054 from N(0, 1) in KS
#   distance, under 0.06.
_CONTROLS = {
    "fbm-window/c=0": ("fbm-window", {"c": 0.0}),
    "bn/kernel=bm": ("bn", {"kernel": "bm"}),
}
# Experiments with no control yet: each needs a source mutation (ROADMAP item 4).
_WITHOUT_CONTROL = {"expansion"}


@pytest.mark.parametrize("experiment, overrides", _CONTROLS.values(), ids=_CONTROLS)
def test_a_control_exits_one(experiment, overrides, tmp_path):
    config = tmp_path / "control.json"
    config.write_text(json.dumps(overrides | {"n": 256, "m": 400}))
    out = tmp_path / "out"
    assert main(["verify", "--experiment", experiment, "--config", str(config), "--out", str(out)]) == 1
    ks = [c for c in json.loads((out / "summary.json").read_text())["checks"] if "ks" in c["name"]]
    assert ks and not any(c["passed"] for c in ks)


_FRACTIONAL_CALLS = {
    "ito-n": lambda: verify_ito_formula(n=64.5, m=8),
    "bn-n": lambda: verify_bn_limit(n=64.5, m=8, probes=(1.0,)),
    "trapezoid-n_list": lambda: verify_trapezoid_ucp(n_list=(64.5, 128.9), m=4, final_tol=1.0),
    "ito-seed": lambda: verify_ito_formula(n=64, m=8, seed=7.5),
    "bn-seed": lambda: verify_bn_limit(n=64, m=8, probes=(1.0,), seed=7.5),
    "trapezoid-seed": lambda: verify_trapezoid_ucp(n_list=(64, 128), m=4, seed=7.5, final_tol=1.0),
}


@pytest.mark.parametrize("call", _FRACTIONAL_CALLS.values(), ids=_FRACTIONAL_CALLS)
def test_a_direct_call_refuses_a_fractional_size_or_seed(call):
    """n, n_list and seed reach Grid and the stream keys untruncated."""
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("scale", [0.8, 1.5])
def test_bn_with_a_wrong_kappa_exits_one(scale, monkeypatch, tmp_path):
    """bn normalized by scale * kappa fails every normality check."""
    kap = kappa_reference()
    monkeypatch.setattr(sums, "kappa_reference", lambda: scale * kap)
    out = tmp_path / "out"
    argv = ["verify", "--experiment", "bn", "--n", "256", "--M", "400", "--seed", "7"]
    assert main([*argv, "--out", str(out)]) == 1
    ks = [c for c in json.loads((out / "summary.json").read_text())["checks"]
          if c["name"].startswith("ks_normal")]
    assert len(ks) == 4 and not any(c["passed"] for c in ks)


def _left_point_sum_ensemble(values, grid, g, deriv_order=0):
    """sum g(X(t_{j-1}), t_{j-1}) dX_j: the Ito sum, which lacks the trapezoid's correction."""
    gv = g.dx(deriv_order, values[:, :-1], grid.times()[None, :-1])
    return sums._prefix(gv * np.diff(values, axis=1))


def test_trapezoid_with_a_left_point_sum_exits_one(monkeypatch, tmp_path):
    """The default trapezoid run fails both ladder gates on the left-point sum."""
    monkeypatch.setattr(sums, "trapezoid_sum_ensemble", _left_point_sum_ensemble)
    out = tmp_path / "out"
    assert main(["verify", "--experiment", "trapezoid", "--out", str(out)]) == 1
    checks = json.loads((out / "summary.json").read_text())["checks"]
    assert {c["name"] for c in checks} == {"mse_monotone@t=1", "mse_final@t=1"}
    assert not any(c["passed"] for c in checks)


def test_every_experiment_has_a_control_or_is_listed_without_one():
    # ito's controls live in TestItoExperiment, trapezoid's just above.
    controlled = {experiment for experiment, _ in _CONTROLS.values()} | {"ito", "trapezoid"}
    assert controlled.isdisjoint(_WITHOUT_CONTROL)
    assert controlled | _WITHOUT_CONTROL == set(EXPERIMENTS)


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

    # A composite with a drift, so the ladder's factors carry one.
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

        def record(factors, m, seed, *args):
            for start, stop, k, paths in simulate.path_tiles(factors, m, seed, *args):
                drawn.append((factors[k].grid, paths))
                yield start, stop, k, paths

        monkeypatch.setattr(verify, "path_tiles", record)
        verify_expansion_residual(kernel=kernel, n_list=n_list, m=5, probes=probes, seed=4)
        assert [grid.n for grid, _ in drawn] == list(n_list)
        for grid, values in drawn:
            alone = sample_paths(cached_factor(kernel, grid), 5, 4)
            assert np.array_equal(values.view(np.uint64), alone.view(np.uint64))

    def test_ladder_opens_one_stream_per_replicate(self, monkeypatch):
        opened = []
        open_stream = rng.stream

        def stream(key, count):
            opened.append(key)
            return open_stream(key, count)

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
        ("ito", fbm_composite_kernel()),
        ("ito", CovKernel("xi")),
    ], ids=["fbm", "bm", "ito-fbm", "ito-heat", "bn-fbm", "bn-heat", "ito-composite", "ito-xi"])
    def test_ladder_report_does_not_depend_on_the_row_block(self, monkeypatch, run, kernel):
        """Each grid reduced as one block of all m fresh rows gives the report of the tiles."""

        def report():
            rep = self._RUNS[run](kernel, 11)
            return rep.summary_json(), rep.replicates_csv()

        def whole(factors, m, seed, *args):
            for k, factor in enumerate(factors):
                yield 0, m, k, sample_paths(factor, m, seed, *args)

        default = report()
        monkeypatch.setattr(verify, "path_tiles", whole)
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
        """An O(N) sampler's experiment holds one tile of normals and paths, not all m."""
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

    def test_warm_fbm_ladder_holds_one_tile_of_paths(self):
        """A warm fBm ladder to N = 8192 holds one 8-row tile of normals and paths.

        That is about 2.6 MiB traced; a 32-row block would hold 7.6 MiB.
        """

        def run():
            verify_trapezoid_ucp(
                kernel=fbm_quarter_kernel(), g=CUBE, n_list=(1024, 2048, 4096, 8192), m=200,
                final_tol=0.15,
            )

        run()  # factors are built and cached outside the trace
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20

    def test_ladder_validation(self):
        with pytest.raises(ConfigError):
            verify_trapezoid_ucp(n_list=(256,), m=2)
        with pytest.raises(ConfigError):
            verify_trapezoid_ucp(n_list=(256, 256), m=2)
        with pytest.raises(ConfigError):
            verify_expansion_residual(n_list=(1024, 256), m=2)

    @pytest.mark.parametrize("m", [0, -1], ids=str)
    @pytest.mark.parametrize("run", [verify_trapezoid_ucp, verify_expansion_residual])
    def test_unusable_replicate_count_refused_before_allocating(self, monkeypatch, run, m):
        def no_columns(*args, **kwargs):
            raise AssertionError("columns allocated")

        monkeypatch.setattr(verify, "_replicate_columns", no_columns)
        with pytest.raises(ConfigError, match="needs m >= 1 replicates"):
            run(n_list=(16, 32), m=m)

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


@pytest.mark.parametrize("probes", [(0.5, math.nan), (0.5, math.inf)], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "run",
    [verify_ito_formula, verify_fbm_window, verify_bn_limit, verify_trapezoid_ucp,
     verify_expansion_residual],
    ids=["ito", "fbm-window", "bn", "trapezoid", "expansion"],
)
def test_non_finite_probes_refused(run, probes):
    # The CLI's probe rule: positive and finite.  No path is drawn.
    with pytest.raises(ConfigError, match="finite"):
        run(probes=probes, m=4)


class TestFbmWindowExperiment:
    def test_small_windowed_run(self):
        # m is the experiment's default.  At m = 200 the mean gate is 1.6 SE
        # and failed at 5 to 7 of seeds 0-39; at m = 1000 it is 3.6 SE.
        rep = verify_fbm_window(n=512, m=1000, seeds=1, ks_tol=0.15, mean_tol=0.2, var_tol=0.4)
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

    @staticmethod
    def _report(checks):
        return ExperimentReport(
            experiment="x",
            config={},
            checks=tuple(checks),
            stats={},
            replicate_columns=("v",),
            replicate_rows=(),
        )

    def test_passed_ignores_non_gating_checks(self):
        base = dict(value=1.0, threshold=0.5, flagged=False)
        gating_fail = CheckResult(name="a", passed=False, **base)
        advisory_fail = CheckResult(name="b", passed=False, gates=False, **base)
        ok = CheckResult(name="d", passed=True, **base)
        assert self._report([ok, advisory_fail]).passed
        assert not self._report([ok, gating_fail]).passed

    def test_a_failing_gate_on_a_numpy_value_fails_the_report(self):
        report = self._report([CheckResult.at_most("x", np.float64(2.0), 1.0)])
        assert report.passed is False
        assert json.loads(report.summary_json())["passed"] is False
        assert report.checks[0].passed is False

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

    def test_summary_json_writes_numpy_values_as_python_ones(self):
        rep = dataclasses.replace(self._tiny_report(), stats={
            "f64": np.float64(0.1), "f32": np.float32(0.5), "i": np.int64(3),
            "b": np.bool_(True), "a": np.array([1.5, np.nan]), "t": (1, 2),
        })
        stats = json.loads(rep.summary_json())["stats"]
        assert stats == {"f64": 0.1, "f32": 0.5, "i": 3, "b": True, "a": [1.5, stats["a"][1]],
                         "t": [1, 2]}
        assert math.isnan(stats["a"][1]) and '"f64": 0.1,' in rep.summary_json()
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            dataclasses.replace(rep, stats={"s": {1}}).summary_json()

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


# A drifted two-part composite: no default run has a drift or a partial
# last tile (m = 200 and 1000 are multiples of the 8-row tile), so these
# digests pin both.  They were computed before the sampling loop was
# rewritten as one generator and must not move with it.  Each pin is keyed
# by NUMPY_LOG_IS_LIBM: True is scipy.special.ndtri's bits, which the
# numpy ndtri reproduces under libm's log; False is numpy's AVX-512 log.
_PINNED_KERNEL = CovKernel(
    "composite", c=1.3, components=(CovKernel("heat"), CovKernel("xi")),
    mean_coeffs=(0.5, -1.0, 2.0),
)


def test_drifted_composite_draw_is_pinned():
    values = draw_ensemble(_PINNED_KERNEL, Grid(100, 2.5), 13, 5)
    digest = hashlib.sha256(values.tobytes()).hexdigest()
    assert digest == {
        True: "25dadc57177a972708b89f69a46d2bde8604294178b49ba2358772d54abce7ae",
        False: "9315364d463e31e8ecab1f880965be30a050597e9c0725c9f97db2a26c10c564",
    }[NUMPY_LOG_IS_LIBM]


def test_drifted_composite_ladder_is_pinned():
    rep = verify_expansion_residual(
        kernel=_PINNED_KERNEL, g=builtin("sine"), n_list=(64, 128, 256), m=21, seed=5
    )
    digest = hashlib.sha256((rep.summary_json() + rep.replicates_csv()).encode()).hexdigest()
    assert digest == {
        True: "b5170ad87e73ffc179fb4301a7308661536306243a9e5646dd669ebea0565461",
        False: "33b0a453a5fc1f5d125c1eb01ecdf75b0efe5033b48094e3381f70836bd6e3d6",
    }[NUMPY_LOG_IS_LIBM]


def test_the_pins_hold_under_the_libm_log_dispatch():
    rerun_under_libm_log(
        __file__, "drifted_composite_draw_is_pinned", "drifted_composite_ladder_is_pinned"
    )
