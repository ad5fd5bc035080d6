"""Integrand registry: exact derivative tables and their FD certification."""

import math

import numpy as np
import pytest

from quartic_lab.errors import DomainError
from quartic_lab.functions import TestFunction, builtin, from_spec

ALL_IDS = ("const", "linear", "square", "cube", "sine", "gauss_bump", "poly_xt")


class TestBuiltins:
    def test_unknown_name_lists_choices(self):
        with pytest.raises(DomainError) as exc_info:
            builtin("sigmoid")
        message = str(exc_info.value)
        assert "square" in message and "poly_xt" in message

    def test_square_table(self):
        g = builtin("square")
        assert g.eval(3.0, 0.0) == 9.0
        assert g.dx(1, 3.0, 0.0) == 6.0
        assert g.dx(2, 3.0, 0.5) == 2.0
        assert g.dx(3, 3.0, 0.5) == 0.0
        assert g.dtdx(0, 3.0, 0.5) == 0.0

    def test_poly_xt_table(self):
        g = builtin("poly_xt")
        assert g.eval(2.0, 1.0) == 16.0        # x^3 (1+t)
        assert g.dtdx(0, 2.0, 1.0) == 8.0      # d/dt -> x^3
        assert g.dx(1, 2.0, 1.0) == 24.0       # 3x^2 (1+t)
        assert g.dtdx(1, 2.0, 0.0) == 12.0     # d/dt d/dx -> 3x^2
        assert g.dtdx(3, 2.0, 0.3) == 6.0
        assert g.dtdx(4, 2.0, 0.3) == 0.0

    def test_sine_cycle(self):
        g = builtin("sine")
        xs = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(g.dx(4, xs, 0.0), np.sin(xs), atol=1e-15)
        np.testing.assert_allclose(g.dx(1, xs, 0.0), np.cos(xs), atol=1e-15)

    def test_poly_k_coefficients(self):
        g = builtin("poly_k", coeffs=[1.0, 0.0, -2.0])
        assert g.eval(2.0, 0.0) == 1.0 - 8.0
        assert g.dx(1, 2.0, 0.0) == -8.0
        assert g.poly_coeffs == (1.0, 0.0, -2.0)

    def test_poly_k_needs_coeffs(self):
        with pytest.raises(DomainError):
            builtin("poly_k")

    @pytest.mark.parametrize(
        "coeffs", ["12", [], [float("nan")], [float("inf")], [True, 1.0]],
        ids=["str", "empty", "nan", "inf", "bool"],
    )
    def test_poly_k_rejects_bad_coeffs(self, coeffs):
        with pytest.raises(DomainError):
            builtin("poly_k", coeffs=coeffs)

    def test_dx_order_limits(self):
        g = builtin("square")
        assert g.dx(9, 1.0, 0.0) == 0.0
        with pytest.raises(DomainError):
            g.dx(10, 1.0, 0.0)
        with pytest.raises(DomainError):
            g.dtdx(5, 1.0, 0.0)
        with pytest.raises(DomainError):
            g.dx(-1, 1.0, 0.0)

    def test_dx_zero_is_eval(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-3, 3, size=16)
        for name in ALL_IDS:
            g = builtin(name)
            np.testing.assert_array_equal(g.dx(0, xs, 0.4), g.eval(xs, 0.4))


def derivative_consistency_report(tf, orders, probes=20, t_value=0.7, seed=20260822):
    """Check dx(j+1) against centered finite differences of dx(j).

    For each order j the max-over-probes FD error is fit against the step
    in log-log; returns {j: ("exact", None)} when the error sits at float
    noise (higher derivative constant or zero) and {j: ("slope", value)}
    otherwise.  A correct derivative table gives slope 2.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=probes)
    steps = np.array([0.2, 0.1, 0.05, 0.025])
    report = {}
    for j in orders:
        errs = []
        scale = max(1.0, float(np.max(np.abs(tf.dx(j + 1, x, t_value)))))
        for h in steps:
            fd = (tf.dx(j, x + h, t_value) - tf.dx(j, x - h, t_value)) / (2.0 * h)
            errs.append(float(np.max(np.abs(fd - tf.dx(j + 1, x, t_value)))))
        if errs[0] < 1e-10 * scale:
            report[j] = ("exact", None)
            continue
        slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
        report[j] = ("slope", slope)
    return report


class TestDerivativeConsistency:
    @pytest.mark.parametrize("name", ALL_IDS)
    def test_fd_certification(self, name):
        """Centered differences of dx(j) reproduce dx(j+1) at slope 2."""
        g = builtin(name)
        report = derivative_consistency_report(g, orders=range(9))
        for j, (kind, slope) in report.items():
            if kind == "exact":
                continue
            assert abs(slope - 2.0) <= 0.1, (name, j, slope)

    def test_gauss_bump_numerical_support(self):
        g = builtin("gauss_bump")
        for x in (40.5, -41.0, 60.0):
            assert abs(g.eval(x, 0.0)) < 1e-300
            assert abs(g.dx(3, x, 0.0)) < 1e-300


class TestSpecRecords:
    def test_round_trip(self):
        for name in ("square", "sine"):
            g = builtin(name)
            assert from_spec(g.spec()).fid == g.fid

    def test_poly_round_trip_keeps_coeffs(self):
        g = builtin("poly_k", coeffs=[0.5, 1.5])
        back = from_spec(g.spec())
        assert back.poly_coeffs == (0.5, 1.5)
        assert back.eval(2.0, 0.0) == g.eval(2.0, 0.0)

    def test_unknown_record_rejected(self):
        with pytest.raises(DomainError):
            from_spec({"id": "nope"})


class TestCustomFunction:
    def test_time_only_function(self):
        """The dataclass is open: g(x,t) = t is expressible by hand."""

        def dx(j, x, t):
            return t * np.ones_like(np.asarray(x, dtype=float)) if j == 0 else np.zeros_like(
                np.asarray(x, dtype=float)
            )

        def dtdx(j, x, t):
            return np.ones_like(np.asarray(x, dtype=float)) if j == 0 else np.zeros_like(
                np.asarray(x, dtype=float)
            )

        g = TestFunction("time_only", dx, dtdx)
        assert float(g.eval(5.0, 0.25)) == 0.25
        assert float(g.dtdx(0, 5.0, 0.9)) == 1.0
        assert float(g.dx(2, 5.0, 0.9)) == 0.0
