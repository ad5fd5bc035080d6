"""Registry of test integrands g(x, t) with exact derivative oracles.

Each builtin carries hand-coded closed-form spatial derivatives dx(j)
for 0 <= j <= 9 and mixed derivatives dtdx(j) = d/dt d^j/dx^j for
0 <= j <= 4.  The closed forms are deliberately independent of any
numeric differentiation so they can serve as oracles for it.

All builtins are smooth, so every one certifies the largest class the
interface exposes; the `smoothness` tag (k, r) means the function
guarantees spatial derivatives through order k with continuous mixed
derivatives through order r.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analytic import hermite_eval
from .errors import DomainError

MAX_DX_ORDER = 9
MAX_DTDX_ORDER = 4


@dataclass(frozen=True)
class TestFunction:
    """Integrand with exact derivatives; immutable and freely shared.

    poly_coeffs holds the x-polynomial coefficients when the function is
    a time-independent polynomial; analytic reference moments in the
    verification experiments exist only for those.
    """

    __test__ = False  # not a pytest class, despite the name

    fid: str
    smoothness: tuple[int, int]
    _dx: Callable
    _dtdx: Callable
    poly_coeffs: tuple[float, ...] | None = None
    params: dict = field(default_factory=dict)

    def eval(self, x, t):
        return self._dx(0, x, t)

    def dx(self, j, x, t):
        """j-th spatial derivative at (x, t); j in [0, 9]."""
        if not 0 <= j <= MAX_DX_ORDER:
            raise DomainError(f"dx order must be in [0, {MAX_DX_ORDER}]")
        return self._dx(j, x, t)

    def dtdx(self, j, x, t):
        """Mixed derivative d/dt d^j/dx^j at (x, t); j in [0, 4]."""
        if not 0 <= j <= MAX_DTDX_ORDER:
            raise DomainError(f"dtdx order must be in [0, {MAX_DTDX_ORDER}]")
        return self._dtdx(j, x, t)

    def certifies(self, k, r):
        return self.smoothness[0] >= k and self.smoothness[1] >= r

    def spec(self):
        """Serializable reference: id plus construction parameters."""
        rec = {"id": self.fid}
        rec.update(self.params)
        return rec


def _zeros_like(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    return out if out.ndim else float(out)


def _poly_derivative(coeffs, j):
    """Coefficients of the j-th derivative of a degree-indexed coefficient list."""
    out = list(coeffs)
    for _ in range(j):
        out = [k * c for k, c in enumerate(out)][1:]
        if not out:
            return [0.0]
    return out


def _poly_eval(coeffs, x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out if out.ndim else float(out)


def _make_polynomial(fid, coeffs, params):
    coeffs = tuple(float(c) for c in coeffs)
    if len(coeffs) > MAX_DX_ORDER + 1:
        raise DomainError(f"poly_k supports degree <= {MAX_DX_ORDER}")
    derivs = [_poly_derivative(coeffs, j) for j in range(MAX_DX_ORDER + 1)]

    def dx(j, x, t):
        return _poly_eval(derivs[j], x)

    def dtdx(j, x, t):
        return _zeros_like(x)

    return TestFunction(fid, (9, 4), dx, dtdx, poly_coeffs=coeffs, params=params)


def _make_sine():
    def dx(j, x, t):
        x = np.asarray(x, dtype=np.float64)
        cycle = j % 4
        if cycle == 0:
            out = np.sin(x)
        elif cycle == 1:
            out = np.cos(x)
        elif cycle == 2:
            out = -np.sin(x)
        else:
            out = -np.cos(x)
        return out if out.ndim else float(out)

    def dtdx(j, x, t):
        return _zeros_like(x)

    return TestFunction("sine", (9, 4), dx, dtdx)


def _make_gauss_bump():
    # d^j/dx^j exp(-x^2/2) = (-1)^j h_j(x) exp(-x^2/2) with h_j the
    # probabilists' Hermite polynomial; underflows to 0 beyond |x| ~ 38.
    def dx(j, x, t):
        x = np.asarray(x, dtype=np.float64)
        out = (-1.0) ** j * hermite_eval(j, x) * np.exp(-0.5 * x * x)
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def dtdx(j, x, t):
        return _zeros_like(x)

    return TestFunction("gauss_bump", (9, 4), dx, dtdx)


def _make_poly_xt():
    # g(x, t) = x^3 (1 + t); spatial derivatives scale by (1 + t), the
    # mixed derivative drops the (1 + t) factor.
    cubic = (0.0, 0.0, 0.0, 1.0)
    derivs = [_poly_derivative(cubic, j) for j in range(MAX_DX_ORDER + 1)]

    def dx(j, x, t):
        t = np.asarray(t, dtype=np.float64)
        out = _poly_eval(derivs[j], x) * (1.0 + t)
        out = np.asarray(out)
        return out if out.ndim else float(out)

    def dtdx(j, x, t):
        out = np.asarray(_poly_eval(derivs[j], x)) + np.zeros_like(
            np.asarray(t, dtype=np.float64)
        )
        return out if out.ndim else float(out)

    return TestFunction("poly_xt", (9, 4), dx, dtdx)


_BUILTIN_IDS = ("const", "linear", "square", "cube", "poly_k", "sine", "gauss_bump", "poly_xt")


def builtin(name, **params):
    """Construct a builtin test function by id.

    poly_k takes coeffs=[c_0, ..., c_k] with k <= 9; all other builtins
    take no parameters.
    """
    if name == "poly_k":
        coeffs = params.pop("coeffs", None)
        if params or coeffs is None:
            raise DomainError("poly_k takes exactly one parameter: coeffs=[c_0, ...]")
        # Finite real numbers only: a string or a bool is not a coefficient,
        # and abs() of nan, inf or an int beyond float range fails the bound.
        if not (
            isinstance(coeffs, (list, tuple))
            and coeffs
            and all(
                isinstance(c, numbers.Real)
                and not isinstance(c, bool)
                and abs(c) <= sys.float_info.max
                for c in coeffs
            )
        ):
            raise DomainError(
                f"poly_k coeffs must be a nonempty list of finite real numbers, got {coeffs!r}"
            )
        return _make_polynomial("poly_k", coeffs, {"coeffs": [float(c) for c in coeffs]})
    if params:
        raise DomainError(f"builtin {name!r} takes no parameters")
    if name == "const":
        return _make_polynomial("const", (1.0,), {})
    if name == "linear":
        return _make_polynomial("linear", (0.0, 1.0), {})
    if name == "square":
        return _make_polynomial("square", (0.0, 0.0, 1.0), {})
    if name == "cube":
        return _make_polynomial("cube", (0.0, 0.0, 0.0, 1.0), {})
    if name == "sine":
        return _make_sine()
    if name == "gauss_bump":
        return _make_gauss_bump()
    if name == "poly_xt":
        return _make_poly_xt()
    raise DomainError(f"unknown test function {name!r}; available: {', '.join(_BUILTIN_IDS)}")


def from_spec(rec):
    """Rebuild a TestFunction from its serializable spec record."""
    if not isinstance(rec, dict) or "id" not in rec:
        raise DomainError("test function record must be a dict with an 'id'")
    params = {k: v for k, v in rec.items() if k != "id"}
    return builtin(rec["id"], **params)


def derivative_consistency_report(tf, orders=None, probes=20, t_value=0.7, seed=20260822):
    """Check dx(j+1) against centered finite differences of dx(j).

    For each order j the max-over-probes FD error is fit against the step
    in log-log; returns {j: ("exact", None)} when the error sits at float
    noise (higher derivative constant or zero) and {j: ("slope", value)}
    otherwise.  A correct derivative table gives slope 2.
    """
    if orders is None:
        orders = range(MAX_DX_ORDER)
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
