"""Registry of test integrands g(x, t) with exact derivative oracles.

Each builtin carries hand-coded closed-form spatial derivatives dx(j)
for 0 <= j <= 9 and, when it depends on t, its time derivative dt.
The change-of-variable formula reads g only as dx(0), dx(1) (the
midpoint sums), dx(2) (the Ito correction) and dt (the time integral);
`sums --deriv` exposes every dx order.  The closed forms are
deliberately independent of any numeric differentiation so they can
serve as oracles for it.

Every builtin is smooth and has closed forms of every order the
interface exposes, so a function carries no smoothness tag: the tests
check the oracles themselves against finite differences.

`_BUILTINS` maps each parameterless id to its constructor, so a new
builtin is one entry there; only poly_k, which takes coefficients, has
its own branch in `builtin`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analytic import hermite_coefficients
from .errors import DomainError
from .kernels import finite_number

MAX_DX_ORDER = 9


@dataclass(frozen=True)
class TestFunction:
    """Integrand with exact derivatives; immutable and freely shared.

    dx(j, x, t) takes x and t that broadcast together and returns an
    ndarray, 0-d for scalars.  dt(x, t) is the time derivative of g on
    the same arguments, or None when g does not depend on t.

    poly_coeffs holds the x-polynomial coefficients when the function is
    a time-independent polynomial; analytic reference moments in the
    verification experiments exist only for those.
    """

    __test__ = False  # not a pytest class, despite the name

    fid: str
    _dx: Callable
    dt: Callable | None = None
    poly_coeffs: tuple[float, ...] | None = None
    params: dict = field(default_factory=dict)

    def dx(self, j, x, t):
        """j-th spatial derivative at (x, t); j in [0, 9]."""
        if not 0 <= j <= MAX_DX_ORDER:
            raise DomainError(f"dx order must be in [0, {MAX_DX_ORDER}]")
        return np.asarray(self._dx(j, x, t))

    def spec(self):
        """Serializable reference: id plus construction parameters."""
        rec = {"id": self.fid}
        rec.update(self.params)
        return rec


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
        out *= x
        out += c
    return out


def _make_polynomial(fid, coeffs, params):
    coeffs = tuple(float(c) for c in coeffs)
    if len(coeffs) > MAX_DX_ORDER + 1:
        raise DomainError(f"poly_k supports degree <= {MAX_DX_ORDER}")
    derivs = [_poly_derivative(coeffs, j) for j in range(MAX_DX_ORDER + 1)]

    def dx(j, x, t):
        return _poly_eval(derivs[j], x)

    return TestFunction(fid, dx, poly_coeffs=coeffs, params=params)


# d^j/dx^j sin x, by j % 4.
_SINE_CYCLE = (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))


def _make_sine():
    def dx(j, x, t):
        return _SINE_CYCLE[j % 4](np.asarray(x, dtype=np.float64))

    return TestFunction("sine", dx)


def _make_gauss_bump():
    # d^j/dx^j exp(-x^2/2) = (-1)^j h_j(x) exp(-x^2/2) with h_j the
    # probabilists' Hermite polynomial, its integer coefficients from
    # `hermite_coefficients`; underflows to 0 beyond |x| ~ 38.
    def dx(j, x, t):
        x = np.asarray(x, dtype=np.float64)
        h = _poly_eval(hermite_coefficients(j), x)
        return (-1.0) ** j * h * np.exp(-0.5 * x * x)

    return TestFunction("gauss_bump", dx)


def _make_poly_xt():
    # g(x, t) = x^3 (1 + t); spatial derivatives scale by (1 + t), and
    # the time derivative is x^3, broadcast over t.
    cube = builtin("cube")

    def dx(j, x, t):
        return cube.dx(j, x, t) * (1.0 + np.asarray(t, dtype=np.float64))

    def dt(x, t):
        return cube.dx(0, x, t) + np.zeros_like(t, dtype=np.float64)

    return TestFunction("poly_xt", dx, dt)


# Constructor of each builtin that takes no parameters.
_BUILTINS = {
    "const": lambda: _make_polynomial("const", (1.0,), {}),
    "linear": lambda: _make_polynomial("linear", (0.0, 1.0), {}),
    "square": lambda: _make_polynomial("square", (0.0, 0.0, 1.0), {}),
    "cube": lambda: _make_polynomial("cube", (0.0, 0.0, 0.0, 1.0), {}),
    "sine": _make_sine,
    "gauss_bump": _make_gauss_bump,
    "poly_xt": _make_poly_xt,
}


def builtin(name, **params):
    """Construct a builtin test function by id.

    poly_k takes coeffs=[c_0, ..., c_k] with k <= 9; all other builtins
    take no parameters.
    """
    if name == "poly_k":
        coeffs = params.pop("coeffs", None)
        if params or coeffs is None:
            raise DomainError("poly_k needs coefficients and no other parameter: coeffs=[c_0, ...]")
        # Coefficients follow the package's one number rule, `finite_number`.
        if not (isinstance(coeffs, (list, tuple)) and coeffs and all(map(finite_number, coeffs))):
            raise DomainError(
                f"poly_k coeffs must be a nonempty list of finite real numbers, got {coeffs!r}"
            )
        return _make_polynomial("poly_k", coeffs, {"coeffs": [float(c) for c in coeffs]})
    if params:
        raise DomainError(f"builtin {name!r} takes no parameters")
    if name not in _BUILTINS:
        available = ", ".join([*_BUILTINS, "poly_k"])
        raise DomainError(f"unknown test function {name!r}; available: {available}")
    return _BUILTINS[name]()


def from_spec(rec):
    """Rebuild a TestFunction from its serializable spec record."""
    if not isinstance(rec, dict) or "id" not in rec:
        raise DomainError("test function record must be a dict with an 'id'")
    params = {k: v for k, v in rec.items() if k != "id"}
    return builtin(rec["id"], **params)
