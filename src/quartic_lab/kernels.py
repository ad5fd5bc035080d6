"""Covariance kernels for the Gaussian processes under study.

The central object is the centered Gaussian process obtained by freezing
the space variable of a stochastic heat equation driven by space-time
white noise and watching it in time.  Its covariance is

    heat:        rho(s, t) = ((t + s)^(1/2) - |t - s|^(1/2)) / sqrt(2*pi)

Two companions appear throughout:

    xi:          rho(s, t) = (s^(1/2) + t^(1/2) - (s + t)^(1/2)) / 2
    fbm_quarter: rho(s, t) = (s^(1/2) + t^(1/2) - |t - s|^(1/2)) / 2

`xi` is the smooth-away-from-zero remainder process with spectral
representation (16*pi)^(-1/4) * integral of (1 - exp(-u*t)) u^(-3/4) dW(u);
the tests check its closed form against direct quadrature of that
integral.  `fbm_quarter` is fractional Brownian motion with
Hurst index 1/4, and the three kernels tie together exactly:

    fbm_quarter = c^2 * heat + xi,   c = (pi/2)^(1/4).

All kernels are positive semidefinite on nonnegative times and vanish
when either argument is 0, so covariance matrices are built on the grid
times t_1 .. t_N, never t_0 = 0.

`finite_number` is the package's one rule for an outside real number,
and `step_count` its one rule for the step count n per unit time.

`KERNEL_RHO` is the one covariance table: it maps each kind, Brownian
motion's `bm` included, to its rho.  `KERNEL_KINDS` is its kinds and
"composite", and `CovKernel.rho` looks a kind up in it, so a new kind
is one entry there and one in `KERNEL_HEAT_SCALE`, the scale of the heat
slice in its law, which `CovKernel.heat_scale` reads.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# Scale tying fbm_quarter to the heat kernel: c = (pi/2)^(1/4).
FBM_HEAT_SCALE = (math.pi / 2.0) ** 0.25

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def finite_number(value):
    """Whether an outside value is a finite real number.

    The package's one number rule, applied to config numbers (`cli`), a
    composite's scale and mean coefficients (`CovKernel` and its
    `from_dict`) and poly_k coefficients: a real number that is not a
    bool, with abs() at most the largest float, which nan, +-inf and ints
    beyond float range all fail.  So a string or True is never a number,
    and float(value) of a passing value is finite.
    """
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return bool(number and abs(value) <= sys.float_info.max)


def step_count(n):
    """Raise DomainError unless n is a usable step count per unit time.

    The package's one n rule, applied by `Grid` and by `analytic`'s
    covariance tables: an integer (numpy's included, a bool not), at
    least 1 and within float range.  So nan, 64.5 and 10**400 all fail.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"n (steps per unit time) must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"n (steps per unit time) must be >= 1, got {n!r}")
    if n > sys.float_info.max:
        raise DomainError("n (steps per unit time) is beyond float range")


def _check_nonnegative(s, t):
    if np.any(np.asarray(s) < 0) or np.any(np.asarray(t) < 0):
        raise DomainError("covariance kernels are defined for s, t >= 0")


def _covariance(formula):
    """A kernel's rho from its formula on float64 arrays s, t.

    The rho checks s, t >= 0, converts both to float64 and returns a
    float for scalar input, elementwise arrays otherwise.
    """

    @functools.wraps(formula)
    def rho(s, t):
        _check_nonnegative(s, t)
        out = formula(np.asarray(s, dtype=np.float64), np.asarray(t, dtype=np.float64))
        return out if out.ndim else float(out)

    return rho


@_covariance
def rho_heat(s, t):
    """Heat-kernel time-slice covariance; scalar or elementwise on arrays."""
    return (np.sqrt(s + t) - np.sqrt(np.abs(t - s))) / _SQRT_2PI


@_covariance
def rho_xi_lei_nualart(s, t):
    """Covariance of the smooth remainder process, closed form."""
    return 0.5 * (np.sqrt(s) + np.sqrt(t) - np.sqrt(s + t))


@_covariance
def rho_fbm_quarter(s, t):
    """Fractional Brownian motion covariance at Hurst index 1/4."""
    return 0.5 * (np.sqrt(s) + np.sqrt(t) - np.sqrt(np.abs(t - s)))


@_covariance
def rho_bm(s, t):
    """Standard Brownian motion covariance min(s, t)."""
    return np.minimum(s, t)


# The one covariance table: every kind but "composite" and its rho.
KERNEL_RHO = {"heat": rho_heat, "xi": rho_xi_lei_nualart,
              "fbm_quarter": rho_fbm_quarter, "bm": rho_bm}
KERNEL_KINDS = (*KERNEL_RHO, "composite")

# The scale s of the heat slice F in each kind's law, X = s F + an
# independent rest that adds no quartic variation: fbm_quarter =
# c^2 heat + xi; xi is smooth away from 0 and bm has none.  It is the c of
# the correction kappa c^2 / 2 (`CovKernel.heat_scale`).
KERNEL_HEAT_SCALE = {"heat": 1.0, "xi": 0.0, "fbm_quarter": FBM_HEAT_SCALE, "bm": 0.0}


@dataclass(frozen=True)
class Grid:
    """Uniform time grid with n steps per unit time on [0, horizon].

    Grid times are t_j = j/n for 0 <= j <= floor(n*horizon).  n follows
    `step_count`, and at least two steps are required.
    """

    n: int
    horizon: float = 1.0

    def __post_init__(self):
        step_count(self.n)
        if not (self.horizon > 0 and math.isfinite(self.n * self.horizon)):
            raise DomainError("grid horizon must be positive, with n * horizon finite")
        if self.nsteps < 2:
            raise DomainError("grid must contain at least 2 steps")

    @property
    def nsteps(self):
        """Number of steps N = floor(n * horizon)."""
        return int(math.floor(self.n * self.horizon + 1e-9))

    @property
    def dt(self):
        return 1.0 / self.n

    def times(self):
        """All grid times t_0 .. t_N as an array.

        Raises DomainError, before allocating, when the array exceeds
        physical memory.
        """
        _require_memory(8 * (self.nsteps + 1), f"grid times at N={self.nsteps}")
        return np.arange(self.nsteps + 1, dtype=np.float64) / self.n

    def index_at(self, t):
        """Largest j with t_j <= t, clipped to N; t must be finite and >= 0.

        The 1e-9 slack heals float representation of t = j/n; callers
        probe at (multiples of) grid times.
        """
        if not 0 <= t < math.inf:
            raise DomainError(f"time must be finite and nonnegative, got {t}")
        return min(int(math.floor(self.n * t + 1e-9)), self.nsteps)


@dataclass(frozen=True)
class CovKernel:
    """Tagged covariance kernel.

    kind: one of "heat", "xi", "fbm_quarter", "bm", "composite".
    c: finite scale applied (squared) to the first component of a composite.
    components: sub-kernels of a composite; rho = c^2*rho_0 (+ rho_1).
    mean_coeffs: optional polynomial-in-t deterministic mean with finite
        coefficients, added to sampled paths after the Gaussian draw;
        empty means centered.
    """

    kind: str
    c: float | None = None
    components: tuple["CovKernel", ...] = ()
    mean_coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise DomainError(
                f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}"
            )
        if self.kind == "composite":
            if self.c is None:
                raise DomainError("composite kernel requires a scale c")
            if not 1 <= len(self.components) <= 2:
                raise DomainError("composite kernel takes one or two components")
            for comp in self.components:
                if comp.kind == "composite":
                    raise DomainError("composite kernels do not nest")
            if not all(map(finite_number, (self.c, *self.mean_coeffs))):
                raise DomainError("composite scale c and mean coefficients must be finite numbers")
        else:
            if self.c is not None:
                raise DomainError(f"kernel {self.kind!r} takes no scale c")
            if self.components:
                raise DomainError(f"kernel {self.kind!r} takes no components")
        if self.mean_coeffs and self.kind != "composite":
            raise DomainError("deterministic means attach to composite kernels")

    def rho(self, s, t):
        """Covariance rho(s, t); elementwise on array input."""
        if self.kind in KERNEL_RHO:
            return KERNEL_RHO[self.kind](s, t)
        value = self.c**2 * self.components[0].rho(s, t)
        if len(self.components) == 2:
            value = value + self.components[1].rho(s, t)
        return value

    def heat_scale(self):
        """The scale of the heat slice in this kernel's law (`KERNEL_HEAT_SCALE`).

        A composite c X_0 + X_1 with component scales s_0, s_1 holds
        independent heat slices of variance (c s_0)^2 and s_1^2, so its
        scale is hypot(c s_0, s_1); never negative.
        """
        if self.kind in KERNEL_HEAT_SCALE:
            return KERNEL_HEAT_SCALE[self.kind]
        first, *rest = (comp.heat_scale() for comp in self.components)
        return math.hypot(self.c * first, *rest)

    def mean_at(self, t):
        """Deterministic mean path evaluated at t (scalar or array)."""
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for k, coeff in enumerate(self.mean_coeffs):
            out = out + coeff * t**k
        return out if out.ndim else float(out)

    def canonical_id(self):
        """Stable text id used in cache keys and file headers."""
        if self.kind != "composite":
            return self.kind
        inner = "+".join(comp.canonical_id() for comp in self.components)
        tag = f"composite(c={self.c!r};{inner})"
        if self.mean_coeffs:
            tag += f"|mean={list(self.mean_coeffs)!r}"
        return tag

    def to_dict(self):
        rec = {"kind": self.kind}
        if self.kind == "composite":
            rec["c"] = self.c
            rec["components"] = [comp.to_dict() for comp in self.components]
            if self.mean_coeffs:
                rec["mean_coeffs"] = list(self.mean_coeffs)
        return rec

    @staticmethod
    def from_dict(rec):
        """Kernel of a record; its c and mean_coeffs must pass `finite_number`."""
        if not isinstance(rec, dict) or "kind" not in rec:
            raise DomainError("kernel record must be a dict with a 'kind' tag")
        known = {"kind", "c", "components", "mean_coeffs"}
        extra = set(rec) - known
        if extra:
            raise DomainError(f"unknown kernel record keys: {sorted(extra)}")
        kind = rec["kind"]
        if kind != "composite":
            if set(rec) - {"kind"}:
                raise DomainError(f"kernel {kind!r} takes only a 'kind' tag")
            return CovKernel(kind)
        comps, c, mean = rec.get("components", []), rec.get("c", 1.0), rec.get("mean_coeffs", ())
        if not isinstance(comps, (list, tuple)):
            raise DomainError(f"composite components must be a list of records, got {comps!r}")
        comps = tuple(map(CovKernel.from_dict, comps))
        if not isinstance(mean, (list, tuple)) or not all(map(finite_number, (c, *mean))):
            raise DomainError(f"composite c and mean_coeffs must be numbers, got {c!r}, {mean!r}")
        mean = tuple(map(float, mean))
        return CovKernel("composite", c=float(c), components=comps, mean_coeffs=mean)


def heat_kernel():
    return CovKernel("heat")


def fbm_quarter_kernel():
    return CovKernel("fbm_quarter")


def fbm_composite_kernel():
    """fbm_quarter expressed as c^2 * heat + xi with c = (pi/2)^(1/4)."""
    return CovKernel(
        "composite",
        c=FBM_HEAT_SCALE,
        components=(CovKernel("heat"), CovKernel("xi")),
    )


# Rows per block of the covariance build, which bound its temporaries.
_BUILD_BLOCK_ROWS = 256


def _physical_memory_bytes():
    """Physical memory of the machine, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _require_memory(need, what, hint=""):
    """Raise DomainError when `what` needs more bytes than physical memory.

    Callers check before they allocate, so an oversized problem fails with
    the package's error instead of numpy's allocation failure.
    """
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise DomainError(
            f"{what} needs {need} bytes, more than the {have} bytes of physical memory{hint}"
        )


def build_cov_matrix(kernel, grid):
    """Dense covariance matrix on grid times t_1 .. t_N: the tests' oracle.

    t_0 = 0 is excluded: every kernel here vanishes at 0, so including it
    would make the matrix exactly singular.  Paths reattach the zero at
    sampling time.  Entry (i, j) (0-based) is `kernel.rho` at t_{i+1}
    and t_{j+1}, bit for bit, evaluated _BUILD_BLOCK_ROWS rows at a
    time; no sampler builds this matrix.  Raises DomainError, before
    allocating, when its 8 N^2 bytes exceed the machine's physical
    memory.
    """
    size = grid.nsteps
    _require_memory(
        8 * size * size,
        f"dense covariance of kernel {kernel.canonical_id()!r} at N={size}",
        "; the samplers (circulant, low rank and cumulative sum) need no dense matrix",
    )
    times = grid.times()[1:]
    buf = np.empty((size, size), dtype=np.float64)
    for start in range(0, size, _BUILD_BLOCK_ROWS):
        rows = slice(start, start + _BUILD_BLOCK_ROWS)
        buf[rows] = kernel.rho(times[rows, None], times)
    return buf
