"""Exact constants, Hermite machinery, and discrete covariance tables.

Everything here is deterministic: series constants with certified
truncation bounds, integer Hermite coefficient algebra, an exact
moment evaluator for jointly Gaussian polynomials (the pairing/Wick
recursion), the Gaussian Taylor expansion built on top of it, and the
discrete covariances of the heat-slice process together with an audit
of the inequalities they must satisfy.

`GaussianMoments` is the package's one exact-moment evaluator: every
closed-form Gaussian moment, E[Z^k] of one standard normal included,
is its `monomial` or `expectation` of a polynomial built with the
sparse-polynomial algebra here.  It keeps whatever arithmetic it is
given: Fractions in, Fractions out, so identity tests can be run with
zero rounding.  The step count n of the covariance tables follows
`kernels.step_count`, the rule `Grid` applies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .kernels import _require_memory, rho_heat, step_count

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# Guards for the exact Gaussian moment machinery; factorial growth in both.
MAX_GAUSS_DIM = 6
MAX_GAUSS_DEGREE = 16

# Smallest tolerance `kappa` certifies; below it float64 rounding, not
# the truncation the bound covers, dominates the error.
KAPPA_MIN_TOL = 1e-15


# ---------------------------------------------------------------------------
# Square-root increment coefficients and the alternating-sum scale constant.
# ---------------------------------------------------------------------------

def gamma(j):
    """Second difference of sqrt at integer j: 2*sqrt(j) - sqrt(j-1) - sqrt(j+1).

    Evaluated as a difference of reciprocals, which is stable for large j
    where the direct form loses most of its digits.  Accepts an integer or
    an integer array, j >= 1.
    """
    arr = np.asarray(j)
    if np.any(arr < 1):
        raise DomainError("gamma(j) is defined for integers j >= 1")
    x = arr.astype(np.float64)
    left = 1.0 / (np.sqrt(x) + np.sqrt(x - 1.0))
    right = 1.0 / (np.sqrt(x + 1.0) + np.sqrt(x))
    out = left - right
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KappaResult:
    """Certified evaluation of the alternating-sum scale constant.

    value:  sqrt(4/pi + (2/pi) * sum_j gamma(j)^2 (-1)^j), truncated at `terms`.
    bound:  certified absolute error of `value`.
    terms:  truncation index J.
    bracket: the truncated inner sum 4/pi + (2/pi)*sum, before the sqrt.
    """

    value: float
    bound: float
    terms: int
    bracket: float


def kappa(tol=1e-6):
    """Scale constant for the alternating quadratic variation, to within tol.

    The tail of the alternating series is dominated by
    (2/pi) * sum_{j>J} gamma(j)^2 <= (1/(2*pi)) * J^{-2}, since
    gamma(j) <= 2^{-1/2} j^{-3/2}; J is chosen to push that below tol.
    Raises DomainError, before allocating, when the J-term arrays (six
    live at the peak) exceed physical memory.

    tol must be at least KAPPA_MIN_TOL.  The bound covers truncation
    only, while the float64 value carries up to half an ulp (1.1e-16)
    of rounding plus that of the J-term sum: at tol 1e-16 the returned
    bound is 4.9e-17 but the value is 7.4e-17 off kappa, against a
    40-digit reference.  At 1e-15 the bound, 4.9e-16, holds.
    """
    if not (KAPPA_MIN_TOL <= tol <= 0.5):
        raise DomainError(
            f"tol must lie in [{KAPPA_MIN_TOL:g}, 0.5]; float64 cannot certify a tighter bound"
        )
    jmax = max(4, math.ceil(1.0 / math.sqrt(2.0 * math.pi * tol)))
    _require_memory(6 * 8 * jmax, f"kappa series of {jmax} terms at tol={tol:g}")
    js = np.arange(1, jmax + 1)
    signs = np.where(js % 2 == 0, 1.0, -1.0)
    inner = float(np.sum(signs * gamma(js) ** 2))
    bracket = 4.0 / math.pi + (2.0 / math.pi) * inner
    tail = 1.0 / (2.0 * math.pi * jmax**2)
    value = math.sqrt(bracket)
    bound = tail / (2.0 * math.sqrt(bracket - tail))
    return KappaResult(value=value, bound=bound, terms=jmax, bracket=bracket)


@lru_cache(maxsize=1)
def kappa_reference():
    """High-accuracy kappa value shared by the sum functionals."""
    return kappa(1e-12).value


# ---------------------------------------------------------------------------
# Hermite polynomials (probabilists' convention, unit variance weight).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def hermite_coefficients(n):
    """Integer coefficients of h_n, degree-indexed; h_{n+1} = x*h_n - n*h_{n-1}."""
    if n < 0:
        raise DomainError("hermite_coefficients needs n >= 0")
    if n == 0:
        return (1,)
    if n == 1:
        return (0, 1)
    prev2 = hermite_coefficients(n - 2)
    prev1 = hermite_coefficients(n - 1)
    coeffs = [0] * (n + 1)
    for k, c in enumerate(prev1):
        coeffs[k + 1] += c
    for k, c in enumerate(prev2):
        coeffs[k] -= (n - 1) * c
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials: {exponent tuple: coefficient}.
# ---------------------------------------------------------------------------

def poly_from_coeffs(coeffs):
    """Univariate polynomial from a degree-indexed coefficient sequence."""
    return {(k,): c for k, c in enumerate(coeffs) if c != 0}


def hermite_poly(n):
    """h_n as a univariate sparse polynomial with integer coefficients."""
    return poly_from_coeffs(hermite_coefficients(n))


def poly_degree(poly):
    return max((sum(a) for a in poly), default=0)


def poly_nvars(poly):
    return len(next(iter(poly))) if poly else 0


def poly_add(p, q):
    out = dict(p)
    for a, c in q.items():
        new = out.get(a, 0) + c
        if new == 0:
            out.pop(a, None)
        else:
            out[a] = new
    return out


def poly_scale(p, s):
    return {a: s * c for a, c in p.items() if s * c != 0}


def poly_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            new = out.get(key, 0) + ca * cb
            if new == 0:
                out.pop(key, None)
            else:
                out[key] = new
    return out


def poly_diff(poly, var):
    """Partial derivative with respect to variable index `var`."""
    out = {}
    for a, c in poly.items():
        if a[var] == 0:
            continue
        key = a[:var] + (a[var] - 1,) + a[var + 1 :]
        out[key] = out.get(key, 0) + c * a[var]
    return out


def poly_diff_multi(poly, alpha):
    out = poly
    for var, k in enumerate(alpha):
        for _ in range(k):
            out = poly_diff(out, var)
            if not out:
                return out
    return out


def poly_product_disjoint(f, h):
    """f(x_1..x_d) * h(y) as a polynomial in (x_1..x_d, y); {} when either is zero."""
    out = {}
    for a, ca in f.items():
        for b, cb in h.items():
            key = a + b
            out[key] = out.get(key, 0) + ca * cb
    return out


# ---------------------------------------------------------------------------
# Exact moments of jointly Gaussian monomials (pairing recursion).
# ---------------------------------------------------------------------------

class GaussianMoments:
    """Moment evaluator for a centered Gaussian vector with given covariance.

    Uses E[x_i * x^beta] = sum_j beta_j * cov[i][j] * E[x^(beta - e_j)],
    memoized on the exponent tuple.  Arithmetic follows the covariance
    entries: Fraction covariances give exact Fraction moments.
    """

    def __init__(self, cov):
        rows = [tuple(row) for row in cov]
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise DomainError("covariance must be square")
        for i in range(d):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise DomainError("covariance must be symmetric")
        if d > MAX_GAUSS_DIM + 1:
            raise DomainError(f"moment evaluator capped at {MAX_GAUSS_DIM + 1} variables")
        self.cov = rows
        self.dim = d
        self._memo = {}

    def monomial(self, alpha):
        """E[prod x_i^alpha_i]."""
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.dim:
            raise DomainError("exponent tuple length must match dimension")
        if any(a < 0 for a in alpha):
            raise DomainError("exponents must be nonnegative")
        if sum(alpha) > MAX_GAUSS_DEGREE:
            raise DomainError(f"total degree capped at {MAX_GAUSS_DEGREE}")
        return self._monomial(alpha)

    def _monomial(self, alpha):
        total = sum(alpha)
        if total == 0:
            return 1
        if total % 2 == 1:
            return 0
        cached = self._memo.get(alpha)
        if cached is not None:
            return cached
        i = next(k for k, a in enumerate(alpha) if a > 0)
        beta = list(alpha)
        beta[i] -= 1
        value = 0
        for j in range(self.dim):
            if beta[j] == 0:
                continue
            reduced = list(beta)
            reduced[j] -= 1
            value = value + beta[j] * self.cov[i][j] * self._monomial(tuple(reduced))
        self._memo[alpha] = value
        return value

    def expectation(self, poly):
        """E[poly(x)] for a sparse polynomial over the same variables."""
        total = 0
        for a, c in poly.items():
            if c == 0:
                continue
            total = total + c * self.monomial(a)
        return total


def binom(a, b):
    """Binomial coefficient with the convention C(a, b) = 0 for b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def multi_binom(gamma_vec, alpha_vec):
    """Product of componentwise binomial coefficients C(gamma_i, alpha_i)."""
    if len(gamma_vec) != len(alpha_vec):
        raise DomainError("multi-index lengths must match")
    out = 1
    for g, a in zip(gamma_vec, alpha_vec):
        if g < 0:
            raise DomainError("upper multi-index entries must be nonnegative")
        out *= binom(g, a)
        if out == 0:
            return 0
    return out


# ---------------------------------------------------------------------------
# Gaussian Taylor expansion of mixed moments.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussTaylorResult:
    """Expansion, exact value, and their difference (the true remainder)."""

    expansion: object
    exact: object
    remainder: object
    order: int


def gauss_taylor(f_poly, h_poly, xi_cov, rho, order):
    """Expand E[f(xi) h(Y)] in powers of the cross-covariances rho.

    xi is a centered Gaussian vector with covariance xi_cov, Y is standard
    normal with E[xi_i Y] = rho[i].  The expansion through multi-index
    order `order` is

        sum_{|alpha| <= order} rho^alpha / alpha!
            * E[d^alpha f(xi)] * E[h_{|alpha|}(Y) h(Y)]

    and the exact value is computed by the same pairing recursion on the
    joint (d+1)-variable Gaussian, so the returned remainder is the true
    one, not an estimate.  Fraction inputs give exact arithmetic.
    """
    d = len(xi_cov)
    if d == 0 or len(rho) != d:
        raise DomainError("rho must have one entry per xi variable")
    if d > MAX_GAUSS_DIM:
        raise DomainError(f"gauss_taylor capped at {MAX_GAUSS_DIM} xi variables")
    if order < 0:
        raise DomainError("expansion order must be nonnegative")
    if f_poly and poly_nvars(f_poly) != d:
        raise DomainError("f must be a polynomial in the xi variables")
    if h_poly and poly_nvars(h_poly) != 1:
        raise DomainError("h must be univariate")
    if poly_degree(f_poly) + poly_degree(h_poly) > MAX_GAUSS_DEGREE:
        raise DomainError(f"total degree capped at {MAX_GAUSS_DEGREE}")

    xi_moments = GaussianMoments(xi_cov)
    y_moments = GaussianMoments(((1,),))

    expansion = 0
    for total in range(order + 1):
        h_factor = y_moments.expectation(poly_mul(hermite_poly(total), h_poly))
        if h_factor == 0:
            continue
        for alpha in _multi_indices(d, total):
            deriv = poly_diff_multi(f_poly, alpha)
            if not deriv:
                continue
            f_factor = xi_moments.expectation(deriv)
            if f_factor == 0:
                continue
            weight = Fraction(1)
            for r, a in zip(rho, alpha):
                weight = weight * r**a
            weight = weight * Fraction(1, math.prod(math.factorial(a) for a in alpha))
            expansion = expansion + weight * f_factor * h_factor

    joint = [list(row) + [r] for row, r in zip(xi_cov, rho)]
    joint.append(list(rho) + [1])
    joint_moments = GaussianMoments(joint)
    exact = joint_moments.expectation(poly_product_disjoint(f_poly, h_poly))

    return GaussTaylorResult(
        expansion=expansion, exact=exact, remainder=exact - expansion, order=order
    )


def _multi_indices(d, total):
    """All length-d tuples of nonnegative ints summing to `total`."""
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multi_indices(d - 1, total - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Discrete covariances of the heat-slice process on a uniform grid.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteCovTable:
    """Exact increment covariances at resolution n on [0, maxj/n].

    sigma_sq[j-1]  = E[(F(t_j) - F(t_{j-1}))^2]
    sigma_hat[j-1] = E[F(t_{j-1}) (F(t_j) - F(t_{j-1}))]
    cross[i-1, l-1] = E[dF_i dF_{i+l}] for 1 <= l <= lag (NaN beyond maxj)
    """

    n: int
    maxj: int
    lag: int
    sigma_sq: np.ndarray
    sigma_hat: np.ndarray
    cross: np.ndarray


def _lag_cross(t, ell):
    """E[dF_i dF_{i+ell}] for i = 1 .. len(t) - 1 - ell, by bilinearity."""
    i = np.arange(1, t.size - ell)
    ti, tj = t[i], t[i + ell]
    ti0, tj0 = t[i - 1], t[i + ell - 1]
    return rho_heat(ti, tj) - rho_heat(ti0, tj) - rho_heat(ti, tj0) + rho_heat(ti0, tj0)


def discrete_cov_table(n, maxj=None, lag=None):
    """Increment covariance table of the heat-slice process, by bilinearity.

    n follows `kernels.step_count`, the rule `Grid` applies.  Raises
    DomainError, before allocating, when the (maxj, lag) cross table and
    the length-(maxj+1) work arrays (14 live at the peak) exceed
    physical memory.
    """
    step_count(n)
    maxj = int(maxj) if maxj is not None else int(n)
    if maxj < 1:
        raise DomainError("maxj must be >= 1")
    lag = int(lag) if lag is not None else min(64, max(maxj - 1, 1))
    if lag < 0:
        raise DomainError("lag must be >= 0")
    _require_memory(8 * (maxj + 1) * (lag + 14), f"covariance table at maxj={maxj}, lag={lag}")
    t = np.arange(maxj + 1, dtype=np.float64) / n
    diag = rho_heat(t, t)
    off = rho_heat(t[:-1], t[1:])
    sigma_sq = diag[1:] + diag[:-1] - 2.0 * off
    sigma_hat = off - diag[:-1]

    cross = np.full((maxj, lag), np.nan)
    for ell in range(1, min(lag, maxj - 1) + 1):
        cross[: maxj - ell, ell - 1] = _lag_cross(t, ell)
    return DiscreteCovTable(n=n, maxj=maxj, lag=lag, sigma_sq=sigma_sq,
                            sigma_hat=sigma_hat, cross=cross)


def offset_increment_cov(n, c, i, j):
    """E[(F(t_{i-1}) - F(t_c)) dF_j] for 0 <= c <= i-1, computed exactly."""
    step_count(n)
    if not (0 <= c < i <= j):
        raise DomainError("need 0 <= c < i <= j")
    tc, ti1 = c / n, (i - 1) / n
    tj0, tj = (j - 1) / n, j / n
    return (rho_heat(ti1, tj) - rho_heat(ti1, tj0)) - (rho_heat(tc, tj) - rho_heat(tc, tj0))


@dataclass(frozen=True)
class CovAuditReport:
    """Outcome of the increment-covariance inequality audit at resolution n.

    Thresholded families (hard bounds with explicit constants):
      sig2: |sigma_j^2 - sqrt(2/pi) dt^(1/2)| <= j^(-3/2) dt^(1/2)
      sig3: pi^(-1/2) dt^(1/2) <= sigma_j^2 <= 2 dt^(1/2)
      cross: -2 (j-i)^(-3/2) dt^(1/2) <= E[dF_i dF_j] < 0  (all i < j)

    Reported-only families (paper constant unspecified, so the observed
    sup ratio is recorded instead of asserted):
      sighat_sup_ratio: sup_j |sigma_hat_j + (2 pi)^(-1/2) dt^(1/2)|
                        / (j^(-1/2) dt^(1/2))
      sigdel_sup_ratio: sup over sampled (c, i, j) of
                        |E[(F(t_{i-1}) - F(t_c)) dF_j]|
                        / (dt^(1/2) max(j - i, 1)^(-1/2))
    """

    n: int
    maxj: int
    sig2_violations: tuple[int, ...]
    sig2_max_ratio: float
    sig3_violations: tuple[int, ...]
    cross_sign_violations: int
    cross_lower_violations: int
    cross_worst_pair: tuple[int, int]
    sighat_sup_ratio: float
    sighat_arg: int
    sigdel_sup_ratio: float

    @property
    def ok(self):
        return (
            not self.sig2_violations
            and not self.sig3_violations
            and self.cross_sign_violations == 0
            and self.cross_lower_violations == 0
        )

    def to_dict(self):
        return asdict(self) | {"ok": self.ok}


def audit_cov_table(n, maxj=None):
    """Exhaustive inequality audit of the increment covariances.

    The cross-covariance checks cover every pair i < j <= maxj, one lag
    at a time, so memory stays O(maxj) while the pair count is maxj^2/2.
    n follows `kernels.step_count`.  Raises DomainError, before
    allocating, when its length-(maxj+1) work arrays (18 live at the
    peak) exceed physical memory.
    """
    step_count(n)
    maxj = int(maxj) if maxj is not None else int(n)
    _require_memory(8 * 18 * (maxj + 1), f"covariance audit at maxj={maxj}")
    table = discrete_cov_table(n, maxj=maxj, lag=1)
    dt_half = math.sqrt(1.0 / n)
    js = np.arange(1, maxj + 1, dtype=np.float64)

    sig2_bound = js**-1.5 * dt_half
    sig2_dev = np.abs(table.sigma_sq - SQRT_2_OVER_PI * dt_half)
    sig2_bad = np.nonzero(sig2_dev > sig2_bound)[0]
    sig2_ratio = float(np.max(sig2_dev / sig2_bound))

    sig3_bad = np.nonzero(
        (table.sigma_sq < INV_SQRT_PI * dt_half) | (table.sigma_sq > 2.0 * dt_half)
    )[0]

    # Every pair i < j <= maxj, one lag at a time: memory stays O(maxj).
    t = np.arange(maxj + 1, dtype=np.float64) / n
    sign_bad_count = 0
    lower_bad_count = 0
    worst_value = -np.inf
    worst_pair = (0, 0)
    for ell in range(1, maxj):
        cross_l = _lag_cross(t, ell)
        lower = -2.0 * float(ell) ** -1.5 * dt_half
        sign_bad_count += int(np.count_nonzero(cross_l >= 0.0))
        lower_bad_count += int(np.count_nonzero(cross_l < lower))
        top = int(np.argmax(cross_l))
        if cross_l[top] > worst_value:
            worst_value = float(cross_l[top])
            worst_pair = (top + 1, top + 1 + ell)

    sighat_dev = np.abs(table.sigma_hat + INV_SQRT_2PI * dt_half)
    sighat_ratios = sighat_dev / (js**-0.5 * dt_half)
    sighat_arg = int(np.argmax(sighat_ratios)) + 1

    sigdel_sup = 0.0
    ladder = sorted({2**k for k in range(0, 14) if 2**k <= maxj} | {maxj})
    for j in ladder:
        for i in sorted({1, max(1, j // 4), max(1, j // 2), j}):
            if i > j:
                continue
            for c in sorted({0, i // 2, i - 1}):
                if c >= i:
                    continue
                value = abs(offset_increment_cov(n, c, i, j))
                bound = dt_half * max(j - i, 1) ** -0.5
                sigdel_sup = max(sigdel_sup, value / bound)

    return CovAuditReport(
        n=n,
        maxj=maxj,
        sig2_violations=tuple(int(k) + 1 for k in sig2_bad),
        sig2_max_ratio=sig2_ratio,
        sig3_violations=tuple(int(k) + 1 for k in sig3_bad),
        cross_sign_violations=sign_bad_count,
        cross_lower_violations=lower_bad_count,
        cross_worst_pair=worst_pair,
        sighat_sup_ratio=float(np.max(sighat_ratios)),
        sighat_arg=sighat_arg,
        sigdel_sup_ratio=float(sigdel_sup),
    )
