"""Proof tools of the paper that no experiment runs, kept as test oracles.

The paper proves its change-of-variable formula with a Gaussian Taylor
expansion of E[f(xi) h(Y)] in the cross-covariances, plus binomial and
multi-index lemmas.  No `verify` experiment evaluates them, so they live
here, next to the tests that check them, and not in the package.  They
are built on the package's exact moment evaluator and sparse-polynomial
algebra (`quartic_lab.analytic`), and keep its arithmetic: Fractions in,
Fractions out.  The sum, scaling and disjoint product of polynomials are
here too: only these oracles and the tests use them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from quartic_lab.analytic import (
    MAX_GAUSS_DEGREE,
    MAX_GAUSS_DIM,
    GaussianMoments,
    hermite_coefficients,
    poly_degree,
    poly_diff,
    poly_from_coeffs,
    poly_mul,
)
from quartic_lab.errors import DomainError


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


def poly_product_disjoint(f, h):
    """f(x_1..x_d) * h(y) as a polynomial in (x_1..x_d, y); {} when either is zero."""
    out = {}
    for a, ca in f.items():
        for b, cb in h.items():
            key = a + b
            out[key] = out.get(key, 0) + ca * cb
    return out


def hermite_poly(n):
    """h_n as a univariate sparse polynomial with integer coefficients."""
    return poly_from_coeffs(hermite_coefficients(n))


def poly_nvars(poly):
    return len(next(iter(poly))) if poly else 0


def poly_diff_multi(poly, alpha):
    out = poly
    for var, k in enumerate(alpha):
        for _ in range(k):
            out = poly_diff(out, var)
            if not out:
                return out
    return out


def embed(poly, var, nvars):
    """Lift a univariate sparse polynomial into variable `var` of `nvars`."""
    out = {}
    for (k,), coeff in poly.items():
        key = [0] * nvars
        key[var] = k
        out[tuple(key)] = coeff
    return out


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


def compositions(total):
    """All tuples of positive ints summing to `total`."""
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            yield (head,) + rest


def multi_indices(d, total):
    """All length-d tuples of nonnegative ints summing to `total`."""
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in multi_indices(d - 1, total - first):
            yield (first,) + rest


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
        for alpha in multi_indices(d, total):
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
