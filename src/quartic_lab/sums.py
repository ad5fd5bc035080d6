"""Discrete functionals of sampled path ensembles.

Every functional takes an (M, N+1) array of M paths on the grid, N =
floor(n*T), and returns (M, N+1) values: column k holds the exact
prefix of the sum at t_k, with the index bound of each definition
applied through exact integer arithmetic, and column 0 is the empty sum.
No quadrature or approximation beyond float64 happens here; reading a
functional at time t is a lookup of column grid.index_at(t).

Conventions, labelled by their `sums --functional` names, with
dX_j = X(t_j) - X(t_{j-1}):

  midpoint:  sum_{j <= floor(nt/2)}  g(X(t_{2j-1}), t_{2j-1}) (X(t_{2j}) - X(t_{2j-2}))
  offset:    sum_{j <= floor(nt/2)}  g(X(t_{2j}),  t_{2j})   (X(t_{2j+1}) - X(t_{2j-1}))
             (terms whose index 2j+1 exceeds N are dropped)
  trapezoid: sum_{j <= floor(nt)}   (g(.., t_{j-1}) + g(.., t_j))/2 * dX_j
  jn:        sum_{j <= 2 floor(nt/2)} g(X(t_{j-1}), t_{j-1}) dX_j^2 (-1)^j
  qn/bn:     the unweighted alternating sum, raw and divided by the
             scale constant kappa
  bnbar:     alternating sum cut at 2 m^3 floor(mt/2), m = floor(n^(1/4))
  power:     parity-filtered sums of g(..) dX_j^p, p in {3, 4}
"""

from __future__ import annotations

import numpy as np

from .analytic import kappa_reference
from .errors import DomainError


def _check_ensemble(values, grid):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != grid.nsteps + 1:
        raise DomainError("ensemble values must have shape (M, nsteps + 1)")
    return values


def _prefix(terms):
    """Cumulative sums with a leading zero column."""
    m = terms.shape[0]
    out = np.empty((m, terms.shape[1] + 1), dtype=np.float64)
    out[:, 0] = 0.0
    np.cumsum(terms, axis=1, out=out[:, 1:])
    return out


def _straddle_sum(values, grid, g, deriv_order, first):
    """sum g(X(t_i), t_i) (X(t_{i+1}) - X(t_{i-1})) over i = first, first + 2, ...

    Only terms with i + 1 <= N exist; column k holds the first
    min(k // 2, count) of them.
    """
    values = _check_ensemble(values, grid)
    nsteps = grid.nsteps
    times = grid.times()
    count = (nsteps - first + 1) // 2
    i = np.arange(first, first + 2 * count, 2)
    gv = g.dx(deriv_order, values[:, i], times[i][None, :])
    incr = values[:, i + 1] - values[:, i - 1]
    cum = _prefix(np.asarray(gv) * incr)
    return cum[:, np.minimum(np.arange(nsteps + 1) // 2, count)]


def midpoint_sum_ensemble(values, grid, g, deriv_order=0):
    """Midpoint-style weighted sum over straddling even increments."""
    return _straddle_sum(values, grid, g, deriv_order, 1)


def offset_midpoint_sum_ensemble(values, grid, g, deriv_order=0):
    """Even-index evaluation with straddling odd increments."""
    return _straddle_sum(values, grid, g, deriv_order, 2)


def trapezoid_sum_ensemble(values, grid, g, deriv_order=0):
    """Trapezoid-weighted Riemann-Stieltjes sum along the path."""
    values = _check_ensemble(values, grid)
    times = grid.times()
    gv = np.asarray(g.dx(deriv_order, values, times[None, :]))
    terms = 0.5 * (gv[:, :-1] + gv[:, 1:]) * np.diff(values, axis=1)
    return _prefix(terms)


def _alternating_signs(nsteps):
    # (-1)^j for j = 1..N: odd j negative.
    return np.where(np.arange(1, nsteps + 1) % 2 == 0, 1.0, -1.0)


def alt_qv_weighted_ensemble(values, grid, g, deriv_order=0):
    """Left-evaluated weighted alternating sum of squared increments."""
    values = _check_ensemble(values, grid)
    nsteps = grid.nsteps
    times = grid.times()
    gv = np.asarray(g.dx(deriv_order, values[:, :-1], times[:-1][None, :]))
    terms = gv * np.diff(values, axis=1) ** 2 * _alternating_signs(nsteps)[None, :]
    cum = _prefix(terms)
    idx = 2 * (np.arange(nsteps + 1) // 2)
    return cum[:, idx]


def _alt_qv_prefix(values, grid):
    nsteps = grid.nsteps
    terms = np.diff(values, axis=1) ** 2 * _alternating_signs(nsteps)[None, :]
    return _prefix(terms)


def qn_process_ensemble(values, grid):
    """Paired difference of squared increments (even minus odd)."""
    values = _check_ensemble(values, grid)
    cum = _alt_qv_prefix(values, grid)
    idx = 2 * (np.arange(grid.nsteps + 1) // 2)
    return cum[:, idx]


def bn_process_ensemble(values, grid):
    """Alternating quadratic variation scaled to a standard-BM limit."""
    return qn_process_ensemble(values, grid) / kappa_reference()


def floor_fourth_root(n):
    m = int(round(float(n) ** 0.25))
    while (m + 1) ** 4 <= n:
        m += 1
    while m > 0 and m**4 > n:
        m -= 1
    return m


def bn_smoothed_ensemble(values, grid):
    """Alternating quadratic variation frozen between multiples of 2/m."""
    values = _check_ensemble(values, grid)
    n = grid.n
    if n < 16:
        raise DomainError("bn_smoothed_ensemble needs n >= 16 so that floor(n^(1/4)) >= 2")
    m = floor_fourth_root(n)
    cum = _alt_qv_prefix(values, grid)
    i = np.arange(grid.nsteps + 1)
    # floor(m * t_i / 2) = (m * i) // (2 n), exactly in integers.
    idx = 2 * m**3 * ((m * i) // (2 * n))
    return cum[:, idx] / kappa_reference()


PARITIES = ("odd", "even", "all")
EVAL_POINTS = ("left", "right")


def power_sum_ensemble(values, grid, g, p, parity="all", eval_point="left", deriv_order=0):
    """Parity-filtered sum of g-weighted increment powers (p = 3 or 4)."""
    values = _check_ensemble(values, grid)
    if p not in (3, 4):
        raise DomainError("power p must be 3 or 4")
    if parity not in PARITIES:
        raise DomainError(f"parity must be one of {PARITIES}")
    if eval_point not in EVAL_POINTS:
        raise DomainError(f"eval_point must be one of {EVAL_POINTS}")
    nsteps = grid.nsteps
    times = grid.times()
    if eval_point == "left":
        xs, ts = values[:, :-1], times[:-1]
    else:
        xs, ts = values[:, 1:], times[1:]
    gv = np.asarray(g.dx(deriv_order, xs, ts[None, :]))
    terms = gv * np.diff(values, axis=1) ** p
    j = np.arange(1, nsteps + 1)
    # "all" is assembled from the two masked prefixes so that the parity
    # decomposition odd + even = all holds exactly, not within rounding.
    if parity == "odd":
        return _prefix(terms * (j % 2 == 1))
    if parity == "even":
        return _prefix(terms * (j % 2 == 0))
    return _prefix(terms * (j % 2 == 1)) + _prefix(terms * (j % 2 == 0))
