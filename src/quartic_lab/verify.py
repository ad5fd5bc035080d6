"""End-to-end distributional experiments on sampled ensembles.

Each experiment draws paths, evaluates the discrete functionals, and
compares them against either closed-form Gaussian moments or an
independently simulated right-hand side.  Reports carry every statistic,
threshold, and pass flag.  Every experiment reduces its paths through
`_replicate_columns`, one tile at a time as `simulate.path_tiles`, the
one loop that cuts replicates into 8-row tiles, draws them; so it holds
one tile's normals and paths whatever the replicate count.  A rerun with
the same configuration and seed on the same numpy and scipy builds, on a
CPU that numpy dispatches to the same loops (see `rng`), reproduces
summary.json and replicates.csv byte for byte, under any BLAS thread
count.

An experiment's parameters are declared once, as the keyword parameters
of its `verify_*` function, defaults included: the default kernel and
test function g are the signature's own objects, and the report's config
block and the CLI's config schema are both read from that signature.  A
new parameter is that signature edit plus a `cli._CHECKS` entry for its
value, and, if it is a tolerance, its key in the experiment's
`cli._SPECS` row.  Every experiment reads its probe times through
`_probe_times`.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, analytic, stats, sums
from .analytic import GaussianMoments, kappa_reference, poly_diff, poly_from_coeffs, poly_mul
from .errors import ConfigError, DomainError
from .functions import TestFunction, _zero_dtdx, builtin
from .kernels import CovKernel, Grid, _require_memory, fbm_composite_kernel, finite_number, heat_kernel
from .simulate import cached_factor, path_tiles, sample_brownian, sample_paths

SUMMARY_SCHEMA = 1

# Keyword parameters of the `verify_*` functions that the caller supplies
# rather than the experiment's config; the report's config omits them.
CALL_ONLY = frozenset({"experiment_name"})


# ---------------------------------------------------------------------------
# Report containers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One named statistic compared against one pre-registered threshold.

    passed is a bool.  gates=False marks per-seed sub-checks whose
    verdicts feed a majority rule instead of the overall pass flag.
    flagged marks a statistic inside (threshold, 1.5x]; the strict
    threshold still decides passed.
    """

    name: str
    value: float
    threshold: float
    passed: bool
    flagged: bool = False
    gates: bool = True

    @staticmethod
    def at_most(name, value, threshold, flag=False, gates=True):
        """Passes when value <= threshold; flag=True marks (threshold, 1.5x]."""
        flagged = flag and threshold < value <= 1.5 * threshold
        return CheckResult(name, value, threshold, bool(value <= threshold), flagged, gates)

    def to_dict(self):
        return asdict(self)


def _tolist(value):
    """`json.dumps` fallback: a numpy scalar or array as its Python value."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _config_block(experiment, function, args):
    """A report's config: each parameter of `function` as the run resolved it.

    args maps parameter names to their resolved values; CALL_ONLY
    parameters are left out and the experiment name is added.
    """
    params = inspect.signature(function).parameters
    return {"experiment": experiment} | {
        key: _config_value(args[key]) for key in params if key not in CALL_ONLY
    }


def _config_value(value):
    if isinstance(value, CovKernel):
        return value.to_dict()
    if isinstance(value, TestFunction):
        return value.spec()
    return list(value) if isinstance(value, tuple) else value


def _probe_times(probes):
    """Probe times as floats; at least one, each positive and finite.

    The rule of the CLI's `probes` check (`kernels.finite_number` and
    positive), so a direct call refuses what the CLI refuses.  Reports
    key a probe's statistics and checks by its label t=f"{t:g}", so two
    probes with one label would overwrite each other: refused.
    """
    probes = tuple(probes)
    if not probes or not all(finite_number(t) and t > 0 for t in probes):
        raise ConfigError(f"need at least one probe time, each positive and finite: {probes}")
    probes = tuple(map(float, probes))
    if len({f"{t:g}" for t in probes}) < len(probes):
        raise ConfigError(f"probe times {list(probes)} must have distinct labels t=%g")
    return probes


def _replicate_rows(lead, t, cols):
    """(*lead, replicate, t, *values) rows of one probe's (m, k) columns, as Python numbers."""
    t = float(t)
    return [(*lead, rep, t, *row) for rep, row in enumerate(cols.tolist())]


def _format_cell(value):
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return format(float(value), ".17g")


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one experiment produced, ready for JSON/CSV emission."""

    experiment: str
    config: dict
    checks: tuple[CheckResult, ...]
    stats: dict
    replicate_columns: tuple[str, ...]
    replicate_rows: tuple = field(repr=False)

    @property
    def passed(self):
        return all(c.passed for c in self.checks if c.gates)

    def to_summary_dict(self):
        return {
            "schema": SUMMARY_SCHEMA,
            "package": __version__,
            "experiment": self.experiment,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "stats": self.stats,
            "passed": self.passed,
        }

    def summary_json(self):
        return json.dumps(self.to_summary_dict(), sort_keys=True, indent=2, default=_tolist) + "\n"

    def replicates_csv(self):
        lines = [",".join(self.replicate_columns)]
        for row in self.replicate_rows:
            lines.append(",".join(_format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, outdir):
        """Write summary.json and replicates.csv; returns their paths."""
        os.makedirs(outdir, exist_ok=True)
        summary_path = os.path.join(outdir, "summary.json")
        csv_path = os.path.join(outdir, "replicates.csv")
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.summary_json())
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.replicates_csv())
        return summary_path, csv_path


# ---------------------------------------------------------------------------
# Sampling and the replicate loop.
# ---------------------------------------------------------------------------

def draw_ensemble(kernel, grid, m, seed):
    """Exact-covariance ensemble for the kernel, its drift included (`cached_factor`)."""
    return sample_paths(cached_factor(kernel, grid), m, seed)


def _replicate_columns(kernel, grids, m, seed, reduce, shape, brownian=False):
    """Per-replicate columns on each grid, one tile of paths at a time.

    reduce(x, b, grid) maps a tile's (rows, N+1) paths x, and the same
    rows' Brownian motions b when `brownian` (None otherwise), to
    shape[0] tuples of shape[1] columns of length rows.  The result is
    the (len(grids), m, *shape) array of those columns.  The tiles are
    those of `simulate.path_tiles`, which draws every grid of a ladder
    from one stream draw per replicate.
    """
    shape = (len(grids), m, *shape)
    _require_memory(8 * math.prod(shape), f"columns of {m} replicates")
    out = np.empty(shape, dtype=np.float64)
    factors = [cached_factor(kernel, grid) for grid in grids]
    for start, stop, k, x in path_tiles(factors, m, seed):
        b = sample_brownian(grids[k], stop - start, seed, first=start).values if brownian else None
        out[k, start:stop] = np.moveaxis(np.array(reduce(x, b, grids[k])), -1, 0)
        del x, b
    return out


# ---------------------------------------------------------------------------
# The change-of-variable right-hand side.
# ---------------------------------------------------------------------------

def _head_minus_time_ensemble(x_values, grid, g, k0, k1):
    """g(X,t) increment minus the trapezoid time integral, per replicate."""
    times = grid.times()
    head = np.asarray(g.eval(x_values[:, k1], times[k1]), dtype=np.float64)
    head = head - np.asarray(g.eval(x_values[:, k0], times[k0]), dtype=np.float64)
    # Subtracting the zero integral of a time-independent g changes no bit.
    if k1 > k0 and g._dtdx is not _zero_dtdx:
        gt = np.asarray(g.dtdx(0, x_values[:, k0 : k1 + 1], times[None, k0 : k1 + 1]))
        if gt.shape != x_values[:, k0 : k1 + 1].shape:
            gt = np.broadcast_to(gt, x_values[:, k0 : k1 + 1].shape)
        trap = gt[:, :-1] + gt[:, 1:]
        trap *= 0.5
        head = head - np.sum(trap, axis=1) * grid.dt
    return head


def _window_indices(grid, t_start, t_end):
    k0 = grid.index_at(t_start)
    k1 = grid.index_at(t_end)
    if k1 < k0:
        raise DomainError("window end precedes window start on the grid")
    return k0, k1


def rhs_formula_ensemble(x_values, b_values, grid, g, t, c=1.0, t_start=0.0):
    """Corrected chain-rule right-hand side at time t, one value per row.

    x_values and b_values are (M, N+1) path and Brownian ensembles on the
    same grid; rows are paired.  Row r of the (M,) result is

        g(X(t1), t1) - g(X(t0), t0) - int_{t0}^{t1} dt g
        - (kappa c^2 / 2) * sum_j dxx g(X(t_{j-1}), t_{j-1}) dB_j

    with t0, t1 the grid times at or below t_start and t, the time
    integral by the composite trapezoid rule and the stochastic term a
    left-point sum.
    """
    x_values = np.asarray(x_values, dtype=np.float64)
    b_values = np.asarray(b_values, dtype=np.float64)
    if x_values.shape != b_values.shape:
        raise DomainError("path and Brownian ensembles must share a shape")
    k0, k1 = _window_indices(grid, t_start, t)
    times = grid.times()
    out = _head_minus_time_ensemble(x_values, grid, g, k0, k1)
    if k1 > k0 and c != 0.0:
        gxx = np.asarray(g.dx(2, x_values[:, k0:k1], times[None, k0:k1]))
        ito = np.sum(gxx * np.diff(b_values[:, k0 : k1 + 1], axis=1), axis=1)
        out = out - 0.5 * kappa_reference() * c**2 * ito
    return out


def trapezoid_target_ensemble(x_values, grid, g, t):
    """g(X(t),t) - g(X(0),0) - trapezoid quadrature of the dt term, per row."""
    k0, k1 = _window_indices(grid, 0.0, t)
    return _head_minus_time_ensemble(np.asarray(x_values, dtype=np.float64), grid, g, k0, k1)


# ---------------------------------------------------------------------------
# Closed-form reference moments (centered kernels, polynomial g).
# ---------------------------------------------------------------------------

def _reference_poly(g):
    # poly_coeffs is set only for time-independent x-polynomials.
    if g.poly_coeffs is None:
        return None
    p = poly_from_coeffs(g.poly_coeffs)
    if analytic.poly_degree(p) > 8:
        return None
    return p


def head_reference_moments(kernel, g, t_end, t_start=0.0):
    """(mean, variance) of g(X(t_end)) - g(X(t_start)) or None.

    Exact Gaussian moment arithmetic; only available for time-independent
    polynomial g of degree <= 8 over a centered kernel.
    """
    p = _reference_poly(g)
    if p is None or kernel.mean_coeffs:
        return None
    v1 = float(kernel.rho(t_end, t_end))
    v0 = float(kernel.rho(t_start, t_start))
    c01 = float(kernel.rho(t_start, t_end))
    # g(X(t_end)) - g(X(t_start)) as a polynomial in (X(t_end), X(t_start)).
    one = {(0,): 1}
    q = analytic.poly_add(
        analytic.poly_product_disjoint(p, one),
        analytic.poly_scale(analytic.poly_product_disjoint(one, p), -1),
    )
    moments = GaussianMoments([[v1, c01], [c01, v0]])
    mean = float(moments.expectation(q))
    second = float(moments.expectation(poly_mul(q, q)))
    return mean, second - mean**2


def ito_term_variance(kernel, g, grid, t_end, t_start=0.0, c=1.0):
    """Variance of the discrete left-point correction term, or None.

    Conditional isometry over the independent Brownian increments gives
    (kappa c^2/2)^2 * dt * sum_j E[dxx g(X(t_j))^2] exactly.
    """
    p = _reference_poly(g)
    if p is None or kernel.mean_coeffs:
        return None
    k0, k1 = _window_indices(grid, t_start, t_end)
    if k1 == k0 or c == 0.0:
        return 0.0
    q = poly_diff(poly_diff(p, 0), 0)
    q = poly_mul(q, q)
    tj = grid.times()[k0:k1]
    v = np.asarray(kernel.rho(tj, tj), dtype=np.float64)
    total = np.zeros_like(v)
    # E[X^k] = E[Z^k] v^(k/2) for X ~ N(0, v): the integer E[Z^k] is exact.
    z = GaussianMoments(((1,),))
    for (k,), coeff in q.items():
        if k % 2 == 1:
            continue
        total = total + float(coeff) * z.monomial((k,)) * v ** (k // 2)
    kap = kappa_reference()
    return (0.5 * kap * c**2) ** 2 * grid.dt * float(np.sum(total))


def formula_reference_moments(kernel, g, grid, t_end, t_start=0.0, c=1.0):
    """(mean, variance) of the limiting right-hand side, or None.

    The correction term is conditionally centered given the path, so the
    head and the correction contribute additively to the variance.
    """
    times = grid.times()
    k0, k1 = _window_indices(grid, t_start, t_end)
    head = head_reference_moments(kernel, g, times[k1], times[k0])
    if head is None:
        return None
    # ito_term_variance is None exactly where head_reference_moments is.
    return head[0], head[1] + ito_term_variance(kernel, g, grid, times[k1], times[k0], c=c)


# ---------------------------------------------------------------------------
# Experiment: change-of-variable formula in law.
# ---------------------------------------------------------------------------

def verify_ito_formula(
    kernel=heat_kernel(),
    c=None,
    g=builtin("square"),
    n=4096,
    m=1000,
    probes=(1.0,),
    seed=7,
    seeds=3,
    window_start=0.0,
    ks_tol=0.10,
    mean_tol=0.05,
    var_tol=0.15,
    experiment_name="ito",
):
    """Midpoint sums against the corrected chain rule, in law.

    For each of `seeds` consecutive master seeds: draw m coupled (path,
    Brownian) pairs, evaluate sample A (midpoint sum of dx g over the
    window) and sample B (simulated right-hand side), then compare per
    probe: two-sample KS, absolute mean difference, and sample-A variance
    against the closed-form reference when one exists.  The experiment
    passes when at least two thirds of the seeds pass every check.

    The grid ends at the last probe, after which nothing is read.  c, the
    scale of the correction kappa c^2 / 2, defaults to the kernel's
    `heat_scale`: 1 for heat, (pi/2)^(1/4) for fbm_quarter, 0 for xi and
    bm.  A given c overrides it, c = 0 included (the classical chain rule).
    """
    c = kernel.heat_scale() if c is None else float(c)
    probes = _probe_times(probes)
    if not 0.0 <= window_start < min(probes):
        raise ConfigError("window start must sit inside [0, min probe)")
    if seeds < 1:
        raise ConfigError("need at least one seed")
    if seed + seeds - 1 >= 1 << 64:
        raise ConfigError("master seeds seed .. seed + seeds - 1 must stay below 2**64")
    if m < 2:
        raise ConfigError(f"{experiment_name} needs m >= 2 replicates for its sample variances")
    config = _config_block(experiment_name, verify_ito_formula, locals())
    grid = Grid(int(n), max(probes))
    times = grid.times()
    k_start = grid.index_at(window_start)
    kap = kappa_reference()

    refs = {
        t: formula_reference_moments(kernel, g, grid, t, t_start=window_start, c=c)
        for t in probes
    }

    checks = []
    rows = []
    seed_stats = {}
    passed_seeds = 0

    def reduce(x, b, grid):
        series = sums.midpoint_sum_ensemble(x, grid, g, 1)
        return [
            (
                series[:, grid.index_at(t)] - series[:, k_start],
                rhs_formula_ensemble(x, b, grid, g, t, c=c, t_start=window_start),
            )
            for t in probes
        ]

    for k in range(seeds):
        master = int(seed) + k
        (cols,) = _replicate_columns(
            kernel, [grid], m, master, reduce, (len(probes), 2), brownian=True
        )

        seed_checks = []
        probe_stats = {}
        for j, t in enumerate(probes):
            a = cols[:, j, 0]
            b = cols[:, j, 1]
            label = f"seed{k}/t={t:g}"
            ks = stats.ks_two_sample(a, b)
            mean_diff = abs(float(a.mean() - b.mean()))
            var_a = float(np.var(a, ddof=1))
            var_b = float(np.var(b, ddof=1))
            ref = refs[t]
            seed_checks += [
                CheckResult.at_most(f"{label}/ks", ks, ks_tol, flag=True, gates=False),
                CheckResult.at_most(f"{label}/mean_diff", mean_diff, mean_tol, gates=False),
            ]
            if ref is not None:
                ratio = var_a / ref[1]
                seed_checks.append(CheckResult(
                    f"{label}/var_ratio", ratio, var_tol, abs(ratio - 1.0) <= var_tol, gates=False
                ))
            probe_stats[f"t={t:g}"] = {
                "ks": ks,
                "mean_a": float(a.mean()),
                "mean_b": float(b.mean()),
                "mean_diff": mean_diff,
                "var_a": var_a,
                "var_b": var_b,
                "se_mean_a": float(np.sqrt(var_a / a.size)),
                "mean_ref": None if ref is None else ref[0],
                "var_ref": None if ref is None else ref[1],
            }
            rows += _replicate_rows((master,), times[grid.index_at(t)], cols[:, j])
        # A seed passes when every one of its checks does.
        seed_ok = all(ck.passed for ck in seed_checks)
        checks += seed_checks
        seed_stats[f"seed{k}"] = {"master_seed": master, "passed": seed_ok, **probe_stats}
        passed_seeds += int(seed_ok)

    need = max(1, math.ceil(2 * seeds / 3))
    checks.append(
        CheckResult(
            name="seeds_passed",
            value=float(passed_seeds),
            threshold=float(need),
            passed=passed_seeds >= need,
        )
    )
    return ExperimentReport(
        experiment=experiment_name,
        config=config,
        checks=tuple(checks),
        stats={"kappa": kap, "seeds": seed_stats, "passed_seeds": passed_seeds},
        replicate_columns=("seed", "replicate", "t", "midpoint_sum", "formula_rhs"),
        replicate_rows=tuple(rows),
    )


# The ito experiment with three other defaults; its signature, which the
# CLI reads, is verify_ito_formula's with these defaults in place.
verify_fbm_window = functools.partial(
    verify_ito_formula,
    kernel=fbm_composite_kernel(),
    window_start=0.1,
    experiment_name="fbm-window",
)
verify_fbm_window.__doc__ = "Windowed change-of-variable run on the composite quarter-fBm kernel."


# ---------------------------------------------------------------------------
# Experiment: the alternating-sum Brownian limit.
# ---------------------------------------------------------------------------

def verify_bn_limit(
    kernel=heat_kernel(),
    n=4096,
    m=1000,
    probes=(0.25, 0.5, 0.75, 1.0),
    seed=7,
    ks_tol=0.06,
    corr_tol=0.1,
):
    """Normality, independence, and increment checks for bn_process_ensemble.

    Per probe t: one-sample KS of bn(t)/sqrt(t) against N(0,1), and the
    correlation of bn at the final probe with the path value at t.  The
    increment correlation and the fourth-moment ratio of the half-window
    increment are computed at the final probe.
    """
    probes = _probe_times(probes)
    if m < 4:
        raise ConfigError("bn needs m >= 4 replicates for its correlations")
    config = _config_block("bn", verify_bn_limit, locals())
    horizon = max(probes)
    grid = Grid(int(n), horizon)
    times = grid.times()
    k_full = grid.index_at(horizon)
    k_half = grid.index_at(horizon / 2.0)
    # bn and the path at each probe, then bn at the half and full horizon.
    indices = [grid.index_at(t) for t in probes] + [k_half, k_full]

    def reduce(x, b, grid):
        bn = sums.bn_process_ensemble(x, grid)
        return [(bn[:, k], x[:, k]) for k in indices]

    (cols,) = _replicate_columns(kernel, [grid], m, int(seed), reduce, (len(indices), 2))
    bn_half = cols[:, -2, 0]
    bn_full = cols[:, -1, 0]

    checks = []
    probe_stats = {}
    rows = []
    for j, t in enumerate(probes):
        bn, path = cols[:, j, 0], cols[:, j, 1]
        ks = stats.ks_one_sample_normal(bn / math.sqrt(t))
        checks.append(CheckResult.at_most(f"ks_normal@t={t:g}", ks, ks_tol, flag=True))
        corr = stats.correlation(bn_full, path)
        checks.append(CheckResult.at_most(f"path_corr@t={t:g}", abs(corr.r), corr_tol))
        probe_stats[f"t={t:g}"] = {
            "ks_normal": ks,
            "bn_variance": float(np.var(bn, ddof=1)),
            "path_corr": corr.to_dict(),
        }
        rows += _replicate_rows((), times[indices[j]], cols[:, j])

    incr = stats.correlation(bn_full - bn_half, bn_half)
    checks.append(CheckResult.at_most("increment_corr", abs(incr.r), corr_tol))
    # Fourth-moment growth constant for the half-window increment,
    # reported rather than gated: the bound's constant is not pinned.
    dt_incr = times[k_full] - times[k_half]
    moment4 = float(np.mean((bn_full - bn_half) ** 4))
    c_hat = moment4 / dt_incr**2 if dt_incr > 0 else float("nan")

    return ExperimentReport(
        experiment="bn",
        config=config,
        checks=tuple(checks),
        stats={
            "kappa": kappa_reference(),
            "probes": probe_stats,
            "increment_corr": incr.to_dict(),
            "increment_moment4": moment4,
            "moment4_growth_constant": c_hat,
        },
        replicate_columns=("replicate", "t", "bn", "path"),
        replicate_rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Experiments: mean-square convergence over a ladder of grid sizes.
# ---------------------------------------------------------------------------

def _count_inversions(mses):
    # Exact zeros (telescoping integrands) must not read as inversions.  A
    # non-finite MSE leaves the count undefined: NaN, which fails its gate.
    if not all(map(math.isfinite, mses)):
        return math.nan
    return sum(cur > prev * (1.0 + 1e-9) + 1e-24 for prev, cur in zip(mses, mses[1:]))


def _mse_ladder(experiment, function, args, block, columns, residual, threshold=None):
    """Mean-square convergence of one per-replicate residual along n_list.

    args holds the arguments of the experiment's verify `function`.
    block(x, grid, g, probes) maps a tile of paths to one tuple of
    replicate columns per probe; residual maps the (m, len(columns)) array
    of one probe to the residual whose mean square is gated.  threshold,
    when given, maps (kernel, g, t) to the threshold of the finest grid's
    MSE at probe t.

    Every grid of the ladder is drawn from one stream draw per
    replicate, by `_replicate_columns`, so the ladder holds the normals
    and paths of one tile at N_max whatever m is.
    """
    kernel, g = args["kernel"], args["g"]
    n_list = tuple(int(v) for v in args["n_list"])
    if len(n_list) < 2 or list(n_list) != sorted(set(n_list)):
        raise ConfigError("n_list must be strictly increasing with at least two sizes")
    probes = _probe_times(args["probes"])
    m, seed, max_inversions = args["m"], args["seed"], args["max_inversions"]
    if m < 1:
        raise ConfigError(f"{experiment} needs m >= 1 replicates")
    config = _config_block(experiment, function, args | {"n_list": n_list, "probes": probes})
    horizon = max(probes)
    tol_by_probe = {} if threshold is None else {t: threshold(kernel, g, t) for t in probes}

    grids = [Grid(n, horizon) for n in n_list]
    ladder = _replicate_columns(
        kernel, grids, m, int(seed), lambda x, b, grid: block(x, grid, g, probes),
        (len(probes), len(columns)),
    )

    mses = {t: [] for t in probes}
    rows = []
    for grid, cols in zip(grids, ladder):
        for j, t in enumerate(probes):
            mses[t].append(float(np.mean(residual(cols[:, j]) ** 2)))
            rows += _replicate_rows((grid.n,), t, cols[:, j])

    checks = []
    rate_fits = {}
    for t in probes:
        seq = mses[t]
        inv = float(_count_inversions(seq))
        checks.append(CheckResult.at_most(f"mse_monotone@t={t:g}", inv, float(max_inversions)))
        if t in tol_by_probe:
            checks.append(CheckResult.at_most(f"mse_final@t={t:g}", seq[-1], tol_by_probe[t]))
        # The rate regression needs three sizes and strictly positive MSEs.
        if len(n_list) >= 3 and all(v > 0 for v in seq):
            rate_fits[f"t={t:g}"] = stats.loglog_rate(n_list, seq).to_dict()

    ladder_stats = {"mse": {f"t={t:g}": mses[t] for t in probes}, "rate": rate_fits}
    if tol_by_probe:
        ladder_stats["final_tol"] = {f"t={t:g}": tol_by_probe[t] for t in probes}
    return ExperimentReport(
        experiment=experiment,
        config=config,
        checks=tuple(checks),
        stats=ladder_stats,
        replicate_columns=("n", "replicate", "t", *columns),
        replicate_rows=tuple(rows),
    )


def verify_trapezoid_ucp(
    kernel=heat_kernel(),
    g=builtin("square"),
    n_list=(256, 1024, 4096),
    m=200,
    probes=(1.0,),
    seed=7,
    final_tol=None,
    max_inversions=1,
):
    """Mean-square collapse of the trapezoid sum onto its target.

    For each grid size the per-replicate difference T_n(dx g, t) minus
    the chain-rule target is squared and averaged; the sequence must
    decrease (one inversion allowed) and the final value must beat the
    threshold, by default 1% of Var g(X(t)) when the closed form exists.
    """
    final_tol = None if final_tol is None else float(final_tol)

    def block(x, grid, g, probes):
        series = sums.trapezoid_sum_ensemble(x, grid, g, 1)
        return [
            (series[:, grid.index_at(t)], trapezoid_target_ensemble(x, grid, g, t)) for t in probes
        ]

    def threshold(kernel, g, t):
        if final_tol is not None:
            return final_tol
        head = head_reference_moments(kernel, g, t, 0.0)
        if head is None:
            raise ConfigError("final_tol must be given when no closed-form variance exists")
        return 0.01 * head[1]

    return _mse_ladder(
        "trapezoid", verify_trapezoid_ucp, locals(), block, ("trapezoid_sum", "target"),
        lambda c: c[:, 0] - c[:, 1], threshold,
    )


def verify_expansion_residual(
    kernel=heat_kernel(),
    g=builtin("square"),
    n_list=(256, 1024, 4096),
    m=200,
    probes=(1.0,),
    seed=7,
    max_inversions=1,
):
    """Mean-square decay of the midpoint-sum expansion residual.

    residual = I_n(dx g, t) - [g increment - time integral - J_n(dxx g, t)/2];
    its mean square must decrease along n_list (one inversion allowed).
    """

    def block(x, grid, g, probes):
        mid = sums.midpoint_sum_ensemble(x, grid, g, 1)
        jn = sums.alt_qv_weighted_ensemble(x, grid, g, 2)
        cols = []
        for t in probes:
            k = grid.index_at(t)
            head = trapezoid_target_ensemble(x, grid, g, t)
            cols.append((mid[:, k] - head + 0.5 * jn[:, k],))
        return cols

    return _mse_ladder(
        "expansion", verify_expansion_residual, locals(), block, ("residual",), lambda c: c[:, 0]
    )
