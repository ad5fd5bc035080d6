"""End-to-end distributional experiments on sampled ensembles.

Each experiment draws paths, evaluates the discrete functionals, and
compares them against either closed-form Gaussian moments or an
independently simulated right-hand side.  Reports carry every statistic,
threshold, and pass flag; a rerun with the same configuration and seed
reproduces the summary and CSV byte for byte.  Replicates are evaluated
in fixed 256-row blocks, one after another; the `workers` argument of
each experiment is accepted for compatibility and selects nothing.
"""

from __future__ import annotations

import inspect
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__, analytic, stats, sums
from .analytic import GaussianMoments, kappa_reference, poly_diff, poly_from_coeffs, poly_mul
from .errors import ConfigError, DomainError
from .functions import builtin
from .kernels import Grid, fbm_composite_kernel, heat_kernel
from .simulate import add_deterministic_drift, cached_factor, sample_brownian, sample_paths

SUMMARY_SCHEMA = 1

# Replicates are processed in fixed-size row blocks, which bounds the
# temporaries of each sums/RHS evaluation.
_CHUNK_ROWS = 256


# ---------------------------------------------------------------------------
# Report containers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """One named statistic compared against one pre-registered threshold.

    passed is None for report-only values.  gates=False marks per-seed
    sub-checks whose verdicts feed a majority rule instead of the overall
    pass flag.  flagged marks a statistic inside (threshold, 1.5x]; the
    strict threshold still decides passed.
    """

    name: str
    value: float
    threshold: float | None
    passed: bool | None
    flagged: bool = False
    gates: bool = True

    def to_dict(self):
        return {
            "name": self.name,
            "value": self.value,
            "threshold": self.threshold,
            "passed": self.passed,
            "flagged": self.flagged,
            "gates": self.gates,
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _format_cell(value):
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
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
        return all(c.passed is not False for c in self.checks if c.gates)

    def to_summary_dict(self):
        return {
            "schema": SUMMARY_SCHEMA,
            "package": __version__,
            "experiment": self.experiment,
            "config": _jsonable(self.config),
            "checks": [c.to_dict() for c in self.checks],
            "stats": _jsonable(self.stats),
            "passed": self.passed,
        }

    def summary_json(self):
        return json.dumps(self.to_summary_dict(), sort_keys=True, indent=2) + "\n"

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
# Sampling and chunked evaluation helpers.
# ---------------------------------------------------------------------------

def draw_ensemble(kernel, grid, m, seed):
    """Exact-covariance ensemble for the kernel, drift applied if any."""
    factor = cached_factor(kernel, grid)
    ens = sample_paths(factor, m, seed, grid=grid, kernel_id=kernel.canonical_id())
    if kernel.mean_coeffs:
        ens = add_deterministic_drift(ens, kernel.mean_at)
    return ens


def draw_coupled(kernel, grid, m, seed):
    """(path ensemble, independent Brownian ensemble) from one seed."""
    return draw_ensemble(kernel, grid, m, seed), sample_brownian(grid, m, seed)


def _map_chunks(fn, values, *aligned):
    """Apply fn to fixed-size row blocks in order and concatenate.

    fn receives a block of values followed by the same rows of every
    aligned array.
    """
    starts = range(0, values.shape[0], _CHUNK_ROWS)
    columns = [[a[i : i + _CHUNK_ROWS] for i in starts] for a in (values, *aligned)]
    return np.concatenate(list(map(fn, *columns)), axis=0)


# ---------------------------------------------------------------------------
# The change-of-variable right-hand side.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormulaRHS:
    """Per-replicate right-hand side of the corrected chain rule.

    values[r] = g(X(t1), t1) - g(X(t0), t0) - int_{t0}^{t1} dt g
                - (kappa c^2 / 2) * sum_j dxx g(X(t_{j-1}), t_{j-1}) dB_j
    with the time integral by the composite trapezoid rule on the grid
    and the stochastic term a left-point sum, as recorded in the rule
    fields.
    """

    values: np.ndarray
    t_start: float
    t_end: float
    c: float
    kappa_value: float
    time_rule: str = "trapezoid"
    ito_rule: str = "left"


def _head_minus_time_ensemble(x_values, grid, g, k0, k1):
    """g(X,t) increment minus the trapezoid time integral, per replicate."""
    times = grid.times()
    head = np.asarray(g.eval(x_values[:, k1], times[k1]), dtype=np.float64)
    head = head - np.asarray(g.eval(x_values[:, k0], times[k0]), dtype=np.float64)
    if k1 > k0:
        gt = np.asarray(g.dtdx(0, x_values[:, k0 : k1 + 1], times[None, k0 : k1 + 1]))
        if gt.shape != x_values[:, k0 : k1 + 1].shape:
            gt = np.broadcast_to(gt, x_values[:, k0 : k1 + 1].shape)
        head = head - np.sum(0.5 * (gt[:, :-1] + gt[:, 1:]), axis=1) * grid.dt
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
    same grid; rows are paired.
    """
    x_values = np.asarray(x_values, dtype=np.float64)
    b_values = np.asarray(b_values, dtype=np.float64)
    if x_values.shape != b_values.shape:
        raise DomainError("path and Brownian ensembles must share a shape")
    k0, k1 = _window_indices(grid, t_start, t)
    times = grid.times()
    out = _head_minus_time_ensemble(x_values, grid, g, k0, k1)
    kap = kappa_reference()
    if k1 > k0 and c != 0.0:
        gxx = np.asarray(g.dx(2, x_values[:, k0:k1], times[None, k0:k1]))
        if gxx.shape != x_values[:, k0:k1].shape:
            gxx = np.broadcast_to(gxx, x_values[:, k0:k1].shape)
        ito = np.sum(gxx * np.diff(b_values[:, k0 : k1 + 1], axis=1), axis=1)
        out = out - 0.5 * kap * c**2 * ito
    return FormulaRHS(
        values=out,
        t_start=times[k0],
        t_end=times[k1],
        c=float(c),
        kappa_value=kap,
    )


def trapezoid_target_ensemble(x_values, grid, g, t, t_start=0.0):
    """g(X(t),t) - g(X(0),0) - trapezoid quadrature of the dt term, per row."""
    k0, k1 = _window_indices(grid, t_start, t)
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


def _embed_two(p, slot):
    """Univariate sparse poly placed on variable `slot` of two."""
    out = {}
    for (k,), coeff in p.items():
        key = (k, 0) if slot == 0 else (0, k)
        out[key] = out.get(key, 0) + coeff
    return out


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
    q = analytic.poly_add(_embed_two(p, 0), analytic.poly_scale(_embed_two(p, 1), -1))
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
    for (k,), coeff in q.items():
        if k % 2 == 1:
            continue
        total = total + float(coeff) * analytic.double_factorial(k - 1) * v ** (k // 2)
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
    ito_var = ito_term_variance(kernel, g, grid, times[k1], times[k0], c=c)
    if ito_var is None:
        return None
    return head[0], head[1] + ito_var


# ---------------------------------------------------------------------------
# Experiment: change-of-variable formula in law.
# ---------------------------------------------------------------------------

def _ks_check(name, value, tol, gates=True):
    return CheckResult(
        name=name,
        value=value,
        threshold=tol,
        passed=value <= tol,
        flagged=tol < value <= 1.5 * tol,
        gates=gates,
    )


def _default_c(kernel, c):
    if c is not None:
        return float(c)
    return float(kernel.c) if kernel.kind == "composite" else 1.0


def verify_ito_formula(
    kernel=None,
    c=None,
    g=None,
    n=4096,
    m=1000,
    probes=(1.0,),
    seed=7,
    seeds=3,
    window_start=0.0,
    horizon=None,
    ks_tol=0.10,
    mean_tol=0.05,
    var_tol=0.15,
    workers=1,
    experiment_name="ito",
):
    """Midpoint sums against the corrected chain rule, in law.

    For each of `seeds` consecutive master seeds: draw m coupled (path,
    Brownian) pairs, evaluate sample A (midpoint sum of dx g over the
    window) and sample B (simulated right-hand side), then compare per
    probe: two-sample KS, absolute mean difference, and sample-A variance
    against the closed-form reference when one exists.  The experiment
    passes when at least two thirds of the seeds pass every check.
    """
    kernel = kernel if kernel is not None else heat_kernel()
    g = g if g is not None else builtin("square")
    c = _default_c(kernel, c)
    probes = tuple(float(t) for t in probes)
    if not probes:
        raise ConfigError("need at least one probe time")
    horizon = float(horizon) if horizon is not None else max(probes)
    if max(probes) > horizon + 1e-12:
        raise ConfigError("probe times must not exceed the horizon")
    if not 0.0 <= window_start < min(probes):
        raise ConfigError("window start must sit inside [0, min probe)")
    if seeds < 1:
        raise ConfigError("need at least one seed")
    if not g.certifies(9, 4):
        raise DomainError(f"test function {g.fid!r} lacks the smoothness tag for this run")
    grid = Grid(int(n), horizon)
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

    def eval_block(block):
        series = sums.midpoint_sum_ensemble(block, grid, g, 1)
        cols = [series[:, grid.index_at(t)] - series[:, k_start] for t in probes]
        return np.stack(cols, axis=1)

    def rhs_block(xs, bs):
        cols = [
            rhs_formula_ensemble(xs, bs, grid, g, t, c=c, t_start=window_start).values
            for t in probes
        ]
        return np.stack(cols, axis=1)

    for k in range(seeds):
        master = int(seed) + k
        x_ens, b_ens = draw_coupled(kernel, grid, m, master)
        sample_a = _map_chunks(eval_block, x_ens.values)
        sample_b = _map_chunks(rhs_block, x_ens.values, b_ens.values)

        seed_ok = True
        probe_stats = {}
        for j, t in enumerate(probes):
            a = sample_a[:, j]
            b = sample_b[:, j]
            label = f"seed{k}/t={t:g}"
            ks = stats.ks_two_sample(a, b)
            ck = _ks_check(f"{label}/ks", ks, ks_tol, gates=False)
            checks.append(ck)
            seed_ok &= ck.passed
            mean_diff = abs(float(a.mean() - b.mean()))
            ck = CheckResult(
                name=f"{label}/mean_diff",
                value=mean_diff,
                threshold=mean_tol,
                passed=mean_diff <= mean_tol,
                gates=False,
            )
            checks.append(ck)
            seed_ok &= ck.passed
            var_a = float(np.var(a, ddof=1))
            var_b = float(np.var(b, ddof=1))
            ref = refs[t]
            if ref is not None:
                ratio = var_a / ref[1]
                ck = CheckResult(
                    name=f"{label}/var_ratio",
                    value=ratio,
                    threshold=var_tol,
                    passed=abs(ratio - 1.0) <= var_tol,
                    gates=False,
                )
                checks.append(ck)
                seed_ok &= ck.passed
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
            for rep in range(m):
                rows.append((master, rep, times[grid.index_at(t)], a[rep], b[rep]))
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
    config = {
        "experiment": experiment_name,
        "kernel": kernel.to_dict(),
        "c": c,
        "g": g.spec(),
        "n": int(n),
        "m": int(m),
        "probes": list(probes),
        "seed": int(seed),
        "seeds": int(seeds),
        "window_start": float(window_start),
        "horizon": horizon,
        "ks_tol": ks_tol,
        "mean_tol": mean_tol,
        "var_tol": var_tol,
    }
    return ExperimentReport(
        experiment=experiment_name,
        config=config,
        checks=tuple(checks),
        stats={"kappa": kap, "seeds": seed_stats, "passed_seeds": passed_seeds},
        replicate_columns=("seed", "replicate", "t", "midpoint_sum", "formula_rhs"),
        replicate_rows=tuple(rows),
    )


def verify_fbm_window(window_start=0.1, kernel=None, experiment_name="fbm-window", **kwargs):
    """Windowed change-of-variable run on the composite quarter-fBm kernel."""
    kernel = kernel if kernel is not None else fbm_composite_kernel()
    return verify_ito_formula(
        kernel=kernel, window_start=window_start, experiment_name=experiment_name, **kwargs
    )


# The CLI reads experiment keys and defaults from signatures, so advertise
# the verify_ito_formula keywords that **kwargs forwards.
_own = inspect.signature(verify_fbm_window).parameters
verify_fbm_window.__signature__ = inspect.Signature(
    [p for p in _own.values() if p.kind is not p.VAR_KEYWORD]
    + [
        p.replace(kind=p.KEYWORD_ONLY)
        for name, p in inspect.signature(verify_ito_formula).parameters.items()
        if name not in _own
    ]
)


# ---------------------------------------------------------------------------
# Experiment: the alternating-sum Brownian limit.
# ---------------------------------------------------------------------------

def verify_bn_limit(
    kernel=None,
    n=4096,
    m=1000,
    probes=(0.25, 0.5, 0.75, 1.0),
    seed=7,
    ks_tol=0.06,
    corr_tol=0.1,
    workers=1,
):
    """Normality, independence, and increment checks for bn_process_ensemble.

    Per probe t: one-sample KS of bn(t)/sqrt(t) against N(0,1), and the
    correlation of bn at the final probe with the path value at t.  The
    increment correlation and the fourth-moment ratio of the half-window
    increment are computed at the final probe.
    """
    kernel = kernel if kernel is not None else heat_kernel()
    probes = tuple(float(t) for t in probes)
    if not probes or min(probes) <= 0:
        raise ConfigError("probe times must be positive")
    horizon = max(probes)
    grid = Grid(int(n), horizon)
    x_ens = draw_ensemble(kernel, grid, m, int(seed))
    bn = _map_chunks(lambda b: sums.bn_process_ensemble(b, grid), x_ens.values)

    times = grid.times()
    t_full = horizon
    t_half = t_full / 2.0
    k_full = grid.index_at(t_full)
    k_half = grid.index_at(t_half)
    bn_full = bn[:, k_full]
    bn_half = bn[:, k_half]

    checks = []
    probe_stats = {}
    rows = []
    for t in probes:
        k = grid.index_at(t)
        sample = bn[:, k] / math.sqrt(t)
        ks = stats.ks_one_sample_normal(sample)
        checks.append(_ks_check(f"ks_normal@t={t:g}", ks, ks_tol))
        corr = stats.correlation(bn_full, x_ens.values[:, k])
        checks.append(
            CheckResult(
                name=f"path_corr@t={t:g}",
                value=abs(corr.r),
                threshold=corr_tol,
                passed=abs(corr.r) <= corr_tol,
            )
        )
        probe_stats[f"t={t:g}"] = {
            "ks_normal": ks,
            "bn_variance": float(np.var(bn[:, k], ddof=1)),
            "path_corr": corr.to_dict(),
        }
        for rep in range(m):
            rows.append((rep, times[k], bn[rep, k], x_ens.values[rep, k]))

    incr = stats.correlation(bn_full - bn_half, bn_half)
    checks.append(
        CheckResult(
            name="increment_corr",
            value=abs(incr.r),
            threshold=corr_tol,
            passed=abs(incr.r) <= corr_tol,
        )
    )
    # Fourth-moment growth constant for the half-window increment,
    # reported rather than gated: the bound's constant is not pinned.
    dt_incr = times[k_full] - times[k_half]
    moment4 = float(np.mean((bn_full - bn_half) ** 4))
    c_hat = moment4 / dt_incr**2 if dt_incr > 0 else float("nan")

    config = {
        "experiment": "bn",
        "kernel": kernel.to_dict(),
        "n": int(n),
        "m": int(m),
        "probes": list(probes),
        "seed": int(seed),
        "ks_tol": ks_tol,
        "corr_tol": corr_tol,
    }
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
    # Exact zeros (telescoping integrands) must not read as inversions.
    count = 0
    for prev, cur in zip(mses, mses[1:]):
        if cur > prev * (1.0 + 1e-9) + 1e-24:
            count += 1
    return count


def _mse_ladder(
    experiment, block, columns, residual,
    kernel, g, n_list, m, probes, seed, max_inversions,
    final_tol=None, extra_config=None,
):
    """Mean-square convergence of one per-replicate residual along n_list.

    block(x, grid, g, probes) maps a row block of paths to one tuple of
    replicate columns per probe; residual maps the (m, len(columns)) array
    of one probe to the residual whose mean square is gated.  final_tol,
    when given, maps (kernel, g, t) to the threshold of the finest grid's
    MSE at probe t; extra_config holds more entries for the report's config.
    """
    kernel = kernel if kernel is not None else heat_kernel()
    g = g if g is not None else builtin("square")
    if not g.certifies(7, 3):
        raise DomainError(f"test function {g.fid!r} lacks the smoothness tag for this run")
    n_list = tuple(int(v) for v in n_list)
    if len(n_list) < 2 or list(n_list) != sorted(set(n_list)):
        raise ConfigError("n_list must be strictly increasing with at least two sizes")
    probes = tuple(float(t) for t in probes)
    horizon = max(probes)
    tol_by_probe = {} if final_tol is None else {t: final_tol(kernel, g, t) for t in probes}

    mses = {t: [] for t in probes}
    rows = []
    for n in n_list:
        grid = Grid(n, horizon)
        x_ens = draw_ensemble(kernel, grid, m, int(seed))
        cols = _map_chunks(
            lambda b: np.moveaxis(np.array(block(b, grid, g, probes)), -1, 0), x_ens.values
        )
        for j, t in enumerate(probes):
            mses[t].append(float(np.mean(residual(cols[:, j]) ** 2)))
            rows += [(n, rep, t, *row) for rep, row in enumerate(cols[:, j].tolist())]

    checks = []
    rate_fits = {}
    for t in probes:
        seq = mses[t]
        inv = _count_inversions(seq)
        checks.append(
            CheckResult(
                name=f"mse_monotone@t={t:g}",
                value=float(inv),
                threshold=float(max_inversions),
                passed=inv <= max_inversions,
            )
        )
        if t in tol_by_probe:
            checks.append(
                CheckResult(
                    name=f"mse_final@t={t:g}",
                    value=seq[-1],
                    threshold=tol_by_probe[t],
                    passed=seq[-1] <= tol_by_probe[t],
                )
            )
        # The rate regression needs three sizes and strictly positive MSEs.
        if len(n_list) >= 3 and all(v > 0 for v in seq):
            rate_fits[f"t={t:g}"] = stats.loglog_rate(n_list, seq).to_dict()

    ladder_stats = {"mse": {f"t={t:g}": mses[t] for t in probes}, "rate": rate_fits}
    if tol_by_probe:
        ladder_stats["final_tol"] = {f"t={t:g}": tol_by_probe[t] for t in probes}
    return ExperimentReport(
        experiment=experiment,
        config={
            "experiment": experiment,
            "kernel": kernel.to_dict(),
            "g": g.spec(),
            "n_list": list(n_list),
            "m": int(m),
            "probes": list(probes),
            "seed": int(seed),
            "max_inversions": int(max_inversions),
            **(extra_config or {}),
        },
        checks=tuple(checks),
        stats=ladder_stats,
        replicate_columns=("n", "replicate", "t", *columns),
        replicate_rows=tuple(rows),
    )


def verify_trapezoid_ucp(
    kernel=None,
    g=None,
    n_list=(256, 1024, 4096),
    m=200,
    probes=(1.0,),
    seed=7,
    final_tol=None,
    max_inversions=1,
    workers=1,
):
    """Mean-square collapse of the trapezoid sum onto its target.

    For each grid size the per-replicate difference T_n(dx g, t) minus
    the chain-rule target is squared and averaged; the sequence must
    decrease (one inversion allowed) and the final value must beat the
    threshold, by default 1% of Var g(X(t)) when the closed form exists.
    """

    def block(x, grid, g, probes):
        series = sums.trapezoid_sum_ensemble(x, grid, g, 1)
        return [
            (series[:, grid.index_at(t)], trapezoid_target_ensemble(x, grid, g, t)) for t in probes
        ]

    def threshold(kernel, g, t):
        if final_tol is not None:
            return float(final_tol)
        head = head_reference_moments(kernel, g, t, 0.0)
        if head is None:
            raise ConfigError("final_tol must be given when no closed-form variance exists")
        return 0.01 * head[1]

    return _mse_ladder(
        "trapezoid", block, ("trapezoid_sum", "target"), lambda c: c[:, 0] - c[:, 1],
        kernel, g, n_list, m, probes, seed, max_inversions,
        final_tol=threshold,
        extra_config={"final_tol": None if final_tol is None else float(final_tol)},
    )


def verify_expansion_residual(
    kernel=None,
    g=None,
    n_list=(256, 1024, 4096),
    m=200,
    probes=(1.0,),
    seed=7,
    max_inversions=1,
    workers=1,
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
        "expansion", block, ("residual",), lambda c: c[:, 0],
        kernel, g, n_list, m, probes, seed, max_inversions,
    )
