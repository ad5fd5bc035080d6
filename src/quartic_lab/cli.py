"""Command-line runner for sampling, tables, sums, and experiments.

Config files are flat JSON with a strict schema: unknown keys are
rejected so a typo cannot silently fall back to a default, and a value
of the wrong type or range raises ConfigError.  Each experiment's keys
and defaults, its default kernel and g included, come from the keyword
parameters of its `verify_*` function, so the schema and the function
cannot drift apart: a `_SPECS` row is just that function's name and its
tolerance keys.  A new experiment parameter is declared in that
signature, plus a `_CHECKS` entry for its value and, if it is a
tolerance, its key in the experiment's `_SPECS` row.  A validated config,
`ExperimentConfig`, is the keyword arguments of the experiment's verify
call: every key, a given tolerance included, passes its `_CHECKS` entry
once and keeps the normalized value (a tolerance of 1 reaches the report
as 1.0).  Each flag is
declared once: the draw flags `--kernel`, `--n`, `--M` and `--seed` of
`sample`, `sums` and `verify` in `_DRAW_FLAGS`, by the config key each
sets, and the option flags of `sums` in `_SUMS_OPTIONS`, by the sums
parameter each sets.  Each flag is checked once, as argparse parses it:
a flag that sets a config key gets that key's `_CHECKS` entry as its
argparse `type` (`_flag`), those of `cov-table` and `sums --deriv` an
integer bound and `compute-kappa --tol` its certifiable range, and a
failed check is a ConfigError that `main` reports as a config error
naming the flag.  `verify` then copies its flags into the config, and
refuses by name a flag whose key the experiment lacks.  `sums` draws on
a grid that ends at its last probe time, the last column it reads.
Every real number read from outside passes `kernels.finite_number`.  All
randomness flows from the single seed in the config (or --seed).
Rerunning any verb with the same inputs on the same numpy and scipy
builds, on a CPU that numpy dispatches to the same loops (its float64
log differs between its AVX-512 and baseline loops, see `rng`),
reproduces its output files byte for byte (for `verify`, summary.json
and replicates.csv), under any BLAS thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analytic, functions, kernels, sums, verify
from .errors import ConfigError, DomainError, QuarticLabError
from .kernels import CovKernel, Grid, fbm_composite_kernel, fbm_quarter_kernel, heat_kernel
from .simulate import write_ensemble_csv

_NAMED_KERNELS = {
    "heat": heat_kernel,
    "fbm": fbm_quarter_kernel,
    "fbm-composite": fbm_composite_kernel,
    "bm": lambda: CovKernel("bm"),
}


def _kernel_from(value):
    if isinstance(value, CovKernel):
        return value
    if isinstance(value, dict):
        return CovKernel.from_dict(value)
    if isinstance(value, str):
        maker = _NAMED_KERNELS.get(value)
        if maker is None:
            raise ConfigError(
                f"unknown kernel {value!r}; named kernels: {', '.join(sorted(_NAMED_KERNELS))}"
            )
        return maker()
    raise ConfigError("kernel must be a name or a kernel record")


def _g_from(value):
    if isinstance(value, functions.TestFunction):
        return value
    if isinstance(value, dict):
        return functions.from_spec(value)
    if isinstance(value, str):
        return functions.builtin(value)
    raise ConfigError("g must be a test-function name or spec record")


def _float_list(text):
    """The floats of a comma list; an empty list is left to the check of what it sets.

    An argparse type: text that does not parse is argparse's usage error
    (exit 2), which names the flag.
    """
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated float list, got {text!r}") from exc


# ---------------------------------------------------------------------------
# Experiment configuration.
# ---------------------------------------------------------------------------

# One row per experiment: its verify function and its tolerance keys.  The
# other config keys and their defaults, the kernel and g included, are the
# function's keyword parameters, read from its signature.
_SPECS = {
    "ito": ("verify_ito_formula", ("ks_tol", "mean_tol", "var_tol")),
    "bn": ("verify_bn_limit", ("ks_tol", "corr_tol")),
    "trapezoid": ("verify_trapezoid_ucp", ("final_tol", "max_inversions")),
    "expansion": ("verify_expansion_residual", ("max_inversions",)),
    "fbm-window": ("verify_fbm_window", ("ks_tol", "mean_tol", "var_tol")),
}


def _defaults(function, tolerances):
    params = inspect.signature(getattr(verify, function)).parameters
    skip = verify.CALL_ONLY | set(tolerances)
    return {k: p.default for k, p in params.items() if k not in skip}


EXPERIMENTS = tuple(_SPECS)
_DEFAULTS = {name: _defaults(*spec) for name, spec in _SPECS.items()}


def _int_from(low, below=math.inf):
    def check(key, value):
        if isinstance(value, bool) or not isinstance(value, int) or not low <= value < below:
            upper = "" if below == math.inf else f" and < {below}"
            raise ConfigError(f"{key} must be an integer >= {low}{upper}, got {value!r}")
        return value

    return check


def _float_from(ok, what):
    def check(key, value):
        if not (kernels.finite_number(value) and ok(value)):
            raise ConfigError(f"{key} must be a finite {what}, got {value!r}")
        return float(value)

    return check


def _list_of(check_item):
    def check(key, value):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{key} must be a nonempty list, got {value!r}")
        return tuple(check_item(key, v) for v in value)

    return check


def _parsed(parse):
    def check(key, value):
        try:
            return parse(value)
        except (DomainError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad {key}: {exc}") from exc

    return check


_POSITIVE = _float_from(lambda v: v > 0, "positive number")

# compute-kappa's tolerance: float64 certifies no bound below KAPPA_MIN_TOL.
_KAPPA_TOL = _float_from(lambda v: analytic.KAPPA_MIN_TOL <= v <= 0.5,
                         f"number in [{analytic.KAPPA_MIN_TOL:g}, 0.5]")

# Validator and normalizer per config or tolerance key; each raises
# ConfigError.  Tolerances without an entry must be positive numbers.
_CHECKS = {
    "kernel": _parsed(_kernel_from),
    "g": _parsed(_g_from),
    "c": _float_from(lambda v: True, "number"),
    "n": _int_from(2),
    "n_list": _list_of(_int_from(2)),
    "m": _int_from(1),
    "horizon": _POSITIVE,
    "probes": _list_of(_POSITIVE),
    # A master seed is one 64-bit component of a stream key (`rng`).
    "seed": _int_from(0, 1 << 64),
    "seeds": _int_from(1),
    "window_start": _float_from(lambda v: v >= 0, "nonnegative number"),
    "max_inversions": _int_from(0),
}


def _refuse_unknown(what, experiment, given, allowed):
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown {what} keys for {experiment}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _from_dict(experiment, rec):
    if experiment not in _SPECS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    rec = {} if rec is None else rec
    if not isinstance(rec, dict):
        raise ConfigError("config must be a JSON object")
    _refuse_unknown("config", experiment, rec, set(_DEFAULTS[experiment]) | {"tolerances", "out_dir"})
    tolerances = {} if rec.get("tolerances") is None else rec["tolerances"]
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be a JSON object")
    _refuse_unknown("tolerance", experiment, tolerances, set(_SPECS[experiment][1]))
    kwargs = {key: _CHECKS.get(key, _POSITIVE)(key, value) for key, value in tolerances.items()}
    out_dir = rec.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a path string")

    for key, default in _DEFAULTS[experiment].items():
        value = rec.get(key, default)
        # None is a value only where the experiment's own default is None.
        kwargs[key] = None if value is None and default is None else _CHECKS[key](key, value)
    return ExperimentConfig(experiment, kwargs, out_dir)


@dataclass(frozen=True)
class ExperimentConfig:
    """One `verify` run: its experiment, the checked arguments of its verify call, its out_dir.

    kwargs holds every config key of the experiment and each tolerance
    given, each one normalized by its `_CHECKS` entry; a tolerance not
    given falls to the verify function's own default.
    """

    experiment: str
    kwargs: dict
    out_dir: str | None

    from_dict = staticmethod(_from_dict)


def run_experiment(config):
    """Run a validated config through its experiment's verify function."""
    return getattr(verify, _SPECS[config.experiment][0])(**config.kwargs)


# ---------------------------------------------------------------------------
# Verbs.
# ---------------------------------------------------------------------------

def _flag(flag, check, parse=int):
    """An argparse type: parse the flag's text, then `check` it under the flag's name.

    A failed check raises ConfigError out of parse_args; text that `parse`
    rejects stays argparse's own "invalid <type> value" usage error.
    """

    def convert(text):
        return check(flag, parse(text))

    convert.__name__ = parse.__name__
    return convert


def _cmd_compute_kappa(args):
    result = analytic.kappa(args.tol)
    print(f"kappa = {result.value:.10f}")
    print(f"certified bound = {result.bound:.3e} (requested {args.tol:.1e})")
    print(f"series terms = {result.terms}")
    return 0


def _cmd_cov_table(args):
    table = analytic.discrete_cov_table(args.n, maxj=args.maxj, lag=args.lag)
    report = analytic.audit_cov_table(args.n, maxj=args.maxj)
    os.makedirs(args.out, exist_ok=True)

    with open(os.path.join(args.out, "table.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("j,sigma_sq,sigma_hat\n")
        for j in range(1, table.maxj + 1):
            fh.write(f"{j},{table.sigma_sq[j - 1]:.17g},{table.sigma_hat[j - 1]:.17g}\n")
    with open(os.path.join(args.out, "cross.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("i,j,cov\n")
        for i in range(1, table.maxj + 1):
            for ell in range(1, table.lag + 1):
                value = table.cross[i - 1, ell - 1]
                if not math.isnan(value):
                    fh.write(f"{i},{i + ell},{value:.17g}\n")
    with open(os.path.join(args.out, "audit.json"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")

    status = "ok" if report.ok else "VIOLATIONS FOUND"
    print(f"covariance audit at n={args.n}, maxj={report.maxj}: {status}")
    print(f"  sig2 max ratio   = {report.sig2_max_ratio:.6f}")
    print(f"  sighat sup ratio = {report.sighat_sup_ratio:.6f} (reported, no pinned constant)")
    print(f"  sigdel sup ratio = {report.sigdel_sup_ratio:.6f} (reported, no pinned constant)")
    print(f"wrote table.csv, cross.csv, audit.json to {args.out}")
    return 0 if report.ok else 1


def _cmd_sample(args):
    grid = Grid(args.n, args.horizon)
    write_ensemble_csv(verify.draw_ensemble(args.kernel, grid, args.m, args.seed), grid, args.out)
    print(
        f"wrote {args.m} paths (kernel {args.kernel.canonical_id()}, n={args.n}, "
        f"T={args.horizon:g}) to {args.out}"
    )
    return 0


# One row per sums functional: its function in `sums`.  Which of the
# option flags below it takes is read from the function's signature.
_SUMS = {
    "midpoint": "midpoint_sum_ensemble",
    "offset": "offset_midpoint_sum_ensemble",
    "trapezoid": "trapezoid_sum_ensemble",
    "jn": "alt_qv_weighted_ensemble",
    "qn": "qn_process_ensemble",
    "bn": "bn_process_ensemble",
    "bnbar": "bn_smoothed_ensemble",
    "power": "power_sum_ensemble",
}

# Option flags of `sums`, by the parameter of the sums function each sets,
# with their argparse keywords; each defaults to None, unset.
_SUMS_OPTIONS = {
    "g": ("--g", {}),
    "deriv_order": ("--deriv",
                    {"type": _flag("--deriv", _int_from(0, functions.MAX_DX_ORDER + 1))}),
    "p": ("--p", {"type": int}),
    "parity": ("--parity", {"choices": sums.PARITIES}),
    "eval_point": ("--eval-point", {"choices": sums.EVAL_POINTS}),
}


def _cmd_sums(args):
    function = getattr(sums, _SUMS[args.functional])
    params = inspect.signature(function).parameters
    options = {key: getattr(args, key) for key in _SUMS_OPTIONS if getattr(args, key) is not None}
    for key in options:
        if key not in params:
            flag = _SUMS_OPTIONS[key][0]
            raise ConfigError(f"{flag} does not apply to functional {args.functional!r}")
    if "p" in params and args.p not in (3, 4):
        raise ConfigError("--p must be 3 or 4 for the power functional")

    grid = Grid(args.n, max(args.t))
    spec = {"id": args.g or "const"}
    if args.coeffs is not None:
        spec["coeffs"] = args.coeffs
    g = _CHECKS["g"]("--g", spec)
    if "g" in params:
        options["g"] = g
    values = verify.draw_ensemble(args.kernel, grid, args.m, args.seed)
    series = function(values, grid, **options)

    times = grid.times()
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("replicate,t,value\n")
        for rep in range(args.m):
            for t in args.t:
                k = grid.index_at(t)
                fh.write(f"{rep},{times[k]:.17g},{series[rep, k]:.17g}\n")
    for t in args.t:
        col = series[:, grid.index_at(t)]
        se = float(np.std(col, ddof=1) / np.sqrt(col.size)) if col.size > 1 else float("nan")
        print(f"t={t:g}: mean = {col.mean():.6f}  se = {se:.6f}  ({col.size} replicates)")
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args):
    rec = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                rec = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise ConfigError("config file must hold a JSON object")
    flags = {key: getattr(args, key) for key in _VERIFY_KEYS if getattr(args, key) is not None}
    for key in sorted(flags.keys() - _DEFAULTS[args.experiment].keys()):
        raise ConfigError(f"{_DRAW_FLAGS[key][0]} does not apply to experiment {args.experiment!r}")
    rec |= flags
    config = ExperimentConfig.from_dict(args.experiment, rec)

    report = run_experiment(config)
    outdir = args.out or config.out_dir or f"verify-{config.experiment}"
    summary_path, csv_path = report.write(outdir)

    for check in report.checks:
        verdict = "pass" if check.passed else "FAIL"
        flag = "  [flagged]" if check.flagged else ""
        bound = f"(threshold {check.threshold:g})"
        print(f"  [{verdict}] {check.name}: {check.value:.6g} {bound}{flag}")
    print(f"wrote {summary_path} and {csv_path}")
    print(f"experiment {config.experiment}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

# Draw flags, by the config key each sets, with the default that `sample`
# and `sums` give it.  `verify` takes the numeric three with no default,
# so that its config, or else the experiment, decides.
_DRAW_FLAGS = {"kernel": ("--kernel", "heat"), "n": ("--n", 1024), "m": ("--M", 100),
               "seed": ("--seed", 7)}
_VERIFY_KEYS = ("n", "m", "seed")


def _add_draw_flags(parser, keys=tuple(_DRAW_FLAGS), defaults=True):
    for key in keys:
        flag, default = _DRAW_FLAGS[key]
        parse = str if key == "kernel" else int
        parser.add_argument(flag, dest=key, type=_flag(flag, _CHECKS[key], parse),
                            default=default if defaults else None)


# Built once per process: a parser rebuilt on every `main` call leaves its
# garbage among the few objects a warm `verify` call keeps, and the heap
# pages that hold them stay mapped.  Parsing changes no parser state.
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="quartic-lab",
        description="Simulation laboratory for quartic-variation Gaussian processes.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compute-kappa", help="series constant with a certified error bound")
    p.add_argument("--tol", type=_flag("--tol", _KAPPA_TOL, float), default=1e-6)
    p.set_defaults(func=_cmd_compute_kappa)

    p = sub.add_parser("cov-table", help="increment covariance table and inequality audit")
    p.add_argument("--n", type=_flag("--n", _int_from(1)), default=4096)
    p.add_argument("--maxj", type=_flag("--maxj", _int_from(1)), default=None)
    p.add_argument("--lag", type=_flag("--lag", _int_from(0)), default=None)
    p.add_argument("--out", default="cov-table")
    p.set_defaults(func=_cmd_cov_table)

    p = sub.add_parser("sample", help="draw an exact-covariance path ensemble into a CSV file")
    _add_draw_flags(p)
    p.add_argument("--T", dest="horizon", type=_flag("--T", _CHECKS["horizon"], float), default=1.0)
    p.add_argument("--out", required=True, help="CSV file: replicate,j,t,value")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sums", help="evaluate a discrete functional over an ensemble")
    p.add_argument("--functional", required=True, choices=tuple(_SUMS))
    for key, (flag, kwargs) in _SUMS_OPTIONS.items():
        p.add_argument(flag, dest=key, default=None, **kwargs)
    p.add_argument("--coeffs", type=_float_list, default=None,
                   help="comma list, only with --g poly_k")
    p.add_argument("--t", type=_flag("--t", _CHECKS["probes"], _float_list), default="1.0",
                   help="comma list of probe times (default 1.0)")
    _add_draw_flags(p)
    p.add_argument("--out", default="sums.csv")
    p.set_defaults(func=_cmd_sums)

    p = sub.add_parser("verify", help="run one end-to-end experiment")
    p.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    p.add_argument("--config", default=None, help="JSON config file (strict schema)")
    p.add_argument("--out", default=None, help="output directory for summary.json + CSV")
    # Checked as they parse, then copied into the config by key (`_cmd_verify`).
    _add_draw_flags(p, _VERIFY_KEYS, defaults=False)
    # `workers` is no flag (`--workers` is an unrecognized argument); the
    # benchmark's environment record (bench/child.py) still reads this
    # inert default, and nothing else does.
    p.set_defaults(func=_cmd_verify, workers=1)

    return parser


# glibc's malloc raises its mmap threshold to the largest block freed so
# far and trims the heap top once twice that much is free, so whether an
# (M, N+1) array is mapped afresh, reuses a freed heap hole or grows the
# heap depends on the order of earlier frees, and the peak memory of one
# `verify` run differs from the next by tens of MiB.  Pinned thresholds
# keep every block below 32 MiB on the heap and free heap memory mapped
# (up to 1 GiB) for reuse, so the peak is the same from run to run.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _pin_malloc_thresholds():
    """Fix glibc's malloc thresholds once per process; a no-op without glibc."""
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None):
    _pin_malloc_thresholds()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuarticLabError, OSError) as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(diagnostic, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
