"""The ten shipping gates, run at their stated scales and tolerances.

Every criterion prints one [PASS]/[FAIL] line (collected into the
terminal summary by conftest).  Monte Carlo criteria run at seed 7; the
4096-point factors are computed once and shared through the
module fixtures and the factor cache.  Criterion 10 runs its
experiments in fresh subprocesses, one per BLAS thread count.
"""

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES, NUMPY_LOG_IS_LIBM
from oracles import binom, compositions, embed, gauss_taylor, hermite_poly, multi_binom

import quartic_lab
from quartic_lab.analytic import (
    GaussianMoments,
    audit_cov_table,
    kappa,
    kappa_reference,
    poly_mul,
)
from quartic_lab.cli import EXPERIMENTS
from quartic_lab.functions import builtin
from quartic_lab.kernels import Grid, heat_kernel
from quartic_lab.simulate import cached_factor, sample_paths
from quartic_lab.stats import loglog_rate
from quartic_lab.sums import power_sum_ensemble
from quartic_lab.verify import (
    verify_bn_limit,
    verify_fbm_window,
    verify_ito_formula,
    verify_trapezoid_ucp,
)


def _verdict(ok, text):
    line = f"[{'PASS' if ok else 'FAIL'}] {text}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _check_value(report, name):
    for ck in report.checks:
        if ck.name == name:
            return ck.value
    raise KeyError(name)


@pytest.fixture(scope="module")
def desk_ensemble():
    """Heat-kernel ensemble shared by the quartic and cubic criteria."""
    grid = Grid(4096)
    values = sample_paths(cached_factor(heat_kernel(), grid), 200, 7)
    return grid, values


def test_criterion_01_kappa_value():
    start = time.perf_counter()
    result = kappa(1e-6)
    elapsed = time.perf_counter() - start
    ok = 1.0285 <= result.value <= 1.0295 and result.bound <= 1e-6 and elapsed < 1.0
    _verdict(
        ok,
        f"criterion 1: kappa(1e-6) = {result.value:.10f} in [1.0285, 1.0295], "
        f"bound {result.bound:.2e} ({elapsed:.2f} s)",
    )


def test_criterion_02_covariance_audit():
    start = time.perf_counter()
    report = audit_cov_table(4096)
    elapsed = time.perf_counter() - start
    ok = report.ok and report.maxj == 4096 and elapsed < 10.0
    _verdict(
        ok,
        f"criterion 2: covariance audit n=4096 all inequalities hold "
        f"(sig2 ratio {report.sig2_max_ratio:.4f}) ({elapsed:.2f} s)",
    )


def test_criterion_03_quartic_variation(desk_ensemble):
    grid, values = desk_ensemble
    const = builtin("const")
    full = float(power_sum_ensemble(values, grid, const, 4, parity="all")[:, -1].mean())
    odd = float(power_sum_ensemble(values, grid, const, 4, parity="odd")[:, -1].mean())
    even = float(power_sum_ensemble(values, grid, const, 4, parity="even")[:, -1].mean())
    t_full = 6.0 / math.pi
    t_half = 3.0 / math.pi
    ok = (
        abs(full / t_full - 1.0) <= 0.05
        and abs(odd / t_half - 1.0) <= 0.07
        and abs(even / t_half - 1.0) <= 0.07
    )
    _verdict(
        ok,
        f"criterion 3: quartic sums full {full:.5f} vs 6/pi {t_full:.5f} "
        f"({abs(full / t_full - 1):.2%}); odd {odd:.5f}, even {even:.5f} vs 3/pi "
        f"({abs(odd / t_half - 1):.2%}, {abs(even / t_half - 1):.2%})",
    )


def test_criterion_04_cubic_sums(desk_ensemble):
    grid, values = desk_ensemble
    linear = builtin("linear")
    left = power_sum_ensemble(values, grid, linear, 3, parity="odd", eval_point="left")[:, -1]
    right = power_sum_ensemble(values, grid, linear, 3, parity="odd", eval_point="right")[:, -1]
    target = 3.0 / (2.0 * math.pi)
    lm, rm = float(left.mean()), float(right.mean())
    paired = left + right
    cancel = abs(float(paired.mean()))
    two_se = 2.0 * float(paired.std(ddof=1)) / math.sqrt(paired.size)
    ok = (
        abs(lm / -target - 1.0) <= 0.10
        and abs(rm / target - 1.0) <= 0.10
        and cancel <= two_se
    )
    _verdict(
        ok,
        f"criterion 4: cubic sums left {lm:.5f} vs {-target:.5f} "
        f"({abs(lm / -target - 1):.2%}), right {rm:.5f} ({abs(rm / target - 1):.2%}); "
        f"|mean(L+R)| {cancel:.5f} <= 2SE {two_se:.5f}",
    )


def test_criterion_05_bn_limit():
    report = verify_bn_limit()
    ks1 = _check_value(report, "ks_normal@t=1")
    corr1 = _check_value(report, "path_corr@t=1")
    incr = _check_value(report, "increment_corr")
    ok = report.passed and ks1 <= 0.06 and corr1 <= 0.1 and incr <= 0.1
    _verdict(
        ok,
        f"criterion 5: bn limit KS(t=1) {ks1:.4f} <= 0.06, |corr(bn, path)| "
        f"{corr1:.4f} <= 0.1, increment corr {incr:.4f} <= 0.1",
    )


def test_criterion_06_trapezoid_ucp():
    report = verify_trapezoid_ucp()
    seq = report.stats["mse"]["t=1"]
    tol = report.stats["final_tol"]["t=1"]
    inversions = _check_value(report, "mse_monotone@t=1")
    ok = (
        report.passed
        and abs(tol - 0.02 / math.pi) < 1e-12
        and seq[-1] <= tol
    )
    _verdict(
        ok,
        f"criterion 6: trapezoid ucp MSE {seq[0]:.3g} -> {seq[-1]:.3g} "
        f"(final <= {tol:.6f}, inversions {inversions:.0f} <= 1)",
    )


def test_criterion_07_ito_formula():
    report = verify_ito_formula()
    var_ref = report.stats["seeds"]["seed0"]["t=1"]["var_ref"]
    kap = kappa_reference()
    ok = (
        report.passed
        and report.stats["passed_seeds"] >= 2
        and abs(var_ref - (2.0 / math.pi + kap**2)) < 1e-12
    )
    _verdict(
        ok,
        f"criterion 7: ito formula {report.stats['passed_seeds']}/3 seeds passed "
        f"(KS<=0.10, |mean diff|<=0.05, |var ratio - 1|<=0.15, "
        f"var_ref {var_ref:.4f} = 2/pi + kappa^2)",
    )


def test_criterion_08_fbm_window():
    report = verify_fbm_window()
    ok = report.passed and report.stats["passed_seeds"] >= 2
    _verdict(
        ok,
        f"criterion 8: fbm window [0.1, 1] {report.stats['passed_seeds']}/3 seeds "
        f"passed at the same thresholds",
    )


def test_criterion_09_hermite_taylor_suite():
    start = time.perf_counter()

    # Exact rational arithmetic: at n = m = 8 the values reach 1.7e4, so a
    # float route could not certify an absolute 1e-10.
    one = Fraction(1)
    orth_err = 0.0
    for r in (Fraction(-9, 10), Fraction(-3, 10), Fraction(1, 10), Fraction(1, 2), Fraction(4, 5)):
        gm = GaussianMoments(((one, r), (r, one)))
        for n in range(9):
            for m in range(9):
                value = gm.expectation(
                    poly_mul(embed(hermite_poly(n), 0, 2), embed(hermite_poly(m), 1, 2))
                )
                expect = Fraction(math.factorial(n)) * r**n if n == m else Fraction(0)
                orth_err = max(orth_err, abs(float(value - expect)))

    rhos = (0.1, 0.05, 0.025)
    rems = []
    for rho in rhos:
        res = gauss_taylor({(4,): 1.0}, {(2,): 1.0}, ((1.0,),), (rho,), 1)
        rems.append(abs(float(res.remainder)))
    slope = loglog_rate(rhos, rems).slope

    lemmas_ok = True
    for a in range(9):
        for b in range(a + 1):
            c = a - b
            if sum(binom(b, b - j) * binom(c, j) for j in range(a + 1)) != binom(a, b):
                lemmas_ok = False
    for tot in range(9):
        for gam in compositions(tot):
            for m in range(tot + 1):
                layer = sum(
                    multi_binom(gam, alpha)
                    for alpha in itertools.product(*(range(g + 1) for g in gam))
                    if sum(alpha) == m
                )
                if layer != binom(tot, m):
                    lemmas_ok = False

    elapsed = time.perf_counter() - start
    ok = orth_err <= 1e-10 and abs(slope - 2.0) <= 0.1 and lemmas_ok and elapsed < 30.0
    _verdict(
        ok,
        f"criterion 9: hermite orthogonality max err {orth_err:.2e} <= 1e-10, "
        f"taylor remainder slope {slope:.3f} = 2 +/- 0.1, binomial lemmas "
        f"enumerated ({elapsed:.2f} s)",
    )


# A fresh interpreter runs each `verify` argv of the JSON object in
# argv[1] (name -> argv) into a temporary directory; `out` maps the name
# to the sha256 of its summary.json and replicates.csv.  Exit codes are
# not compared: a run that fails its gates still writes both files.  The
# verb's own lines go to stderr, and `_digests_by_blas_threads` prints
# `out` as the child's only stdout.
_VERIFY_DIGESTS = """
import contextlib, hashlib, json, os, sys, tempfile
from quartic_lab.cli import main
out = {}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
    for name, argv in json.loads(sys.argv[1]).items():
        path = os.path.join(tmp, name)
        main(["verify", *argv, "--out", path])
        digest = hashlib.sha256()
        for fname in ("summary.json", "replicates.csv"):
            with open(os.path.join(path, fname), "rb") as fh:
                digest.update(fh.read())
        out[name] = digest.hexdigest()
"""

# Heat paths at a power-of-two grid and at an odd size and horizon.
_HEAT_PATHS = """
from quartic_lab.kernels import Grid, heat_kernel
from quartic_lab.simulate import cached_factor, sample_paths
digest = hashlib.sha256()
for grid in (Grid(4096), Grid(3000, 1.7)):
    digest.update(sample_paths(cached_factor(heat_kernel(), grid), 40, 7).tobytes())
out["heat-paths"] = digest.hexdigest()
"""

# Negative control: the heat kernel at n = 1024 forced onto a dense
# Cholesky factor built here, whose LAPACK factorization OpenBLAS rounds
# differently under 1 and 2 threads.  It goes into the child's factor
# cache before any run.
_DENSE_HEAT = """
from dataclasses import dataclass
import numpy as np
from quartic_lab import simulate
from quartic_lab.kernels import Grid, build_cov_matrix, heat_kernel

@dataclass(frozen=True)
class DenseFactor:
    lower: np.ndarray
    grid: Grid
    dim = normals_per_path = 1024

    def synthesize(self, z):
        # One tile of normals, as every factor gets them.
        paths = np.zeros((z.shape[0], self.dim + 1))
        np.matmul(z, self.lower.T, out=paths[:, 1:])
        return paths

grid = Grid(1024)
lower = np.linalg.cholesky(build_cov_matrix(heat_kernel(), grid))
simulate._FACTOR_CACHE[("heat", 1024, 1.0)] = DenseFactor(lower, grid)
"""

# The bytes of criterion 10's outputs: the sha256 that `_VERIFY_DIGESTS`
# and `_HEAT_PATHS` print, the same as tools/verify_defaults.py's for the
# five defaults.  True is where numpy's log is libm's (scipy's ndtri
# bits), False numpy's AVX-512 log (`conftest.NUMPY_LOG_IS_LIBM`).
_PINNED_DIGESTS = {
    True: {
        "ito": "0706346f5308248581e061ee268e1f25248ea0c1a91bceda3b90aa5791e36d31",
        "bn": "fcaf7a0b198fc647cc4882e0ae36cb93df1f52490ebe4d4ad455fb2ba78abedb",
        "trapezoid": "7081e85228363f870b9d0cfdade7cbde391769ef46480b7d905bfe9108b8c8e8",
        "expansion": "2250d0c6143f454ef915217a61a32455d7c620bc6cd4ea21850403d7b3784939",
        "fbm-window": "c5eb0d20d8e7702d0b8fddb6611e3400204b1084fba9e165163c6ed5fc7750cb",
        "fbm-trapezoid": "ed586ea61ed034155d8e13e05e9f43521511e512d632409fdb422c6f8339dc53",
        "heat-paths": "d72d39f9df5aed73698dad6580d11572338b7ba3d4655f14c5852796d8979e3d",
    },
    False: {
        "ito": "2f9fb836c13db0554d44d7619d671844b685bc3f713eb37fa83b834b8fe512eb",
        "bn": "8f6ea8b744519c50dc7812891f01765c1d7d589d339fb7b7cf861a9703902aaa",
        "trapezoid": "724e4af43c6b558a32f55ee49669e1806d286aa7ec2fd6341f473f6e60bb66c4",
        "expansion": "914c837ecba9addbe713ee977d93cef9984b83659e7bfe7acdae4bc1b4d31232",
        "fbm-window": "09280fefd68e3d35851b1d136f5106f00e250c0ff9fe35e709f47f51308e04f1",
        "fbm-trapezoid": "27f95cac00685baf021671465a35e5303bc45139dd3b11a485f308757ba325f3",
        "heat-paths": "e71a67e03eed3a13433d220134660a1aa9178a0df403a8df18dc6d5ce5ad54a3",
    },
}

_FBM_TRAPEZOID = {
    "kernel": "fbm", "n_list": [1024, 2048], "m": 200, "g": "cube",
    "tolerances": {"final_tol": 0.15},
}


def _digests_by_blas_threads(script, runs):
    """The child's digests in fresh processes under OPENBLAS_NUM_THREADS 1 and 2."""
    src = str(pathlib.Path(quartic_lab.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script + "print(json.dumps(out))\n", json.dumps(runs)],
            env=env, capture_output=True, text=True, timeout=600, check=True,
        )
        digests.append(json.loads(done.stdout))
    return digests


@pytest.fixture(scope="module")
def criterion_10_digests(tmp_path_factory):
    """(runs, [digests under 1 thread, under 2]) of criterion 10, each run drawn once."""
    config = tmp_path_factory.mktemp("criterion-10") / "fbm-trapezoid.json"
    config.write_text(json.dumps(_FBM_TRAPEZOID))
    runs = {name: ["--experiment", name] for name in EXPERIMENTS}
    runs["fbm-trapezoid"] = ["--experiment", "trapezoid", "--config", str(config)]
    return runs, _digests_by_blas_threads(_VERIFY_DIGESTS + _HEAT_PATHS, runs)


def test_criterion_10_worker_determinism(criterion_10_digests):
    """The outputs do not depend on how many OpenBLAS worker threads run."""
    runs, (one, two) = criterion_10_digests
    differ = sorted(name for name in one.keys() | two.keys() if one.get(name) != two.get(name))
    ok = len(one) == len(runs) + 1 and not differ
    _verdict(
        ok,
        f"criterion 10: {len(one) - len(differ)}/{len(runs) + 1} outputs "
        f"({', '.join(sorted(one))}) byte-identical in fresh processes under "
        f"OPENBLAS_NUM_THREADS 1 and 2{'; differ: ' + ', '.join(differ) if differ else ''}",
    )


def test_criterion_10_outputs_keep_their_pinned_bytes(criterion_10_digests):
    """Under one thread, every output has the bytes pinned for this numpy log dispatch."""
    _, (one, _) = criterion_10_digests
    assert one == _PINNED_DIGESTS[NUMPY_LOG_IS_LIBM]


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS runs one thread on one core"
)
def test_criterion_10_fails_on_a_dense_heat_factor():
    runs = {"bn-dense": ["--experiment", "bn", "--n", "1024", "--M", "200"]}
    one, two = _digests_by_blas_threads(_DENSE_HEAT + _VERIFY_DIGESTS, runs)
    assert one.keys() == two.keys() == runs.keys()
    assert one != two
