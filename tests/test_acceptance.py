"""The ten shipping gates, run at their stated scales and tolerances.

Every criterion prints one [PASS]/[FAIL] line (collected into the
terminal summary by conftest).  Monte Carlo criteria run at seed 7; the
4096-point factors are computed once and shared through the
module fixtures and the factor cache.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES

from quartic_lab.analytic import (
    GaussianMoments,
    audit_cov_table,
    binom,
    gauss_taylor,
    hermite_poly,
    kappa,
    kappa_reference,
    multi_binom,
    poly_mul,
)
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
    values = sample_paths(cached_factor(heat_kernel(), grid), 200, 7).values
    return grid, values


@pytest.fixture(scope="module")
def bn_reports():
    """The Brownian-limit experiment run under 1 and 4 workers."""
    return verify_bn_limit(workers=1), verify_bn_limit(workers=4)


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


def test_criterion_05_bn_limit(bn_reports):
    report, _ = bn_reports
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

    def embed(poly, var):
        return {(k, 0) if var == 0 else (0, k): c for (k,), c in poly.items()}

    # Exact rational arithmetic: at n = m = 8 the values reach 1.7e4, so a
    # float route could not certify an absolute 1e-10.
    one = Fraction(1)
    orth_err = 0.0
    for r in (Fraction(-9, 10), Fraction(-3, 10), Fraction(1, 10), Fraction(1, 2), Fraction(4, 5)):
        gm = GaussianMoments(((one, r), (r, one)))
        for n in range(9):
            for m in range(9):
                value = gm.expectation(
                    poly_mul(embed(hermite_poly(n), 0), embed(hermite_poly(m), 1))
                )
                expect = Fraction(math.factorial(n)) * r**n if n == m else Fraction(0)
                orth_err = max(orth_err, abs(float(value - expect)))

    rhos = (0.1, 0.05, 0.025)
    rems = []
    for rho in rhos:
        res = gauss_taylor({(4,): 1.0}, {(2,): 1.0}, ((1.0,),), (rho,), 1)
        rems.append(abs(float(res.remainder)))
    slope = loglog_rate(rhos, rems).slope

    def compositions(total):
        if total == 0:
            yield ()
            return
        for head in range(1, total + 1):
            for rest in compositions(total - head):
                yield (head,) + rest

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


def test_criterion_10_worker_determinism(bn_reports):
    one, four = bn_reports
    ok = (
        one.summary_json() == four.summary_json()
        and one.replicates_csv() == four.replicates_csv()
    )
    _verdict(
        ok,
        "criterion 10: bn rerun with 1 and 4 workers reproduces summary.json "
        "and replicates.csv byte for byte",
    )
