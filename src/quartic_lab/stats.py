"""Statistical primitives for the verification experiments.

Raw statistics only: the experiments compare them against pre-registered
thresholds, so no p-values are computed anywhere in the package.  The
one-sample KS distance is to the standard normal; its caller standardizes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError

# The Student-t quantile at 0.975 for dof 1 .. 30, the rate fit's CI
# factor: scipy.special.stdtrit(dof, 0.975), which is what
# scipy.stats.t.ppf(0.975, dof) returns, bit for bit.  A table, so that
# a fit on up to 32 sizes imports neither scipy.special nor scipy.stats.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)


def _clean_sample(a, name):
    arr = np.asarray(a, dtype=np.float64).ravel()
    if arr.size == 0:
        raise DomainError(f"sample {name} is empty")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"sample {name} contains non-finite values")
    return arr


def ks_two_sample(a, b):
    """Sup distance between the two empirical CDFs.

    Evaluated by merge-scan at the jump points of both ECDFs, which is
    where the sup of a difference of right-continuous step functions is
    attained.
    """
    a = np.sort(_clean_sample(a, "a"))
    b = np.sort(_clean_sample(b, "b"))
    pts = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pts, side="right") / a.size
    cdf_b = np.searchsorted(b, pts, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_one_sample_normal(a):
    """Sup distance between the ECDF and the standard normal CDF.

    A caller standardizes its sample first, as `verify_bn_limit` does.
    Both one-sided gaps are taken at every sample point: the ECDF exceeds
    the CDF just after a jump and undershoots just before it.
    """
    # Imported here, so that only the runs that take this statistic (bn)
    # load scipy.special.
    from scipy.special import ndtr

    a = np.sort(_clean_sample(a, "a"))
    n = a.size
    phi = ndtr(a)
    upper = np.arange(1, n + 1) / n - phi
    lower = phi - np.arange(0, n) / n
    return float(max(np.max(upper), np.max(lower)))


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log y on log x with a 95% CI."""

    slope: float
    intercept: float
    stderr: float
    ci_low: float
    ci_high: float

    def to_dict(self):
        return asdict(self)


def _t975(dof):
    """stdtrit(dof, 0.975), for a fit beyond the table: it imports scipy.special."""
    from scipy.special import stdtrit

    return float(stdtrit(dof, 0.975))


def loglog_rate(xs, ys):
    """Empirical order of convergence from (size, error) pairs."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size != ys.size or xs.size < 3:
        raise DomainError("rate regression needs at least 3 (x, y) pairs")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise DomainError("rate regression needs strictly positive inputs")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = xs.size - 2
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    s2 = float(np.sum(resid**2)) / dof
    stderr = math.sqrt(s2 / sxx)
    half = (_T975[dof - 1] if dof <= len(_T975) else _t975(dof)) * stderr
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        stderr=stderr,
        ci_low=float(slope) - half,
        ci_high=float(slope) + half,
    )


@dataclass(frozen=True)
class CorrelationResult:
    """Pearson correlation with a 95% Fisher-transform CI."""

    r: float
    ci_low: float
    ci_high: float
    count: int

    def to_dict(self):
        return asdict(self)


def correlation(a, b):
    a = _clean_sample(a, "a")
    b = _clean_sample(b, "b")
    if a.size != b.size or a.size < 4:
        raise DomainError("correlation needs matched samples of size >= 4")
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float(np.sum(da**2)) * float(np.sum(db**2)))
    if denom == 0.0:
        raise DomainError("correlation undefined for a constant sample")
    r = float(np.sum(da * db)) / denom
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return CorrelationResult(r=r, ci_low=r, ci_high=r, count=a.size)
    z = math.atanh(r)
    half = 1.959963984540054 / math.sqrt(a.size - 3)
    return CorrelationResult(
        r=r, ci_low=math.tanh(z - half), ci_high=math.tanh(z + half), count=a.size
    )

