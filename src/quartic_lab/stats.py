"""Statistical primitives for the verification experiments.

Raw statistics only: the experiments compare them against pre-registered
thresholds, so no p-values are computed anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DomainError


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


def ks_one_sample_normal(a, mean=0.0, sd=1.0):
    """Sup distance between the ECDF and a normal CDF.

    Both one-sided gaps are taken at every sample point: the ECDF exceeds
    the CDF just after a jump and undershoots just before it.
    """
    if not sd > 0:
        raise DomainError("sd must be positive")
    a = np.sort(_clean_sample(a, "a"))
    n = a.size
    phi = ndtr((a - mean) / sd)
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
    from scipy.stats import t as student_t

    half = float(student_t.ppf(0.975, dof)) * stderr
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
    if abs(r) == 1.0 or a.size <= 3:
        return CorrelationResult(r=r, ci_low=r, ci_high=r, count=a.size)
    z = math.atanh(r)
    half = 1.959963984540054 / math.sqrt(a.size - 3)
    return CorrelationResult(
        r=r, ci_low=math.tanh(z - half), ci_high=math.tanh(z + half), count=a.size
    )


@dataclass(frozen=True)
class SampleSummary:
    """Streaming-mergeable moments: count, mean, and central sums M2..M4.

    Merging two summaries reproduces the summary of the concatenated
    sample; count, mean, and M2 merge by algebraic identities, so the
    first two moments are exact up to float roundoff.
    """

    count: int
    mean: float
    m2: float
    m3: float
    m4: float

    @staticmethod
    def from_sample(a):
        a = _clean_sample(a, "sample")
        mean = float(a.mean())
        d = a - mean
        return SampleSummary(
            count=int(a.size),
            mean=mean,
            m2=float(np.sum(d**2)),
            m3=float(np.sum(d**3)),
            m4=float(np.sum(d**4)),
        )

    def merge(self, other):
        na, nb = self.count, other.count
        n = na + nb
        delta = other.mean - self.mean
        mean = self.mean + delta * nb / n
        m2 = self.m2 + other.m2 + delta**2 * na * nb / n
        m3 = (
            self.m3
            + other.m3
            + delta**3 * na * nb * (na - nb) / n**2
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n
        )
        m4 = (
            self.m4
            + other.m4
            + delta**4 * na * nb * (na**2 - na * nb + nb**2) / n**3
            + 6.0 * delta**2 * (na**2 * other.m2 + nb**2 * self.m2) / n**2
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n
        )
        return SampleSummary(count=n, mean=mean, m2=m2, m3=m3, m4=m4)

    @property
    def variance(self):
        """Unbiased variance; NaN for a single observation."""
        if self.count < 2:
            return float("nan")
        return self.m2 / (self.count - 1)

    @property
    def skewness(self):
        if self.count < 2 or self.m2 == 0.0:
            return float("nan")
        n = self.count
        return (self.m3 / n) / (self.m2 / n) ** 1.5

    @property
    def kurtosis_excess(self):
        if self.count < 2 or self.m2 == 0.0:
            return float("nan")
        n = self.count
        return (self.m4 / n) / (self.m2 / n) ** 2 - 3.0

    @property
    def se_mean(self):
        if self.count < 2:
            return float("nan")
        return math.sqrt(self.variance / self.count)

    @property
    def se_variance(self):
        """Normal-theory standard error of the variance estimate."""
        if self.count < 2:
            return float("nan")
        return self.variance * math.sqrt(2.0 / (self.count - 1))

    def to_dict(self):
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "kurtosis_excess": self.kurtosis_excess,
            "se_mean": self.se_mean,
            "se_variance": self.se_variance,
        }
