"""Exact Gaussian path sampling, with one factor type per kernel.

`cached_factor(kernel, grid)` picks the sampler for a kernel, and is the
one place that choice is made; every factor draws paths through the same
`synthesize(z, out)` call, so `sample_paths` knows no kernel.  Each
factor also declares the row block it synthesizes at once
(`block_rows`), and `row_blocks` is the one blocking rule that
`sample_paths` and every experiment of `verify` follow.  Paths are
drawn jointly exact: there is no approximation beyond float64 linear
algebra and FFTs, and the deterministic zero at t_0 is reattached after
synthesis.  The one exception is a dense factor that took the jitter
retry (`CholeskyFactor.jittered`): it draws from the covariance plus
JITTER_REL * max(diag) on the diagonal.  `xi` takes it (measured at
n = 64, 256 and 1024): its increment covariance has numerical rank of
about 20 to 50 (see `HeatFactor`).  There are four backends:

* `BrownianFactor` (`bm`): the path is the cumulative sum of the
  replicate's N normals, each scaled by sqrt(dt).  O(N) per path and no
  set-up; rows go _SYNTH_ROWS at a time.
* `CirculantFactor` (`fbm_quarter`): Davies-Harte circulant embedding of
  fractional Gaussian noise (Davies & Harte 1987; Dietrich & Newsam 1997).
  The Toeplitz increment covariance is embedded in a 2N circulant whose
  eigenvalues lambda_0 .. lambda_N are the real FFT of its first row; for
  Hurst index 1/4 they are nonnegative, so the draw is exact, and
  lambda_min / lambda_max is kept as the certificate.  A replicate's 2N
  normals are laid out as [re_0, re_N, Re_1 .. Re_{N-1}, Im_1 .. Im_{N-1}]:
  they fill the half spectrum, scaled by sqrt(lambda), whose length-2N
  inverse real FFT holds the N increments in its first half; their
  cumulative sum is the path.  O(N log N) per path; rows go _SYNTH_ROWS
  at a time, so the half spectrum and inverse-FFT temporaries are
  O(_SYNTH_ROWS * N) whatever M is.
* `HeatFactor` (`heat`): fbm_quarter = c^2 heat + xi with xi independent
  (`kernels`; Lei & Nualart 2009), so the increment covariance of c F
  is T - K: T the fGn Toeplitz matrix that Davies-Harte draws exactly,
  K_ij = sqrt(dt) gamma(i+j+1) / 2 the increment covariance of xi, a
  PSD Hankel matrix of numerical rank r of about 20 to 50.  Set-up
  factors K ~ U U^T by a pivoted Cholesky that reads only the O(N)
  sequence gamma and stops when the residual trace, a bound on
  ||K - U U^T||_2 because the residual is PSD, is down to the rounding of
  the tracked diagonal; solves W = T^-1 U by preconditioned conjugate
  gradients on FFT products (T. Chan's circulant preconditioner); and
  factors I - U^T W = L L^T, so that S = L^T U^T has S^T S =
  U (I - U^T W) U^T.  A path is then c dF = X - U W^T X + S^T z' =
  X + U (L z' - W^T X), whose covariance is T - U U^T, followed by a
  cumulative sum.  A replicate's 2N + r normals are laid out as
  [2N Davies-Harte | r residual]: X is the fGn drawn from the first 2N
  in the fBm layout above, z' the last r.  O(N (log N + r)) per path,
  O(N r) set-up memory and no dense matrix.  Rows go _SYNTH_ROWS at a
  time; within a block the rank-r products run over fixed tiles of
  _TILE_ROWS rows, the last one zero-padded, so that each row's bits
  depend neither on the row block nor on the BLAS thread count.
* `CholeskyFactor` (every other kernel): values at t_1 .. t_N are L @ z
  with L the dense Cholesky factor of the covariance matrix and z the N
  normals of the replicate's stream.  One 8N^2-byte buffer serves from
  build to synthesis: `build_cov_matrix` fills it from O(N) square root
  tables, `dpotrf` factors it in place, and a triangular multiply
  (`dtrmm`) applies it to the normals in place.  O(N^3) set-up.  Rows
  go 256 at a time: at N=4096 and M=1000 one `dtrmm` over the whole
  ensemble takes 0.21 s, against 0.24 s in 256-row blocks (bitwise the
  same result; median of 7 on a 2-core VM, OpenBLAS 0.3.31), and the
  block keeps the normals and paths next to the factor at O(256 N).

A cumulative sum or an inverse FFT transforms each row on its own, so
the O(N) backends give bit for bit the same paths in any row block; the
triangular multiply gave bitwise the same paths in every block size
measured.

`sample_paths` synthesizes from an (M, normals_per_path) block of
normals when one is given; by default it draws each row block's normals
from the replicates' streams (`path_normals`) just before synthesizing
it, so a backend holds O(block_rows * N) normals at a time.
Because a stream's shorter draw is a prefix of its longer one (`rng`),
one block drawn for the largest grid of an MSE ladder serves every grid
of it: each smaller grid is sampled from a copy of the block's first
normals_per_path columns, the largest from the block itself.

`sample_brownian` draws the independent standard Brownian motion of each
replicate, the driving noise of the corrected change-of-variable
formula: `sample_paths` on a `BrownianFactor`, drawing from the disjoint
ROLE_BM streams.  Both take the index of their first replicate (`first`),
so a row block of an experiment draws the rows a whole draw would.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import rng
from .analytic import gamma
from .errors import DomainError, NotPositiveDefinite
from .kernels import FBM_HEAT_SCALE, CovKernel, Grid, _require_memory, build_cov_matrix

# Pivots below JITTER_REL * max(diag) trigger one diagonal jitter retry.
JITTER_REL = 1e-12

# Circulant eigenvalues below -CIRCULANT_NEG_REL * lambda_max mean the
# embedding is not PSD; smaller negatives are rounding and clip to 0.
CIRCULANT_NEG_REL = 1e-12

# The O(N) backends synthesize this many rows at a time, which bounds
# their normals, half spectra and inverse-FFT temporaries.
_SYNTH_ROWS = 32

# HeatFactor applies its rank-r products to tiles of this many rows, the
# last zero-padded: OpenBLAS rounds a row differently as the height of a
# product changes, so a fixed tile keeps each row's bits independent of
# the row block.  The projection X W goes _TILE_COLS columns of W at a
# time: with 32 to 48 columns, 2 OpenBLAS threads rounded it differently
# from 1 at most N from 3576 to 69017 tried; 16 columns never did.
_TILE_ROWS = 8
_TILE_COLS = 16

# The pivoted Cholesky of the Hankel part stops at this rank at the
# latest.  The rank grows by about 4 per doubling of N (49 at N = 65536),
# so a grid that would exceed it is far beyond any physical memory.
_HANKEL_RANK_CAP = 128

# Conjugate gradients on T W = U stop at this relative residual per column.
_CG_TOL = 1e-15
_CG_MAX_ITER = 100

# Counts calls that actually run the dense factorization; lets tests
# assert the "factor once, sample many" contract.
FACTORIZATION_COUNT = 0

_BIN_MAGIC = b"QLABENS1"
_BIN_VERSION = 1
_BIN_HEAD = "<IQdQQI"


@dataclass(frozen=True)
class BrownianFactor:
    """Standard Brownian motion on a grid: the cumulative sum of sqrt(dt) z.

    grid, kernel_id: provenance carried to sampled ensembles.
    """

    grid: Grid
    kernel_id: str = "bm"

    @property
    def dim(self):
        return self.grid.nsteps

    @property
    def normals_per_path(self):
        return self.dim

    @property
    def block_rows(self):
        return _SYNTH_ROWS

    def synthesize(self, z, out):
        """out[m] = cumsum(sqrt(dt) z[m]) for the (M, N) normals z, which it scales."""
        z *= math.sqrt(self.grid.dt)
        np.cumsum(z, axis=1, out=out)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor with provenance.

    matrix_l:    L with L @ L.T equal to the source matrix.
    jittered:    True when the single diagonal jitter retry was used.
    grid, kernel_id: optional provenance carried to sampled ensembles.
    """

    matrix_l: np.ndarray
    jittered: bool = False
    grid: Grid | None = None
    kernel_id: str = ""

    @property
    def dim(self):
        return self.matrix_l.shape[0]

    @property
    def normals_per_path(self):
        return self.dim

    # Rows synthesized by one triangular multiply (see the module doc).
    block_rows = 256

    def synthesize(self, z, out):
        """out[m] = L @ z[m] for the (M, N) normals z, which it overwrites.

        One triangular multiply (BLAS dtrmm) in place on z.T, which is
        F-contiguous for C-ordered z, so no (N, M) temporary is made.
        """
        from scipy.linalg import blas

        out[...] = blas.dtrmm(1.0, self.matrix_l, z.T, lower=1, overwrite_b=1).T


@dataclass(frozen=True)
class CirculantFactor:
    """Davies-Harte factor of a stationary-increment path.

    sqrt_eigs:   sqrt(lambda_0 .. lambda_N), eigenvalues of the 2N circulant
                 embedding of the increment autocovariance.
    certificate: lambda_min / lambda_max before clipping; >= 0 (up to
                 rounding) means the draw is exact.
    grid, kernel_id: optional provenance carried to sampled ensembles.
    """

    sqrt_eigs: np.ndarray
    certificate: float
    grid: Grid | None = None
    kernel_id: str = ""

    @property
    def dim(self):
        return self.sqrt_eigs.size - 1

    @property
    def normals_per_path(self):
        return 2 * self.dim

    @property
    def block_rows(self):
        return _SYNTH_ROWS

    def increments(self, z, scale=1.0):
        """scale times the (M, N) increments from the (M, 2N) normals z; see the module doc.

        A view into the inverse FFT's output, whose other half it keeps alive.
        """
        n = self.dim
        # sqrt(2N) undoes irfft's 1/(2N); interior modes split lambda_k
        # evenly between the real and imaginary parts.
        weights = self.sqrt_eigs * (math.sqrt(n) * scale)
        weights[[0, n]] *= math.sqrt(2.0)
        spec = np.empty((z.shape[0], n + 1), dtype=np.complex128)
        np.multiply(z[:, 0], weights[0], out=spec.real[:, 0])
        np.multiply(z[:, 1], weights[n], out=spec.real[:, n])
        np.multiply(z[:, 2 : n + 1], weights[1:n], out=spec.real[:, 1:n])
        np.multiply(z[:, n + 1 : 2 * n], weights[1:n], out=spec.imag[:, 1:n])
        spec.imag[:, [0, n]] = 0.0
        return np.fft.irfft(spec, n=2 * n, axis=1)[:, :n]

    def synthesize(self, z, out):
        """Paths from the (M, 2N) normals z into out (M, N); see the module doc."""
        np.cumsum(self.increments(z), axis=1, out=out)


@dataclass(frozen=True)
class HeatFactor:
    """Davies-Harte fGn minus a low-rank Hankel part: the heat slice (module doc).

    With U the (N, r) Hankel factor, W = T^-1 U and I - U^T W = L L^T, a
    row of increments is y = (x + (z' L^T - x W) U^T) / c, x the fGn row
    and z' the row's r residual normals; S = L^T U^T, as S^T z' = U L z'.

    fgn:            `CirculantFactor` of the fGn Toeplitz part T.
    solved:         (r, N) rows of W^T.
    basis:          (r, N) rows of U^T.
    mixing:         L^T / c, (r, r).
    trace_residual: trace of K - U U^T as tracked by the pivoted
                    Cholesky; bounds ||K - U U^T||_2 up to its rounding.
    cg_residual:    largest ||T w - u|| / ||u|| over the columns of W,
                    recomputed from W after the iteration.
    grid, kernel_id: provenance carried to sampled ensembles.
    """

    fgn: CirculantFactor
    solved: np.ndarray
    basis: np.ndarray
    mixing: np.ndarray
    trace_residual: float
    cg_residual: float
    grid: Grid | None = None
    kernel_id: str = ""

    @property
    def dim(self):
        return self.fgn.dim

    @property
    def rank(self):
        return self.basis.shape[0]

    @property
    def normals_per_path(self):
        return 2 * self.dim + self.rank

    @property
    def block_rows(self):
        return _SYNTH_ROWS

    def synthesize(self, z, out):
        """Paths from the (M, 2N + r) normals z into out (M, N); see the module doc."""
        n, r = self.dim, self.rank
        rows = z.shape[0]
        height = -(-rows // _TILE_ROWS) * _TILE_ROWS
        inc = np.empty((height, n))
        inc[:rows] = self.fgn.increments(z, 1.0 / FBM_HEAT_SCALE)
        inc[rows:] = 0.0
        residual = np.zeros((height, r))
        residual[:rows] = z[:, 2 * n :]
        coef = np.empty((_TILE_ROWS, r))
        proj = np.empty((_TILE_ROWS, r))
        step = np.empty((_TILE_ROWS, n))
        for start in range(0, height, _TILE_ROWS):
            tile = slice(start, start + _TILE_ROWS)
            for col in range(0, r, _TILE_COLS):
                cols = slice(col, min(col + _TILE_COLS, r))
                np.matmul(inc[tile], self.solved[cols].T, out=proj[:, cols])
            np.matmul(residual[tile], self.mixing, out=coef)
            coef -= proj
            np.matmul(coef, self.basis, out=step)
            inc[tile] += step
        np.cumsum(inc[:rows], axis=1, out=out)


def circulant_factor(autocov, grid=None, kernel_id=""):
    """Davies-Harte factor from the increment autocovariance gamma(0 .. N).

    Raises NotPositiveDefinite when an eigenvalue of the circulant
    embedding is below -CIRCULANT_NEG_REL * lambda_max; rounding-size
    negatives are clipped to zero.
    """
    autocov = np.asarray(autocov, dtype=np.float64)
    if autocov.ndim != 1 or autocov.size < 2:
        raise DomainError("circulant_factor needs autocovariances gamma(0 .. N), N >= 1")
    row = np.concatenate([autocov, autocov[-2:0:-1]])
    eigs = np.fft.rfft(row).real
    lam_max = float(eigs.max())
    lam_min = float(eigs.min())
    if not lam_max > 0 or lam_min < -CIRCULANT_NEG_REL * lam_max:
        raise NotPositiveDefinite(
            f"circulant embedding has eigenvalue {lam_min:.3e} against maximum {lam_max:.3e}"
        )
    return CirculantFactor(np.sqrt(np.maximum(eigs, 0.0)), lam_min / lam_max, grid, kernel_id)


def fgn_quarter_autocov(grid):
    """Autocovariance gamma(0 .. N) of quarter-Hurst fBm increments on the grid.

    gamma(k) = (|k+1|^(1/2) - 2|k|^(1/2) + |k-1|^(1/2)) dt^(1/2) / 2, with
    the second difference taken from `analytic.gamma`, which avoids the
    cancellation of the direct form.  Raises DomainError, before
    allocating, when this table and the circulant embedding built from it
    (a 2N-entry row and N+1 complex eigenvalues) exceed physical memory.
    """
    _require_memory(40 * (grid.nsteps + 1), f"circulant embedding at N={grid.nsteps}")
    lags = np.arange(1, grid.nsteps + 1)
    autocov = np.concatenate([[1.0], -0.5 * gamma(lags)])
    return autocov * math.sqrt(grid.dt)


def _hankel_cholesky(seq, n):
    """Pivoted Cholesky rows U (r, n) of the PSD Hankel matrix K_ij = seq[i + j].

    Reads only the 2n - 1 entries of seq.  Stops when the trace of the
    residual K - U^T U, tracked through its diagonal, is at most
    r * eps * trace(K): each of the r downdates rounds a diagonal entry
    by up to eps of it, so a smaller trace is not resolved.  The residual
    is a Schur complement and so PSD, which makes its trace a bound on
    its 2-norm.  Returns U and that trace.
    """
    diag = seq[0::2].copy()
    total = float(diag.sum())
    rows = np.empty((min(n, _HANKEL_RANK_CAP), n))
    rank, residual = 0, total
    while rank < n and residual > max(rank, 1) * np.finfo(np.float64).eps * total:
        if rank == rows.shape[0]:
            raise DomainError(f"Hankel residual {residual:.3e} unresolved at rank {rank}")
        pivot = int(np.argmax(diag))
        row = rows[rank]
        row[:] = seq[pivot : pivot + n]
        row -= np.einsum("k,kj->j", rows[:rank, pivot], rows[:rank])
        row /= math.sqrt(diag[pivot])
        diag -= row * row
        diag[pivot] = 0.0
        rank += 1
        residual = float(np.maximum(diag, 0.0).sum())
    return rows[:rank].copy(), residual


def _solve_toeplitz(autocov, eigs, rhs):
    """Rows of T^-1 rhs, T the symmetric Toeplitz matrix of autocov(0 .. N-1).

    Preconditioned conjugate gradients, one column per row of rhs, each
    with its own step sizes.  T is applied through its 2N circulant
    embedding with eigenvalues eigs, and the preconditioner is T. Chan's
    optimal circulant, c_k = ((N - k) a_k + k a_{N-k}) / N.  Each column
    runs until its relative residual is _CG_TOL.  Returns the solution
    and the largest relative residual of the rows, recomputed from it.
    """
    n = rhs.shape[1]

    def toeplitz(x):
        spec = np.fft.rfft(x, n=2 * n, axis=1)
        spec *= eigs
        return np.fft.irfft(spec, n=2 * n, axis=1)[:, :n]

    lags = np.arange(n)
    chan = ((n - lags) * autocov[:n] + lags * np.concatenate([[0.0], autocov[n - 1 : 0 : -1]])) / n
    chan_eigs = np.fft.rfft(chan).real

    def precondition(x):
        spec = np.fft.rfft(x, axis=1)
        spec /= chan_eigs
        return np.fft.irfft(spec, n=n, axis=1)

    def ratio(num, den):
        # A converged column has a zero residual and stays put.
        return np.divide(num, den, out=np.zeros_like(num), where=den != 0)[:, None]

    scale = np.linalg.norm(rhs, axis=1)
    sol = np.zeros_like(rhs)
    res = rhs.copy()
    direction = precondition(res)
    rz = np.einsum("ij,ij->i", res, direction)
    for _ in range(_CG_MAX_ITER):
        image = toeplitz(direction)
        step = ratio(rz, np.einsum("ij,ij->i", direction, image))
        sol += step * direction
        res -= step * image
        if np.all(np.linalg.norm(res, axis=1) <= _CG_TOL * scale):
            break
        pre = precondition(res)
        rz_next = np.einsum("ij,ij->i", res, pre)
        direction = pre + ratio(rz_next, rz) * direction
        rz = rz_next
    residual = np.linalg.norm(toeplitz(sol) - rhs, axis=1) / scale
    return sol, float(residual.max())


def heat_factor(grid, kernel_id="heat"):
    """`HeatFactor` for the heat slice on the grid; see the module doc.

    Raises DomainError, before allocating, when the O(N r) tables and
    the conjugate-gradient temporaries exceed physical memory, and
    NotPositiveDefinite when I - U^T W is not positive definite.
    """
    n = grid.nsteps
    # The Hankel sequence, its diagonal and the pivoted Cholesky's rows.
    _require_memory(8 * n * (min(n, _HANKEL_RANK_CAP) + 3), f"Hankel factor at N={n}")
    autocov = fgn_quarter_autocov(grid)
    fgn = circulant_factor(autocov, grid, "fbm_quarter")
    seq = 0.5 * math.sqrt(grid.dt) * gamma(np.arange(1, 2 * n))
    basis, trace_residual = _hankel_cholesky(seq, n)
    rank = basis.shape[0]
    # U, W and the CG temporaries, FFTs included: at most 16 (r, N) arrays.
    _require_memory(8 * rank * n * 16, f"heat sampler tables at N={n}, rank {rank}")
    solved, cg_residual = _solve_toeplitz(autocov, fgn.sqrt_eigs**2, basis)
    # einsum, not BLAS, whose threads change the bits of this shape (see _TILE_COLS).
    gram = np.einsum("ik,jk->ij", basis, solved)
    inner = np.eye(rank) - 0.5 * (gram + gram.T)
    try:
        lower = np.linalg.cholesky(inner)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"I - U^T T^-1 U is not positive definite at N={n}") from exc
    mixing = lower.T / FBM_HEAT_SCALE
    return HeatFactor(fgn, solved, basis, mixing, trace_residual, cg_residual, grid, kernel_id)


@dataclass(frozen=True)
class PathEnsemble:
    """M sampled paths over a grid, values[m, j] = X_m(t_j).

    values[:, 0] is exactly 0 for centered kernels.  Row r was drawn from
    the stream keyed rng.derive_key(seed, first + r, role), where first is
    the draw's first replicate (0 unless given), role ROLE_PATH for
    `sample_paths` and ROLE_BM for `sample_brownian`.
    """

    grid: Grid
    values: np.ndarray
    kernel_id: str
    seed: int

    @property
    def m(self):
        return self.values.shape[0]


def factorize(matrix, grid=None, kernel_id="", overwrite_a=False):
    """Cholesky-factor a PSD matrix with a single jitter retry.

    A pivot below 1e-12 * max(diag) (LAPACK failure included) triggers one
    retry with that same jitter added to the whole diagonal; a second
    failure raises NotPositiveDefinite naming the pivot index.  An exactly
    zero matrix factors to zero.  Only the lower triangle is read.

    With overwrite_a=True a writeable F-contiguous float64 matrix is
    factored in place and becomes the factor's storage (its contents are
    lost, also when this raises); any other input is copied first, as
    every input is by default.
    """
    global FACTORIZATION_COUNT
    from scipy.linalg import lapack

    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError("factorize expects a square matrix")
    FACTORIZATION_COUNT += 1

    diag = matrix.diagonal().copy()
    max_diag = float(np.max(diag)) if diag.size else 0.0
    if max_diag < 0:
        raise NotPositiveDefinite("negative diagonal entry", pivot_index=int(np.argmin(diag)))
    if max_diag == 0.0 and np.any(matrix != 0.0):
        raise NotPositiveDefinite("zero diagonal with nonzero off-diagonal entries")
    in_place = overwrite_a and matrix.flags.f_contiguous and matrix.flags.writeable
    work = matrix if in_place else np.array(matrix, order="F")
    if max_diag == 0.0:
        return CholeskyFactor(work, False, grid, kernel_id)

    threshold = JITTER_REL * max_diag
    dim = work.shape[0]

    def attempt():
        # clean=0 leaves the strict upper triangle untouched even on failure,
        # so the lower one can be restored from it for the retry.
        _, info = lapack.dpotrf(work, lower=1, clean=0, overwrite_a=1)
        if info < 0:
            raise DomainError(f"dpotrf rejected argument {-info}")
        if info > 0:
            # LAPACK reports the 1-based order of the failing leading minor.
            return info - 1
        bad = np.nonzero(work.diagonal() ** 2 < threshold)[0]
        return int(bad[0]) if bad.size else None

    pivot = attempt()
    jittered = pivot is not None
    if jittered:
        for col in range(dim - 1):
            work[col + 1 :, col] = work[col, col + 1 :]
        np.fill_diagonal(work, diag + threshold)
        pivot2 = attempt()
        if pivot2 is not None:
            raise NotPositiveDefinite(
                f"matrix is not positive definite near pivot {pivot2} even after jitter",
                pivot_index=pivot2,
            )
    for col in range(1, dim):
        work[:col, col] = 0.0
    return CholeskyFactor(work, jittered, grid, kernel_id)


_FACTOR_CACHE: dict[
    tuple[str, int, float], BrownianFactor | CholeskyFactor | CirculantFactor | HeatFactor
] = {}


def cached_factor(kernel, grid):
    """Factor for (kernel, grid), computed once per process.

    `bm` gets the cumulative-sum `BrownianFactor`, `fbm_quarter` the
    Davies-Harte `CirculantFactor`, `heat` the Davies-Harte plus
    low-rank `HeatFactor` and every other kernel the dense
    `CholeskyFactor`.  Large experiments share factors through this
    cache, so a pipeline factors each kernel exactly once no matter how
    many ensembles it draws.
    """
    key = (kernel.canonical_id(), grid.n, grid.horizon)
    factor = _FACTOR_CACHE.get(key)
    if factor is None:
        if kernel.kind == "bm":
            factor = BrownianFactor(grid, kernel.canonical_id())
        elif kernel.kind == "fbm_quarter":
            factor = circulant_factor(fgn_quarter_autocov(grid), grid, kernel.canonical_id())
        elif kernel.kind == "heat":
            factor = heat_factor(grid, kernel.canonical_id())
        else:
            cov = build_cov_matrix(kernel, grid)
            factor = factorize(cov, grid=grid, kernel_id=kernel.canonical_id(), overwrite_a=True)
        _FACTOR_CACHE[key] = factor
    return factor


def clear_factor_cache():
    _FACTOR_CACHE.clear()


def row_blocks(factor, m):
    """(start, stop) of each row block, in order, that the factor synthesizes at once."""
    if m < 1:
        raise DomainError("need at least one replicate")
    step = factor.block_rows
    return [(start, min(start + step, m)) for start in range(0, m, step)]


def path_normals(factor, m, seed, role=rng.ROLE_PATH, first=0):
    """The (M, normals_per_path) normals of replicates first .. first + M - 1.

    Row r comes from the replicate-(first + r) stream of the given role;
    by the prefix contract its first k columns are what a factor with k
    normals per path draws.  Raises DomainError, before allocating, when
    the block and the (M, N+1) path array drawn from it exceed physical
    memory.
    """
    if factor.grid is None:
        raise DomainError("sample_paths needs a grid; factors from cached_factor carry one")
    if m < 1:
        raise DomainError("need at least one replicate")
    count, nsteps = factor.normals_per_path, factor.grid.nsteps
    _require_memory(8 * m * (count + nsteps + 1), f"{m} paths at N={nsteps}")
    z = np.empty((m, count), dtype=np.float64)
    for rep in range(m):
        rng.normals(rng.derive_key(seed, first + rep, role), count, out=z[rep])
    return z


def sample_paths(factor, m, seed, z=None, role=rng.ROLE_PATH, first=0):
    """Draw M exact paths from a factor (`cached_factor`), one row block at a time.

    The grid and kernel id are the ones the factor carries.  z is the
    C-ordered (M, normals_per_path) normal block to synthesize from, and
    it is overwritten; by default each row block's normals are drawn
    from the streams of `role` (`path_normals`) as the block's turn
    comes, row r from replicate first + r.  Each path depends on its own
    row of normals only, so results do not depend on the row block.
    """
    shape = (m, factor.normals_per_path)
    if factor.grid is None or m < 1 or (
        z is not None and (z.shape != shape or not z.flags.c_contiguous)
    ):
        raise DomainError(
            f"sample_paths needs a grid, at least one replicate and, if given, "
            f"a C-ordered {shape} block"
        )
    grid = factor.grid
    _require_memory(8 * m * (grid.nsteps + 1), f"{m} paths at N={grid.nsteps}")
    values = np.empty((m, grid.nsteps + 1), dtype=np.float64)
    values[:, 0] = 0.0
    for start, stop in row_blocks(factor, m):
        if z is None:
            block = path_normals(factor, stop - start, seed, role, first + start)
        else:
            block = z[start:stop]
        factor.synthesize(block, values[start:stop, 1:])
    return PathEnsemble(grid, values, factor.kernel_id, int(seed))


def sample_brownian(grid, m, seed, first=0):
    """Standard Brownian motions of replicates first .. first + M - 1 (ROLE_BM streams)."""
    return sample_paths(BrownianFactor(grid), m, seed, role=rng.ROLE_BM, first=first)


def save_ensemble(ensemble, path):
    """Write the flat binary layout: fixed header, then row-major float64."""
    kernel_bytes = ensemble.kernel_id.encode("utf-8")
    header = _BIN_MAGIC + struct.pack(
        _BIN_HEAD,
        _BIN_VERSION,
        ensemble.grid.n,
        ensemble.grid.horizon,
        ensemble.m,
        ensemble.seed,
        len(kernel_bytes),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(kernel_bytes)
        fh.write(np.ascontiguousarray(ensemble.values).tobytes())


def load_ensemble(path):
    """Read an ensemble written by save_ensemble.

    A short header, a kernel id that is not UTF-8, a grid that `Grid`
    rejects or a body whose length is not m * (N + 1) float64 values
    raises DomainError.
    """
    head_size = struct.calcsize(_BIN_HEAD)
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _BIN_MAGIC:
            raise DomainError(f"not an ensemble file (magic {magic!r})")
        head = fh.read(head_size)
        if len(head) != head_size:
            raise DomainError(f"truncated ensemble header: {len(head)} of {head_size} bytes")
        version, n, horizon, m, seed, kernel_len = struct.unpack(_BIN_HEAD, head)
        if version != _BIN_VERSION:
            raise DomainError(f"unsupported ensemble format version {version}")
        kernel_bytes = fh.read(kernel_len)
        if len(kernel_bytes) != kernel_len:
            raise DomainError(f"truncated ensemble header: kernel id cut at {len(kernel_bytes)} bytes")
        try:
            kernel_id = kernel_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DomainError(f"ensemble kernel id is not UTF-8: {exc}") from exc
        grid = Grid(int(n), float(horizon))
        body = fh.read()
    expected = int(m) * (grid.nsteps + 1) * 8
    if len(body) != expected:
        raise DomainError(
            f"ensemble body has {len(body)} bytes; the header implies {expected} "
            f"(m={m}, N={grid.nsteps})"
        )
    values = np.frombuffer(body, dtype=np.float64).reshape(int(m), grid.nsteps + 1).copy()
    return PathEnsemble(grid, values, kernel_id, int(seed))


def write_ensemble_csv(ensemble, path):
    """Debug CSV with columns replicate, j, t, value (17 significant digits).

    The j and t cells are formatted once; each replicate goes out as one
    joined string.
    """
    cells = [f",{j},{t:.17g}," for j, t in enumerate(ensemble.grid.times().tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate,j,t,value\n")
        for rep in range(ensemble.m):
            row = ensemble.values[rep].tolist()
            fh.write("".join([f"{rep}{cell}{v:.17g}\n" for cell, v in zip(cells, row)]))
