"""Exact Gaussian path sampling, with one factor type per kernel.

`cached_factor(kernel, grid)` picks the sampler for a kernel, and is the
one place that choice is made; every factor draws paths through the same
`synthesize(z)` call, which returns the kernel's paths, drift included,
so `path_tiles` knows no kernel.  Every kernel the package accepts,
composites and drift included, gets a factor of O(N r) memory or less:
none builds or factors a dense matrix.
Paths are drawn jointly exact: there is no approximation beyond float64
linear algebra and FFTs, and the deterministic zero at t_0 is reattached
after synthesis.  There are five backends:

* `BrownianFactor` (`bm`): the path is the cumulative sum of the
  replicate's N normals, each scaled by sqrt(dt).  O(N) per path and no
  set-up.
* `CirculantFactor` (`fbm_quarter`): Davies-Harte circulant embedding of
  fractional Gaussian noise (Davies & Harte 1987; Dietrich & Newsam 1997).
  The Toeplitz increment covariance is embedded in a 2N circulant whose
  eigenvalues lambda_0 .. lambda_N are the real FFT of its first row; for
  Hurst index 1/4 they are nonnegative, so the draw is exact, and
  lambda_min / lambda_max is kept as the certificate.  A replicate's 2N
  normals are laid out as [re_0, re_N, Re_1 .. Re_{N-1}, Im_1 .. Im_{N-1}]:
  they fill the half spectrum, scaled by sqrt(lambda), whose length-2N
  inverse real FFT holds the N increments in its first half; their
  cumulative sum is the path.  O(N log N) per path; a tile's half
  spectrum fills one buffer, and its inverse FFT overwrites the tile's
  own normals, so the FFT temporaries are O(_TILE_ROWS * N).
* `HankelFactor` (`xi`): the increment covariance of xi is the PSD
  Hankel matrix K_ij = sqrt(dt) gamma(i+j+1) / 2, of numerical rank r
  of about 17 to 50 (17 at n = 64, 22 at 256, 26 at 1000).  Set-up
  factors K ~ U U^T by a pivoted Cholesky that reads only the O(N)
  sequence gamma and stops when the residual trace, a bound on
  ||K - U U^T||_2 because the residual is PSD, is down to the rounding
  of the tracked diagonal.  A path is the cumulative sum of U z', z' the
  replicate's r normals.  O(N r) per path and in set-up memory.
* `HeatFactor` (`heat`): fbm_quarter = c^2 heat + xi with xi independent
  (`kernels`; Lei & Nualart 2009), so the increment covariance of c F
  is T - K: T the fGn Toeplitz matrix that Davies-Harte draws exactly,
  K the Hankel matrix of xi.  The heat factor is built on the grid's
  cached `fbm_quarter` and `xi` factors of that identity and holds them,
  so a grid has one fGn spectrum and one Hankel factor whichever kernels
  draw from them.  Set-up finds g = T^-1 e_0 by preconditioned conjugate
  gradients on FFT products (T. Chan's circulant preconditioner), from
  which the Gohberg-Semencul formula gives W = T^-1 U by FFT products,
  on tiles of _SOLVE_ROWS rows, narrower than a path tile; and factors
  I - U^T W = L L^T, so that S = L^T U^T has S^T S = U (I - U^T W) U^T.
  A path is then c dF = X - U W^T X + S^T z' = X + U (L z' - W^T X),
  whose covariance is T - U U^T, followed by a cumulative sum.  A
  replicate's 2N + r normals are laid out as [2N Davies-Harte | r
  residual]: X is the fGn drawn from the first 2N in the fBm layout
  above, z' the last r.  O(N (log N + r)) per path and O(N r) set-up
  memory.
* `CompositeFactor` (kind `composite`): c^2 rho_0 + rho_1 is drawn as
  c X_0 + X_1, X_0 and X_1 independent paths of the components' own
  factors.  A replicate's normals are laid out as [part 0 | part 1],
  each part in its own layout above.  Components do not nest
  (`kernels`), so every part is one of the four backends above.  A
  drifted composite also carries its mean on the grid, t_0 included, and
  adds it to the paths it returns.

Every factor carries its grid, which `path_tiles` and `sample_paths`
read; `cached_factor` supplies it.

Every backend maps one tile: `synthesize(z)` turns the
(_TILE_ROWS, normals_per_path) normals z of one tile of replicates into
their (_TILE_ROWS, N + 1) paths, column 0 the zero at t_0 (a drifted
composite then adds its mean to every column).  It allocates and
returns them once its own transients, such as the half spectrum of an
inverse FFT, are freed, so the two are never held at once.  A
cumulative sum or an inverse FFT transforms each row on its own, and
the rank-r products of `HankelFactor` and `HeatFactor` always have the
tile's height, so a row's bits depend on its own normals only.

`path_tiles` is the one loop that draws normals and cuts replicates into
tiles.  Before it allocates anything it checks that one full tile of
normals and paths at the finest grid fits in physical memory.  For each
tile it draws each replicate's stream once, at the normals_per_path of
its last (finest) factor, into a zero-padded block.  Because a stream's
shorter draw is a prefix of its longer one (`rng`), that block serves
every grid of an MSE ladder: each coarser factor synthesizes a copy of
the block's first normals_per_path columns, the finest the block itself.
It hands on the paths each factor returns, so it holds one tile of
normals and paths whatever M is.  `sample_paths` collects the tiles of
one factor into one (M, N + 1) array.

`sample_brownian` draws the independent standard Brownian motion of each
replicate, the driving noise of the corrected change-of-variable
formula: `sample_paths` on a `BrownianFactor`, drawing from the disjoint
ROLE_BM streams.  Both take the index of their first replicate (`first`),
so a tile of an experiment draws the rows a whole draw would.

`factorize`, a dense Cholesky factor, and `build_cov_matrix` (`kernels`)
are the tests' reference; no sampler calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .analytic import gamma
from .errors import DomainError, NotPositiveDefinite
# build_cov_matrix, the tests' dense oracle, is imported for bench/tracing.py to wrap.
from .kernels import FBM_HEAT_SCALE, CovKernel, Grid, _require_memory, build_cov_matrix  # noqa: F401

# Circulant eigenvalues below -CIRCULANT_NEG_REL * lambda_max mean the
# embedding is not PSD; smaller negatives are rounding and clip to 0.
CIRCULANT_NEG_REL = 1e-12

# `path_tiles` draws, synthesizes and hands on paths in tiles of this
# many rows, the last zero-padded, which bounds the normals and paths in
# flight.
# OpenBLAS rounds a row differently as the height of a product changes,
# so the fixed tile keeps each row's bits of the rank-r products of
# HankelFactor and HeatFactor independent of M.  The projection X W goes
# _TILE_COLS columns of W at a time: with 32 to 48 columns, 2 OpenBLAS
# threads rounded it differently from 1 at most N from 3576 to 69017
# tried; 16 columns never did.
_TILE_ROWS = 8
_TILE_COLS = 16

# The rank-r products that expand a tile's coefficients into increments,
# z U^T in HankelFactor and coef U^T in HeatFactor, go this many columns
# of U^T at a time (`_expand`), and never split the inner dimension r.
# 8 * r * 256 <= 2^18 for r up to _HANKEL_RANK_CAP, the size up to which
# OpenBLAS's default build runs gemm on one thread: with 2 threads the
# (8, 33) @ (33, 4096) heat product sometimes took 8 ms for a whole
# process, against 0.07 ms on one (2-vCPU Xeon VM, OpenBLAS 0.3.31).
# Blocks starting at multiples of 256 give each column the bits of the
# one product, with one exception: where OpenBLAS has a small-matrix gemm
# kernel (AVX-512 builds) and 8 r N exceeds the 10^6 up to which the one
# product used it, the last N mod 8 columns round differently when that
# is 1 to 4.  The cumulative sum absorbs most of it: 2 of 342 tiles
# changed over N in 4090..4199, 8185..8239 and a few larger; every
# default grid has 8 | N.
_BLOCK_COLS = 256

# The Toeplitz solve of the heat set-up runs its FFTs on tiles of its own,
# this many rows of 2N floats and 2 (N+1) complex values: 6 MiB at N = 65536.
# Each row is transformed on its own, so no bit depends on this height.
_SOLVE_ROWS = 2

# The pivoted Cholesky of the Hankel part stops at this rank at the
# latest.  The rank grows by about 4 per doubling of N (49 at N = 65536),
# so a grid that would exceed it is far beyond any physical memory.
_HANKEL_RANK_CAP = 128

# `write_ensemble_csv` formats and writes a replicate this many rows at a time.
_CSV_ROWS = 1 << 14

# Conjugate gradients on T g = e_0 stop at this residual.
_CG_TOL = 1e-15
_CG_MAX_ITER = 100


@dataclass(frozen=True)
class BrownianFactor:
    """Standard Brownian motion on a grid: the cumulative sum of sqrt(dt) z."""

    grid: Grid

    @property
    def dim(self):
        return self.grid.nsteps

    @property
    def normals_per_path(self):
        return self.dim

    def synthesize(self, z):
        """Paths cumsum(sqrt(dt) z[m]) of one tile of normals z, which it scales."""
        z *= math.sqrt(self.grid.dt)
        paths = _new_paths(z.shape[0], self.dim)
        np.cumsum(z, axis=1, out=paths[:, 1:])
        return paths


@dataclass(frozen=True)
class CirculantFactor:
    """Davies-Harte factor of a stationary-increment path.

    sqrt_eigs:   sqrt(lambda_0 .. lambda_N), eigenvalues of the 2N circulant
                 embedding of the increment autocovariance.
    certificate: lambda_min / lambda_max before clipping; >= 0 (up to
                 rounding) means the draw is exact.
    grid:        the grid the paths are drawn on.

    `synthesize` maps one tile: `increments` turns its normals into its
    increments in place and frees its half spectrum, and their
    cumulative sum is the paths, allocated after.
    """

    sqrt_eigs: np.ndarray
    certificate: float
    grid: Grid

    @property
    def dim(self):
        return self.sqrt_eigs.size - 1

    @property
    def normals_per_path(self):
        return 2 * self.dim

    def weights(self, scale=1.0):
        """Factors that turn normals into the half spectrum of scale times the increments."""
        n = self.dim
        # sqrt(2N) undoes irfft's 1/(2N); interior modes split lambda_k
        # evenly between the real and imaginary parts.
        weights = self.sqrt_eigs * (math.sqrt(n) * scale)
        weights[[0, n]] *= math.sqrt(2.0)
        return weights

    def increments(self, z, weights):
        """A tile's increments, in place: see the module doc.

        The first 2N columns of z, normals, fill a (_TILE_ROWS, N+1)
        complex half spectrum whose inverse FFT overwrites them.  Returns
        the view z[:, :N].
        """
        n = self.dim
        spec = np.empty((z.shape[0], n + 1), dtype=np.complex128)
        np.multiply(z[:, 0], weights[0], out=spec.real[:, 0])
        np.multiply(z[:, 1], weights[n], out=spec.real[:, n])
        np.multiply(z[:, 2 : n + 1], weights[1:n], out=spec.real[:, 1:n])
        np.multiply(z[:, n + 1 : 2 * n], weights[1:n], out=spec.imag[:, 1:n])
        spec.imag[:, [0, n]] = 0.0
        return np.fft.irfft(spec, n=2 * n, axis=1, out=z[:, : 2 * n])[:, :n]

    def synthesize(self, z):
        """Paths of a tile of (_TILE_ROWS, 2N) normals z, which it overwrites.

        The paths are allocated once `increments` has freed its half spectrum.
        """
        inc = self.increments(z, self.weights())
        paths = _new_paths(z.shape[0], self.dim)
        np.cumsum(inc, axis=1, out=paths[:, 1:])
        return paths


@dataclass(frozen=True)
class HankelFactor:
    """The remainder process `xi`: paths are the cumulative sums of U z' (module doc).

    basis:          (r, N) rows of U^T, K ~ U U^T the Hankel increment
                    covariance.
    trace_residual: trace of K - U U^T as tracked by the pivoted
                    Cholesky; bounds ||K - U U^T||_2 up to its rounding.
    grid:           the grid the paths are drawn on.
    """

    basis: np.ndarray
    trace_residual: float
    grid: Grid

    @property
    def dim(self):
        return self.basis.shape[1]

    @property
    def rank(self):
        return self.basis.shape[0]

    @property
    def normals_per_path(self):
        return self.rank

    def synthesize(self, z):
        """Paths of a tile of (_TILE_ROWS, r) normals z."""
        paths = _new_paths(z.shape[0], self.dim)
        inc = _expand(z, self.basis, paths[:, 1:])
        np.cumsum(inc, axis=1, out=inc)
        return paths


@dataclass(frozen=True)
class HeatFactor:
    """The heat slice: the grid's fGn factor minus a low-rank part of its xi factor (module doc).

    With U the (N, r) Hankel factor, W = T^-1 U and I - U^T W = L L^T, a
    row of increments is y = (x + (z' L^T - x W) U^T) / c, x the fGn row
    and z' the row's r residual normals; S = L^T U^T, as S^T z' = U L z'.
    `synthesize` maps one tile: x in place over its first 2N normals
    (`CirculantFactor.increments`, whose half spectrum is freed on
    return), then the rank-r step, which goes straight into the paths it
    allocates after, and the cumulative sum.

    fgn:            `CirculantFactor` of the fGn Toeplitz part T, the
                    grid's `fbm_quarter` factor.
    hankel:         `HankelFactor` of K, the grid's `xi` factor: its
                    basis holds the rows of U^T.
    solved:         (r, N) rows of W^T.
    mixing:         L^T / c, (r, r).
    cg_residual:    largest ||T w - u|| / ||u|| over the columns of W,
                    recomputed from W.  It grows with N, within
                    max(1e-13, N eps / 8) with eps = 2^-52: it reads
                    1.1e-14 at N = 2048, 3.3e-14 at 16384 and 1.7e-13
                    at 65536.
    grid:           the grid the paths are drawn on.
    """

    fgn: CirculantFactor
    hankel: HankelFactor
    solved: np.ndarray
    mixing: np.ndarray
    cg_residual: float
    grid: Grid

    @property
    def dim(self):
        return self.fgn.dim

    @property
    def rank(self):
        return self.hankel.rank

    @property
    def normals_per_path(self):
        return 2 * self.dim + self.rank

    def synthesize(self, z):
        """Paths of a tile of (_TILE_ROWS, 2N + r) normals z, which it overwrites.

        The paths are allocated once `increments` has freed its half spectrum.
        """
        n, r = self.dim, self.rank
        inc = self.fgn.increments(z, self.fgn.weights(1.0 / FBM_HEAT_SCALE))
        proj = np.empty((_TILE_ROWS, r))
        for col in range(0, r, _TILE_COLS):
            cols = slice(col, min(col + _TILE_COLS, r))
            np.matmul(inc, self.solved[cols].T, out=proj[:, cols])
        coef = z[:, 2 * n :] @ self.mixing
        coef -= proj
        paths = _new_paths(z.shape[0], n)
        out = _expand(coef, self.hankel.basis, paths[:, 1:])
        out += inc
        np.cumsum(out, axis=1, out=out)
        return paths


@dataclass(frozen=True)
class CompositeFactor:
    """c X_0 + X_1 from independent part factors: a composite kernel (module doc).

    parts:  the factors of the one or two components, in order.
    scale:  c, applied to the first part.
    grid:   the grid the paths are drawn on.
    mean:   a drifted kernel's mean at t_0 .. t_N, which `synthesize`
            adds to the paths; None when centered.
    """

    parts: tuple
    scale: float
    grid: Grid
    mean: np.ndarray | None = None

    @property
    def dim(self):
        return self.parts[0].dim

    @property
    def normals_per_path(self):
        return sum(part.normals_per_path for part in self.parts)

    def synthesize(self, z):
        """Paths of one tile of normals z, which it overwrites, the mean included."""
        first, *rest = self.parts
        count = first.normals_per_path
        paths = first.synthesize(z[:, :count])
        # Column 0 stays +0.0, which a negative scale would turn to -0.0.
        paths[:, 1:] *= self.scale
        for part in rest:
            paths += part.synthesize(z[:, count:])
        if self.mean is not None:
            paths += self.mean
        return paths


def _expand(coef, basis, out):
    """out = coef @ basis, _BLOCK_COLS columns of basis at a time; returns out.

    A last block of one column joins the one before it: numpy would hand
    it to gemv, which rounds it differently from gemm.
    """
    n = basis.shape[1]
    starts = range(0, max(n - 1, 1), _BLOCK_COLS)
    for col in starts:
        cols = slice(col, n if col == starts[-1] else col + _BLOCK_COLS)
        np.matmul(coef, basis[:, cols], out=out[:, cols])
    return out


def _new_paths(rows, n):
    """An uninitialized (rows, N + 1) path array whose column 0, t_0, is zero."""
    paths = np.empty((rows, n + 1))
    paths[:, 0] = 0.0
    return paths


def circulant_factor(autocov, grid):
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
    return CirculantFactor(np.sqrt(np.maximum(eigs, 0.0)), lam_min / lam_max, grid)


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
    its 2-norm.  Returns U, its row buffer shrunk in place to r rows, and
    that trace.
    """
    diag = seq[0::2].copy()
    total = float(diag.sum())
    cap = min(n, _HANKEL_RANK_CAP)
    # Half the cap holds the rank of every N up to about 2^20; past that
    # the rows grow to the cap.
    rows = np.empty((min(n, _HANKEL_RANK_CAP // 2), n))
    rank, residual = 0, total
    while rank < n and residual > max(rank, 1) * np.finfo(np.float64).eps * total:
        if rank == cap:
            raise DomainError(f"Hankel residual {residual:.3e} unresolved at rank {rank}")
        if rank == rows.shape[0]:
            # Both resizes keep the rows in place: refcheck is off because
            # `row`, the one view of rows, is dead at each.
            _require_memory(8 * n * (rank + cap), f"Hankel rows at N={n}, rank {cap}")
            rows.resize((cap, n), refcheck=False)
        pivot = int(np.argmax(diag))
        row = rows[rank]
        row[:] = seq[pivot : pivot + n]
        row -= np.einsum("k,kj->j", rows[:rank, pivot], rows[:rank])
        row /= math.sqrt(diag[pivot])
        diag -= row * row
        diag[pivot] = 0.0
        rank += 1
        residual = float(np.maximum(diag, 0.0).sum())
    # A copy of the first rank rows would stack on the buffer; shrinking it
    # frees the tail for the solve that follows.
    rows.resize((rank, n), refcheck=False)
    return rows, residual


def hankel_factor(grid):
    """`HankelFactor` of `xi` on the grid; see the module doc.

    Raises DomainError, before allocating, when the Hankel sequence, its
    diagonal and the pivoted Cholesky's first buffer of rows exceed
    physical memory; `_hankel_cholesky` checks again before it grows them.
    """
    n = grid.nsteps
    _require_memory(8 * n * (min(n, _HANKEL_RANK_CAP // 2) + 3), f"Hankel factor at N={n}")
    seq = 0.5 * math.sqrt(grid.dt) * gamma(np.arange(1, 2 * n))
    return HankelFactor(*_hankel_cholesky(seq, n), grid)


def _first_column(autocov, eigs):
    """g = T^-1 e_0, T the symmetric Toeplitz matrix of autocov(0 .. N-1).

    Preconditioned conjugate gradients on one vector, until the residual
    is _CG_TOL.  T is applied through its 2N circulant embedding with
    eigenvalues eigs, and the preconditioner is T. Chan's optimal
    circulant, c_k = ((N - k) a_k + k a_{N-k}) / N.  Inner products go
    through einsum, not BLAS, whose threads could change their bits.
    """
    n = autocov.size - 1
    lags = np.arange(n)
    chan = ((n - lags) * autocov[:n] + lags * np.concatenate([[0.0], autocov[n - 1 : 0 : -1]])) / n
    chan_eigs = np.fft.rfft(chan).real

    def dot(x, y):
        return np.einsum("i,i->", x, y)

    def precondition(x):
        return np.fft.irfft(np.fft.rfft(x) / chan_eigs, n=n)

    sol, res = np.zeros(n), np.eye(1, n)[0]
    direction = precondition(res)
    rz = dot(res, direction)
    for _ in range(_CG_MAX_ITER):
        image = np.fft.irfft(np.fft.rfft(direction, n=2 * n) * eigs, n=2 * n)[:n]
        step = rz / dot(direction, image)
        sol += step * direction
        res -= step * image
        if math.sqrt(dot(res, res)) <= _CG_TOL:
            break
        pre = precondition(res)
        rz, last = dot(res, pre), rz
        direction = pre + (rz / last) * direction
    return sol


def _solve_toeplitz(autocov, eigs, rhs):
    """Rows of T^-1 rhs, T the symmetric Toeplitz matrix of autocov(0 .. N-1).

    With g = T^-1 e_0 (`_first_column`), the Gohberg-Semencul formula
    gives T^-1 = (L(g) L(g)^T - L(y) L(y)^T) / g_0, y = (0, g_{N-1} ..
    g_1) and L(v) the lower-triangular Toeplitz matrix with first column
    v (Gohberg & Semencul 1972).  Every product is a 2N-point FFT product
    on a zero-padded row: L(v)^T u, a correlation, is the first N entries
    of irfft(conj(V) rfft(u)), and L(v) x a convolution.  A row takes six
    transforms, _SOLVE_ROWS rows at a time through reused tile buffers; the
    solve runs FFTs and elementwise operations only, so its bits do not
    depend on the BLAS thread count.  Returns the solution and the largest
    relative residual ||T w - u|| / ||u|| of its rows, recomputed from it
    through the circulant embedding with eigenvalues eigs.
    """
    n = rhs.shape[1]
    first = _first_column(autocov, eigs)
    lower = [np.fft.rfft(v, n=2 * n) for v in (first, np.concatenate([[0.0], first[:0:-1]]))]
    wide = np.empty((_SOLVE_ROWS, 2 * n))
    spec, acc = np.empty((2, _SOLVE_ROWS, n + 1), dtype=np.complex128)

    def transform(pad, out):
        # The rfft of pad's first N columns, zero-padded to 2N.
        pad[:, n:] = 0.0
        np.fft.rfft(pad, axis=1, out=out)

    def square(pad, fwd, factor, out):
        # The spectrum of L(v) L(v)^T u from fwd, that of u; pad is scratch.
        np.multiply(fwd, factor.conj(), out=out)
        np.fft.irfft(out, n=2 * n, axis=1, out=pad)
        transform(pad, out)
        out *= factor

    sol = np.empty_like(rhs)
    residual = np.empty(rhs.shape[0])
    for start in range(0, rhs.shape[0], _SOLVE_ROWS):
        tile = slice(start, start + _SOLVE_ROWS)
        rows = rhs[tile].shape[0]
        pad, fwd, total = wide[:rows], spec[:rows], acc[:rows]
        pad[:, :n] = rhs[tile]
        transform(pad, fwd)
        square(pad, fwd, lower[0], total)
        square(pad, fwd, lower[1], fwd)
        total -= fwd
        np.fft.irfft(total, n=2 * n, axis=1, out=pad)
        sol[tile] = np.divide(pad[:, :n], first[0], out=pad[:, :n])
        transform(pad, fwd)
        fwd *= eigs
        np.fft.irfft(fwd, n=2 * n, axis=1, out=pad)
        image = np.subtract(pad[:, :n], rhs[tile], out=pad[:, :n])
        residual[tile] = np.linalg.norm(image, axis=1) / np.linalg.norm(rhs[tile], axis=1)
    return sol, float(residual.max())


def heat_factor(fgn, hankel):
    """`HeatFactor` for the heat slice on the grid of fgn and hankel; see the module doc.

    fgn and hankel are the `fbm_quarter` and `xi` factors of one grid,
    which `cached_factor` passes in from its cache; the heat factor
    holds them, not copies.  Raises DomainError, before allocating, when
    the O(N r) tables and the Toeplitz solve's temporaries exceed
    physical memory, and NotPositiveDefinite when I - U^T W is not
    positive definite.
    """
    grid, n = fgn.grid, fgn.dim
    basis, rank = hankel.basis, hankel.rank
    # U and W are two (r, N) arrays; the FFT tiles (one of 2N floats, two
    # of N+1 complex) take 6 _SOLVE_ROWS rows of N, and the O(N) tables and
    # conjugate-gradient vectors fewer than 24.
    tables = 8 * n * (2 * rank + 6 * _SOLVE_ROWS + 24)
    _require_memory(tables, f"heat sampler tables at N={n}, rank {rank}")
    solved, cg_residual = _solve_toeplitz(fgn_quarter_autocov(grid), fgn.sqrt_eigs**2, basis)
    # einsum, not BLAS, whose threads change the bits of this shape (see _TILE_COLS).
    gram = np.einsum("ik,jk->ij", basis, solved)
    inner = np.eye(rank) - 0.5 * (gram + gram.T)
    try:
        lower = np.linalg.cholesky(inner)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"I - U^T T^-1 U is not positive definite at N={n}") from exc
    mixing = lower.T / FBM_HEAT_SCALE
    return HeatFactor(fgn, hankel, solved, mixing, cg_residual, grid)


# The dense oracle stays in the package, not in tests/, because
# bench/tracing.py wraps `factorize` to time and count it (ROADMAP items 5
# and 14 stage 2); no sampler calls it.
@dataclass(frozen=True)
class CholeskyFactor:
    """A dense lower Cholesky factor from `factorize`, the tests' reference.

    matrix_l: L with L @ L.T equal to the source matrix.
    jittered: always False, as `factorize` adds no jitter; bench/tracing.py
              counts it.
    """

    matrix_l: np.ndarray
    jittered = False


def factorize(matrix):
    """Dense Cholesky factor of a positive definite matrix, the tests' reference.

    Column by column (left-looking), reading only the lower triangle.  A
    pivot that is not positive raises NotPositiveDefinite naming its
    0-based index, the order of the first leading minor that is not
    positive definite; an exactly zero matrix factors to zero.  The
    input is not changed.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError("factorize expects a square matrix")
    lower = np.tril(matrix)
    if not lower.any():
        return CholeskyFactor(lower)
    for col in range(lower.shape[0]):
        rest = lower[col:, col]
        rest -= lower[col:, :col] @ lower[col, :col]
        if not rest[0] > 0:
            raise NotPositiveDefinite(
                f"matrix is not positive definite at pivot {col}", pivot_index=col
            )
        rest /= math.sqrt(rest[0])
    return CholeskyFactor(lower)


_FACTOR_CACHE: dict[
    tuple[str, int, float],
    BrownianFactor | CirculantFactor | HankelFactor | HeatFactor | CompositeFactor,
] = {}


def cached_factor(kernel, grid):
    """Factor for (kernel, grid), computed once per process.

    `bm` gets the cumulative-sum `BrownianFactor`, `fbm_quarter` the
    Davies-Harte `CirculantFactor`, `xi` the low-rank `HankelFactor`,
    `heat` the `HeatFactor` built on the cached `fbm_quarter` and `xi`
    factors and a composite a `CompositeFactor` of its components'
    cached factors; a drifted composite's carries its mean.  Large
    experiments share factors through this cache, so a pipeline factors
    each kernel exactly once no matter how many ensembles it draws.
    """
    key = (kernel.canonical_id(), grid.n, grid.horizon)
    factor = _FACTOR_CACHE.get(key)
    if factor is None:
        if kernel.kind == "bm":
            factor = BrownianFactor(grid)
        elif kernel.kind == "fbm_quarter":
            factor = circulant_factor(fgn_quarter_autocov(grid), grid)
        elif kernel.kind == "xi":
            factor = hankel_factor(grid)
        elif kernel.kind == "heat":
            parts = [cached_factor(CovKernel(kind), grid) for kind in ("fbm_quarter", "xi")]
            factor = heat_factor(*parts)
        else:
            parts = tuple(cached_factor(comp, grid) for comp in kernel.components)
            mean = kernel.mean_at(grid.times()) if kernel.mean_coeffs else None
            factor = CompositeFactor(parts, kernel.c, grid, mean)
        _FACTOR_CACHE[key] = factor
    return factor


def clear_factor_cache():
    _FACTOR_CACHE.clear()


def path_tiles(factors, m, seed, role=rng.ROLE_PATH, first=0):
    """(start, stop, k, paths) for each tile of M replicates and each factor k, in order.

    The one loop that draws normals and cuts replicates into tiles (module
    doc).  factors are those of an MSE ladder's grids, the finest last, or
    just one; paths holds the (stop - start, N + 1) values on factors[k]
    of replicates first + start .. first + stop - 1, drawn from their
    streams of `role`: the paths that `synthesize` returns.  Each row
    depends on its own streams only, so it is the same in any tile.
    Raises DomainError, before allocating, when one tile's normals and
    paths at the finest grid exceed physical memory.
    """
    finest = factors[-1]
    if m < 1:
        raise DomainError("path_tiles needs at least one replicate")
    count, nsteps = finest.normals_per_path, finest.grid.nsteps
    tile_bytes = 8 * _TILE_ROWS * (count + nsteps + 1)
    _require_memory(tile_bytes, f"a tile of {_TILE_ROWS} paths at N={nsteps}")
    for start in range(0, m, _TILE_ROWS):
        stop = min(start + _TILE_ROWS, m)
        block = np.zeros((_TILE_ROWS, count))
        for row in range(stop - start):
            rng.normals(rng.derive_key(seed, first + start + row, role), count, out=block[row])
        for k, factor in enumerate(factors):
            # Synthesis overwrites its normals: a coarser factor gets a copy
            # of the block's prefix, the finest the block itself.
            if factor is finest:
                tile, block = block, None
            else:
                tile = block[:, : factor.normals_per_path].copy()
            paths = factor.synthesize(tile)
            del tile
            yield start, stop, k, paths[: stop - start]
            # A consumer that drops the tile, too, frees it before the next is drawn.
            del paths


def sample_paths(factor, m, seed, role=rng.ROLE_PATH, first=0):
    """M exact paths from a factor (`cached_factor`): its `path_tiles`, collected.

    Returns the (M, N + 1) array values[r, j] = X_r(t_j) on the factor's
    grid, column 0 exactly 0 for centered kernels.  Row r comes from the
    stream keyed rng.derive_key(seed, first + r, role): role ROLE_PATH
    here and ROLE_BM for `sample_brownian`.
    """
    if m < 1:
        raise DomainError("sample_paths needs at least one replicate")
    grid = factor.grid
    _require_memory(8 * m * (grid.nsteps + 1), f"{m} paths at N={grid.nsteps}")
    values = np.empty((m, grid.nsteps + 1), dtype=np.float64)
    for start, stop, _, paths in path_tiles([factor], m, seed, role, first):
        values[start:stop] = paths
    return values


def sample_brownian(grid, m, seed, first=0):
    """Standard Brownian motions of replicates first .. first + M - 1 (ROLE_BM streams)."""
    return sample_paths(BrownianFactor(grid), m, seed, role=rng.ROLE_BM, first=first)


def write_ensemble_csv(values, grid, path):
    """Write (M, N + 1) paths on a grid as CSV with columns replicate, j, t, value.

    This is the package's one path file format.  Every t and value is
    written at 17 significant digits, which parse back to the same float64,
    and lines end in "\n" on every platform.  The j and t cells are
    formatted once; each replicate goes out in joined strings of
    _CSV_ROWS lines, so the Python objects in flight stay a fraction of
    that table.
    """
    cells = [f",{j},{t:.17g}," for j, t in enumerate(grid.times().tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("replicate,j,t,value\n")
        for rep, row in enumerate(values):
            for start in range(0, len(cells), _CSV_ROWS):
                part = slice(start, start + _CSV_ROWS)
                block = zip(cells[part], row[part].tolist())
                fh.write("".join([f"{rep}{cell}{v:.17g}\n" for cell, v in block]))
