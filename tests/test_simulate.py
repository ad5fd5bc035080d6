"""Path sampling: factorization contract, determinism, persistence."""

import importlib.util
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import stream_normals, synthesize_rows

import quartic_lab
import quartic_lab.cli  # noqa: F401  (bench/tracing.py wraps attributes of the cli module)
import quartic_lab.kernels as kernels
import quartic_lab.rng as rng
import quartic_lab.simulate as simulate
import quartic_lab.verify as verify
from quartic_lab.analytic import gamma
from quartic_lab.errors import DomainError, NotPositiveDefinite
from quartic_lab.kernels import (
    FBM_HEAT_SCALE,
    KERNEL_KINDS,
    CovKernel,
    Grid,
    build_cov_matrix,
    fbm_composite_kernel,
    fbm_quarter_kernel,
    heat_kernel,
    rho_heat,
)
from quartic_lab.simulate import (
    BrownianFactor,
    CirculantFactor,
    CompositeFactor,
    HankelFactor,
    HeatFactor,
    cached_factor,
    circulant_factor,
    clear_factor_cache,
    factorize,
    fgn_quarter_autocov,
    sample_brownian,
    sample_paths,
    write_ensemble_csv,
)


@pytest.fixture
def no_dense(monkeypatch):
    """The dense oracle and the reference factor raise if anything calls them."""

    def refuse(*args, **kwargs):
        raise AssertionError("a dense covariance matrix was built or factored")

    for owner in (simulate, kernels):
        monkeypatch.setattr(owner, "build_cov_matrix", refuse)
    monkeypatch.setattr(simulate, "factorize", refuse)
    clear_factor_cache()


class TestFactorize:
    def test_scalar_square_root(self):
        factor = factorize(np.array([[4.0]]))
        np.testing.assert_array_equal(factor.matrix_l, [[2.0]])
        assert not factor.jittered

    def test_identity(self):
        factor = factorize(np.eye(5))
        np.testing.assert_array_equal(factor.matrix_l, np.eye(5))

    def test_heat_matrix_reconstruction(self):
        cov = build_cov_matrix(heat_kernel(), Grid(4))
        factor = factorize(cov)
        err = np.linalg.norm(factor.matrix_l @ factor.matrix_l.T - cov)
        assert err / np.linalg.norm(cov) <= 1e-12

    def test_zero_matrix_factors_to_zero(self):
        factor = factorize(np.zeros((3, 3)))
        np.testing.assert_array_equal(factor.matrix_l, np.zeros((3, 3)))
        assert not factor.jittered

    def test_singular_psd_raises_at_its_zero_pivot(self):
        # rank-1 matrix: the second pivot is exactly zero
        with pytest.raises(NotPositiveDefinite) as exc_info:
            factorize(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert exc_info.value.pivot_index == 1

    def test_indefinite_matrix_raises_with_pivot(self):
        with pytest.raises(NotPositiveDefinite) as exc_info:
            factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc_info.value.pivot_index == 1

    def test_pivot_index_is_first_failing_leading_minor(self):
        # leading minors of order 1 and 2 are 1; order 3 is 1 - 1.5^2 < 0
        mat = np.eye(5)
        mat[0, 2] = mat[2, 0] = 1.5
        with pytest.raises(NotPositiveDefinite) as exc_info:
            factorize(mat)
        assert exc_info.value.pivot_index == 2

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            factorize(np.zeros((2, 3)))

    def test_reads_only_the_lower_triangle_and_keeps_the_input(self):
        cov = build_cov_matrix(heat_kernel(), Grid(64))
        skewed = np.tril(cov) + np.triu(np.full_like(cov, np.nan), 1)
        original = skewed.copy()
        assert np.array_equal(factorize(skewed).matrix_l, factorize(cov).matrix_l)
        assert np.array_equal(skewed, original, equal_nan=True)


SAMPLED_KERNELS = pytest.mark.parametrize(
    "kernel",
    [heat_kernel(), fbm_quarter_kernel(), CovKernel("bm")],
    ids=lambda k: k.canonical_id(),
)


class TestSamplePaths:
    @SAMPLED_KERNELS
    def test_same_seed_is_bit_identical(self, kernel):
        factor = cached_factor(kernel, Grid(32))
        a = sample_paths(factor, 20, seed=11)
        b = sample_paths(factor, 20, seed=11)
        assert np.array_equal(a, b)

    @SAMPLED_KERNELS
    def test_replicate_streams_are_stable_under_extension(self, kernel):
        """Path m is the same whether the ensemble has 5 or 50 rows."""
        factor = cached_factor(kernel, Grid(32))
        small = sample_paths(factor, 5, seed=3)
        large = sample_paths(factor, 50, seed=3)
        assert np.array_equal(large[:5], small)

    def test_time_zero_is_pinned(self):
        factor = cached_factor(heat_kernel(), Grid(16))
        ens = sample_paths(factor, 7, seed=0)
        assert np.all(ens[:, 0] == 0.0)
        assert ens.shape == (7, 17)

    def test_moments_at_unit_time(self):
        factor = cached_factor(heat_kernel(), Grid(64))
        ens = sample_paths(factor, 10000, seed=5)
        final = ens[:, -1]
        var_exact = 1.0 / math.sqrt(math.pi)
        # SE of the sample variance of a Gaussian is var*sqrt(2/(M-1))
        se_var = var_exact * math.sqrt(2.0 / 9999)
        assert abs(final.var(ddof=1) - var_exact) <= 3 * se_var
        se_mean = math.sqrt(var_exact / 10000)
        assert abs(final.mean()) <= 3 * se_mean

    def test_empirical_covariance_matches_kernel(self):
        """Entrywise 4-SE agreement at 8 probe times, M = 20000."""
        grid = Grid(8)
        factor = cached_factor(heat_kernel(), grid)
        ens = sample_paths(factor, 20000, seed=2)
        body = ens[:, 1:]
        emp = (body.T @ body) / len(ens)
        ts = grid.times()[1:]
        exact = rho_heat(ts[:, None], ts[None, :])
        # Var(X_s X_t) = rho(s,s)rho(t,t) + rho(s,t)^2 for centered Gaussians
        var_prod = np.outer(np.diag(exact), np.diag(exact)) + exact**2
        se = np.sqrt(var_prod / len(ens))
        assert np.all(np.abs(emp - exact) <= 4.0 * se)

    @pytest.mark.parametrize("draw", [
        lambda factor: fgn_quarter_autocov(Grid(2**40)),
        lambda factor: cached_factor(fbm_quarter_kernel(), Grid(2**40)),
        lambda factor: cached_factor(heat_kernel(), Grid(2**40)),
        lambda factor: sample_paths(factor, 2**40, seed=1),
        lambda factor: sample_brownian(Grid(256), 2**40, seed=1),
        lambda factor: next(
            simulate.path_tiles([cached_factor(CovKernel("bm"), Grid(2**40))], 1, seed=1)
        ),
    ], ids=["autocov", "circulant", "heat", "paths", "brownian", "bm-tile"])
    def test_oversized_draw_refused_before_allocating(self, draw):
        factor = cached_factor(heat_kernel(), Grid(256))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="physical memory"):
                draw(factor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("m", [0, -1])
    def test_no_replicates_refused(self, m):
        factor = cached_factor(heat_kernel(), Grid(16))
        with pytest.raises(DomainError, match="at least one replicate"):
            sample_paths(factor, m, seed=1)

    def test_triangular_synthesis_matches_matrix_product(self):
        """xi's paths are the lower-triangular matrix of ones times U z'."""
        factor = cached_factor(CovKernel("xi"), Grid(1024))
        z = np.random.default_rng(4).standard_normal((50, factor.normals_per_path))
        expected = (np.tril(np.ones((1024, 1024))) @ factor.basis.T @ z.T).T
        out = synthesize_rows(factor, z)
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_cached_factor_builds_no_dense_matrix(self, no_dense):
        """Every kernel kind, each composite of them and a drift are drawn without a dense matrix."""
        grid = Grid(64)
        base = [CovKernel(kind) for kind in KERNEL_KINDS if kind != "composite"]
        composites = [CovKernel("composite", c=0.5, components=(part,)) for part in base] + [
            CovKernel("composite", c=-1.5, components=(a, b), mean_coeffs=(0.0, 1.0))
            for a in base
            for b in base
        ]
        for kernel in base + composites:
            values = verify.draw_ensemble(kernel, grid, 9, 1)
            assert values.shape == (9, 65) and np.all(np.isfinite(values))

    def test_factor_cache_reuses_work(self, monkeypatch):
        """xi is factored once however often it is drawn, and a composite and heat reuse it."""
        calls = []
        hankel = simulate._hankel_cholesky
        monkeypatch.setattr(simulate, "_hankel_cholesky", lambda *args: calls.append(1) or hankel(*args))
        clear_factor_cache()
        grid = Grid(64)
        xi = cached_factor(CovKernel("xi"), grid)
        sample_paths(cached_factor(CovKernel("xi"), grid), 10, seed=1)
        composite = cached_factor(fbm_composite_kernel(), grid)
        sample_paths(composite, 10, seed=2)
        sample_paths(cached_factor(fbm_composite_kernel(), grid), 10, seed=3)
        assert composite.parts[0] is cached_factor(heat_kernel(), grid)
        assert composite.parts[1] is xi
        # Once, for xi: the heat set-up takes the cached xi factor.
        assert len(calls) == 1


def _linear_map(factor, block=512):
    """Covariance A @ A.T of the factor's linear map from normals to path values.

    A is applied to the identity in row blocks, so the result is exact up
    to float64 rounding, with no Monte Carlo.
    """
    count = factor.normals_per_path
    cov = np.zeros((factor.grid.nsteps, factor.grid.nsteps))
    for start in range(0, count, block):
        rows = min(block, count - start)
        basis = np.zeros((rows, count))
        basis[np.arange(rows), start + np.arange(rows)] = 1.0
        out = synthesize_rows(factor, basis)
        cov += out.T @ out
    return cov


def _check_linear_map(kernel, backend, n):
    """The kernel's O(N) sampler has the dense oracle's covariance, not by Monte Carlo."""
    grid = Grid(n)
    factor = cached_factor(kernel, grid)
    assert isinstance(factor, backend)
    exact = build_cov_matrix(kernel, grid)
    assert np.max(np.abs(_linear_map(factor) - exact)) <= 1e-13


LINEAR_MAP_SIZES = pytest.mark.parametrize("n", [8, 64, 512, 2048])


# Block-wide references: the formulas that the tiled synthesis replaced,
# kept to pin that tiling moved no bit, and the Toeplitz solve written
# out of place on the whole block.

def _block_increments(fgn, z, scale=1.0):
    """scale times the (M, N) Davies-Harte increments of the (M, 2N) normals z, in one FFT."""
    n = fgn.grid.nsteps
    weights = fgn.sqrt_eigs * (math.sqrt(n) * scale)
    weights[[0, n]] *= math.sqrt(2.0)
    spec = np.empty((z.shape[0], n + 1), dtype=np.complex128)
    np.multiply(z[:, 0], weights[0], out=spec.real[:, 0])
    np.multiply(z[:, 1], weights[n], out=spec.real[:, n])
    np.multiply(z[:, 2 : n + 1], weights[1:n], out=spec.real[:, 1:n])
    np.multiply(z[:, n + 1 : 2 * n], weights[1:n], out=spec.imag[:, 1:n])
    spec.imag[:, [0, n]] = 0.0
    return np.fft.irfft(spec, n=2 * n, axis=1)[:, :n]


def _block_circulant_paths(factor, z):
    return np.cumsum(_block_increments(factor, z), axis=1)


def _block_heat_paths(factor, z):
    """Heat paths with the fGn drawn for the whole block and zero-padded to whole tiles."""
    n, r, tile_rows = factor.grid.nsteps, factor.hankel.normals_per_path, simulate._TILE_ROWS
    rows = z.shape[0]
    height = -(-rows // tile_rows) * tile_rows
    inc = np.zeros((height, n))
    inc[:rows] = _block_increments(factor.fgn, z, 1.0 / FBM_HEAT_SCALE)
    residual = np.zeros((height, r))
    residual[:rows] = z[:, 2 * n :]
    proj = np.empty((tile_rows, r))
    for start in range(0, height, tile_rows):
        tile = slice(start, start + tile_rows)
        for col in range(0, r, simulate._TILE_COLS):
            cols = slice(col, min(col + simulate._TILE_COLS, r))
            np.matmul(inc[tile], factor.solved[cols].T, out=proj[:, cols])
        coef = residual[tile] @ factor.mixing - proj
        inc[tile] += coef @ factor.hankel.basis
    return np.cumsum(inc[:rows], axis=1)


def _first_column(autocov, eigs):
    """T^-1 e_0 by one-vector PCG with out-of-place updates, and its iteration count."""
    n = autocov.size - 1
    lags = np.arange(n)
    chan = ((n - lags) * autocov[:n] + lags * np.concatenate([[0.0], autocov[n - 1 : 0 : -1]])) / n
    chan_eigs = np.fft.rfft(chan).real

    def precondition(x):
        return np.fft.irfft(np.fft.rfft(x) / chan_eigs, n=n)

    sol = np.zeros(n)
    res = np.eye(1, n)[0]
    direction = precondition(res)
    rz = np.einsum("i,i->", res, direction)
    for iteration in range(1, simulate._CG_MAX_ITER + 1):
        image = np.fft.irfft(np.fft.rfft(direction, n=2 * n) * eigs, n=2 * n)[:n]
        step = rz / np.einsum("i,i->", direction, image)
        sol = sol + step * direction
        res = res - step * image
        if math.sqrt(np.einsum("i,i->", res, res)) <= simulate._CG_TOL:
            break
        pre = precondition(res)
        rz_next = np.einsum("i,i->", res, pre)
        direction = pre + (rz_next / rz) * direction
        rz = rz_next
    return sol, iteration


def _block_solve_toeplitz(autocov, eigs, rhs):
    """The Gohberg-Semencul formula on the whole block, with out-of-place FFTs."""
    n = rhs.shape[1]
    first, _ = _first_column(autocov, eigs)
    lower = [np.fft.rfft(v, n=2 * n) for v in (first, np.concatenate([[0.0], first[:0:-1]]))]

    def product(spec):
        return np.fft.irfft(spec, n=2 * n, axis=1)[:, :n]

    fwd = np.fft.rfft(rhs, n=2 * n, axis=1)
    terms = [np.fft.rfft(product(fwd * v.conj()), n=2 * n, axis=1) * v for v in lower]
    sol = product(terms[0] - terms[1]) / first[0]
    image = product(np.fft.rfft(sol, n=2 * n, axis=1) * eigs) - rhs
    residual = np.linalg.norm(image, axis=1) / np.linalg.norm(rhs, axis=1)
    return sol, float(residual.max())


def _tiles_match_the_block(kernel, block_paths, n, m):
    factor = cached_factor(kernel, Grid(n))
    expected = block_paths(factor, stream_normals(factor, m, 17))
    out = sample_paths(factor, m, 17)[:, 1:]
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


TILE_CASES = pytest.mark.parametrize(
    "n,m", [(n, m) for n in (64, 1000) for m in (1, 7, 8, 9, 31, 33)], ids=lambda v: str(v)
)


class TestBrownianSampler:
    @LINEAR_MAP_SIZES
    def test_linear_map_has_the_bm_covariance(self, n):
        _check_linear_map(CovKernel("bm"), BrownianFactor, n)

    def test_no_dense_factor(self, no_dense):
        factor = cached_factor(CovKernel("bm"), Grid(1024))
        assert factor.normals_per_path == factor.grid.nsteps == 1024

    def test_coupled_motion_is_the_scaled_cumsum_of_its_stream(self):
        """ROLE_BM paths are pinned bit for bit to their streams."""
        grid = Grid(64, horizon=1.5)
        values = sample_brownian(grid, 4, seed=9)
        for r in range(4):
            z = math.sqrt(grid.dt) * rng.normals(rng.derive_key(9, r, rng.ROLE_BM), grid.nsteps)
            assert np.array_equal(values[r, 1:].view(np.uint64), np.cumsum(z).view(np.uint64))
        assert np.all(values[:, 0] == 0.0)

    @pytest.mark.parametrize("first, count", [(0, 3), (5, 4), (31, 40)])
    def test_brownian_from_an_offset_is_the_rows_of_the_whole_draw(self, first, count):
        """Row r of a draw from replicate `first` is row first + r of a draw from 0."""
        grid = Grid(64)
        whole = sample_brownian(grid, 80, 3)
        part = sample_brownian(grid, count, 3, first=first)
        assert np.array_equal(part.view(np.uint64), whole[first : first + count].view(np.uint64))


class TestCirculantSampler:
    @LINEAR_MAP_SIZES
    def test_linear_map_has_the_fbm_covariance(self, n):
        _check_linear_map(fbm_quarter_kernel(), CirculantFactor, n)

    def test_certificate_stored_and_no_dense_factor(self, no_dense):
        factor = cached_factor(fbm_quarter_kernel(), Grid(1024))
        assert factor.certificate > 0
        assert factor.normals_per_path == 2 * factor.grid.nsteps == 2048

    @pytest.mark.parametrize(
        "m", [1, simulate._TILE_ROWS - 1, simulate._TILE_ROWS + 1, 200],
        ids=["1", "block-1", "block+1", "200"],
    )
    def test_row_blocks_match_one_whole_block(self, monkeypatch, m):
        """The Davies-Harte rows are the same in 8-row tiles and in one tile of all m rows."""
        factor = cached_factor(fbm_quarter_kernel(), Grid(256))
        blocked = sample_paths(factor, m, 5)
        given = synthesize_rows(factor, stream_normals(factor, m, 5))
        monkeypatch.setattr(simulate, "_TILE_ROWS", m)
        whole = sample_paths(factor, m, 5)
        assert np.array_equal(blocked.view(np.uint64), whole.view(np.uint64))
        assert np.array_equal(given.view(np.uint64), whole[:, 1:].view(np.uint64))

    @pytest.mark.parametrize("role", [rng.ROLE_PATH, rng.ROLE_BM])
    def test_normals_from_an_offset_are_the_rows_of_the_whole_block(self, role):
        factor = cached_factor(fbm_quarter_kernel(), Grid(64))
        whole = sample_paths(factor, 9, 3, role)
        part = sample_paths(factor, 4, 3, role, first=5)
        assert np.array_equal(part.view(np.uint64), whole[5:].view(np.uint64))

    @TILE_CASES
    def test_tiles_match_the_block_wide_formula(self, n, m):
        _tiles_match_the_block(fbm_quarter_kernel(), _block_circulant_paths, n, m)

    def test_block_synthesis_holds_one_tile_spectrum(self):
        """A tile at N = 8192 allocates one 8-row half spectrum and no other FFT temporary.

        Its paths are allocated once the spectrum is freed, so they do not
        count on top of it: the peak is the spectrum, the N + 1 weights and
        a 64 KiB margin, 0.5 MiB short of the spectrum and the paths.
        """
        n = 8192
        factor = cached_factor(fbm_quarter_kernel(), Grid(n))
        z = stream_normals(factor, simulate._TILE_ROWS, 1)
        paths = []
        peak = _traced_peak(lambda: paths.append(factor.synthesize(z)))
        assert peak <= 16 * simulate._TILE_ROWS * (n + 1) + 8 * (n + 1) + 2**16
        assert paths[0].shape == (simulate._TILE_ROWS, n + 1) and not paths[0][:, 0].any()

    @pytest.mark.parametrize("size", [32, 128])
    def test_autocovariance_of_another_grid_rejected(self, size):
        """gamma(0 .. N) must be the N + 1 values of the factor's own grid."""
        with pytest.raises(DomainError, match=r"gamma\(0 \.\. 64\)"):
            circulant_factor(fgn_quarter_autocov(Grid(size)), Grid(64))

    def test_negative_eigenvalue_row_rejected(self):
        # eigenvalues 1 + 1.8 cos(pi k / 4); the one at k = 4 is -0.8
        with pytest.raises(NotPositiveDefinite):
            circulant_factor([1.0, 0.9, 0.0, 0.0, 0.0], Grid(4))


HEAT_GRIDS = pytest.mark.parametrize(
    "grid", [Grid(2), Grid(3), Grid(8), Grid(64), Grid(1000), Grid(2048), Grid(100, 2.5)], ids=str
)


class TestHeatSampler:
    @HEAT_GRIDS
    def test_linear_map_has_the_heat_covariance(self, grid):
        """Davies-Harte plus the low-rank correction has the dense oracle's covariance."""
        factor = cached_factor(heat_kernel(), grid)
        assert isinstance(factor, HeatFactor)
        exact = build_cov_matrix(heat_kernel(), grid)
        assert np.max(np.abs(_linear_map(factor) - exact)) <= 1e-13 * np.max(np.abs(exact))

    @HEAT_GRIDS
    def test_stored_residuals_bound_the_set_up(self, grid):
        """The trace bounds ||K - U U^T||_2 and the CG residual is that of W, both at rounding."""
        from scipy.linalg import toeplitz

        factor = cached_factor(heat_kernel(), grid)
        n, r = factor.grid.nsteps, factor.hankel.normals_per_path
        eps = np.finfo(np.float64).eps
        steps = np.arange(n)
        hankel = 0.5 * math.sqrt(grid.dt) * gamma(steps[:, None] + steps + 1)
        basis = factor.hankel.basis
        floor = r * eps * np.trace(hankel)
        assert factor.hankel.trace_residual <= floor
        assert np.linalg.norm(hankel - basis.T @ basis, 2) <= factor.hankel.trace_residual + floor
        fgn = toeplitz(fgn_quarter_autocov(grid)[:n])
        rel = np.linalg.norm(factor.solved @ fgn - basis, axis=1) / np.linalg.norm(basis, axis=1)
        assert factor.cg_residual <= 1e-13
        assert rel.max() <= 2 * factor.cg_residual + 1e-15

    def test_stored_cg_residual_stays_within_its_bound_of_n(self):
        """At N = 16384 the stored residual is that of W and within max(1e-13, N eps / 8).

        T W^T goes through a full-length complex FFT convolution, not the
        set-up's circulant embedding and not a dense matrix.
        """
        n = 16384
        grid = Grid(n)
        factor = cached_factor(heat_kernel(), grid)
        autocov = fgn_quarter_autocov(grid)
        lags = np.concatenate([autocov[n - 1 : 0 : -1], autocov[:n]])
        spectrum = np.fft.fft(factor.solved, 4 * n, axis=1) * np.fft.fft(lags, 4 * n)
        image = np.fft.ifft(spectrum, axis=1).real[:, n - 1 : 2 * n - 1]
        basis = factor.hankel.basis
        rel = np.linalg.norm(image - basis, axis=1) / np.linalg.norm(basis, axis=1)
        bound = n * np.finfo(np.float64).eps / 8
        assert bound > 1e-13
        assert factor.cg_residual <= bound
        assert rel.max() <= 2 * factor.cg_residual + 1e-15

    def test_normal_layout_is_fgn_then_residual(self):
        """The first 2N normals draw the fBm sampler's increments; the last r only the correction."""
        grid = Grid(256)
        heat = cached_factor(heat_kernel(), grid)
        n, r = grid.nsteps, heat.hankel.normals_per_path
        z = stream_normals(heat, 5, 3)
        fgn = np.diff(sample_paths(cached_factor(fbm_quarter_kernel(), grid), 5, 3), axis=1)
        paths = synthesize_rows(heat, z)
        basis = heat.hankel.basis
        expected = np.cumsum(fgn - (fgn @ heat.solved.T) @ basis, axis=1) / FBM_HEAT_SCALE
        without = z.copy()
        without[:, 2 * n :] = 0.0
        projected = synthesize_rows(heat, without)
        assert np.max(np.abs(projected - expected)) <= 1e-12
        assert not np.allclose(paths, projected)
        assert heat.normals_per_path == 2 * n + r

    def test_no_dense_factor(self, no_dense):
        built = cached_factor(heat_kernel(), Grid(1024))
        assert built.fgn.certificate > 0
        assert 20 <= built.hankel.normals_per_path <= 40

    @TILE_CASES
    def test_tiles_match_the_block_wide_formula(self, n, m):
        _tiles_match_the_block(heat_kernel(), _block_heat_paths, n, m)

    def test_tiled_solve_matches_the_block_wide_formula(self):
        grid = Grid(4096)
        factor = cached_factor(heat_kernel(), grid)
        assert factor.hankel.normals_per_path == 33
        args = (fgn_quarter_autocov(grid), factor.fgn.sqrt_eigs**2, factor.hankel.basis)
        solved, cg_residual = _block_solve_toeplitz(*args)
        assert np.array_equal(factor.solved.view(np.uint64), solved.view(np.uint64))
        assert factor.cg_residual == cg_residual
        tiled, tiled_residual = simulate._solve_toeplitz(*args)
        assert np.array_equal(tiled.view(np.uint64), solved.view(np.uint64))
        assert tiled_residual == cg_residual

    def test_set_up_transforms_eight_rows_per_basis_row(self, monkeypatch):
        """The heat set-up at Grid(4096), fGn and Hankel included, FFTs 8 rows per basis row,
        4 per PCG iteration and 8 more."""
        grid = Grid(4096)
        factor = cached_factor(heat_kernel(), grid)
        _, iterations = _first_column(fgn_quarter_autocov(grid), factor.fgn.sqrt_eigs**2)
        rows = []

        def counted(fft):
            def call(a, *args, axis=-1, **kwargs):
                rows.append(np.size(a) // np.shape(a)[axis])
                return fft(a, *args, axis=axis, **kwargs)
            return call

        clear_factor_cache()
        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        cached_factor(heat_kernel(), grid)
        assert sum(rows) <= 8 * factor.hankel.normals_per_path + 4 * iterations + 8

    def test_set_up_peak_stays_within_its_guard(self, monkeypatch):
        """The heat set-up at Grid(4096), fGn and Hankel included, allocates at most 3 MiB,
        no more than its guard reserved.

        It reads 2.87 MiB; the margin is 4 rows of N.  A Hankel basis copied
        out of its buffer reads 3.27 MiB, and a solve on 8-row tiles 4.19 MiB.
        """
        reserved = {}
        guard = simulate._require_memory

        def record(nbytes, what):
            reserved[what.split(" at ")[0]] = nbytes
            guard(nbytes, what)

        monkeypatch.setattr(simulate, "_require_memory", record)
        clear_factor_cache()
        peak = _traced_peak(lambda: cached_factor(heat_kernel(), Grid(4096)))
        assert peak <= 3.0 * 2**20
        assert peak <= reserved["heat sampler tables"]

    def test_hankel_rows_grow_to_the_cap(self, monkeypatch):
        """Rows past half the cap go into a grown buffer with the same bits; the cap still stops.

        Either buffer is shrunk in place to the rank: the basis owns its
        data and has the bits of a buffer of exactly 17 rows, half a cap of 34.
        """
        grid = Grid(64)
        seq = 0.5 * math.sqrt(grid.dt) * gamma(np.arange(1, 128))
        basis, trace = simulate._hankel_cholesky(seq, 64)
        assert basis.shape == (17, 64) and basis.base is None
        monkeypatch.setattr(simulate, "_HANKEL_RANK_CAP", 24)
        grown, grown_trace = simulate._hankel_cholesky(seq, 64)
        assert grown.shape == (17, 64) and grown.base is None
        assert np.array_equal(grown.view(np.uint64), basis.view(np.uint64))
        assert grown_trace == trace
        monkeypatch.setattr(simulate, "_HANKEL_RANK_CAP", 34)
        exact, exact_trace = simulate._hankel_cholesky(seq, 64)
        assert np.array_equal(exact.view(np.uint64), basis.view(np.uint64))
        assert exact_trace == trace
        monkeypatch.setattr(simulate, "_HANKEL_RANK_CAP", 16)
        with pytest.raises(DomainError, match="unresolved at rank 16"):
            simulate._hankel_cholesky(seq, 64)

    def test_hankel_basis_is_its_buffer_shrunk_in_place(self):
        """At N = 4096 the pivoted Cholesky holds its 64-row buffer and O(N) vectors, no copy.

        The rank-33 basis is the buffer's first rows: a copy of them would
        add 33 rows of N on top of the 64.
        """
        n = 4096
        seq = 0.5 * math.sqrt(Grid(n).dt) * gamma(np.arange(1, 2 * n))
        held = []
        peak = _traced_peak(lambda: held.append(simulate._hankel_cholesky(seq, n)))
        basis = held[0][0]
        assert basis.shape == (33, n) and basis.base is None
        assert peak <= 8 * n * (simulate._HANKEL_RANK_CAP // 2 + 4)

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 33], ids=str)
    def test_rows_do_not_depend_on_the_tile_or_block(self, m):
        """A row drawn among rows 40 - m .. 39 equals the row drawn among all 40."""
        factor = cached_factor(heat_kernel(), Grid(4096))
        whole = sample_paths(factor, 40, 9)
        part = sample_paths(factor, m, 9, first=40 - m)
        assert np.array_equal(part.view(np.uint64), whole[40 - m :].view(np.uint64))


# xi, on its Hankel factor, and composites, as sums of independent parts.
PART_KERNELS = pytest.mark.parametrize(
    "kernel",
    [
        CovKernel("xi"),
        fbm_composite_kernel(),
        CovKernel("composite", c=-1.3, components=(fbm_quarter_kernel(), CovKernel("bm"))),
    ],
    ids=["xi", "fbm-composite", "signed-composite"],
)


@PART_KERNELS
@pytest.mark.parametrize(
    "grid", [Grid(64), Grid(256), Grid(1000), Grid(2048), Grid(100, 2.5)], ids=str
)
def test_linear_map_has_the_oracle_covariance(kernel, grid):
    """xi and the composite draw the dense oracle's covariance, to 1e-13 of its largest entry."""
    factor = cached_factor(kernel, grid)
    assert isinstance(factor, HankelFactor if kernel.kind == "xi" else CompositeFactor)
    exact = build_cov_matrix(kernel, grid)
    assert np.max(np.abs(_linear_map(factor) - exact)) <= 1e-13 * np.max(np.abs(exact))


@PART_KERNELS
@pytest.mark.parametrize("m", [1, 7, 8, 9, 33], ids=str)
def test_part_rows_do_not_depend_on_the_tile_or_block(kernel, m):
    factor = cached_factor(kernel, Grid(4096))
    whole = sample_paths(factor, 40, 9)
    part = sample_paths(factor, m, 9, first=40 - m)
    assert np.array_equal(part.view(np.uint64), whole[40 - m :].view(np.uint64))


def test_xi_draws_the_heat_set_up_hankel_factor():
    """xi draws r normals through the very Hankel factor that the heat set-up holds."""
    for n, rank in ((64, 17), (256, 22), (1000, 26)):
        xi = cached_factor(CovKernel("xi"), Grid(n))
        heat = cached_factor(heat_kernel(), Grid(n))
        assert xi.normals_per_path == xi.basis.shape[0] == rank
        assert heat.hankel is xi


@pytest.mark.parametrize("kind", ["heat", "xi"])
def test_rank_products_stay_on_one_blas_thread(monkeypatch, kind):
    """A tile's rank-r products at N = 4096 each take at most 2^18 multiply-adds.

    OpenBLAS runs gemm on one thread up to that size; the one (8, 33) @
    (33, 4096) heat product, past it, once took 8 ms on two threads.
    """
    factor = cached_factor(CovKernel(kind), Grid(4096))
    z = np.random.default_rng(2).standard_normal((simulate._TILE_ROWS, factor.normals_per_path))
    calls = []
    matmul = np.matmul

    def record(a, b, **kwargs):
        calls.append((*a.shape, b.shape[1]))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", record)
    factor.synthesize(z)
    rank = cached_factor(CovKernel("xi"), Grid(4096)).normals_per_path
    expand = [(m, k, n) for m, k, n in calls if k == rank]
    assert sum(n for _, _, n in expand) == 4096
    assert all(m * k * n <= 2**18 for m, k, n in expand)


def test_heat_and_the_composite_share_the_grid_factors():
    """A grid has one fGn spectrum and one Hankel factor, whichever kernel draws from them."""
    for grid in (Grid(64), Grid(1000), Grid(300, 1.7)):
        clear_factor_cache()
        heat = cached_factor(heat_kernel(), grid)
        assert heat.fgn is cached_factor(fbm_quarter_kernel(), grid)
        assert heat.hankel is cached_factor(CovKernel("xi"), grid)
        clear_factor_cache()
        part, xi = cached_factor(fbm_composite_kernel(), grid).parts
        assert part is cached_factor(heat_kernel(), grid)
        assert part.hankel is xi
        assert part.fgn is cached_factor(fbm_quarter_kernel(), grid)


def test_composite_normals_are_part_0_then_part_1():
    """A row is c times part 0 drawn from its leading normals plus part 1 drawn from the rest."""
    grid = Grid(256)
    kernel = fbm_composite_kernel()
    factor = cached_factor(kernel, grid)
    heat, xi = factor.parts
    z = stream_normals(factor, 5, 3)
    first = synthesize_rows(heat, z[:, : heat.normals_per_path])
    second = synthesize_rows(xi, z[:, heat.normals_per_path :])
    expected = kernel.c * first + second
    paths = sample_paths(factor, 5, 3)[:, 1:]
    assert np.array_equal(paths.view(np.uint64), expected.view(np.uint64))
    assert factor.normals_per_path == 2 * 256 + 2 * xi.normals_per_path


_THREAD_DIGEST = """
import hashlib, sys
from quartic_lab.kernels import Grid, heat_kernel
from quartic_lab.simulate import cached_factor, sample_paths
digest = hashlib.sha256()
for grid in (Grid(4096), Grid(3000, 1.7)):
    digest.update(sample_paths(cached_factor(heat_kernel(), grid), 40, 7).tobytes())
print(digest.hexdigest())
"""


def test_heat_paths_do_not_depend_on_the_blas_thread_count():
    """Fresh processes with 1 and 2 OpenBLAS threads draw the same heat paths, bit for bit."""
    src = str(pathlib.Path(quartic_lab.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _THREAD_DIGEST], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def test_benchmark_wrapped_attributes_exist():
    """Every attribute that bench/tracing.py wraps by name exists; its traced run needs them.

    tracing.py imports nothing from numpy or the package, so it loads by
    path without the rest of the benchmark.
    """
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing.wrap_table(quartic_lab)
    assert {(owner, name) for owner, name, _, _ in table} >= {
        (simulate, "build_cov_matrix"), (simulate, "factorize"), (rng, "normals"),
        (rng, "stream"), (rng, "derive_key"), (verify, "draw_ensemble"),
    }
    for owner, name, _, _ in table:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


class TestSampleCoupled:
    """Coupled (path, Brownian) ensembles: verify.draw_ensemble and sample_brownian on one seed."""

    def test_coupled_reproducibility(self):
        grid = Grid(32)
        x1, b1 = verify.draw_ensemble(heat_kernel(), grid, 10, 9), sample_brownian(grid, 10, 9)
        x2, b2 = verify.draw_ensemble(heat_kernel(), grid, 10, 9), sample_brownian(grid, 10, 9)
        assert np.array_equal(x1, x2)
        assert np.array_equal(b1, b2)

    def test_roles_are_disjoint(self):
        """The Brownian draw must not consume the path streams."""
        grid = Grid(32)
        solo = sample_paths(cached_factor(heat_kernel(), grid), 10, seed=9)
        x, b = verify.draw_ensemble(heat_kernel(), grid, 10, 9), sample_brownian(grid, 10, 9)
        assert np.array_equal(x, solo)
        assert not np.array_equal(b[:, 1:], solo[:, 1:])

    def test_cross_correlation_small(self):
        grid = Grid(16)
        x, b = verify.draw_ensemble(heat_kernel(), grid, 10000, 4), sample_brownian(grid, 10000, 4)
        r = np.corrcoef(x[:, -1], b[:, -1])[0, 1]
        assert abs(r) <= 0.03

    def test_brownian_variance(self):
        grid = Grid(16)
        b = sample_brownian(grid, 10000, seed=8)
        final = b[:, -1]
        assert abs(final.var(ddof=1) - 1.0) <= 3 * math.sqrt(2.0 / 9999)
        steps = np.diff(b, axis=1)
        np.testing.assert_allclose(steps.var(ddof=1, axis=0), grid.dt, rtol=0.15)


def _drifted(*mean_coeffs):
    return CovKernel("composite", c=1.0, components=(CovKernel("heat"),), mean_coeffs=mean_coeffs)


class TestDrift:
    def test_zero_drift_is_identity(self):
        grid = Grid(8)
        kernel = _drifted(0.0)
        ens = sample_paths(cached_factor(_drifted(), grid), 4, seed=6)
        shifted = verify.draw_ensemble(kernel, grid, 4, 6)
        assert np.array_equal(shifted, ens)

    def test_linear_drift_shifts_columns(self):
        grid = Grid(2)
        kernel = _drifted(0.0, 1.0)
        ens = sample_paths(cached_factor(_drifted(), grid), 3, seed=6)
        shifted = verify.draw_ensemble(kernel, grid, 3, 6)
        np.testing.assert_allclose(shifted - ens, np.tile([0.0, 0.5, 1.0], (3, 1)))

    def test_scaled_heat_plus_drift_matches_composite_law(self):
        """c*F + m(t) and the composite kernel agree in mean and variance."""
        grid = Grid(16)
        c = 0.7
        composite = CovKernel(
            "composite", c=c, components=(CovKernel("heat"),), mean_coeffs=(0.0, 1.0)
        )
        factor_h = cached_factor(heat_kernel(), grid)
        manual = sample_paths(factor_h, 10000, seed=12)
        manual_final = c * manual[:, -1] + 1.0
        factor_c = cached_factor(composite, grid)
        # The composite's factor carries its drift.
        drawn = sample_paths(factor_c, 10000, seed=13)
        drawn_final = drawn[:, -1]
        var_exact = c * c / math.sqrt(math.pi)
        se_var = var_exact * math.sqrt(2.0 / 9999)
        se_mean = math.sqrt(var_exact / 10000)
        assert abs(manual_final.mean() - drawn_final.mean()) <= 3 * 2 * se_mean
        assert abs(manual_final.var(ddof=1) - drawn_final.var(ddof=1)) <= 3 * 2 * se_var


class TestPersistence:
    def test_csv_layout(self, tmp_path):
        grid = Grid(2)
        ens = sample_paths(cached_factor(heat_kernel(), grid), 2, seed=1)
        target = tmp_path / "ens.csv"
        write_ensemble_csv(ens, grid, target)
        lines = target.read_text().splitlines()
        assert lines[0] == "replicate,j,t,value"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[:3] == ["0", "0", "0"]
        assert float(first[3]) == 0.0
        # 17-significant-digit floats survive a parse round trip
        assert float(lines[2].split(",")[3]) == ens[0, 1]

    def test_csv_bytes_match_one_cell_at_a_time(self, tmp_path):
        """The row-joined writer gives the bytes of formatting each value on its own."""
        grid = Grid(5)
        values = np.array([
            [0.0, -0.0, 0.1 + 0.2, -1e-300, 123456789.125, 5e-324],
            [0.0, 1.0, -2.5, 1 / 3, -0.0, 1e22],
        ])
        target = tmp_path / "ens.csv"
        write_ensemble_csv(values, grid, target)
        times = grid.times()
        expected = "replicate,j,t,value\n" + "".join(
            f"{rep},{j},{times[j]:.17g},{values[rep, j]:.17g}\n"
            for rep in range(2)
            for j in range(times.size)
        )
        assert target.read_bytes() == expected.encode("utf-8")
        assert "\n0,1,0.20000000000000001,-0\n" in expected
        assert "\n0,2,0.40000000000000002,0.30000000000000004\n" in expected

    def test_csv_peak_is_a_fraction_of_a_replicate(self, tmp_path):
        """Two replicates at N = 2^16 go out with a tracemalloc peak under 12 MiB.

        One joined string per replicate peaked at 16.5 MiB, blocks of
        _CSV_ROWS lines at 8.0 (Python 3.11); the bytes are still those of
        formatting each cell on its own.
        """
        grid = Grid(2**16)
        values = np.random.default_rng(3).standard_normal((2, grid.nsteps + 1))
        target = tmp_path / "ens.csv"
        assert _traced_peak(lambda: write_ensemble_csv(values, grid, target)) < 12 * 2**20
        times = grid.times()
        expected = "replicate,j,t,value\n" + "".join(
            f"{rep},{j},{times[j]:.17g},{values[rep, j]:.17g}\n"
            for rep in range(2)
            for j in range(times.size)
        )
        assert target.read_bytes() == expected.encode("utf-8")
