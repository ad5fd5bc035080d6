"""Property tests: PSD covariances, the exact parity split, record and path file round trips."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_is_ndtri, rerun_under_libm_log, synthesize_rows
from quartic_lab import functions, rng
from quartic_lab.functions import builtin, from_spec
from quartic_lab.kernels import KERNEL_KINDS, CovKernel, Grid, build_cov_matrix, fbm_composite_kernel
from quartic_lab.simulate import PathEnsemble, cached_factor, heat_factor, write_ensemble_csv
from quartic_lab.sums import power_sum_ensemble

_PROPERTY = settings(max_examples=40, deadline=None, database=None)

_BASE_KINDS = [kind for kind in KERNEL_KINDS if kind != "composite"]
_FINITE = st.floats(-1e3, 1e3, allow_nan=False)
_COMPOSITES = st.builds(
    lambda c, comps, mean: CovKernel("composite", c=c, components=comps, mean_coeffs=mean),
    _FINITE,
    st.lists(st.sampled_from(_BASE_KINDS).map(CovKernel), min_size=1, max_size=2).map(tuple),
    st.lists(_FINITE, max_size=3).map(tuple),
)
# n <= 64 steps per unit time and 2 .. 128 steps to a horizon off the grid.
_GRIDS = st.builds(
    lambda n, steps, frac: Grid(n, (steps + frac) / n),
    st.integers(1, 64), st.integers(2, 128), st.floats(0.0, 0.5),
)


@_PROPERTY
@given(
    seed=st.integers(0, 2**64 - 1),
    replicate=st.integers(0, 2**64 - 1),
    role=st.sampled_from([rng.ROLE_PATH, rng.ROLE_BM]),
    sizes=st.tuples(st.integers(0, 2**15), st.integers(0, 2**15)).map(sorted),
)
def test_shorter_draw_is_a_prefix_of_longer(seed, replicate, role, sizes):
    """MSE ladders draw a stream once at the largest grid and read prefixes of it."""
    a, b = sizes
    key = rng.derive_key(seed, replicate, role)
    short = rng.normals(key, a).view(np.uint64)
    assert np.array_equal(short, rng.normals(key, b)[:a].view(np.uint64))


@settings(max_examples=400, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    replicate=st.integers(0, 2**64 - 1),
    role=st.sampled_from([rng.ROLE_PATH, rng.ROLE_BM]),
    count=st.integers(0, 2**12),
)
def test_normals_keep_the_bounded_integers_of_the_stream(seed, replicate, role, count):
    """The top 53 bits of each raw output are what integers(0, 2**53) draws from the stream."""
    key = rng.derive_key(seed, replicate, role)
    philox = np.random.Generator(np.random.Philox(key=key))
    ints = philox.integers(0, 1 << 53, size=count, dtype=np.uint64)
    assert_is_ndtri(rng.normals(key, count), (ints + 0.5) * 2.0**-53)


def test_the_top_53_bit_integer_draws_a_finite_normal(monkeypatch):
    """k = 2**53 - 1 would shift to 2**53, a uniform of 1; it is capped and no other draw moves.

    The stubbed stream hands out raw outputs whose top 53 bits are k;
    from 2**52 on, k + 0.5 rounds half to even.  k = 0, 1 and the top
    three take Cephes' far-tail branch (sqrt(-2 log y) >= 8).
    """
    ks = np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 3, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    raw = (ks << np.uint64(11)) | np.uint64(2**11 - 1)
    assert raw[-1] == 2**64 - 1
    monkeypatch.setattr(rng, "stream", lambda key, count: raw[:count].copy())
    z = rng.normals(0, ks.size)
    assert np.all(np.isfinite(z))
    assert z[-1] > z[-2] == z[-3]
    assert_is_ndtri(z[-1:], np.array([1.0 - 2.0**-53]))
    assert_is_ndtri(z[:-1], (ks[:-1] + 0.5) * 2.0**-53)


def test_normals_are_scipy_ndtri_bit_for_bit_under_the_libm_log_dispatch():
    """The two tests above, rerun where numpy's log is libm's, hold bit for bit."""
    rerun_under_libm_log(__file__, "bounded_integers_of_the_stream", "top_53_bit_integer")


@_PROPERTY
@given(key=st.integers(0, 2**128 - 1), count=st.integers(0, 2**10))
def test_stream_is_philox_of_the_key(key, count):
    """A rekeyed Philox gives Philox(key=key)'s raw outputs, whatever was drawn before."""
    rng.stream(key ^ 1, 3)
    assert np.array_equal(rng.stream(key, count), np.random.Philox(key=key).random_raw(count))


@_PROPERTY
@given(
    kernel=st.sampled_from([*map(CovKernel, _BASE_KINDS), fbm_composite_kernel()]),
    grid=_GRIDS,
)
def test_dense_covariance_is_psd_on_random_grids(kernel, grid):
    eigs = np.linalg.eigvalsh(build_cov_matrix(kernel, grid))
    assert eigs[0] >= -1e-12 * eigs[-1]


@_PROPERTY
@given(grid=_GRIDS)
def test_heat_sampler_has_the_dense_covariance_on_random_grids(grid):
    """The heat sampler's linear map, applied to every normal, has the dense oracle's covariance."""
    fgn, hankel = (cached_factor(CovKernel(kind), grid) for kind in ("fbm_quarter", "xi"))
    factor = heat_factor(fgn, hankel)
    out = synthesize_rows(factor, np.eye(factor.normals_per_path))
    exact = build_cov_matrix(CovKernel("heat"), grid)
    assert np.max(np.abs(out.T @ out - exact)) <= 1e-13 * np.max(np.abs(exact))


@_PROPERTY
@given(kernel=st.one_of(st.just(CovKernel("xi")), _COMPOSITES), grid=_GRIDS)
def test_xi_and_composite_samplers_have_the_dense_covariance_on_random_grids(kernel, grid):
    """Composites of every kind, scale and drift draw through their parts' factors exactly.

    The covariance is the centred factor's; zero normals draw a drifted
    composite's mean exactly.
    """
    factor = cached_factor(kernel, grid)
    if kernel.mean_coeffs:
        mean = synthesize_rows(factor, np.zeros((1, factor.normals_per_path)))
        assert np.array_equal(mean[0], factor.mean[1:])
        factor = dataclasses.replace(factor, mean=None)
    out = synthesize_rows(factor, np.eye(factor.normals_per_path))
    exact = build_cov_matrix(kernel, grid)
    assert np.max(np.abs(out.T @ out - exact)) <= 1e-13 * np.max(np.abs(exact))


@_PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 64),
    m=st.integers(1, 4),
    p=st.sampled_from([3, 4]),
    eval_point=st.sampled_from(["left", "right"]),
    name=st.sampled_from(sorted(functions._BUILTINS)),
)
def test_power_sum_parity_split_is_exact(seed, n, m, p, eval_point, name):
    grid = Grid(n)
    values = np.random.default_rng(seed).standard_normal((m, grid.nsteps + 1))
    g = builtin(name)
    odd, even, full = (
        power_sum_ensemble(values, grid, g, p, parity, eval_point)
        for parity in ("odd", "even", "all")
    )
    assert np.array_equal(odd + even, full)


# Finite float64 values, drawing often the edges a 17-digit cell must keep:
# -0.0, the smallest subnormals, the smallest normal and +-max.
_CSV_FLOATS = st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
) | st.floats(width=64, allow_nan=False, allow_infinity=False)


@_PROPERTY
@given(grid=_GRIDS, m=st.integers(1, 4), data=st.data())
def test_ensemble_file_round_trip(tmp_path_factory, grid, m, data):
    shape = (m, grid.nsteps + 1)
    values = np.array(
        data.draw(st.lists(_CSV_FLOATS, min_size=m * shape[1], max_size=m * shape[1]))
    ).reshape(shape)
    path = tmp_path_factory.mktemp("ens") / "ens.csv"
    write_ensemble_csv(PathEnsemble(grid, values, "heat"), path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [[str(r), str(j)] for r in range(m) for j in range(shape[1])]
    back = np.array([float(row[3]) for row in rows]).reshape(shape)
    times = np.array([float(row[2]) for row in rows]).reshape(shape)
    assert back.tobytes() == values.tobytes()
    assert times.tobytes() == np.tile(grid.times(), (m, 1)).tobytes()


@_PROPERTY
@given(kernel=_COMPOSITES)
def test_kernel_record_round_trip(kernel):
    assert CovKernel.from_dict(kernel.to_dict()) == kernel


@_PROPERTY
@given(
    name=st.sampled_from([*functions._BUILTINS, "poly_k"]),
    coeffs=st.lists(_FINITE, min_size=1, max_size=functions.MAX_DX_ORDER + 1),
    x=st.lists(_FINITE, min_size=1, max_size=5),
)
def test_test_function_spec_round_trip(name, coeffs, x):
    g = builtin(name, coeffs=coeffs) if name == "poly_k" else builtin(name)
    back = from_spec(g.spec())
    assert back.spec() == g.spec()
    assert (back.fid, back.poly_coeffs) == (g.fid, g.poly_coeffs)
    x = np.array(x)
    for j in range(functions.MAX_DX_ORDER + 1):
        assert np.array_equal(back.dx(j, x, 0.5), g.dx(j, x, 0.5))
