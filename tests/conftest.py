"""Shared pytest wiring for the acceptance suite, and sampler and dispatch helpers.

The acceptance tests append one verdict line per criterion; the terminal
summary hook prints the block after the run so the verdicts are visible
in plain `pytest -v` output, pass or fail.

`rng`'s normals equal scipy.special.ndtri's bit for bit only where
numpy's float64 log is libm's (see its module doc).  NUMPY_LOG_IS_LIBM
says whether it is in this process.  `rerun_under_libm_log` reruns tests
in a fresh process under LIBM_LOG_ENV, which switches off numpy's
AVX-512 loops on x86-64, so that numpy's log is libm's there.
"""

import math
import os
import subprocess
import sys

import numpy as np

from quartic_lab import rng, simulate

LIBM_LOG_ENV = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

ACCEPTANCE_LINES = []


def stream_normals(factor, m, seed, role=rng.ROLE_PATH, first=0):
    """The (M, normals_per_path) normals that replicates first .. first + M - 1 draw.

    Row r is the replicate-(first + r) stream of `role`, as
    `simulate.path_tiles` draws it.
    """
    count = factor.normals_per_path
    return np.array([rng.normals(rng.derive_key(seed, first + r, role), count) for r in range(m)])


def synthesize_rows(factor, z):
    """The (M, N) paths at t_1 .. t_N of the (M, normals_per_path) normals z.

    A drifted composite's rows include its mean.  A factor maps one tile of
    normals, so z goes to it one zero-padded tile at a time.  z is not
    changed.
    """
    rows, tile_rows = z.shape[0], simulate._TILE_ROWS
    out = np.empty((rows, factor.grid.nsteps))
    for start in range(0, rows, tile_rows):
        stop = min(start + tile_rows, rows)
        tile = np.zeros((tile_rows, z.shape[1]))
        tile[: stop - start] = z[start:stop]
        paths = factor.synthesize(tile)
        out[start:stop] = paths[: stop - start, 1:]
    return out


def _numpy_log_is_libm():
    """Whether numpy's float64 log rounds as math.log on 100,000 uniforms.

    numpy's AVX-512 log differs on about 350 of them.
    """
    x = np.random.default_rng(0).random(100_000)
    return np.array_equal(np.log(x), [math.log(v) for v in x])


NUMPY_LOG_IS_LIBM = _numpy_log_is_libm()


def run_fresh_python(code, env=None):
    """Run code in a new interpreter that imports this checkout's package and these tests.

    env adds to this process's environment.  Returns the child's output;
    a failing child fails the calling test with that output.
    """
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(simulate.__file__)))
    path = [src, tests, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def rerun_under_libm_log(test_file, *names):
    """Run the named tests of test_file in a fresh process where numpy's log is libm's."""
    run_fresh_python(
        "import sys, conftest, pytest\n"
        "assert conftest.NUMPY_LOG_IS_LIBM, 'numpy still dispatches a non-libm log'\n"
        f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', {test_file!r}, "
        f"'-k', {' or '.join(names)!r}]))",
        LIBM_LOG_ENV,
    )


def assert_is_ndtri(z, u):
    """z is scipy.special.ndtri(u) for uniforms u of `rng.normals`.

    Bit for bit where numpy's log is libm's.  Otherwise the centre,
    exp(-2) < u <= 1 - exp(-2), is still bit for bit (it takes no log),
    and the tails are within 8 ULP: 6 is the largest difference seen on
    numpy's AVX-512 log, over 32,768,000 normals.
    """
    from scipy.special import ndtri

    expected = ndtri(u)
    if NUMPY_LOG_IS_LIBM:
        assert np.array_equal(z.view(np.uint64), expected.view(np.uint64))
        return
    e2 = 0.13533528323661269189
    centre = (u > e2) & (u <= 1.0 - e2)
    assert np.array_equal(z[centre].view(np.uint64), expected[centre].view(np.uint64))
    ulps = np.abs(z.view(np.int64) - expected.view(np.int64))
    assert ulps.max(initial=0) <= 8


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
