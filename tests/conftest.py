"""Shared pytest wiring for the acceptance suite, and one sampler helper.

The acceptance tests append one verdict line per criterion; the terminal
summary hook prints the block after the run so the verdicts are visible
in plain `pytest -v` output, pass or fail.
"""

import numpy as np

from quartic_lab import simulate

ACCEPTANCE_LINES = []


def synthesize_rows(factor, z):
    """The (M, N) paths of the (M, normals_per_path) normals z, without a drift.

    A factor maps one tile of normals, so z goes to it one zero-padded
    tile at a time.  z is not changed.
    """
    rows, tile_rows = z.shape[0], simulate._TILE_ROWS
    out = np.empty((rows, factor.dim))
    for start in range(0, rows, tile_rows):
        stop = min(start + tile_rows, rows)
        tile = np.zeros((tile_rows, z.shape[1]))
        tile[: stop - start] = z[start:stop]
        paths = np.empty((tile_rows, factor.dim))
        factor.synthesize(tile, paths)
        out[start:stop] = paths[: stop - start]
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
