"""Time and trace the heat sampler's whole set-up.

    PYTHONPATH=src python tools/heat_setup.py [N ...]

prints one JSON line per N (default 1024, 4096, 16384, 65536): the
Hankel rank, the set-up time in seconds (best of 3), the tracemalloc
peak of one more build in MiB and the stored Toeplitz-solve residual
`cg_residual`.  A set-up is the fGn spectrum (`circulant_factor`), the
Hankel factor (`hankel_factor`) and the solve (`heat_factor`), built
afresh each time: it reads only the package, and the factor cache, which
would share the first two across builds, is not used.  The peak is that
of the pivoted Cholesky's row buffer, which it shrinks in place to the
rank, or of the solve's narrow FFT tiles on top of U and W; at N = 4096
and 65536 it reads 2.75 and 60.0 MiB (2-vCPU Xeon VM, numpy 2.4.6).
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

from quartic_lab.kernels import Grid
from quartic_lab.simulate import circulant_factor, fgn_quarter_autocov, hankel_factor, heat_factor

SIZES = (1024, 4096, 16384, 65536)
REPEATS = 3


def set_up(grid):
    """The heat factor of the grid with its fGn and Hankel factors, all built here."""
    fgn = circulant_factor(fgn_quarter_autocov(grid), grid, "fbm_quarter")
    return heat_factor(fgn, hankel_factor(grid))


def measure(n):
    """{n, rank, setup_s, peak_mib, cg_residual} of the heat set-up at Grid(n)."""
    grid = Grid(n)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        factor = set_up(grid)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        factor = set_up(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "n": n,
        "rank": factor.rank,
        "setup_s": round(min(times), 4),
        "peak_mib": round(peak / 2**20, 2),
        "cg_residual": float(f"{factor.cg_residual:.3g}"),
    }


def main(argv=None):
    sizes = [int(arg) for arg in (sys.argv[1:] if argv is None else argv)] or SIZES
    for n in sizes:
        print(json.dumps(measure(n)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
