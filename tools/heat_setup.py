"""Time and trace the heat sampler's set-up, `simulate.heat_factor`.

    PYTHONPATH=src python tools/heat_setup.py [N ...]

prints one JSON line per N (default 1024, 4096, 16384, 65536): the
Hankel rank, the set-up time in seconds (best of 3), the tracemalloc
peak of one more build in MiB and the stored Toeplitz-solve residual
`cg_residual`.  It reads only the package; the factor cache is not used.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

from quartic_lab.kernels import Grid
from quartic_lab.simulate import heat_factor

SIZES = (1024, 4096, 16384, 65536)
REPEATS = 3


def measure(n):
    """{n, rank, setup_s, peak_mib, cg_residual} of heat_factor(Grid(n))."""
    grid = Grid(n)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        factor = heat_factor(grid)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        factor = heat_factor(grid)
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
