"""Time and trace one warm trapezoid ladder per kernel and finest grid.

    PYTHONPATH=src python tools/warm_peak.py [N ...]

prints one JSON line per kernel (fbm, heat) and finest N (default 8192,
65536): the ladder n_list = N/8, N/4, N/2, N with g = cube and m = 200
replicates for N <= 8192, 64 above; the wall time in seconds of one warm
`verify_trapezoid_ucp` call (best of 3), the minor page faults of the
median timed call, and the tracemalloc peak of one more, in MiB.  A
first, untimed call builds and caches the factors, so no figure
includes set-up.  The peak is one tile's normals with either its half
spectrum or its paths, which `synthesize` allocates after the spectrum
is freed; at N = 8192 and 65536 it reads 2.09 and 16.5 MiB on either
kernel (2-vCPU Xeon VM, numpy 2.4.6).

Before its first ladder the tool pins glibc's malloc thresholds with
`cli._pin_malloc_thresholds`, as every `quartic-lab` run does, so it
measures what the program runs.  Without the pin, glibc's dynamic trim
threshold hands the freed tile memory back between tiles, and a warm
N = 8192 ladder reads about 15,000 minor faults per call instead of a
few.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import tracemalloc

from quartic_lab import cli
from quartic_lab.functions import builtin
from quartic_lab.kernels import fbm_quarter_kernel, heat_kernel
from quartic_lab.verify import verify_trapezoid_ucp

SIZES = (8192, 65536)
KERNELS = {"fbm": fbm_quarter_kernel, "heat": heat_kernel}
REPEATS = 3


def measure(name, n):
    """{kernel, n_list, m, run_s, minflt, peak_mib} of a warm ladder ending at N = n."""
    n_list = (n // 8, n // 4, n // 2, n)
    m = 200 if n <= 8192 else 64
    kernel, g = KERNELS[name](), builtin("cube")

    def ladder():
        verify_trapezoid_ucp(kernel=kernel, g=g, n_list=n_list, m=m)

    ladder()
    times, faults = [], []
    for _ in range(REPEATS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        ladder()
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    tracemalloc.start()
    try:
        ladder()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "kernel": name,
        "n_list": list(n_list),
        "m": m,
        "run_s": round(min(times), 4),
        "minflt": sorted(faults)[REPEATS // 2],
        "peak_mib": round(peak / 2**20, 2),
    }


def main(argv=None):
    sizes = [int(arg) for arg in (sys.argv[1:] if argv is None else argv)] or SIZES
    cli._pin_malloc_thresholds()
    for n in sizes:
        for name in KERNELS:
            print(json.dumps(measure(name, n)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
