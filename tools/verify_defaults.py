"""Run each `verify` default in a fresh process under 1 and 2 OpenBLAS threads.

    PYTHONPATH=src python tools/verify_defaults.py [EXPERIMENT ...]

prints one JSON line per experiment (default: all five) and thread
count: the wall time in seconds of the child process, imports included;
the child's own peak RSS in MiB; the sha256 of its summary.json and
replicates.csv, the files under the byte-identity contract; and whether
the run imported `scipy.linalg`.  Each child runs the package this
script imports, with OPENBLAS_NUM_THREADS set, and writes its report to
a temporary directory.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import quartic_lab

EXPERIMENTS = ("ito", "bn", "trapezoid", "expansion", "fbm-window")
THREADS = ("1", "2")

# argv[1] is the experiment.  The verb's own lines go to stderr, so the
# child's only stdout is its JSON record.
_CHILD = """
import contextlib, hashlib, json, os, resource, sys, tempfile
from quartic_lab.cli import main
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
    main(["verify", "--experiment", sys.argv[1], "--out", tmp])
    digest = hashlib.sha256()
    for name in ("summary.json", "replicates.csv"):
        with open(os.path.join(tmp, name), "rb") as fh:
            digest.update(fh.read())
print(json.dumps({
    "peak_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "sha256": digest.hexdigest(),
    "scipy_linalg": "scipy.linalg" in sys.modules,
}))
"""


def measure(experiment, threads):
    """{experiment, threads, wall_s, peak_mib, sha256, scipy_linalg} of one fresh run."""
    src = str(pathlib.Path(quartic_lab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, experiment], env=env, capture_output=True, text=True,
        check=True,
    )
    wall = time.perf_counter() - start
    return {"experiment": experiment, "threads": int(threads), "wall_s": round(wall, 3),
            **json.loads(done.stdout)}


def main(argv=None):
    experiments = (sys.argv[1:] if argv is None else argv) or EXPERIMENTS
    for experiment in experiments:
        for threads in THREADS:
            print(json.dumps(measure(experiment, threads)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
