"""Run each `verify` default and benchmark workload in a fresh process under 1 and 2 threads.

    PYTHONPATH=src python tools/verify_defaults.py [NAME ...]

A NAME is an experiment, run at its default config, or a workload of
bench/workloads.py, run at its resolved config for seeds 3 and 11
(default: the five experiments, then every workload).  Prints one JSON
line per run and OpenBLAS thread count: the wall time in seconds of the
child process, imports included; the child's own peak RSS in MiB; the
sha256 of its summary.json and replicates.csv, the files under the
byte-identity contract, taken together (`sha256`) and one by one
(`summary_sha256`, `replicates_sha256`), so a changed digest names the
file that changed; and whether the run imported `scipy.linalg` and
`scipy.special`.  Only `bn` reads true for `scipy.special`: its KS
statistic takes the normal CDF from it.  A workload's line also names
the workload and its seed.  Each child runs the package this script
imports, with OPENBLAS_NUM_THREADS set, and writes its report to a
temporary directory.  So one command shows that a change keeps the bytes
of every default and benchmark config.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time

import quartic_lab
from quartic_lab.cli import EXPERIMENTS

THREADS = ("1", "2")
WORKLOAD_SEEDS = (3, 11)

_WORKLOADS_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# argv[1] is the experiment, argv[2] (if given) its config as JSON text.
# The verb's own lines go to stderr, so the child's only stdout is its
# JSON record.
_CHILD = """
import contextlib, hashlib, json, os, resource, sys, tempfile
from quartic_lab.cli import main
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
    argv = ["verify", "--experiment", sys.argv[1], "--out", os.path.join(tmp, "out")]
    if len(sys.argv) > 2:
        with open(os.path.join(tmp, "config.json"), "w", encoding="utf-8") as fh:
            fh.write(sys.argv[2])
        argv += ["--config", fh.name]
    main(argv)
    files = {}
    for key, name in (("summary", "summary.json"), ("replicates", "replicates.csv")):
        with open(os.path.join(tmp, "out", name), "rb") as fh:
            files[key] = fh.read()
print(json.dumps({
    "peak_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "sha256": hashlib.sha256(files["summary"] + files["replicates"]).hexdigest(),
    **{key + "_sha256": hashlib.sha256(data).hexdigest() for key, data in files.items()},
    "scipy_linalg": "scipy.linalg" in sys.modules,
    "scipy_special": "scipy.special" in sys.modules,
}))
"""


def load_workloads():
    """bench/workloads.py, loaded by path (it imports nothing from the package)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", _WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure(experiment, threads, config=None):
    """{experiment, threads, wall_s, peak_mib, sha256, summary_sha256, replicates_sha256,
    scipy_linalg, scipy_special} of one fresh run.

    config is the run's config record; None runs the experiment's default.
    """
    src = str(pathlib.Path(quartic_lab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
    extra = [] if config is None else [json.dumps(config)]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, experiment, *extra], env=env, capture_output=True,
        text=True, check=True,
    )
    wall = time.perf_counter() - start
    return {"experiment": experiment, "threads": int(threads), "wall_s": round(wall, 3),
            **json.loads(done.stdout)}


def runs(name, workloads):
    """(label, experiment, config) of each run a NAME stands for."""
    if name not in workloads.WORKLOADS:
        return [({}, name, None)]
    experiment = workloads.WORKLOADS[name]["experiment"]
    return [({"workload": name, "seed": seed}, experiment, workloads.resolved_config(name, seed))
            for seed in WORKLOAD_SEEDS]


def main(argv=None):
    workloads = load_workloads()
    names = (sys.argv[1:] if argv is None else argv) or (*EXPERIMENTS, *workloads.WORKLOADS)
    for name in names:
        for label, experiment, config in runs(name, workloads):
            for threads in THREADS:
                print(json.dumps(label | measure(experiment, threads, config)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
