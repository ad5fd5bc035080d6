"""Workloads of the benchmark: `quartic-lab verify` runs with every key pinned.

Each config names every key the experiment accepts, tolerances included,
so nothing falls back to `cli._DEFAULTS` or to a `verify_*` keyword
default; a later change of those defaults cannot silently change what a
workload measures.  The benchmark's `--seed` becomes the config `seed`.
README.md in this directory says why each workload was chosen.

This module imports nothing from numpy or the package, so a process can
load it before its set-up clock starts.
"""

from __future__ import annotations

WORKLOADS = {
    # Set-up heavy: four dense fBm factors up to N=8192.  g=cube because
    # g=square telescopes exactly and its gate cannot fail.  final_tol is
    # 1% of Var g(X(1)) = 15 rho(1,1)^3, the experiment's own rule.
    "ladder-fbm": {
        "experiment": "trapezoid",
        "config": {
            "kernel": "fbm",
            "g": "cube",
            "n_list": [1024, 2048, 4096, 8192],
            "m": 200,
            "probes": [1.0],
            "tolerances": {"final_tol": 0.15, "max_inversions": 1},
        },
    },
    # The program's own trapezoid default (heat kernel, n_list 256, 1024,
    # 4096, m 200) with g=cube.  final_tol is the same 1% rule written
    # out: 0.15 rho(1,1)^3 = 0.15 / pi^1.5 for the heat slice.
    "ladder-heat": {
        "experiment": "trapezoid",
        "config": {
            "kernel": "heat",
            "g": "cube",
            "n_list": [256, 1024, 4096],
            "m": 200,
            "probes": [1.0],
            "tolerances": {"final_tol": 0.026938, "max_inversions": 1},
        },
    },
}

# Kernel names used in the configs, mapped to the package's factories.
KERNEL_FACTORIES = {"heat": "heat_kernel", "fbm": "fbm_quarter_kernel"}


def resolved_config(name, seed):
    """The exact config the workload writes for this seed."""
    return dict(WORKLOADS[name]["config"], seed=int(seed))


def setup_grids(config):
    """(kernel name, n, horizon) of every factor a ladder config touches."""
    horizon = max(float(t) for t in config["probes"])
    return [(config["kernel"], n, horizon) for n in config["n_list"]]
