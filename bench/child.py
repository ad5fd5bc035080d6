"""One fresh process of the benchmark: set up, then measure warm calls.

    python3 bench/child.py --workload NAME --seed N --seconds S
                           --trace 0|1 --workdir DIR

Set-up runs from before `import quartic_lab` until `verify.draw_ensemble`
has returned for every (kernel, grid) the workload's experiment touches,
which is what a researcher pays at the start of every `quartic-lab
verify` process.  The process then calls `cli.main(["verify", ...])` on a
config file it wrote itself for S seconds, checks each call, and prints
one JSON record as its last line of output.  `run.py` starts these
processes; this file is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import tracing
import workloads

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

# Each process times at least this many warm calls, however short its window.
MIN_CALLS = 2


def import_package():
    """Import quartic_lab from this checkout's src/, never from site-packages."""
    sys.path.insert(0, SRC)
    import quartic_lab
    import quartic_lab.cli
    import quartic_lab.rng

    if os.path.dirname(os.path.abspath(quartic_lab.__file__)) != os.path.join(SRC, "quartic_lab"):
        raise ImportError(f"quartic_lab was imported from {quartic_lab.__file__}, not {SRC}")
    return quartic_lab


def set_up(lab, config):
    for kernel_name, n, horizon in workloads.setup_grids(config):
        kernel = getattr(lab, workloads.KERNEL_FACTORIES[kernel_name])()
        lab.verify.draw_ensemble(kernel, lab.Grid(n, horizon), 1, config["seed"])


def _openblas_threads(package_dir):
    """Thread count each OpenBLAS bundled next to a package reports, or {}."""
    out = {}
    for path in glob.glob(os.path.join(package_dir + ".libs", "libscipy_openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                out[os.path.basename(path)] = getter()
                break
    return out


def environment(lab, seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    parser = lab.cli.build_parser()
    workers = parser.parse_args(["verify", "--experiment", "ito"]).workers
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {
            **_openblas_threads(os.path.dirname(numpy.__file__)),
            **_openblas_threads(os.path.dirname(scipy.__file__)),
        },
        "blas_threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "workers": workers,
        "workload_seed": seed,
        "package": lab.__version__,
    }


class Caller:
    """Runs and checks `quartic-lab verify` calls on one written config."""

    def __init__(self, lab, experiment, config, workdir):
        self.lab = lab
        self.outdir = os.path.join(workdir, "out")
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, sort_keys=True)
        self.argv = [
            "verify", "--experiment", experiment, "--config", self.config_path, "--out", self.outdir,
        ]
        self.digests = None
        self.attempted = 0
        self.failures = []

    def _outputs(self):
        return [os.path.join(self.outdir, name) for name in ("summary.json", "replicates.csv")]

    def call(self, tracer=None):
        """Wall time of one call; a failed call is recorded in self.failures."""
        self.attempted += 1
        for path in self._outputs():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        root = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is not None:
                    root = tracer.open("cli.main")
                try:
                    code = self.lab.cli.main(self.argv)
                finally:
                    if root is not None:
                        tracer.close(root)
        except Exception:  # a crashing call is a failed call, not a crashed benchmark
            traceback.print_exc()
            self.failures.append("raised " + traceback.format_exc(limit=1).strip().splitlines()[-1])
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        problems = self._problems(code)
        if problems:
            self.failures.append("; ".join(problems))
        return elapsed

    def _problems(self, code):
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            blobs = []
            for path in self._outputs():
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
        except OSError as exc:
            return problems or [f"missing output: {exc}"]
        if json.loads(blobs[0]).get("passed") is not True:
            problems.append("summary.json reports passed: false")
        digests = [hashlib.sha256(blob).hexdigest() for blob in blobs]
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            problems.append("outputs differ from the run's first call")
        return problems


def measure_untraced(caller, seconds):
    caller.call()  # warm-up: first-touch allocations; outputs still checked
    times = []
    window = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - window < seconds:
        times.append(caller.call())
    return {"run_s": times}


def measure_traced(caller, lab, tracer, seconds):
    """Alternate untraced and traced calls; per-layer figures per traced call."""
    caller.call()
    plain, traced, calls = [], [], []
    errors = []
    window = time.perf_counter()
    while len(traced) < MIN_CALLS or time.perf_counter() - window < seconds:
        plain.append(caller.call())
        first = len(tracer.spans)
        tracer.counts.clear()
        tracer.install(lab)
        try:
            traced.append(caller.call(tracer))
        finally:
            tracer.uninstall()
        spans = tracer.spans
        errors += tracing.nesting_errors(spans, first)
        layers = tracing.layer_totals(spans, first)
        root = spans[first].end - spans[first].start
        if abs(sum(layers.values()) - root) > 1e-6:
            errors.append(f"self times sum to {sum(layers.values())} s, the call took {root} s")
        calls.append({"root_s": root, "layers": layers, "counts": dict(tracer.counts)})
    return {"run_s": plain, "traced_run_s": traced, "calls": calls, "span_errors": errors}


def traced_setup(lab, tracer, config):
    """Set up under the tracer; factor-layer times and counts of set-up."""
    tracer.install(lab)
    try:
        set_up(lab, config)
    finally:
        tracer.uninstall()
    timed = {"kernels.build_cov_matrix": "kernels.build_cov_s", "simulate.factorize": "simulate.factorize_s"}
    layers = dict.fromkeys(timed.values(), 0.0)
    for span, seconds in zip(tracer.spans, tracing.self_times(tracer.spans)):
        if span.name in timed:
            layers[timed[span.name]] += seconds
    record = {
        "setup_counts": dict(tracer.counts),
        "setup_layers": layers,
        "setup_span_errors": tracing.nesting_errors(tracer.spans),
    }
    tracer.counts.clear()
    return record


def measure(lab, experiment, config, seconds, tracer, workdir):
    """Warm calls for `seconds`, traced or not, with every call checked."""
    caller = Caller(lab, experiment, config, workdir)
    if tracer is None:
        record = measure_untraced(caller, seconds)
    else:
        record = measure_traced(caller, lab, tracer, seconds)
        with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    record.update(attempted=caller.attempted, failures=caller.failures, digests=caller.digests)
    return record


def main(argv=None):
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    experiment = workloads.WORKLOADS[args.workload]["experiment"]
    config = workloads.resolved_config(args.workload, args.seed)

    lab = import_package()
    import_s = time.perf_counter() - start
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        set_up(lab, config)
        record = {}
    else:
        record = traced_setup(lab, tracer, config)
    record.update(setup_s=time.perf_counter() - start, import_s=import_s)

    record.update(measure(lab, experiment, config, args.seconds, tracer, args.workdir))
    record.update(
        peak_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        env=environment(lab, args.seed),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
