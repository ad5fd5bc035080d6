"""Benchmark of `quartic-lab verify`: end-to-end and per-layer metrics.

    python3 bench/run.py --workload ladder-fbm|ladder-heat
                         --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has src/quartic_lab; nothing is
built or installed.  Every measurement happens in fresh processes started
from bench/child.py:

* `--trace 0`: PROCESSES fresh processes, one after another; each sets
  up and then times warm `cli.main(["verify", ...])` calls for its share
  of `--seconds`, so the window is spread over the whole run.  It reports
  `setup_s` (median set-up), `run_s` (median warm call over all
  processes) and `peak_mib` (largest ru_maxrss of a process).
* `--trace 1`: one process that sets up under the tracer, then alternates
  untraced and traced warm calls.  It reports the per-layer metrics of
  BENCHMARK.json and the tracing overhead.

BLAS threads are capped at nproc.

Each call must exit 0, report `passed: true` and write summary.json and
replicates.csv byte-identical to the run's first call, in every process.
The last line of output is the result: {"correct", "attempted", "failed",
"metrics"}; the line before it is the full record (config, environment,
samples).
Scratch files go to .bench_work/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")

# Every run must end within 180 s; leave room for start-up and output.
DEADLINE_S = 170.0

# Fresh processes per untraced run; each gives one set-up sample.
PROCESSES = 3

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

class BenchError(Exception):
    """The benchmark could not produce a measurement."""


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env():
    """The caller's environment with BLAS threads capped at nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in _BLAS_THREAD_VARS:
        value = env.get(var, "")
        env[var] = str(min(int(value), nproc) if value.isdigit() and int(value) > 0 else nproc)
    return env


def run_child(args, seconds, workdir, deadline):
    cmd = [
        sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace), "--workdir", workdir,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("no time left for the next process")
    try:
        # On timeout, run() kills the child and waits for it to end.
        proc = subprocess.run(
            cmd,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
            env=child_env(),
            cwd=REPO,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a measuring process ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"a measuring process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("a measuring process printed no record")
    return json.loads(lines[-1])


def _counts_of(call):
    counts = call["counts"]

    def calls_under(prefix):
        return sum(v for k, v in counts.items() if k.startswith(prefix) and k.endswith(".calls"))

    return {
        "simulate.warm_factorizations": counts.get("simulate.factorizations", 0),
        "rng.streams_opened": counts.get("rng.streams_opened", 0),
        "rng.normals_drawn": counts.get("rng.normals_drawn", 0),
        "sums.calls": calls_under("sums."),
        "stats.calls": calls_under("stats."),
        "report.rows": counts.get("report.rows", 0),
        "report.bytes": counts.get("report.bytes", 0),
    }


def layer_metrics(record):
    """Per-layer values and problems found, from a traced child record."""
    problems = list(record["setup_span_errors"]) + list(record["span_errors"])
    calls = record["calls"]
    counts = [_counts_of(call) for call in calls]
    if any(c != counts[0] for c in counts):
        problems.append(f"warm-call counts differ between calls: {counts}")
    setup = record["setup_counts"]
    values = {
        "setup.import_s": record["import_s"],
        **record["setup_layers"],
        "kernels.cov_bytes": setup.get("kernels.cov_bytes", 0),
        "simulate.factorizations": setup.get("simulate.factorizations", 0),
        "simulate.jittered": setup.get("simulate.jittered", 0),
        "simulate.factor_bytes": setup.get("simulate.factor_bytes", 0),
        **counts[0],
    }
    for name in tracing.CALL_LAYERS:
        values[name] = sum(call["layers"].get(name, 0.0) for call in calls) / len(calls)
    unknown = set().union(*(call["layers"] for call in calls)) - set(tracing.CALL_LAYERS)
    if unknown:
        problems.append(f"spans outside every layer: {sorted(unknown)}")
    traced = statistics.median(record["traced_run_s"])
    values["trace.run_s"] = traced
    values["trace.overhead_s"] = traced - statistics.median(record["run_s"])
    return values, problems


def e2e_metrics(records):
    """End-to-end values from the untraced processes of one run."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "run_s": statistics.median(t for r in records for t in r["run_s"]),
        "peak_mib": max(r["peak_mib"] for r in records),
    }


def merged(records):
    """One record for the run; processes whose outputs differ from the first fail."""
    out = dict(records[-1])
    out["attempted"] = sum(r["attempted"] for r in records)
    out["failures"] = []
    for r in records:
        if r["digests"] == records[0]["digests"]:
            out["failures"] += r["failures"]
        else:
            out["failures"] += ["outputs differ from the run's first process"] * r["attempted"]
    out["run_s"] = [t for r in records for t in r["run_s"]]
    out["setup_s"] = [r["setup_s"] for r in records]
    return out


def result(trace, values, problems, record):
    """The final line: declared metrics with units, and the verdict."""
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise BenchError(
            f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}"
        )
    failed = len(record["failures"])
    return {
        "correct": failed == 0 and not problems,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(REPO, "src", "quartic_lab", "__init__.py")):
        print(f"bench: no src/quartic_lab under {REPO}; nothing to measure", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(REPO, ".bench_work", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spec = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            record = run_child(args, args.seconds, workdir, deadline)
            values, problems = layer_metrics(record)
            record["setup_s"] = [record["setup_s"]]
        else:
            share = args.seconds / PROCESSES
            records = [run_child(args, share, workdir, deadline) for _ in range(PROCESSES)]
            values, problems = e2e_metrics(records), []
            record = merged(records)
        final = result(args.trace, values, problems, record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(workdir, "out"), ignore_errors=True)

    detail = {
        "workload": args.workload,
        "experiment": spec["experiment"],
        "config": workloads.resolved_config(args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "env": record["env"],
        "setup_s_samples": record["setup_s"],
        "run_s_samples": record["run_s"],
        "fail_frac": final["failed"] / final["attempted"],
        "failures": record["failures"],
        "problems": problems,
        "digests": record["digests"],
    }
    if args.trace:
        detail["traced_run_s_samples"] = record["traced_run_s"]
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
