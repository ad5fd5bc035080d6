"""Self-test of the benchmark at toy sizes (n <= 256, m <= 50).

    python3 -m pytest -q bench/tests

The toy runs shrink only n, n_list and m of each workload; the gates of
these small runs may fail, so the tests check the benchmark's machinery
(metric names, span nesting, exact counts, byte-identical reruns), not
the experiments' verdicts.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TOY = {
    "ladder-fbm": {"n_list": [64, 128, 256], "m": 50},
    "ladder-heat": {"n_list": [64, 128, 256], "m": 50},
}

COUNTS = (
    "kernels.cov_bytes",
    "simulate.factorizations",
    "simulate.jittered",
    "simulate.factor_bytes",
    "simulate.warm_factorizations",
    "rng.streams_opened",
    "rng.normals_drawn",
    "sums.calls",
    "stats.calls",
    "report.rows",
    "report.bytes",
)


@pytest.fixture(scope="module")
def lab():
    return child.import_package()


def toy_run(lab, name, workdir, trace):
    """A child record for the toy workload, set up from a cold factor cache."""
    workdir.mkdir(parents=True, exist_ok=True)
    lab.simulate.clear_factor_cache()
    experiment = workloads.WORKLOADS[name]["experiment"]
    config = dict(workloads.resolved_config(name, 3), **TOY[name])
    tracer = tracing.Tracer() if trace else None
    if tracer is None:
        child.set_up(lab, config)
        record = {"setup_s": 0.1}
    else:
        record = child.traced_setup(lab, tracer, config)
    record["import_s"] = 0.1
    record.update(child.measure(lab, experiment, config, 0.0, tracer, str(workdir)))
    record["peak_mib"] = 1.0
    return record, tracer


def test_workload_configs_pin_every_key(lab):
    allowed = getattr(lab.cli, "_ALLOWED_KEYS", None)
    tolerances = getattr(lab.cli, "_ALLOWED_TOLERANCES", None)
    if allowed is None or tolerances is None:
        pytest.skip("cli no longer keeps per-experiment key tables")
    for name, spec in workloads.WORKLOADS.items():
        config = workloads.resolved_config(name, 0)
        experiment = spec["experiment"]
        assert set(config) == allowed[experiment] - {"out_dir"}, name
        assert set(config["tolerances"]) == tolerances[experiment], name
        lab.cli.ExperimentConfig.from_dict(experiment, config)


@pytest.mark.parametrize("name", sorted(TOY))
def test_metric_names_match_benchmark_json(lab, tmp_path, name):
    plain, _ = toy_run(lab, name, tmp_path / "plain", trace=False)
    values = run.e2e_metrics([plain, plain])
    assert set(values) == set(run.declared_metrics(trace=0))
    run.result(0, values, [], plain)

    traced, _ = toy_run(lab, name, tmp_path / "traced", trace=True)
    values, problems = run.layer_metrics(traced)
    assert problems == []
    assert set(values) == set(run.declared_metrics(trace=1))
    run.result(1, values, problems, traced)


@pytest.mark.parametrize("name", sorted(TOY))
def test_spans_nest_and_self_times_add_up(lab, tmp_path, name):
    record, tracer = toy_run(lab, name, tmp_path, trace=True)
    assert tracing.nesting_errors(tracer.spans) == []
    assert min(tracing.self_times(tracer.spans)) >= 0.0
    for call in record["calls"]:
        assert sum(call["layers"].values()) == pytest.approx(call["root_s"], abs=1e-6)
    # Reruns within one run are byte-identical; only gate verdicts may fail.
    verdicts = {"exit code 1", "summary.json reports passed: false"}
    assert all(set(f.split("; ")) <= verdicts for f in record["failures"])
    assert record["digests"] is not None


@pytest.mark.parametrize("name", sorted(TOY))
def test_counts_repeat_across_runs(lab, tmp_path, name):
    first, _ = toy_run(lab, name, tmp_path / "a", trace=True)
    second, _ = toy_run(lab, name, tmp_path / "b", trace=True)
    a, _ = run.layer_metrics(first)
    b, _ = run.layer_metrics(second)
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}
    assert a["simulate.factorizations"] == len(TOY[name].get("n_list", [None]))
    assert a["report.rows"] > 0 and a["report.bytes"] > 0


def test_uninstall_restores_the_package(lab):
    before = [(owner, attr, inspect.getattr_static(owner, attr)) for owner, attr, _, _ in tracing.wrap_table(lab)]
    original = lab.verify.sample_paths
    tracer = tracing.Tracer()
    tracer.install(lab)
    assert lab.verify.sample_paths is not original
    tracer.uninstall()
    for owner, attr, raw in before:
        assert inspect.getattr_static(owner, attr) is raw


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ladder-heat", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".bench_work").exists()


def test_benchmark_json_follows_the_contract():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
