"""The fresh-process report in tools/verify_defaults.py."""

import importlib.util
import json
import pathlib

from conftest import LIBM_LOG_ENV, NUMPY_LOG_IS_LIBM
from quartic_lab import cli

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "verify_defaults.py"
_SPEC = importlib.util.spec_from_file_location("verify_defaults", _PATH)
verify_defaults = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(verify_defaults)


def test_prints_one_json_line_per_thread_count(capsys):
    assert verify_defaults.main(["trapezoid"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(line["experiment"], line["threads"]) for line in lines] == [
        ("trapezoid", 1), ("trapezoid", 2)
    ]
    digests = ("sha256", "summary_sha256", "replicates_sha256")
    assert [lines[0][key] for key in digests] == [lines[1][key] for key in digests]
    assert len({lines[0][key] for key in digests}) == 3
    for line in lines:
        assert line["wall_s"] > 0 and line["peak_mib"] > 0
        assert all(len(line[key]) == 64 for key in digests) and line["scipy_linalg"] is False
        assert line["scipy_special"] is False


def test_workload_configs_pin_every_key():
    """Each benchmark workload names every key of its experiment, tolerances included."""
    workloads = verify_defaults.load_workloads()
    for name, spec in workloads.WORKLOADS.items():
        experiment, config = spec["experiment"], workloads.resolved_config(name, 0)
        assert set(config) == set(cli._DEFAULTS[experiment]) | {"tolerances"}, name
        assert set(config["tolerances"]) == set(cli._SPECS[experiment][1]), name
        cli.ExperimentConfig.from_dict(experiment, config)


# The benchmark's bytes for ladder-heat: one digest per seed, under either
# thread count.  The first pair is where numpy's log is libm's (scipy's
# ndtri bits), the second numpy's AVX-512 log.
_LADDER_HEAT_DIGESTS = {
    True: ["93590ded8c2e287b2714ec324b5fda5fc63840381f49f0fa6c4af917209f8c62",
           "1f06469ec595659c02617db3bf0489c71755e6264a884c7a899ff21dc482c44d"],
    False: ["56f0947e3304cb62052a6e7d50a5e93e71b3443ce355e9413f5171f2d0770316",
            "6e0681e9b7b96feedb3932f8fe8a3b7f604ffff14acf564aa9fd5248da9d7c04"],
}


def _ladder_heat_lines(capsys):
    assert verify_defaults.main(["ladder-heat"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(line["workload"], line["seed"], line["threads"]) for line in lines] == [
        ("ladder-heat", seed, threads) for seed in (3, 11) for threads in (1, 2)
    ]
    assert {line["experiment"] for line in lines} == {"trapezoid"}
    assert not any(line["scipy_special"] for line in lines)
    return [line["sha256"] for line in lines]


def test_a_workload_runs_at_both_seeds(capsys):
    seed_3, seed_11 = _LADDER_HEAT_DIGESTS[NUMPY_LOG_IS_LIBM]
    assert _ladder_heat_lines(capsys) == [seed_3, seed_3, seed_11, seed_11]


def test_a_workload_keeps_its_bytes_under_the_libm_log_dispatch(capsys, monkeypatch):
    for name, value in LIBM_LOG_ENV.items():
        monkeypatch.setenv(name, value)
    seed_3, seed_11 = _LADDER_HEAT_DIGESTS[True]
    assert _ladder_heat_lines(capsys) == [seed_3, seed_3, seed_11, seed_11]
