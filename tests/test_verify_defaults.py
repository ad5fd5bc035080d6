"""The fresh-process report in tools/verify_defaults.py."""

import importlib.util
import json
import pathlib

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
    assert lines[0]["sha256"] == lines[1]["sha256"]
    for line in lines:
        assert line["wall_s"] > 0 and line["peak_mib"] > 0
        assert len(line["sha256"]) == 64 and line["scipy_linalg"] is False


def test_a_workload_runs_at_both_seeds(capsys):
    assert verify_defaults.main(["ladder-heat"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(line["workload"], line["seed"], line["threads"]) for line in lines] == [
        ("ladder-heat", seed, threads) for seed in (3, 11) for threads in (1, 2)
    ]
    assert {line["experiment"] for line in lines} == {"trapezoid"}
    # The benchmark's bytes for this workload: one digest per seed, under
    # either thread count.
    assert [line["sha256"] for line in lines] == 2 * [
        "93590ded8c2e287b2714ec324b5fda5fc63840381f49f0fa6c4af917209f8c62"
    ] + 2 * ["1f06469ec595659c02617db3bf0489c71755e6264a884c7a899ff21dc482c44d"]
