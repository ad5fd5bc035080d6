"""The warm ladder report in tools/warm_peak.py."""

import importlib.util
import json
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "warm_peak.py"
_SPEC = importlib.util.spec_from_file_location("warm_peak", _PATH)
warm_peak = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(warm_peak)


def test_prints_one_json_line_per_kernel_and_size(capsys):
    assert warm_peak.main(["64", "256"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(line["kernel"], line["n_list"][-1]) for line in lines] == [
        ("fbm", 64), ("heat", 64), ("fbm", 256), ("heat", 256)
    ]
    assert lines[0]["n_list"] == [8, 16, 32, 64]
    for line in lines:
        assert line["m"] == 200
        assert line["run_s"] > 0 and line["peak_mib"] > 0 and line["minflt"] >= 0
