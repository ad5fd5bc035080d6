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
