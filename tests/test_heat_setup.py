"""The heat set-up report in tools/heat_setup.py."""

import importlib.util
import json
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "heat_setup.py"
_SPEC = importlib.util.spec_from_file_location("heat_setup", _PATH)
heat_setup = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(heat_setup)


def test_prints_one_json_line_per_size(capsys):
    assert heat_setup.main(["64", "256"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["n"] for line in lines] == [64, 256]
    assert [line["rank"] for line in lines] == [17, 22]
    for line in lines:
        assert line["setup_s"] > 0 and line["peak_mib"] > 0
        assert 0 < line["cg_residual"] <= 1e-13
