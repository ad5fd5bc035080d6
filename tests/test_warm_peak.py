"""The warm ladder report in tools/warm_peak.py."""

import importlib.util
import json
import pathlib

from quartic_lab import cli

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


def test_pins_malloc_thresholds_before_the_first_ladder(monkeypatch, capsys):
    # `quartic-lab` pins glibc's malloc thresholds in `cli.main`; the tool
    # measures what it runs only if it pins them too, before any ladder.
    events = []
    monkeypatch.setattr(cli, "_pin_malloc_thresholds", lambda: events.append("pin"))
    monkeypatch.setattr(warm_peak, "measure", lambda name, n: events.append((name, n)) or {})
    assert warm_peak.main(["64"]) == 0
    assert events == ["pin", ("fbm", 64), ("heat", 64)]
