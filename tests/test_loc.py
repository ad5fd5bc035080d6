"""The code-only line counter in tools/loc.py."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

_SNIPPET = '''"""Module docstring
over two lines."""

import os  # a trailing comment counts as code


# a comment line
def f(x):
    """Function docstring."""
    text = """a multi-line
    string that is data"""
    return os.path.join(x, text)
'''


def test_counts_code_lines_only():
    # import, def, the two lines of the data string, return
    assert loc.count_code_lines(_SNIPPET) == 5


def test_main_prints_files_and_total(tmp_path, capsys):
    path = tmp_path / "snippet.py"
    path.write_text(_SNIPPET)
    assert loc.main([str(path), str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["5", str(path)]
    assert lines[-1].split() == ["10", "total"]
