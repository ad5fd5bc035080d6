"""No top-level def or class of the package or its tools is reached by tests alone.

A definition counts as used when some module of the package (its
`__init__` re-exports aside) or of tools/ names it outside its own body:
as a Name, as an Attribute, or as a string constant equal to its name,
the way `cli._SUMS` and `cli._SPECS` name the functions they look up.
Code that only tests call belongs with the tests, as tests/oracles.py.
"""

import ast
import collections
import pathlib

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "quartic_lab"
_FILES = [
    *sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py"),
    *sorted((_ROOT / "tools").glob("*.py")),
]

_ALLOWED = {
    # bench/tracing.py wraps the dense oracles to time and count them
    # (ROADMAP items 5 and 14 stage 2), and bench/ is not scanned.
    "factorize",
    "build_cov_matrix",
    # The tests' hook for a cold factor cache.
    "clear_factor_cache",
}


def _references(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_top_level_def_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in _FILES}
    mentions = collections.Counter(name for tree in trees.values() for name in _references(tree))
    unused = []
    defined = set()
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            defined.add(node.name)
            # A recursive call inside the def itself is no use from outside.
            own = sum(name == node.name for name in _references(node))
            if mentions[node.name] == own and node.name not in _ALLOWED:
                unused.append(f"{path.relative_to(_ROOT)}: {node.name}")
    assert not unused, "defined but used only by tests: " + ", ".join(unused)
    assert _ALLOWED <= defined
