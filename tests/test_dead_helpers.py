"""Lint guard: every private function or method under ``src/termfilter`` is
referenced by some module there, other than from inside its own body."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "termfilter"


def _references(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def dead_private_helpers(paths) -> list[str]:
    defined: dict[str, list[ast.AST]] = {}
    used = Counter()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        used += _references(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.setdefault(name, []).append(node)
    # a helper that only calls itself is as dead as one nothing calls
    return sorted(name for name, defs in defined.items()
                  if used[name] <= sum(_references(d)[name] for d in defs))


def test_no_private_helper_is_unreferenced():
    assert dead_private_helpers(sorted(SRC.glob("*.py"))) == []


def test_guard_flags_an_unreferenced_helper(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class C:\n"
        "    def _used(self):\n        return self._loop()\n"
        "    def _loop(self):\n        return self._loop()\n"
        "    def _dead(self):\n        return 1\n"
        "    def __repr__(self):\n        return self._used()\n")
    assert dead_private_helpers([module]) == ["_dead"]
