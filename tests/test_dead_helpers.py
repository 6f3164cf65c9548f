"""Lint guards: every private function or method under ``src/termfilter`` is
referenced by some module there, other than from inside its own body, and
every name a module there assigns at its top level is read by some module
there."""

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


def unread_module_names(paths) -> list[str]:
    """Names assigned at the top level of a module that no module reads,
    as a name or an attribute; importing a name does not read it, and
    dunders such as ``__all__`` are exempt."""
    assigned: set[str] = set()
    read: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned.update(n.id for t in targets for n in ast.walk(t)
                                if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in assigned - read
                  if not (name.startswith("__") and name.endswith("__")))


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


def test_no_module_name_is_unread():
    assert unread_module_names(sorted(SRC.glob("*.py"))) == []


def test_guard_flags_an_unread_module_name(tmp_path):
    m = tmp_path / "m.py"
    m.write_text(
        "__version__ = '1'\n"
        "USED = 1\n"
        "ELSEWHERE: int = 2\n"
        "DEAD = 3\n"
        "DEAD = 4\n"
        "def f():\n    return USED\n")
    n = tmp_path / "n.py"
    n.write_text("import m\nfrom m import DEAD\nvalue = m.ELSEWHERE\n")
    assert unread_module_names([m, n]) == ["DEAD", "value"]
