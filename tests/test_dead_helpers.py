"""Lint guards: every private function or method under ``src/termfilter`` is
referenced by some module there, other than from inside its own body; every
name a module there assigns at its top level is read by some module there;
and every public name a module there defines or assigns at its top level is
read by some module under ``src`` or ``bench``, exported in ``__all__`` or an
entry point of ``pyproject.toml``; every module there imports only from
the package itself or the standard library; no module there reaches
for another module's private names; and no module there imports inside a
function body."""

import ast
import sys
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "termfilter"


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


def _read_names(paths) -> set[str]:
    """Every name the modules read, as a name or an attribute; importing a
    name does not read it."""
    read: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _assigned(node: ast.stmt) -> list[str]:
    """The names a top-level statement assigns."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_module_names(paths) -> list[str]:
    """Names assigned at the top level of a module that no module reads;
    dunders such as ``__all__`` are exempt."""
    assigned = {name for path in paths
                for node in ast.parse(path.read_text(), str(path)).body
                for name in _assigned(node)}
    return sorted(name for name in assigned - _read_names(paths)
                  if not (name.startswith("__") and name.endswith("__")))


def unread_public_names(paths, readers, exempt=()) -> list[str]:
    """Public functions, classes and names defined or assigned at the top
    level of a module of ``paths`` that no module of ``readers`` reads, as
    ``module.name``.  A name that some module's ``__all__`` lists, or whose
    ``module.name`` is in ``exempt``, counts as read."""
    read = _read_names(readers)
    defined: list[tuple[str, str]] = []
    for path in paths:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif "__all__" in _assigned(node):
                read.update(ast.literal_eval(node.value))
            else:
                defined += [(path.stem, name) for name in _assigned(node)]
    return sorted(f"{module}.{name}" for module, name in defined
                  if not name.startswith("_") and name not in read
                  and f"{module}.{name}" not in exempt)


def non_stdlib_imports(paths) -> list[str]:
    """Absolute imports whose top-level name is not a standard-library
    module, as ``module: name``; relative imports are the package's own."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names
                      if name.partition(".")[0] not in sys.stdlib_module_names]
    return sorted(found)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def foreign_private_reads(paths) -> list[str]:
    """Private names a module takes from another module of the package, as
    ``module:line: name``: an attribute read through an object other than
    ``self`` or ``cls`` whose name the module itself does not define, and a
    private name imported from a sibling module."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                names = [] if owner in ("self", "cls") or node.attr in defined else [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.level > 0:
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.stem}:{node.lineno}: {name}" for name in names if _private(name)]
    return sorted(found)


def function_body_imports(paths) -> list[str]:
    """Imports made inside a function or method body, as ``module:line:
    name``; an import at module or class level, or under ``if
    TYPE_CHECKING:``, is not one."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Import):
                    names = [alias.name for alias in inner.names]
                elif isinstance(inner, ast.ImportFrom):
                    names = ["." * inner.level + (inner.module or "")]
                else:
                    continue
                found.update(f"{path.stem}:{inner.lineno}: {name}" for name in names)
    return sorted(found)


def entry_points() -> set[str]:
    """The ``[project.scripts]`` targets, as ``module.name``."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return {target.removeprefix("termfilter.").replace(":", ".")
            for target in scripts.values()}


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


def test_no_public_name_is_unread():
    readers = sorted(SRC.parent.rglob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    assert entry_points() == {"cli.entry"}
    assert unread_public_names(sorted(SRC.glob("*.py")), readers, entry_points()) == []


def test_guard_flags_an_unread_public_name(tmp_path):
    m = tmp_path / "m.py"
    m.write_text(
        "__all__ = ['Exported']\n"
        "USED = 1\n"
        "UNUSED: int = 2\n"
        "_private = 3\n"
        "def used():\n    return USED\n"
        "def dead():\n    return 4\n"
        "def entry():\n    return 5\n"
        "class Exported:\n    pass\n"
        "class Dead:\n    def method(self):\n        return 6\n")
    n = tmp_path / "n.py"
    n.write_text("import m\nfrom m import dead\nm.used()\n")
    assert unread_public_names([m], [m, n], {"m.entry"}) == \
        ["m.Dead", "m.UNUSED", "m.dead"]


def test_src_imports_only_the_standard_library():
    assert non_stdlib_imports(sorted(SRC.glob("*.py"))) == []


def test_guard_flags_a_third_party_import(tmp_path):
    m = tmp_path / "m.py"
    m.write_text(
        "import os.path\n"
        "import json, numpy.linalg\n"
        "from __future__ import annotations\n"
        "from . import sibling\n"
        "from .terms import Term\n"
        "from collections import Counter\n"
        "from hypothesis import given\n"
        "def f():\n    import termfilter\n")
    assert non_stdlib_imports([m]) == \
        ["m: hypothesis", "m: numpy.linalg", "m: termfilter"]


def test_no_module_reads_another_modules_private_names():
    assert foreign_private_reads(sorted(SRC.glob("*.py"))) == []


def test_guard_flags_a_foreign_private_name(tmp_path):
    m = tmp_path / "m.py"
    m.write_text(
        "from . import _sibling\n"
        "from .other import Public, _Hidden, __version__\n"
        "class C:\n"
        "    def __init__(self, peer):\n"
        "        self._own = peer._theirs\n"
        "        peer._set = 1\n"
        "    def _mine(self, other):\n"
        "        return other._mine(), other._own, self._inherited, other.__class__\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls._factory()\n")
    assert foreign_private_reads([m]) == \
        ["m:1: _sibling", "m:2: _Hidden", "m:5: _theirs"]


def test_no_module_imports_inside_a_function():
    assert function_body_imports(sorted(SRC.glob("*.py"))) == []


def test_guard_flags_an_import_inside_a_function(tmp_path):
    m = tmp_path / "m.py"
    m.write_text(
        "from typing import TYPE_CHECKING\n"
        "import os\n"
        "if TYPE_CHECKING:\n    from .encoder import EncodingContext\n"
        "class C:\n"
        "    import json\n"
        "    def method(self):\n        from . import usable as U\n"
        "def outer():\n"
        "    def inner():\n        import sys, re\n"
        "    return inner\n")
    assert function_body_imports([m]) == ["m:11: re", "m:11: sys", "m:8: ."]
