"""Every imported name is read, and every private module-level name in
``src/`` is reached: a stdlib ``ast`` check over ``src/``, ``scripts/`` and
``tests/``.

A name bound by ``import`` or ``from ... import`` must be read somewhere in
its file: as a name, as the root of an attribute chain, inside a string
annotation, or by being listed in the module's ``__all__``.  ``from
__future__`` imports and ``*`` imports bind nothing and are skipped.  A
failure lists each unread name as ``file:line: name``.

A private name (one leading underscore, not a dunder) that a ``src/``
module binds at its top level, by ``def``, ``class`` or assignment, must be
reached from ``src/``: read as a name, as an attribute or through ``from
... import``.  What only the tests reach is no part of the library, and a
helper that its last caller left behind shows here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "scripts", "tests")


def _imported(tree: ast.Module) -> list[tuple[int, str]]:
    """The (line, bound name) of every import in the file."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _read(tree: ast.Module) -> set[str]:
    """The names the file reads, with those of its string annotations and
    its ``__all__``."""
    names = _names(tree)
    for ann in filter(None, _annotations(tree)):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                names |= _names(ast.parse(const.value, mode="eval"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def _unread(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    read = _read(tree)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for line, name in _imported(tree) if name not in read]


def test_every_imported_name_is_read():
    files = sorted(f for d in DIRS for f in (ROOT / d).rglob("*.py"))
    assert files
    unread = [msg for f in files for msg in _unread(f)]
    assert not unread, "imported and never read:\n" + "\n".join(unread)


def test_the_check_sees_an_unread_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "from typing import Optional, Sequence\n"
        "from math import gcd, lcm\n"
        "__all__ = ['lcm']\n"
        "def f(x: 'Optional[int]') -> int:\n"
        "    return os.path.sep + gcd(x, 2)\n"
    )
    tree = ast.parse(path.read_text())
    read = _read(tree)
    assert sorted(name for _, name in _imported(tree) if name not in read) == ["F", "Sequence"]


def _private(tree: ast.Module) -> list[tuple[int, str]]:
    """The (line, name) of every private name bound at the module's top level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.lineno, n.id) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(line, name) for line, name in out if name.startswith("_") and not name.endswith("__")]


def _reached(tree: ast.Module) -> set[str]:
    """The names the file reads, with every attribute it reads and every
    name it imports."""
    names = _read(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


def _unreached(paths: list[Path], root: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    reached = set().union(*map(_reached, trees.values()))
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for path, tree in trees.items()
        for line, name in _private(tree)
        if name not in reached
    ]


def test_every_private_name_in_src_is_reached():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    unreached = _unreached(files, ROOT)
    assert not unreached, "private and never reached from src/:\n" + "\n".join(unreached)


def test_the_check_sees_an_unreached_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "import b\n"
        "from b import _imported\n"
        "_CONST, __dunder__ = 1, 2\n"
        "def _left(): pass\n"
        "class _Kept: pass\n"
        "def public(x: '_Kept'):\n"
        "    return b._attr, _imported\n"
    )
    (tmp_path / "b.py").write_text(
        "_attr: int = 0\n"
        "_unused = 1\n"
        "def _imported(): return _recursive()\n"
        "def _recursive(): return _recursive\n"
    )
    found = _unreached(sorted(tmp_path.glob("*.py")), tmp_path)
    assert found == ["a.py:3: _CONST", "a.py:4: _left", "b.py:2: _unused"]
