"""The value-keyed move caches stay bounded and see one copy of the library.

The caches in ``tables``, ``c1`` and ``c2`` key by value (field, labels,
windows).  A second run of the same config must therefore add no entry.  A
module that imports the library inside a function binds to whatever copy
``sys.modules`` holds at call time, so after a fresh import of the library
one run would mix two copies: their models compare unequal, every lookup
misses and each copy's caches keep growing.
"""

import ast
import importlib
import sys
from pathlib import Path

from fqharmonic.harness.config import parse_config
from fqharmonic.harness.suites import run_suites

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fqharmonic"


def test_no_library_import_inside_a_function():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if node.level == 0 else ["fqharmonic"]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if any(n == "fqharmonic" or n.startswith("fqharmonic.") for n in names):
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, found


def _library_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "fqharmonic" or k.startswith("fqharmonic.")}


def _caches() -> dict:
    """Every functools cache at module level in the loaded library."""
    return {
        f"{name}.{attr}": obj
        for name, mod in _library_modules().items()
        for attr, obj in vars(mod).items()
        if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == name
    }


def test_caches_do_not_grow_on_a_second_run():
    cfg = parse_config((ROOT / "scripts" / "example.cfg").read_text())
    caches = _caches()
    assert {"fqharmonic.tables._cached_plan", "fqharmonic.c1.positions", "fqharmonic.c2.positions2"} <= set(caches)
    for cache in caches.values():
        cache.cache_clear()
    run_suites(cfg, seed=1)
    first = {name: cache.cache_info().currsize for name, cache in caches.items()}
    for name, cache in caches.items():
        # below the bound, so that a growing cache would show
        maxsize = cache.cache_info().maxsize
        assert maxsize is None or first[name] < maxsize, name
    assert first["fqharmonic.tables._cached_plan"] > 0
    # a fresh copy of the library, loaded as a benchmark set-up loads it
    # between two runs, takes no part in the next run of the first copy
    saved = _library_modules()
    try:
        for name in saved:
            del sys.modules[name]
        importlib.import_module("fqharmonic.harness.suites")
        fresh = _caches()
        run_suites(cfg, seed=1)
        assert {name: cache.cache_info().currsize for name, cache in fresh.items()} == dict.fromkeys(fresh, 0)
    finally:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    assert {name: cache.cache_info().currsize for name, cache in caches.items()} == first
