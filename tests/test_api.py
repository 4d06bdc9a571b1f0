"""Every public name a semifront module exports resolves, once, and
every name a module imports is used.

A deleted function or attribute whose name stays in ``__all__`` only
fails on ``from semifront.<module> import *``; this test imports each
module and resolves every entry.  No linter runs on the sources, so an
import orphaned by a deletion is caught here, by walking each module's
syntax tree.
"""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import semifront

MODULES = sorted(
    ["semifront"] + [f"semifront.{info.name}" for info in pkgutil.iter_modules(semifront.__path__)]
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert [key for key, n in Counter(exported).items() if n > 1] == []
    assert [key for key in exported if not hasattr(mod, key)] == []


# __init__.py only re-exports, so every name it imports is "unused"
SOURCES = sorted(p for p in Path(semifront.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads, except on lines marked
    ``# noqa: F401``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = ast.parse("\n".join(lines), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue  # a compiler directive, not a name
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
