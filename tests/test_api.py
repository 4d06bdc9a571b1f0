"""Every public name a semifront module exports resolves, once, and
every name a module imports is used.

A deleted function or attribute whose name stays in ``__all__`` only
fails on ``from semifront.<module> import *``; this test imports each
module and resolves every entry.  No linter runs on the sources, so an
import orphaned by a deletion is caught here, by walking each module's
syntax tree.  An import exempted as ``# noqa: F401`` must be a binding
site that the benchmark's tracer wraps, so the exemption cannot hide one.
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
MEASURE = Path(__file__).resolve().parent.parent / "perfbench" / "measure.py"


def _imports(tree: ast.Module, lines: list[str]):
    """(name bound, line, marked ``# noqa: F401``) for each imported name."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue  # a compiler directive, not a name
        for alias in node.names:
            marked = "# noqa: F401" in lines[alias.lineno - 1]
            yield (alias.asname or alias.name).split(".")[0], alias.lineno, marked


def _parsed(path: Path) -> tuple[ast.Module, list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return ast.parse("\n".join(lines), filename=str(path)), lines


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads, except on lines marked
    ``# noqa: F401``."""
    tree, lines = _parsed(path)
    imported = {name: line for name, line, marked in _imports(tree, lines) if not marked}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_exempt_imports_are_benchmark_bindings():
    # the only reason to import a name and not read it is a site in the
    # tracer's BINDINGS, a literal dict of span name -> ["module:name", ...]
    tree, _ = _parsed(MEASURE)
    bindings = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "BINDINGS")
    sites = {site for names in bindings.values() for site in names}
    exempt = [f"semifront.{path.stem}:{name}" for path in SOURCES
              for name, _, marked in _imports(*_parsed(path)) if marked]
    assert exempt and [site for site in exempt if site not in sites] == []
