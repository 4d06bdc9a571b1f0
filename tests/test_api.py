"""Every public name a semifront module exports resolves, once.

A deleted function or attribute whose name stays in ``__all__`` only
fails on ``from semifront.<module> import *``; this test imports each
module and resolves every entry.
"""

import importlib
import pkgutil
from collections import Counter

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
