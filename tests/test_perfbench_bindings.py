"""The names the benchmark wraps still exist.

perfbench/measure.py replaces library functions by name (``module:attr``
binding sites) during traced runs, and perfbench/child.py wraps
``cli.model_from_config``.  A name deleted from the library would only
surface when ``perfbench/run.py --trace 1`` runs, so this test resolves
every site.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from semifront import cli, evolution

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_binding_site_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_measure", PERFBENCH / "measure.py")
    measure = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, measure)  # its dataclasses look it up
    spec.loader.exec_module(measure)
    bindings = measure.BINDINGS
    missing = []
    for sites in bindings.values():
        for site in sites:
            mod_name, attr = site.split(":")
            if not callable(getattr(importlib.import_module(mod_name), attr, None)):
                missing.append(site)
    assert not missing
    assert callable(evolution.EvolutionState.step)
    assert callable(cli.model_from_config)
