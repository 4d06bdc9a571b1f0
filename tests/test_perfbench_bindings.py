"""The names the benchmark wraps still exist.

perfbench/measure.py replaces library functions by name (``module:attr``
binding sites) during traced runs, and perfbench/child.py wraps
``cli.model_from_config``.  A name deleted from the library would only
surface when ``perfbench/run.py --trace 1`` runs, so this test resolves
every site.  The trace also reads each scan's node count from an argument
of the wrapped call, which one traced solve checks.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from semifront import cli, evolution, profile
from semifront.model import builtin_kpp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def measure(monkeypatch):
    """perfbench/measure.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_measure", PERFBENCH / "measure.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_binding_site_resolves(measure):
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


def test_traced_node_count_is_one_grid_per_convolution(measure):
    # kernel.nodes counts the entries of the wrapped convolve's second
    # argument: one per grid node of each scan
    tracer = measure.Tracer()
    opts = profile.SolverOptions(t_minus=-20.0, t_plus=20.0, tol=1e-6)
    with tracer.installed():
        sol = profile.solve_profile(builtin_kpp(1.0), 2.5, opts)
    scans = sum(span[0] == "kernel.convolve" for span in tracer.spans)
    assert scans == sol.iterations + 1 and sol.t.size == 2001
    assert tracer.counts["kernel.nodes"] == scans * sol.t.size
