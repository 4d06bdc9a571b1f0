"""Semi-wavefront machinery for monostable delayed reaction-diffusion equations.

Computes profiles u(t, x) = phi(x + c t), the critical propagation speed,
characteristic-root diagnostics, asymptotic decay classification, hypothesis
verification, and a direct time-stepping cross-check.

The names in ``__all__`` are bound on first access (PEP 562), so
``import semifront`` loads no submodule, and a CLI subcommand imports
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"


def _lazy_getattr(namespace: dict, exports: dict):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    ``namespace``: each name in ``exports`` (submodule -> names) is imported
    from its submodule on first access and stored in ``namespace``.

    It binds the object the submodule defines, as an import at the top
    would have: a wrapper put in its place by ``functools.wraps`` (the
    benchmark tracer wraps each binding site) is unwrapped, so a tracer
    that wraps the submodule's site and then this one counts a call once.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from inspect import unwrap  # dataclasses loads inspect; a bare import need not

        value = getattr(importlib.import_module(f"{__name__}.{home[name]}"), name)
        namespace[name] = value = unwrap(value)  # later reads skip this hook
        return value

    return __getattr__


_EXPORTS = {
    "model": ("Measure", "Model", "builtin_kpp", "builtin_mackey_glass", "builtin_nicholson",
              "builtin_may", "builtin_square", "model_from_config"),
    "profile": ("SolverOptions", "ProfileSolution", "solve_profile"),
    "verify": ("VerificationReport", "verify_model", "uniqueness_harness", "align_profiles"),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]

__getattr__ = _lazy_getattr(globals(), _EXPORTS)


def __dir__():
    return sorted({*globals(), *__all__})
