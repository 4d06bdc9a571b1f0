"""Semi-wavefront machinery for monostable delayed reaction-diffusion equations.

Computes profiles u(t, x) = phi(x + c t), the critical propagation speed,
characteristic-root diagnostics, asymptotic decay classification, hypothesis
verification, and a direct time-stepping cross-check.
"""

from .model import (
    Measure,
    Model,
    builtin_kpp,
    builtin_may,
    builtin_mackey_glass,
    builtin_nicholson,
    builtin_square,
    model_from_config,
)
from .profile import ProfileSolution, SolverOptions, solve_profile
from .verify import (
    VerificationReport,
    align_profiles,
    uniqueness_harness,
    verify_model,
)

__version__ = "0.1.0"

__all__ = [
    "Measure",
    "Model",
    "builtin_kpp",
    "builtin_mackey_glass",
    "builtin_nicholson",
    "builtin_may",
    "builtin_square",
    "model_from_config",
    "SolverOptions",
    "ProfileSolution",
    "solve_profile",
    "VerificationReport",
    "verify_model",
    "uniqueness_harness",
    "align_profiles",
    "__version__",
]
