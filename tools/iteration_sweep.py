"""Iteration counts of 44 default solves, one JSON line each.

Run from any directory, on the checkout this file sits in:

    python3 tools/iteration_sweep.py

Each line reads ``{"model", "c", "converged", "iterations", "residual",
"drift"}`` for one :func:`~semifront.profile.solve_profile` call at the
default :class:`~semifront.profile.SolverOptions`:

- kpp at h in {0, 1, 1.5, 2, 2.5, 3} and c in {2.05, 2.25, 2.5, 3, 4};
- nicholson at (p, h) in {(2, 1), (10, 1), (20, 2), (2, 2)} and c at c*,
  c* + 0.1 and c* + 0.5;
- kpp h=1 and h=1.5 at the critical speed c* = 2.

A change to the solver's iteration prints its table beside its parent's,
so that each case's convergence, iteration count and drift can be
compared line by line.  BLAS is held to one thread, as in
``tools/same_numbers.py``, so the table is the same from run to run.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402 - the thread count must be set before numpy loads
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from semifront.chareq import critical_speed  # noqa: E402
from semifront.model import builtin_kpp, builtin_nicholson  # noqa: E402
from semifront.profile import solve_profile  # noqa: E402


def cases() -> list[tuple[str, object, float]]:
    """(label, model, c) of every solve, in print order."""
    out = [(f"kpp h={h:g}", builtin_kpp(h), c)
           for h in (0.0, 1.0, 1.5, 2.0, 2.5, 3.0) for c in (2.05, 2.25, 2.5, 3.0, 4.0)]
    for p, h in ((2.0, 1.0), (10.0, 1.0), (20.0, 2.0), (2.0, 2.0)):
        m = builtin_nicholson(h, p)
        c_star = critical_speed(m)[0]
        out += [(f"nicholson p={p:g} h={h:g}", m, c_star + dc) for dc in (0.0, 0.1, 0.5)]
    out += [(f"kpp h={h:g}", builtin_kpp(h), 2.0) for h in (1.0, 1.5)]
    return out


def main() -> None:
    for label, m, c in cases():
        sol = solve_profile(m, c)
        print(json.dumps({"model": label, "c": c, "converged": sol.converged,
                          "iterations": sol.iterations, "residual": sol.residual,
                          "drift": sol.drift}), flush=True)


if __name__ == "__main__":
    main()
