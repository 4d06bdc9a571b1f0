"""Timings of the profile solver's inner layers, one JSON line of microseconds.

Run from any directory, on the checkout this file sits in:

    python3 tools/map_timing.py

Each figure is the minimum over 7 repeats of the mean of a batch of calls,
BLAS held to one thread as in ``same_numbers.py``:

``map_<n>``
    One application of the pinned map on kpp h=2, c = 2.5, on a grid of n
    = 151, 1,501 and 10,001 nodes (step 0.02), read at the iterate a
    default solve on that grid ends on.
``convolve_<n>``
    The map's ``convolve`` alone, on the same grids and source.
``anderson_10001``
    One Anderson step on 10,001 nodes with a full ring (ACCEL_DEPTH - 1
    columns), cycling through more random iterates than the ring holds, so
    its columns stay independent.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402 - the thread count must be set before numpy loads
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from semifront import profile  # noqa: E402
from semifront.kernel import convolve  # noqa: E402
from semifront.model import builtin_kpp  # noqa: E402

REPEATS = 7
# grid edges (t_minus, t_plus) at step 0.02: 151, 1,501 and 10,001 nodes
GRIDS = {151: (-1.0, 2.0), 1501: (-12.0, 18.0), 10001: (-80.0, 120.0)}


def best_us(call, calls: int) -> float:
    """The least mean time of ``calls`` calls over REPEATS batches, in us."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    return round(best * 1e6, 2)


def main() -> None:
    m, c = builtin_kpp(2.0), 2.5
    out = {}
    for n, (lo, hi) in GRIDS.items():
        opts = profile.SolverOptions(t_minus=lo, t_plus=hi)
        phi = profile.solve_profile(m, c, opts).phi
        P = profile._PinnedMap(m, c, opts)
        assert P.t.size == n
        conv = P.raw(phi)
        args = (P.plan, conv.src, conv.left_tail, conv.right_const)
        out[f"map_{n}"] = best_us(lambda: P(phi), 500)
        out[f"convolve_{n}"] = best_us(lambda: convolve(*args), 500)
    n, cols = 10001, profile.ACCEL_DEPTH - 1
    rng = np.random.default_rng(0)
    xs, fs = rng.standard_normal((2, cols + 5, n))
    ring, work = profile._AndersonRing(n, cols, profile.BETA), np.empty(n)
    steps = iter(range(10**9))

    def step() -> None:
        i = next(steps) % len(xs)
        ring.step(xs[i], fs[i], work)

    for _ in range(cols + 1):  # fill the ring
        step()
    out[f"anderson_{n}"] = best_us(step, 200)
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
