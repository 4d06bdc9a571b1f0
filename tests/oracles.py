"""Independent reference solutions used by several test modules.

Besides the shooting oracle, this holds the reference evaluation of a
model's functional and linearization on a history segment, which the
hypothesis checks' counterexamples are replayed through.
"""

import math
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def kpp_front_no_delay(c: float, t_eval: np.ndarray) -> np.ndarray:
    """Undelayed logistic front by backward shooting, pinned at 1/2.

    phi'' - c*phi' + phi(1 - phi) = 0 is integrated backward from the
    saddle at 1 along its decaying eigendirection (the forward problem
    along the slow rate is ill-posed: integrator noise excites the fast
    mode).  Backward from the saddle both local modes are stable, so the
    trajectory follows the heteroclinic to machine accuracy.  The result
    is translated so phi(0) = 1/2, matching the solver's pinning.
    """
    mu_minus = (c - math.sqrt(c * c + 4.0)) / 2.0  # decay rate toward 1
    delta = 1e-10
    t_hi = float(np.max(t_eval)) + 1.0
    t_lo = float(np.min(t_eval)) - 1.0
    sol = solve_ivp(
        lambda s, y: [y[1], c * y[1] - y[0] * (1.0 - y[0])],
        (t_hi, t_lo),
        [1.0 - delta, -mu_minus * delta],
        dense_output=True,
        rtol=1e-12,
        atol=1e-16,
        method="DOP853",
    )
    shift = brentq(lambda s: sol.sol(s)[0] - 0.5, t_lo, t_hi, xtol=1e-13)
    return sol.sol(np.clip(t_eval + shift, t_lo, t_hi))[0]


class HistorySegment:
    """A continuous function on [-h, 0] stored as uniform samples.

    Evaluation uses piecewise-linear interpolation between the samples,
    so the segment is defined at every point of [-h, 0] regardless of
    where the samples fall.  For h = 0 the domain is the single point 0.
    """

    __slots__ = ("h", "values", "_ts")

    def __init__(self, h: float, values: Sequence[float]):
        if h < 0:
            raise ValueError("delay horizon must be nonnegative")
        vals = np.atleast_1d(np.asarray(values, dtype=float))
        if h == 0:
            if vals.size != 1:
                raise ValueError("a zero-delay segment is a single sample")
        elif vals.size < 2:
            raise ValueError("need at least two samples on a positive-length domain")
        self.h = float(h)
        self.values = vals
        self._ts = np.linspace(-self.h, 0.0, vals.size) if h > 0 else np.zeros(1)

    @classmethod
    def constant(cls, h: float, value: float, n: int = 2) -> "HistorySegment":
        n = 1 if h == 0 else max(2, n)
        return cls(h, np.full(n, float(value)))

    @classmethod
    def from_callable(cls, h: float, fn: Callable[[float], float], n: int = 33) -> "HistorySegment":
        if h == 0:
            return cls(0.0, [float(fn(0.0))])
        ts = np.linspace(-h, 0.0, max(2, n))
        return cls(h, [float(fn(t)) for t in ts])

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < -self.h - 1e-9) or np.any(s_arr > 1e-9):
            raise ValueError(f"evaluation point {s} outside [-{self.h}, 0]")
        if self.h == 0:
            out = np.full_like(s_arr, self.values[0], dtype=float)
        else:
            out = np.interp(np.clip(s_arr, -self.h, 0.0), self._ts, self.values)
        return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out

    def norm(self) -> float:
        """Max norm over [-h, 0] (attained at a sample node)."""
        return float(np.max(np.abs(self.values)))


def _check_horizon(m, seg: HistorySegment) -> None:
    if abs(seg.h - m.h) > 1e-12:
        raise ValueError(f"segment horizon {seg.h} does not match model horizon {m.h}")


def eval_f(m, seg: HistorySegment) -> float:
    """Value of the reaction functional on a history segment."""
    _check_horizon(m, seg)
    return float(m.f_pointwise(*(seg(s) for s in m.eval_points)))


def eval_lin(m, seg: HistorySegment) -> float:
    """Linearization at 0: -q*seg(0) + sum_j w_j*seg(s_j)."""
    _check_horizon(m, seg)
    out = -m.lin.q * seg(0.0)
    for s, w in m.lin.atoms:
        out = out + w * seg(s)
    return float(out)


def shifted_log_slope_by_lstsq(tn: np.ndarray, excess: np.ndarray) -> tuple[float, float]:
    """Best-fit (slope, t0) for excess ~ slope*log(t0 - t) + const, one
    least-squares fit per offset t0 = tn[-1] + delta over 160 geometric
    deltas in [1e-2, 30]; the first smallest residual sum wins."""
    t_edge = float(tn[-1])
    best = (math.inf, 0.0, t_edge + 1.0)
    for delta in np.geomspace(1e-2, 30.0, 160):
        L = np.stack([np.log(t_edge + delta - tn), np.ones_like(tn)], axis=1)
        coef, *_ = np.linalg.lstsq(L, excess, rcond=None)
        rss = float(np.sum((excess - L @ coef) ** 2))
        if rss < best[0]:
            best = (rss, float(coef[0]), t_edge + delta)
    return best[1], best[2]

