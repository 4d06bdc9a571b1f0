"""Independent reference solutions used by several test modules.

Besides the shooting oracle, this holds the reference evaluation of a
model's functional and linearization on a history segment, which the
hypothesis checks' counterexamples are replayed through, and the
reference read of a grid function past its grid, which the solver's
shifted reads are compared against.
"""

import math
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from semifront.verify import SLACK, CheckResult, _counterexample, _log_uniform, _not_finite, _reader, _sampling, _sup_norms


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
    # the trajectory needs ~63 units to fall from 1 - delta to 1/2, so the
    # window reaches at least 100 units below t_hi whatever t_eval spans
    t_lo = min(float(np.min(t_eval)) - 1.0, t_hi - 100.0)
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


def extended(tq: np.ndarray, t: np.ndarray, phi: np.ndarray, tail) -> np.ndarray:
    """Grid values ``phi`` at points ``tq`` by search: linear interpolation,
    the ``LeftTail`` ``tail`` below t[0] and the last value frozen above t[-1]."""
    tq = np.asarray(tq, dtype=float)
    out = np.interp(tq, t, phi)
    left = tq < t[0]
    out[left] = tail.at(tq[left] - t[0])
    return out


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



def chi_array(m, z: np.ndarray, c: float) -> np.ndarray:
    """chi(z, c) = z^2 - c z - q + sum_j w_j e^{c s_j z} at every point of ``z``."""
    out = z * z - c * z - m.lin.q
    for s, w in m.lin.atoms:
        out = out + w * np.exp(c * s * z)
    return out


def count_zeros_rect_vectorized(m, c: float, re_range: tuple[float, float], im_max: float) -> tuple[int, int]:
    """(zero count, vertices evaluated) of the argument-principle walk as
    numpy arrays, a level of segments at a time: the same rectangle,
    dilations, split rule |v - u| S < min(|chi(u)|, |chi(v)|) and
    increments as ``chareq.count_zeros_rect``, whose reference it is."""
    a, b = re_range
    vertices = 0

    def chi(z):
        nonlocal vertices
        vertices += z.size
        with np.errstate(over="ignore", invalid="ignore"):
            out = chi_array(m, z, c)
        if not np.all(np.isfinite(out)):
            raise ValueError("chi is not finite on the contour")
        if np.any(np.abs(out) < 1e-12 * (1.0 + np.abs(z) ** 2)):
            raise LookupError  # too close to a zero: dilate
        return out

    def dz_bound(u, v):
        with np.errstate(over="ignore"):
            S = 2.0 * np.maximum(np.abs(u), np.abs(v)) + c
            for s, w in m.lin.atoms:
                S += w * c * abs(s) * np.exp(c * np.maximum(s * u.real, s * v.real))
        return S

    for attempt in range(4):
        da = attempt * 3e-4 * (1.0 + abs(a))
        db = attempt * 3e-4 * (1.0 + abs(b))
        dy = attempt * 1e-3 * im_max
        corners = np.array([complex(a - da, -(im_max + dy)), complex(b + db, -(im_max + dy)),
                            complex(b + db, im_max + dy), complex(a - da, im_max + dy)])
        u = (corners[:, None] + np.outer(np.roll(corners, -1) - corners, np.arange(16) / 16)).ravel()
        try:
            fu = chi(u)
            v, fv = np.roll(u, -1), np.roll(fu, -1)
            total = 0.0
            while u.size:
                split = ~(np.abs(v - u) * dz_bound(u, v) < np.minimum(np.abs(fu), np.abs(fv)))
                total += float(np.sum(np.angle(fv[~split] / fu[~split])))
                u, v, fu, fv = u[split], v[split], fu[split], fv[split]
                mid = 0.5 * (u + v)
                fm = chi(mid)
                u, v, fu, fv = (np.concatenate(pair) for pair in ((u, mid), (mid, v), (fu, fm), (fm, fv)))
        except LookupError:
            continue
        return round(total / (2.0 * math.pi)), vertices
    raise LookupError("a zero sits on every dilated contour")


def check_LB_levels(m, epsilon: float, n_samples: int, seed: int):
    """(LB) as a walk down the 31 norm levels, highest first, stopping at the
    first level with fewer than 30 segments below it or none violating: the
    level loop that ``verify.check_LB`` reads off the smallest violating
    norm instead, whose reference it is.  The samples, the inequality and
    the failure path are ``check_LB``'s own."""
    rng, k = _sampling(m, n_samples, seed)
    vals = _log_uniform(rng, m.kappa * 1e-6, m.kappa, (n_samples, k))
    norms = _sup_norms(vals)
    read = _reader(m.h, vals)
    lhs = m.lin.q * read(0.0) + m.react(read)
    rhs = (1.0 - epsilon) * m.lin.mass(read)
    viol = ~(lhs >= rhs - SLACK)
    blocking = None
    for delta in m.kappa * 10.0 ** (-np.arange(0.0, 3.01, 0.1)):
        mask = norms <= delta
        support = int(np.count_nonzero(mask))
        if support < 30:
            break
        n_bad = int(np.count_nonzero(viol & mask))
        if n_bad == 0:
            extra = f"; first blocking level {blocking[0]:.6g} had {blocking[1]} violations" if blocking else ""
            detail = f"holds with epsilon={epsilon:g} on all {support} segments of norm <= delta_hat = {float(delta):.6g}"
            return CheckResult("LB", True, n_samples, seed, detail + extra)
        blocking = (float(delta), n_bad)
    i = int(np.flatnonzero(viol)[np.argmin(norms[viol])]) if viol.any() else -1
    detail, ce = "no adequately supported norm level passed", None
    if i >= 0:
        row = {"lhs": lhs[i], "rhs": rhs[i]}
        why = _not_finite(row, int(np.count_nonzero(viol)))
        detail += f"; violated at sample {i}: {why}" if why else f"; smallest violating norm {norms[i]:.6g}"
        ce = _counterexample(m, i, seed, phi=vals[i], **row)
    return CheckResult("LB", False, n_samples, seed, detail, ce)
