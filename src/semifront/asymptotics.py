"""Decay-law extraction and oscillation detection for computed profiles.

Far to the left a profile decays like e^{gamma t} at a noncritical speed
and like (const - t)e^{gamma t} at the critical speed; the fit window
stays away from both the truncation edge and the nonlinear regime.
Oscillation about the positive equilibrium is what distinguishes the
large-delay profiles from the monotone small-delay ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profile import ProfileSolution

__all__ = ["DecayFit", "fit_decay", "detect_oscillation"]

#: classifier threshold: slope of (log phi - lambda1*t) against log(-t)
#: is ~1 for critical tails and ~0 for pure exponentials
CRITICAL_SLOPE_TOL = 0.15

#: the window ends where phi first reaches this fraction of kappa
WINDOW_LEVEL = 0.05

#: nodes skipped at the truncation edge
EDGE_SKIP = 5

MIN_POINTS = 50


@dataclass(frozen=True)
class DecayFit:
    """Fitted decay law of a profile at -infinity.

    ``rate`` is the exponential rate gamma; ``mode`` is
    "pure_exponential" or "critical_t_times_exponential"; ``amplitude``
    is the fitted prefactor at t = 0 (its log absorbs the normalizing
    shift); ``fit_error`` is the RMS log-space residual of the fit.
    """

    rate: float
    mode: str
    window: tuple
    fit_error: float
    amplitude: float


def _window_slice(sol: ProfileSolution) -> np.ndarray:
    t, phi = sol.t, sol.phi
    level = WINDOW_LEVEL * sol.model.kappa
    above = np.nonzero(phi >= level)[0]
    if above.size == 0:
        raise ValueError("profile never reaches the fit level")
    t_b = t[above[0]]
    t_a = t[0] + EDGE_SKIP * sol.step
    if sol.residual > 0.0:
        # nodes near the iteration-residual scale carry no decay
        # information: at the critical speed the deep tail is a
        # near-neutral direction of the profile map, so node errors
        # there run two to three orders above the residual
        resolved = np.nonzero(phi >= 1e3 * sol.residual)[0]
        if resolved.size:
            t_a = max(t_a, t[resolved[0]])
    mask = (t >= t_a - 1e-12) & (t <= t_b + 1e-12)
    if int(np.sum(mask)) < MIN_POINTS:
        raise ValueError(
            f"fit window [{t_a:g}, {t_b:g}] holds fewer than {MIN_POINTS} points"
        )
    if np.any(phi[mask] <= 0.0):
        raise ValueError("profile is nonpositive inside the fit window")
    return mask


def fit_decay(sol: ProfileSolution) -> DecayFit:
    """Least-squares decay law of ``sol`` on the far-left window.

    The window runs from five nodes past the left edge to the first node
    where phi reaches 5% of kappa.  The mode is critical when
    log phi - lambda1*t grows like log(-t) with slope near 1; the rate
    is then refit with the logarithmic term included.
    """
    mask = _window_slice(sol)
    t = sol.t[mask]
    logphi = np.log(sol.phi[mask])

    A = np.stack([t, np.ones_like(t)], axis=1)
    (rate, intercept), *_ = np.linalg.lstsq(A, logphi, rcond=None)
    fit = A @ (rate, intercept)
    fit_error = float(np.sqrt(np.mean((logphi - fit) ** 2)))
    mode = "pure_exponential"

    # critical tails satisfy log phi - lambda1*t ~ log(t0 - t) + const for
    # some O(1) normalizing shift t0; fit the shift along with the slope,
    # otherwise profiles with |t0| of a few units never reach the slope-1
    # band inside any window where phi is numerically resolvable
    neg = t < 0.0
    if int(np.sum(neg)) >= MIN_POINTS:
        tn = t[neg]
        excess = logphi[neg] - sol.lambda1 * tn
        slope, t0 = _shifted_log_slope(tn, excess)
        if abs(slope - 1.0) <= CRITICAL_SLOPE_TOL:
            mode = "critical_t_times_exponential"
            B = np.stack([tn, np.log(t0 - tn), np.ones_like(tn)], axis=1)
            coef, *_ = np.linalg.lstsq(B, logphi[neg], rcond=None)
            rate, intercept = coef[0], coef[2]
            fit_error = float(np.sqrt(np.mean((logphi[neg] - B @ coef) ** 2)))
            t = tn

    return DecayFit(
        rate=float(rate),
        mode=mode,
        window=(float(t[0]), float(t[-1])),
        fit_error=fit_error,
        amplitude=float(math.exp(intercept)),
    )


def _shifted_log_slope(tn: np.ndarray, excess: np.ndarray) -> tuple[float, float]:
    """Best-fit (slope, t0) for excess ~ slope*log(t0 - t) + const.

    t0 ranges over a geometric grid of offsets past the window's right
    end; the best candidate by residual sum wins.  For flat excess (pure
    exponential) every candidate gives slope ~ 0, so the choice of t0 is
    immaterial.  The offset cap keeps log(t0 - t) genuinely curved: as
    t0 -> inf it degenerates into a linear trend that any smooth excess
    could match.
    """
    t0 = tn[-1] + np.geomspace(1e-2, 30.0, 160)
    L = np.log(t0[:, None] - tn)  # one row per candidate, centred as is the excess
    L -= L.mean(axis=1, keepdims=True)
    e = excess - excess.mean()
    slope = (L @ e) / np.einsum("ij,ij->i", L, L)
    np.subtract(e, slope[:, None] * L, out=L)  # residuals, not |e|^2 - cov^2/var: it cancels
    best = int(np.argmin(np.einsum("ij,ij->i", L, L)))  # the first minimum, as a scan keeps it
    return float(slope[best]), float(t0[best])


def detect_oscillation(sol: ProfileSolution) -> tuple[bool, int]:
    """Sign changes of phi - kappa on t >= 0, zeros skipped; oscillatory
    iff at least 2."""
    s = np.sign(sol.phi[sol.t >= 0.0] - sol.model.kappa)
    s = s[s != 0.0]
    count = int(np.sum(s[1:] * s[:-1] < 0.0))
    return count >= 2, count
