import math

import numpy as np
import pytest

from oracles import extended, shifted_log_slope_by_lstsq
from semifront.asymptotics import (
    DecayFit,
    _shifted_log_slope,
    _window_slice,
    detect_oscillation,
    fit_decay,
)
from semifront.kernel import LeftTail
from semifront.model import builtin_kpp, builtin_nicholson
from semifront.profile import ProfileSolution, SolverOptions, solve_profile

NICH_C_STAR = math.sqrt(math.log(2.0))


def synthetic_profile(fn, lam, t_lo=-80.0):
    """Wrap an explicit phi(t) in the solution container the fitter reads."""
    m = builtin_kpp(0.0)
    t = np.arange(t_lo, 40.0 + 0.01, 0.02)
    phi = fn(t)
    return ProfileSolution(
        model=m, c=2.5, t=t, phi=phi, dphi=np.gradient(phi, t),
        tail=LeftTail(float(phi[0]), lam, 0.0), lambda1=lam, lambda2=lam,
        critical=False, residual=0.0, drift=0.0,
        converged=True, clamp_low=0, clamp_high=0,
    )


@pytest.fixture(scope="module")
def kpp_half():
    return solve_profile(builtin_kpp(0.5), 2.5)


# ----------------------------------------------------------- exact inputs


def test_pure_exponential_recovered():
    sol = synthetic_profile(lambda t: np.minimum(1.0, np.exp(0.5 * t)), 0.5)
    fit = fit_decay(sol)
    assert fit.mode == "pure_exponential"
    assert abs(fit.rate - 0.5) <= 1e-6
    assert fit.fit_error <= 1e-10


def test_critical_shape_recovered():
    sol = synthetic_profile(
        lambda t: np.where(t < -2.0, -t * np.exp(t), 2.0 * math.exp(-2.0)), 1.0
    )
    fit = fit_decay(sol)
    assert fit.mode == "critical_t_times_exponential"
    assert abs(fit.rate - 1.0) <= 5e-3


# --------------------------------------------------------- computed runs


def test_noncritical_rate_within_two_percent():
    for h in (0.5, 1.0):
        sol = solve_profile(builtin_kpp(h), 2.5)
        fit = fit_decay(sol)
        assert fit.mode == "pure_exponential"
        assert abs(fit.rate - 0.5) <= 0.02 * 0.5


def test_critical_classifier_fires():
    for m, c in [
        (builtin_kpp(0.5), 2.0),
        (builtin_kpp(1.0), 2.0),
        (builtin_nicholson(1.0, 2.0), NICH_C_STAR),
    ]:
        sol = solve_profile(m, c)
        fit = fit_decay(sol)
        assert fit.mode == "critical_t_times_exponential"
        assert abs(fit.rate - sol.lambda1) <= 0.02 * sol.lambda1


def test_near_critical_stays_pure():
    sol = solve_profile(builtin_kpp(0.0), 2.1)
    assert fit_decay(sol).mode == "pure_exponential"


@pytest.mark.parametrize(
    "c, mode", [(2.0, "critical_t_times_exponential"), (2.5, "pure_exponential")]
)
def test_offset_scan_matches_one_fit_per_offset(c, mode):
    # the closed-form scan picks the same offset as 160 separate
    # least-squares fits, and the same slope to rounding
    sol = solve_profile(builtin_kpp(1.0), c)
    mask = _window_slice(sol)
    t = sol.t[mask]
    tn = t[t < 0.0]
    excess = np.log(sol.phi[mask])[t < 0.0] - sol.lambda1 * tn
    slope, t0 = _shifted_log_slope(tn, excess)
    want_slope, want_t0 = shifted_log_slope_by_lstsq(tn, excess)
    assert t0 == want_t0
    assert slope == pytest.approx(want_slope, rel=1e-12, abs=0.0)
    assert fit_decay(sol).mode == mode


def test_window_and_amplitude_reported(kpp_half):
    fit = fit_decay(kpp_half)
    t_a, t_b = fit.window
    assert t_a >= kpp_half.t[0]
    # right end is the first grid node at or above the 5% level
    step = kpp_half.step
    below, at = extended([t_b - step, t_b], kpp_half.t, kpp_half.phi, kpp_half.tail)
    assert below < 0.05 * 1.0
    assert at <= 0.05 * 1.0 * 1.05
    assert fit.amplitude > 0.0


# ------------------------------------------------------------ oscillation


def test_monotone_front_not_oscillatory():
    sol = solve_profile(builtin_kpp(0.0), 2.5)
    oscillatory, count = detect_oscillation(sol)
    assert not oscillatory and count <= 1


def test_large_delay_oscillates():
    sol = solve_profile(builtin_kpp(2.0), 2.5)
    oscillatory, count = detect_oscillation(sol)
    assert oscillatory and count >= 2


def test_synthetic_ringing_detected():
    sol = synthetic_profile(
        lambda t: np.maximum(1e-6, 1.0 + np.exp(-np.abs(t)) * np.sin(t)), 0.5
    )
    oscillatory, count = detect_oscillation(sol)
    assert oscillatory and count >= 2


# ------------------------------------------------------------- bad inputs


def test_tiny_window_rejected():
    # a shallow grid leaves ten nodes between its edge and the 5% level
    sol = solve_profile(builtin_kpp(0.5), 2.5, SolverOptions(t_minus=-6.0))
    with pytest.raises(ValueError, match="holds fewer than 50 points"):
        fit_decay(sol)


def test_nonpositive_profile_rejected():
    sol = synthetic_profile(lambda t: np.exp(0.5 * t) - 1e-12, 0.5)
    with pytest.raises(ValueError):
        fit_decay(sol)


def test_fit_is_immutable():
    sol = synthetic_profile(lambda t: np.minimum(1.0, np.exp(0.5 * t)), 0.5)
    fit = fit_decay(sol)
    assert isinstance(fit, DecayFit)
    with pytest.raises(AttributeError):
        fit.rate = 1.0
