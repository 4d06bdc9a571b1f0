import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest

from semifront.model import (
    builtin_kpp,
    builtin_may,
    builtin_mackey_glass,
    builtin_nicholson,
    builtin_square,
    model_from_config,
)
from semifront.chareq import critical_speed
from semifront.kernel import pl_exp_integral
import semifront.profile as profile_mod
from semifront.profile import SolverOptions, solve_profile
from semifront.verify import (
    FALSIFICATION_NOTE,
    _harness_seeds,
    _sup_distance,
    align_profiles,
    check_LB,
    check_S,
    check_structure,
    check_UB,
    diagnostics_Q,
    uniqueness_harness,
    verify_model,
)

from oracles import HistorySegment, check_LB_levels, eval_f, eval_lin, extended

#: sample size for unit runs; the acceptance gate drives the full 10_000
N = 2500


@pytest.fixture(scope="module")
def kpp1_sol():
    return solve_profile(builtin_kpp(1.0), 2.5)


def delta_hat_of(result):
    m = re.search(r"delta_hat = ([0-9.eE+-]+)", result.detail)
    assert m, f"no delta_hat reported in: {result.detail}"
    return float(m.group(1))


# ------------------------------------------------------- positive controls


def test_builtin_hypotheses_pass():
    for m in (builtin_kpp(1.0), builtin_nicholson(1.0, 2.0), builtin_may(1.0, 2.0, 2.0, 1.0)):
        structure = check_structure(m)
        for name in ("M", "J", "ND"):
            assert structure[name].passed, f"{m.name}/{name}: {structure[name].detail}"
        for check in (check_S, check_UB):
            r = check(m, N)
            assert r.passed, f"{m.name}/{r.name}: {r.detail}"
        r = check_LB(m, 0.1, N)
        assert r.passed, f"{m.name}/LB: {r.detail}"


def test_lower_bound_levels():
    kpp = builtin_kpp(1.0)
    narrow = check_LB(kpp, 0.1, N)
    assert narrow.passed
    assert delta_hat_of(narrow) >= 0.05
    # shaving almost the whole delayed mass makes the bound nearly vacuous,
    # so the certified norm level grows
    wide = check_LB(kpp, 0.999, N)
    assert wide.passed
    assert delta_hat_of(wide) >= delta_hat_of(narrow)

    nich = check_LB(builtin_nicholson(1.0, 2.0), 0.1, N)
    assert nich.passed
    assert delta_hat_of(nich) > 0.0


# the README's custom kpp, and the same reaction plus 0*log(u1 - 0.5), NaN
# wherever the delayed value is below 0.5
_CUSTOM_KPP = {
    "name": "custom", "h": 1.0, "eval_points": [0.0, -1.0], "expr": "u0 * (1.0 - u1)",
    "atoms": [[0.0, 1.0]], "q": 0.0, "kappa": 1.0, "smoothness": [1.0, 1.0, 1.0], "bound": 4.0,
}
LB_MODELS = [
    builtin_kpp(0.0), builtin_kpp(1.0), builtin_kpp(4.0), builtin_nicholson(1.0, 2.0),
    builtin_nicholson(0.5, 10.0), builtin_nicholson(2.0, 1.5), builtin_may(1.0, 2.0, 2.0, 1.0),
    builtin_may(2.0, 3.0, 2.0, 1.0), builtin_square(), builtin_square(1.0), model_from_config(_CUSTOM_KPP),
    model_from_config({**_CUSTOM_KPP, "expr": "u0 * (1.0 - u1) + 0.0*log(u1 - 0.5)"}),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN model's log of a negative number
@pytest.mark.parametrize("m", LB_MODELS, ids=lambda m: f"{m.name}-h{m.h:g}")
def test_lower_bound_matches_the_level_loop(m):
    # delta_hat read off the smallest violating norm equals the walk down the
    # levels: pass and fail, with and without a blocking level, sample sizes
    # on both sides of the 30-segment support floor, and (square h=0 and h=1)
    # every level violated, once with exactly 30 segments at the lowest level
    for eps, n, seed in itertools.product((0.01, 0.1, 0.5, 0.999), (1, 20, 29, 30, 31, 45, 200, 10_000), (0, 3)):
        got, ref = check_LB(m, eps, n, seed), check_LB_levels(m, eps, n, seed)
        assert (got.passed, got.detail) == (ref.passed, ref.detail)
        assert repr(got.counterexample) == repr(ref.counterexample)  # repr: a NaN lhs equals itself


# ------------------------------------------------------- negative controls


def test_square_upper_bound_fails_with_counterexample():
    r = check_UB(builtin_square(), N)
    assert not r.passed
    ce = r.counterexample
    assert ce is not None
    assert set(ce) == {"sample", "seed", "knots", "phi", "psi", "lhs", "rhs"}
    assert r.detail.startswith(f"violated at sample {ce['sample']}: f(psi)-f(phi) = ")
    # replay the reported violation through the segment interface
    m = builtin_square()
    phi = HistorySegment(m.h, ce["phi"])
    psi = HistorySegment(m.h, ce["psi"])
    lhs = eval_f(m, psi) - eval_f(m, phi)
    rhs = eval_lin(m, HistorySegment(m.h, np.subtract(ce["psi"], ce["phi"])))
    assert lhs > rhs + 1e-12
    assert lhs == pytest.approx(ce["lhs"], rel=1e-12)
    assert rhs == pytest.approx(ce["rhs"], rel=1e-12)


def test_counterexample_is_deterministic():
    a = check_UB(builtin_square(), N, seed=5)
    b = check_UB(builtin_square(), N, seed=5)
    assert a.counterexample == b.counterexample
    assert a.detail == b.detail


def test_understated_modulus_caught():
    # correct reaction, but the declared smoothness constant is far below
    # the true curvature of the birth function
    m = builtin_mackey_glass(
        0.5, lambda u: 2.0 * u * (1.0 - u), g_prime_0=2.0, kappa=0.5,
        smoothness=(1e-9, 1.0, 0.25), bound=2.0,
    )
    r = check_S(m, N)
    assert not r.passed
    ce = r.counterexample
    assert set(ce) == {"sample", "seed", "knots", "phi", "psi", "remainder", "bound"}
    assert r.detail.startswith(f"violated at sample {ce['sample']}: remainder ")


def test_wrong_equilibrium_caught():
    # the birth function fixes 1/2, the model declares 0.6
    m = builtin_mackey_glass(
        0.5, lambda u: 2.0 * u * (1.0 - u), g_prime_0=2.0, kappa=0.6,
        smoothness=(2.0, 1.0, 0.3), bound=2.4,
    )
    structure = check_structure(m)
    assert not structure["M"].passed
    assert structure["M"].counterexample is not None
    assert structure["J"].passed and structure["ND"].passed


# ------------------------------------------------------------- validation


def test_sample_sizes_validated():
    m = builtin_kpp(0.0)
    with pytest.raises(ValueError):
        check_UB(m, 0)
    with pytest.raises(ValueError):
        check_S(m, 0)
    with pytest.raises(ValueError):
        check_LB(m, 0.1, 0)


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.3, 1.7])
def test_epsilon_validated(eps):
    with pytest.raises(ValueError):
        check_LB(builtin_kpp(0.0), eps, N)


# ------------------------------------------------------------ diagnostics


def test_gap_diagnostics_nonnegative(kpp1_sol):
    q_min, pi = diagnostics_Q(kpp1_sol)
    assert q_min >= -1e-8
    assert pi > 0.0


def test_gap_exact_for_undelayed_logistic():
    # with no delay the gap is phi(t)^2 >= 0 pointwise, no tolerance needed
    sol = solve_profile(builtin_kpp(0.0), 2.5)
    q_min, pi = diagnostics_Q(sol)
    assert q_min >= -1e-12
    assert pi > 0.0


def diagnostics_by_interp(sol):
    """diagnostics_Q with its history read by searching interpolation
    (the oracles' ``extended`` at t + c s) instead of a shifted grid read."""
    m, t = sol.model, sol.t

    def history(s):
        return sol.phi if s == 0.0 else extended(t + sol.c * s, t, sol.phi, sol.tail)

    f_vals = np.asarray(m.f_pointwise(*(history(s) for s in m.eval_points)), dtype=float)
    q = -m.lin.q * sol.phi + sum(w * history(s) for s, w in m.lin.atoms) - f_vals
    lam = sol.lambda1
    tails = (q[0] * math.exp(-lam * t[0]) + q[-1] * math.exp(-lam * t[-1])) / lam
    return float(np.min(q)), float(pl_exp_integral(t, q, -lam) + tails)


@pytest.mark.parametrize("case", ["kpp h=1", "nicholson", "kpp h=1 critical"])
def test_diagnostics_match_interpolated_history(case, kpp1_sol):
    if case == "kpp h=1":
        sol = kpp1_sol
    elif case == "nicholson":
        m = builtin_nicholson(1.0, 2.0)
        sol = solve_profile(m, critical_speed(m)[0] + 0.5)
    else:
        m = builtin_kpp(1.0)
        sol = solve_profile(m, critical_speed(m)[0])
    assert sol.converged
    got, ref = diagnostics_Q(sol), diagnostics_by_interp(sol)
    for g, r in zip(got, ref):
        assert abs(g - r) <= 1e-14 * abs(r)


def test_diagnostics_require_convergence(kpp1_sol):
    broken = dataclasses.replace(kpp1_sol, converged=False)
    with pytest.raises(ValueError):
        diagnostics_Q(broken)


# -------------------------------------------------------------- alignment


def test_align_identical_is_zero(kpp1_sol):
    shift, dist = align_profiles(kpp1_sol, kpp1_sol)
    assert abs(shift) <= 1e-12
    assert dist == 0.0


def test_align_recovers_manufactured_translation(kpp1_sol):
    moved = dataclasses.replace(kpp1_sol, t=kpp1_sol.t - 3.0)
    shift, dist = align_profiles(kpp1_sol, moved)
    assert shift == pytest.approx(3.0, abs=1e-9)
    assert dist <= 1e-12


def sup_distance_by_interp(a, b, shift):
    """The masked-interpolation form of the aligned sup distance."""
    tq = b.t + shift
    mask = (tq >= a.t[0]) & (tq <= a.t[-1])
    if np.count_nonzero(mask) < 10:
        return math.inf
    return float(np.max(np.abs(np.interp(tq[mask], a.t, a.phi) - b.phi[mask])))


def test_sup_distance_slices_match_interpolation(kpp1_sol):
    a, step = kpp1_sol, kpp1_sol.step
    moved = dataclasses.replace(a, phi=extended(a.t + 0.123, a.t, a.phi, a.tail))
    origin = dataclasses.replace(moved, t=a.t - 3.0)
    rng = np.random.default_rng(3)
    shifts = np.concatenate(
        (rng.uniform(-1.0, 1.0, 40), step * rng.integers(-50, 50, 20), [0.0, 3.0, 3.0 + 0.3 * step])
    )
    scale = float(np.max(np.abs(a.phi)))
    for b in (a, moved, origin):
        for s in shifts:
            ref = sup_distance_by_interp(a, b, s)
            assert abs(_sup_distance(a, b, s) - ref) <= 1e-14 * scale
    # overlaps of fewer than 10 nodes, past either end of the grid
    span = a.t[-1] - a.t[0]
    for s in (span - 8.5 * step, span - 5 * step, -span + 3.2 * step):
        assert sup_distance_by_interp(a, a, s) == math.inf
        assert _sup_distance(a, a, s) == math.inf
    assert math.isfinite(_sup_distance(a, a, span - 9.5 * step))  # 10 nodes


def test_sup_distance_rejects_unequal_steps(kpp1_sol):
    coarse = dataclasses.replace(kpp1_sol, t=2.0 * kpp1_sol.t)
    with pytest.raises(ValueError):
        _sup_distance(kpp1_sol, coarse, 0.0)
    with pytest.raises(ValueError):
        align_profiles(coarse, kpp1_sol)


# ----------------------------------------------------------- the harness


def test_harness_distances_tiny_for_monotone_front():
    opts = SolverOptions(tol=1e-10, t_plus=60.0)
    pairs = uniqueness_harness(builtin_kpp(0.0), 2.5, 3, opts)
    assert len(pairs) == 3
    for _, dist in pairs:
        assert dist <= 1e-7


def test_harness_reports_exclusions(monkeypatch):
    # a tiny iteration budget cannot converge; every run must be excluded
    monkeypatch.setattr(profile_mod, "DAMPED_STEPS", 2)
    opts = SolverOptions(tol=1e-14, accel_iter=1)
    dropped = []
    pairs = uniqueness_harness(builtin_kpp(0.0), 2.5, 3, opts, on_exclude=dropped.append)
    assert pairs == []
    assert dropped == [0, 1, 2]
    # without a callback each exclusion is a warning
    with pytest.warns(UserWarning) as record:
        assert uniqueness_harness(builtin_kpp(0.0), 2.5, 2, opts) == []
    pattern = r"seed {} did not converge \(residual \S+, 3 iterations, \d+ clamped nodes\); excluded"
    assert len(record) == 2
    assert all(re.fullmatch(pattern.format(i), str(w.message)) for i, w in enumerate(record))


def test_harness_needs_two_seeds():
    with pytest.raises(ValueError):
        uniqueness_harness(builtin_kpp(0.0), 2.5, 1)


def _reference_seeds(n_seeds, grid, lam, kappa, rng):
    """The harness starts written out one formula each, as they read before
    the starts shared one tail formula."""
    base = np.minimum(kappa, 0.5 * kappa * np.exp(lam * grid))

    def wavy():
        pert = np.zeros_like(grid)
        for _ in range(4):
            pert += rng.uniform(-1.0, 1.0) * np.cos(
                rng.uniform(0.1, 1.0) * grid + rng.uniform(0.0, 2.0 * np.pi)
            )
        return base * (1.0 + 0.25 * pert / np.max(np.abs(pert)))

    seeds = [None]
    makers = [
        lambda: np.minimum(kappa, 2.0 * 0.5 * kappa * np.exp(lam * grid)),
        lambda: np.minimum(kappa, 0.25 * kappa * np.exp(lam * grid)),
        lambda: np.minimum(kappa, 0.5 * kappa * np.exp(lam * (grid - 2.0))),
        wavy,
        lambda: np.minimum(
            kappa, rng.uniform(0.25, 4.0) * 0.5 * kappa * np.exp(lam * (grid - rng.uniform(-3.0, 3.0)))
        ),
    ]
    for i in range(1, n_seeds):
        seeds.append(makers[min(i - 1, 3)]() if i <= 4 else makers[4]())
    return seeds


def test_harness_starts_match_reference_formulas():
    # seven starts reach the random tail twice; the draws keep their order,
    # so the generators end in the same state
    grid = np.linspace(-60.0, 40.0, 5001)
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    got = _harness_seeds(7, grid, 0.4321, 1.37, rng_a)
    want = _reference_seeds(7, grid, 0.4321, 1.37, rng_b)
    assert got[0] is None and want[0] is None
    assert len(got) == len(want) == 7
    for a, b in zip(got[1:], want[1:]):
        assert np.array_equal(a, b)
    assert rng_a.random() == rng_b.random()


# ------------------------------------------------------------- aggregator


def test_verify_model_aggregates_and_serializes():
    rep = verify_model(builtin_kpp(1.0), N)
    assert rep.all_passed
    assert list(rep.hypotheses) == ["M", "S", "J", "ND", "UB", "LB"]
    assert rep.note == FALSIFICATION_NOTE
    assert rep.q_min is None and rep.pi_integral is None
    payload = json.dumps(rep.to_dict())
    assert "delta_hat" in payload


def test_verify_model_flags_square():
    rep = verify_model(builtin_square(), N)
    assert not rep.all_passed
    assert not rep.hypotheses["UB"].passed
    json.dumps(rep.to_dict())  # counterexamples must stay serializable


def test_verify_model_with_profile_diagnostics():
    rep = verify_model(builtin_kpp(1.0), N, c=2.5)
    assert rep.q_min is not None and rep.q_min >= -1e-8
    assert rep.pi_integral is not None and rep.pi_integral > 0.0
    assert rep.uniqueness == ()


def test_verify_model_runs_the_harness_with_its_defaults():
    # the real harness, at its default options (tol 1e-10, t_plus 120):
    # two starts give one pair, the same wave to well below the tolerance
    rep = verify_model(builtin_kpp(0.0), n_samples=2000, c=2.5, n_seeds=2)
    assert rep.all_passed
    assert rep.excluded_seeds == ()
    assert len(rep.uniqueness) == 1
    assert rep.uniqueness[0][1] <= 1e-9


def test_verify_model_names_the_solves_that_failed(monkeypatch):
    # every solve capped at two damped steps: the profile does not converge
    # and the harness keeps none of its two runs; the report says both
    import semifront.verify as verify_mod

    solve = verify_mod.solve_profile
    monkeypatch.setattr(profile_mod, "DAMPED_STEPS", 2)

    def capped(m, c, opts=None):
        return solve(m, c, dataclasses.replace(opts or SolverOptions(), accel_iter=0))

    monkeypatch.setattr(verify_mod, "solve_profile", capped)
    rep = verify_model(builtin_kpp(1.0), n_samples=200, c=2.5, n_seeds=2)
    assert rep.all_passed and rep.q_min is None and rep.pi_integral is None
    assert rep.excluded_seeds == (0, 1) and rep.uniqueness == ()
    profile_failure, harness_failure = rep.failed_solves
    assert profile_failure.startswith("profile: residual") and "2 iterations" in profile_failure
    assert harness_failure == "uniqueness harness: only 0 of 2 runs converged"
    assert rep.to_dict()["failed_solves"] == (profile_failure, harness_failure)
    # a converged profile and a harness left with two runs fail nothing
    monkeypatch.undo()
    assert verify_model(builtin_kpp(1.0), n_samples=200, c=2.5).failed_solves == ()


@pytest.mark.parametrize("opts", [None])
def test_verify_model_passes_solver_opts_to_harness(monkeypatch, opts):
    # verify_model takes no solver options: the harness keeps its defaults
    import semifront.verify as verify_mod

    seen = []

    def harness(m, c, n_seeds, opts=None, seed=0, on_exclude=None):
        seen.append(opts)
        return []

    monkeypatch.setattr(verify_mod, "uniqueness_harness", harness)
    verify_model(builtin_kpp(1.0), n_samples=200, c=2.5, n_seeds=3)
    assert len(seen) == 1 and seen[0] is opts
