import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semifront.profile as profile_mod
from semifront.asymptotics import detect_oscillation
from semifront.chareq import SubcriticalError, critical_speed, real_roots
from semifront.kernel import LeftTail, ScanPlan, convolve, make_kernel
from semifront.model import builtin_kpp, builtin_nicholson, model_from_config
from semifront.profile import (
    _AndersonRing,
    _PinnedMap,
    ShiftedRead,
    SolverOptions,
    first_up_crossing,
    scan_shift,
    solve_profile,
    tail_start,
    up_crossing,
)
from semifront.verify import _harness_seeds

from oracles import extended, kpp_front_no_delay, scan_shift_exhaustive

NICH_C_STAR = math.sqrt(math.log(2.0))


@pytest.fixture(scope="module")
def kpp_h0():
    return solve_profile(builtin_kpp(0.0), 2.5)


@pytest.fixture(scope="module")
def kpp_h1():
    return solve_profile(builtin_kpp(1.0), 2.5)


@pytest.fixture(scope="module")
def kpp_h2():
    return solve_profile(builtin_kpp(2.0), 2.5)


@pytest.fixture(scope="module")
def kpp_crit():
    return solve_profile(builtin_kpp(0.0), 2.0)


@pytest.fixture(scope="module")
def nich():
    return solve_profile(builtin_nicholson(1.0, 2.0), NICH_C_STAR + 0.5)


# ------------------------------------------------------------- fixed point


def _equilibrium_convolution(m):
    """A applied to the constant state kappa, with a flat left tail and
    the matching right closure."""
    t = 0.02 * np.arange(-2000, 2001)
    src = (1.0 + m.lin.q) * m.kappa * np.ones_like(t)
    return convolve(ScanPlan(make_kernel(2.5, m.lin.q), t), src, LeftTail(src[0], 0.0, 0.0), right_const=src[-1])


def test_equilibrium_is_fixed_point():
    # f(kappa) = 0, so kappa = G * ((1+q) kappa) once the closures match the
    # constant state; the solver's own closure pulls the state to 0 on the
    # left by design, so the identity is asserted through the integral map.
    m = builtin_kpp(0.5)
    out = _equilibrium_convolution(m).values
    assert np.max(np.abs(out - m.kappa)) <= 1e-10


def test_converged_runs(kpp_h0, kpp_h1, kpp_h2, nich):
    for sol in (kpp_h0, kpp_h1, kpp_h2, nich):
        assert sol.converged
        assert sol.residual <= 2e-9
        assert sol.clamp_low == 0 and sol.clamp_high == 0
        # stored arrays reproduce the reported residual on the default grid
        P = _PinnedMap(sol.model, sol.c, SolverOptions())
        assert np.max(np.abs(P(sol.phi) - sol.phi)) <= 2.0 * sol.residual + 1e-12


def test_one_kernel_scan_per_map_application(kpp_h1, monkeypatch):
    # a sub-step translation makes the map re-read its image off the nodes;
    # the chord probes and the accepted read come from the one scan
    from semifront import kernel

    scan, scans = kernel.ScanPlan.scan, []

    def counted(*args, **kwargs):
        scans.append(args[1])
        return scan(*args, **kwargs)

    monkeypatch.setattr(kernel.ScanPlan, "scan", counted)
    P = _PinnedMap(kpp_h1.model, kpp_h1.c, SolverOptions())
    out = P(extended(kpp_h1.t + 1.3 * kpp_h1.step, kpp_h1.t, kpp_h1.phi, kpp_h1.tail))
    assert len(scans) == 1  # one scan gives the forward and the backward branch
    i0 = int(np.argmin(np.abs(kpp_h1.t)))
    assert abs(out[i0] - 0.5 * kpp_h1.model.kappa) <= 1e-12


def test_one_convolve_call_per_map_application(kpp_h1, monkeypatch):
    # the benchmark's trace wraps profile.convolve and reads the grid size
    # from its second argument: kernel.convolve.calls must stay
    # profile.iterations + profile.solves (one call per map application,
    # one for the final bookkeeping)
    conv, grids = profile_mod.convolve, []

    def counted(*args, **kwargs):
        grids.append(args[1])
        return conv(*args, **kwargs)

    monkeypatch.setattr(profile_mod, "convolve", counted)
    sol = solve_profile(kpp_h1.model, kpp_h1.c)
    assert len(grids) == sol.iterations + 1
    assert all(len(g) == sol.t.size for g in grids)


def _record_map_inputs(monkeypatch) -> list:
    """Record a copy of each array ``_PinnedMap.__call__`` receives."""
    mapped, inputs = _PinnedMap.__call__, []

    def recorded(self, phi):
        inputs.append(phi.copy())
        return mapped(self, phi)

    monkeypatch.setattr(_PinnedMap, "__call__", recorded)
    return inputs


def test_no_iterate_is_mapped_twice_in_a_row(monkeypatch):
    # the hand-over step's image is Anderson's first residual: no step maps
    # the iterate its predecessor just mapped
    inputs = _record_map_inputs(monkeypatch)
    sol = solve_profile(builtin_kpp(1.0), 2.5)
    assert len(inputs) == sol.iterations
    assert not any(np.array_equal(a, b) for a, b in zip(inputs, inputs[1:]))


def test_hand_over_step_is_the_first_anderson_update(kpp_h2, monkeypatch):
    # accel_iter = 2 allows the hand-over step's update and one more, so a
    # solve that hands over at its k-th map application maps k + 1 times,
    # along the iterates of the default budget
    inputs = _record_map_inputs(monkeypatch)
    sol = solve_profile(kpp_h2.model, kpp_h2.c, SolverOptions(accel_iter=2))
    switch = profile_mod.SWITCH_RES * max(1.0, kpp_h2.model.kappa)
    k = next(j for j, r in enumerate(sol.residual_history, 1) if r <= switch)
    assert len(inputs) == sol.iterations == k + 1
    assert sol.residual_history[:-1] == kpp_h2.residual_history[: k + 1]


def test_map_outputs_are_not_overwritten_by_later_calls(kpp_h1):
    # the map's buffers are scratch only: a convolution A(phi) and a pinned
    # image keep their values through later applications of the map
    P = _PinnedMap(kpp_h1.model, kpp_h1.c, SolverOptions())
    a, b = (extended(kpp_h1.t + s * kpp_h1.step, kpp_h1.t, kpp_h1.phi, kpp_h1.tail) for s in (1.3, -0.6))
    conv = P.raw(a)
    pinned = P.pin(conv)
    arrays = (conv.src, conv.fwd, conv.bwd, conv.values, pinned)
    kept = [x.copy() for x in arrays]
    P.pin(P.raw(b))
    P(b)
    assert all(np.array_equal(x, y) for x, y in zip(arrays, kept))
    assert not np.array_equal(P(b), pinned)


def test_delayed_reads_keep_their_own_buffers():
    # a reaction takes all its reads before it combines them: with two
    # delayed lags, neither read may overwrite the other's values
    m = model_from_config({
        "name": "custom", "h": 1.0, "eval_points": [0.0, -0.5, -1.0],
        "expr": "u0 * (1.0 - 0.5 * u1 - 0.5 * u2)", "atoms": [[0.0, 1.0]], "kappa": 1.0,
    })
    P = _PinnedMap(m, 2.5, SolverOptions(step=0.05, t_plus=20.0))
    phi = P.seed()
    tail = P.tail_of(phi)
    ref = m.react(lambda s: P.reads[s](phi, tail).copy())
    assert np.array_equal(m.react(lambda s: P.reads[s](phi, tail)), ref)


@pytest.mark.parametrize("critical", [False, True])
def test_default_seed_is_the_harness_tail(critical):
    # the solver's seed is the harness's tail(1.0), tail_start at scale 1
    # and shift 0, bit for bit; at c* it carries the (width - t) prefactor,
    # and both equal the formulas as written before they shared tail_start
    m = builtin_kpp(1.0)
    c = critical_speed(m)[0] if critical else 2.5
    P = _PinnedMap(m, c, SolverOptions())
    assert P.critical == critical
    t, kappa, lam = P.t, m.kappa, P.lam
    tail = tail_start(t, kappa, lam, 1.0, 0.0)
    factor = 1.0 - np.minimum(t, 0.0) * lam / 5.0 if critical else 1.0
    assert np.array_equal(P.seed(), tail * factor)
    assert np.array_equal(P.seed(), np.minimum(kappa, 0.5 * kappa * np.exp(lam * t) * factor))
    assert np.array_equal(tail, np.minimum(kappa, 0.5 * kappa * np.exp(lam * t)))


def test_iterates_are_the_same_when_the_map_returns_copies(monkeypatch):
    # a map that hands back copies cannot alias anything the solver keeps
    # (Anderson's previous iterate and residual, the best iterate): the
    # solve from a harness start whose Anderson stage outlasts the ring's
    # depth takes the same iterates bit for bit
    m, c = builtin_kpp(2.0), 2.5
    opts = SolverOptions(tol=1e-9, accel_iter=3000, t_plus=120.0)
    P = _PinnedMap(m, c, opts)
    guess = _harness_seeds(5, P.t, P.lam, m.kappa, np.random.default_rng(0))[4]
    run = dataclasses.replace(opts, initial_phi=guess)
    sol = solve_profile(m, c, run)
    damped = next(j for j, r in enumerate(sol.residual_history) if r <= profile_mod.SWITCH_RES) + 1
    assert sol.converged and sol.iterations - damped > profile_mod.ACCEL_DEPTH
    mapped = _PinnedMap.__call__
    monkeypatch.setattr(_PinnedMap, "__call__", lambda self, phi: mapped(self, phi).copy())
    ref = solve_profile(m, c, run)
    assert np.array_equal(sol.phi, ref.phi) and sol.iterations == ref.iterations
    assert sol.residual == ref.residual and sol.drift == ref.drift
    assert sol.residual_history == ref.residual_history


def pair_test_crossing(v, level):
    idx = np.flatnonzero((v[:-1] < level) & (v[1:] >= level))
    return int(idx[0]) if idx.size else None


def test_first_up_crossing_matches_pair_test():
    rng = np.random.default_rng(7)
    cases = [rng.uniform(0.0, 1.0, n) for n in (2, 3, 10, 1000) for _ in range(50)]
    cases += [
        np.array([0.7, 0.2, 0.1, 0.6]),  # starts above: the pair test decides
        np.array([0.5, 0.5, 0.2, 0.5]),  # starts on the level
        np.array([0.1, 0.2, 0.3, 0.4]),  # no crossing from below
        np.array([0.9, 0.8, 0.7, 0.6]),  # no crossing from above
        np.array([0.1, 0.2, 0.3, 0.5]),  # crossing in the last cell
        np.array([0.6, 0.1, 0.2, 0.5]),  # above, then in the last cell
    ]
    for v in cases:
        assert first_up_crossing(v, 0.5) == pair_test_crossing(v, 0.5)


def _crossing_formulas(x, dx, v, level):
    """The interpolated crossings up_crossing replaced: the uniqueness
    alignment's and the moving frame's (one formula), and front tracking's
    on nodes ``dx`` apart."""
    i = first_up_crossing(v, level)
    if i is None:
        return None, None
    frac = (level - v[i]) / (v[i + 1] - v[i])
    return float(x[i] + frac * (x[i + 1] - x[i])), float(x[i] + dx * (level - v[i]) / (v[i + 1] - v[i]))


@pytest.mark.parametrize(
    "v, where",
    [
        (np.array([0.1, 0.2, 0.45, 0.7, 0.9, 0.4]), "interior"),
        (np.array([0.1, 0.2, 0.3, 0.4, 0.6]), "last cell"),
        (np.array([0.7, 0.2, 0.1, 0.3, 0.8]), "start above"),
        (np.array([0.5, 0.1, 0.35, 0.9, 0.2]), "start on the level"),
        (np.array([0.1, 0.2, 0.3, 0.4, 0.45]), "none from below"),
        (np.array([0.9, 0.8, 0.7, 0.6, 0.55]), "none from above"),
    ],
)
def test_up_crossing_matches_replaced_formulas(v, where):
    for x0, dx in ((-3.7, 0.1), (80.0, 0.02)):
        x = x0 + dx * np.arange(v.size)
        got, (interp, tracked) = up_crossing(x, v, 0.5), _crossing_formulas(x, dx, v, 0.5)
        if where.startswith("none"):
            assert got is None and interp is None
            continue
        i = first_up_crossing(v, 0.5)
        assert x[i] <= got <= x[i + 1]
        for ref in (interp, tracked):
            assert abs(got - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("h, critical", [(2.0, False), (1.0, True)])
def test_pin_clamps_like_clip_then_pin(h, critical, monkeypatch):
    # an image below the floor in the tail and above the ceiling behind the
    # front: clamping only the nodes the pin reads gives what clamping the
    # whole image first gives, on sub-step and whole-step translations; the
    # nodes a whole-step translation exposes read the clamped image's tail
    # closure and last node exactly as its extension past the grid does,
    # checked also with the default floor, which leaves the tail unclamped
    m = builtin_kpp(h)
    c = critical_speed(m)[0] if critical else 2.5
    base = solve_profile(m, c, SolverOptions(tol=1e-6))
    bounded = dataclasses.replace(m, bound=1.0 + 0.5 * (np.max(base.phi) - 1.0))
    unclamped = _PinnedMap(m, c, SolverOptions())
    monkeypatch.setattr(profile_mod, "CLAMP_FLOOR", 1e-3)
    P = _PinnedMap(bounded, c, SolverOptions())
    filled = set()
    for shift in (1.3, -2.7, 0.4, 3.0, -3.0):
        conv = P.raw(extended(base.t + shift * base.step, base.t, base.phi, base.tail))
        assert np.any(conv.values < P.floor) and np.any(conv.values > P.ceil)
        clipped = dataclasses.replace(conv, values=np.clip(conv.values, P.floor, P.ceil))
        assert np.array_equal(P.pin(conv), P.pin(clipped))
        # a crossing exactly on node j is a whole-step translation by n nodes
        v = conv.values.copy()
        j = first_up_crossing(v, 0.5) + 1
        v[j] = 0.5
        on_node = dataclasses.replace(conv, values=v)
        out = P.pin(on_node)
        n, size = j - P.i_zero, v.size
        lo, hi = max(0, -n), min(size, size - n)
        vc = np.clip(v, P.floor, P.ceil)
        assert np.array_equal(out[lo:hi], vc[lo + n : hi + n])
        assert np.array_equal(out, P.pin(dataclasses.replace(on_node, values=vc)))
        # the pin's chord through nodes j-1 and j, which neither clamp moves
        tc = float(P.t[j - 1]) + (0.5 - v[j - 1]) / ((0.5 - v[j - 1]) / P.step)
        for Q in (P, unclamped):
            out, vc = Q.pin(on_node), Q.clip(v)
            ref = extended(Q.t + tc, Q.t, vc, Q.tail_of(vc))
            assert np.array_equal(out[:lo], ref[:lo]) and np.array_equal(out[hi:], ref[hi:])
        filled.update({"head"} if lo else (), {"right"} if hi < size else ())
    assert filled == {"head", "right"}


def test_clamp_counts_are_those_of_the_final_raw_image(kpp_h2, monkeypatch):
    m = dataclasses.replace(kpp_h2.model, bound=1.0 + 0.5 * (np.max(kpp_h2.phi) - 1.0))
    monkeypatch.setattr(profile_mod, "CLAMP_FLOOR", 1e-3)
    monkeypatch.setattr(profile_mod, "DAMPED_STEPS", 5)
    opts = SolverOptions(accel_iter=5, initial_phi=kpp_h2.phi)
    sol = solve_profile(m, kpp_h2.c, opts)
    P = _PinnedMap(m, sol.c, SolverOptions())
    img = P.raw(sol.phi).values
    assert sol.clamp_low == np.count_nonzero(img < P.floor) > 0
    assert sol.clamp_high == np.count_nonzero(img > P.ceil) > 0


def test_solution_step_is_exact_on_offset_grid(kpp_h1):
    # one node difference at t ~ -80 is ~2e-13 off the step; the span is not
    sol = dataclasses.replace(kpp_h1, t=-80.0 + 0.02 * np.arange(kpp_h1.t.size))
    assert sol.step == pytest.approx(0.02, rel=1e-15)


def test_pinned_at_half_kappa(kpp_h0, kpp_h2, nich):
    # the recentering evaluates the convolution exactly at the shifted
    # nodes, so the crossing lands on kappa/2 far below solver tolerance
    for sol in (kpp_h0, kpp_h2, nich):
        i0 = int(np.argmin(np.abs(sol.t)))
        assert sol.t[i0] == 0.0  # grid is built on exact step multiples
        assert abs(sol.phi[i0] - sol.model.kappa / 2) <= 1e-12 * sol.model.kappa


def test_pin_searches_a_head_then_the_whole_image(kpp_h2):
    # a pinned iterate's image crosses kappa/2 inside the head, and the pin
    # forms no other node value; a start translated 30 units right crosses
    # past the head; either pins exactly as a search of the whole image does
    m, c = kpp_h2.model, kpp_h2.c
    P, whole = _PinnedMap(m, c, SolverOptions()), _PinnedMap(m, c, SolverOptions())
    whole.head = slice(None)
    for shift, in_head in ((0.0, True), (30.0, False)):
        phi = extended(kpp_h2.t - shift, kpp_h2.t, kpp_h2.phi, kpp_h2.tail)
        conv = P.raw(phi)
        pinned = P.pin(conv)
        assert (conv.__dict__["values"] is None) == in_head
        assert (first_up_crossing(conv.values, 0.5 * m.kappa) + 1 < P.head.stop) == in_head
        assert np.array_equal(pinned, whole.pin(whole.raw(phi)))


def test_residual_history_shrinks(kpp_h1):
    assert len(kpp_h1.residual_history) == kpp_h1.iterations + 1
    assert kpp_h1.residual_history[-1] < kpp_h1.residual_history[0]


def test_critical_run_converges(kpp_crit):
    roots = real_roots(kpp_crit.model, kpp_crit.c)
    assert roots.critical
    assert abs(kpp_crit.lambda1 - 1.0) <= 1e-6
    assert kpp_crit.lambda1 == roots.lambda1 == roots.lambda2
    assert kpp_crit.converged and kpp_crit.residual <= 2e-9


# the damped weight: each bound fails when one part of its rule is dropped


def test_damped_weight_starts_undamped(kpp_h2):
    # 63 iterations; a fixed weight BETA = 0.5 took 123
    assert kpp_h2.converged and kpp_h2.iterations <= 80


def test_damped_weight_rises_slowly():
    # 133 iterations; a weight that jumps back up to its target takes 518
    sol = solve_profile(builtin_kpp(2.5), 2.25)
    assert sol.converged and sol.iterations <= 250


def test_damped_weight_latches_at_beta_once_a_mode_oscillates():
    # 231 iterations; without the latch the weight keeps probing and takes 692
    sol = solve_profile(builtin_kpp(3.0), 2.5)
    assert sol.converged and sol.iterations <= 250


# ------------------------------------------------------------ front shapes


def test_small_delay_monotone():
    sol = solve_profile(builtin_kpp(0.1), 2.5)
    assert sol.converged
    assert np.min(np.diff(sol.phi)) >= -1e-12
    assert detect_oscillation(sol)[1] <= 1


def test_large_delay_oscillates(kpp_h2):
    assert detect_oscillation(kpp_h2)[1] >= 2
    assert np.max(kpp_h2.phi) > kpp_h2.model.kappa


def test_sup_below_model_bound(kpp_h0, kpp_h1, kpp_h2, nich):
    for sol in (kpp_h0, kpp_h1, kpp_h2, nich):
        assert np.max(sol.phi) <= sol.model.bound


# ------------------------------------------------------- oracle comparison


def test_matches_shooting_oracle(kpp_h0):
    reference = kpp_front_no_delay(2.5, kpp_h0.t)
    assert float(np.max(np.abs(reference - kpp_h0.phi))) <= 1e-4


def test_error_drops_second_order_in_step():
    errs = []
    for step in (0.04, 0.02):
        sol = solve_profile(builtin_kpp(0.0), 2.5, SolverOptions(step=step))
        reference = kpp_front_no_delay(2.5, sol.t)
        errs.append(float(np.max(np.abs(reference - sol.phi))))
    assert 2.5 <= errs[0] / errs[1] <= 6.5


# ---------------------------------------------------------------- dphi


def test_derivative_zero_at_equilibrium():
    # the accumulators of the constant state are constant, so the
    # convolution's derivative read from them vanishes
    m = builtin_kpp(0.5)
    assert np.max(np.abs(_equilibrium_convolution(m).derivative())) <= 1e-14 * m.kappa


def test_derivative_matches_finite_differences(kpp_h1):
    fd = np.gradient(kpp_h1.phi, kpp_h1.t, edge_order=2)
    assert np.max(np.abs(fd - kpp_h1.dphi)[5:-5]) <= 5e-5


def test_derivative_of_oscillating_profile_to_the_right_edge():
    # kpp h=2 never settles to kappa: its reaction does not vanish at the
    # right edge, and a derivative that froze it there beyond the grid was
    # off by 6e-2 over the last units
    opts = SolverOptions(tol=1e-9, accel_iter=3000, t_plus=120.0)
    sol = solve_profile(builtin_kpp(2.0), 2.5, opts)
    fd = np.gradient(sol.phi, sol.t, edge_order=2)
    assert sol.converged
    assert np.max(np.abs(fd - sol.dphi)[5:]) <= 5e-3


def test_derivative_tail_rate(kpp_h1):
    # deep in the tail phi ~ e^{lambda1 t}, so dphi/phi ~ lambda1
    ratio = kpp_h1.dphi[10] / kpp_h1.phi[10]
    assert abs(ratio - kpp_h1.lambda1) <= 1e-4 * kpp_h1.lambda1


# ----------------------------------------------------- gauge and restarts


def test_shifted_restart_lands_on_same_profile(kpp_h1):
    shifted = extended(kpp_h1.t + 1.5, kpp_h1.t, kpp_h1.phi, kpp_h1.tail)
    again = solve_profile(
        builtin_kpp(1.0), 2.5, SolverOptions(initial_phi=shifted)
    )
    assert float(np.max(np.abs(again.phi - kpp_h1.phi))) <= 1e-4


def test_evaluate_extends_both_sides(kpp_h1):
    # the solution extends past its grid by its tail and its last node,
    # which the reference read of the oracles returns there
    t, phi, tail = kpp_h1.t, kpp_h1.phi, kpp_h1.tail
    assert np.allclose(extended(t, t, phi, tail), phi)
    expected = tail.value * math.exp(-2.0 * kpp_h1.lambda1)
    left, right = extended([t[0] - 2.0, t[-1] + 5.0], t, phi, tail)
    assert abs(tail.at(-2.0) - expected) <= 1e-12 and abs(left - expected) <= 1e-12
    assert right == phi[-1]


# ------------------------------------------------------------- bad inputs


def test_subcritical_speed_rejected():
    with pytest.raises(SubcriticalError):
        solve_profile(builtin_kpp(0.0), 1.5)
    with pytest.raises(SubcriticalError):
        solve_profile(builtin_nicholson(1.0, 2.0), 0.5 * NICH_C_STAR)


def test_seed_shape_checked():
    with pytest.raises(ValueError):
        solve_profile(
            builtin_kpp(0.0), 2.5, SolverOptions(initial_phi=np.ones(7))
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_seed_must_be_finite(kpp_h1, bad):
    # a NaN seed used to reach Anderson's least squares, an infinite one the clip
    seed = kpp_h1.phi.copy()
    seed[100] = bad
    with pytest.raises(ValueError, match="finite"):
        solve_profile(builtin_kpp(1.0), 2.5, SolverOptions(initial_phi=seed))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the expression's log of a negative number
def test_non_finite_image_raises_at_its_iteration():
    # log(u1 - 0.5) is NaN wherever the delayed value is below 0.5: a NaN
    # residual is not above the hand-over level, so it used to reach
    # Anderson's least squares and fail there as a LinAlgError
    m = _logistic_config(1.0, 1.0, expr="u0 * (1.0 - u1) + 0.0*log(u1 - 0.5)")
    with pytest.raises(FloatingPointError, match="image at iteration 0 is not finite"):
        solve_profile(m, 2.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step": 0.0},
        {"step": -0.1},
        {"tol": 0.0},
        {"t_plus": 0.0},
        {"t_minus": 3.0},
        # the loop's test len(history) < budget is False for NaN, so a NaN
        # budget returned the seed unconverged; inf never ends a solve that
        # does not converge, and a fraction is no count of steps
        {"accel_iter": math.nan},
        {"accel_iter": -1},
        {"accel_iter": math.inf},
        {"accel_iter": 2.5},
    ],
)
def test_options_validated(kwargs):
    (key,) = kwargs
    with pytest.raises(ValueError, match=f"^{key} must "):
        SolverOptions(**kwargs)


@pytest.mark.parametrize("key, message", [
    ("step", "step must be positive"),
    ("t_plus", "t_plus must exceed one step"),
    ("t_minus", "t_minus must be below -step"),
    ("tol", "tol must be positive"),
])
def test_nan_options_refused(key, message):
    # every check used to read x <= 0, which a NaN passes: a NaN tol ran
    # the whole budget, a NaN step failed later converting NaN to int; an
    # infinite tol took the seed as converged, an infinite edge overflowed
    for bad in (math.nan, -math.inf if key == "t_minus" else math.inf):
        with pytest.raises(ValueError, match=f"^{message} and (be )?finite$"):
            SolverOptions(**{key: bad})


def test_zero_budgets_are_valid(monkeypatch):
    # a zero budget skips its stage: only the final bookkeeping maps phi
    monkeypatch.setattr(profile_mod, "DAMPED_STEPS", 0)
    opts = SolverOptions(step=0.05, t_plus=20.0, accel_iter=0)
    sol = solve_profile(builtin_kpp(0.0), 2.5, opts)
    assert sol.iterations == 0 and len(sol.residual_history) == 1


def test_budget_bound_solve_ends_on_its_best_iterate(monkeypatch):
    # 13 Anderson steps from the seed leave kpp h=2 on a worse iterate than
    # an earlier one: the solve reports the earlier iterate, remapped
    monkeypatch.setattr(profile_mod, "DAMPED_STEPS", 0)
    sol = solve_profile(builtin_kpp(2.0), 2.5, SolverOptions(accel_iter=13))
    loop = sol.residual_history[:-1]
    assert not sol.converged and len(loop) == 13
    assert sol.residual == min(loop) < loop[-1]


def test_explicit_left_edge_keeps_zero_a_node():
    P = _PinnedMap(builtin_kpp(1.0), 2.5, SolverOptions(t_minus=-30.0))
    assert P.t[0] == pytest.approx(-30.0, abs=1e-12)
    assert P.t[P.i_zero] == 0.0


# ------------------------------------------------------ iteration pieces


def _logistic_config(h, K, expr=None):
    """kpp's logistic reaction rescaled to equilibrium K, as a config model."""
    return model_from_config({
        "name": "custom",
        "h": h,
        "eval_points": [0.0, -h],
        "expr": expr or f"u0 * (1.0 - u1 / {K!r})",
        "atoms": [[0.0, 1.0]],
        "q": 0.0,
        "kappa": K,
        "smoothness": [1.0, 1.0, 1.0],
        "bound": K * builtin_kpp(h).bound,
    })


@pytest.mark.parametrize(
    "m, c",
    [
        (builtin_kpp(2.0), 2.5),  # -5.0 is exactly 250 steps
        (builtin_kpp(1.0), 2.51),  # half a step off the nodes
        (builtin_nicholson(1.0, 2.0), NICH_C_STAR + 0.5),
        (_logistic_config(1.0, 10.0), 2.37),
    ],
)
def test_delay_reads_match_interpolation(m, c):
    P = _PinnedMap(m, c, SolverOptions())
    phi = P.seed()
    tail = P.tail_of(phi)
    for s, read in P.reads.items():
        ref = extended(P.t + c * s, P.t, phi, tail)
        assert np.max(np.abs(read(phi, tail) - ref)) <= 1e-14 * max(1.0, m.kappa)
    assert P.reads[0.0](phi, tail) is phi  # s = 0 reads phi itself


def test_delay_read_critical_tail():
    m = builtin_kpp(1.0)
    c_star, _ = critical_speed(m)
    P = _PinnedMap(m, c_star, SolverOptions())
    phi = P.seed()
    tail = P.tail_of(phi)
    assert P.critical and tail.slope < 0.0
    ref = extended(P.t - c_star, P.t, phi, tail)
    assert np.max(np.abs(P.reads[-1.0](phi, tail) - ref)) <= 1e-14


@pytest.mark.parametrize("d", [0.37, 0.04, -0.013, -7.0, 95.0, -95.0])
def test_delay_read_any_shift(d):
    # right clamp (d > 0), a whole-step forward shift, a sub-step shift,
    # and shifts that move the whole grid past either edge
    t = 0.02 * np.arange(-2000, 2001)
    phi = 3.0 / (1.0 + np.exp(-t)) + 0.1 * np.sin(t)
    tail = LeftTail(float(phi[0]), 0.8, -0.2)
    ref = extended(t + d, t, phi, tail)
    assert np.max(np.abs(ShiftedRead(t, d)(phi, tail) - ref)) <= 3e-14


def test_scan_shift_picks_as_the_exhaustive_scan():
    # random distance tables with ties, inf and NaN entries: given a distance
    # that returns a random value above the bound wherever it may, the
    # pruning scan picks the shift and distance of the exhaustive scan
    rng = np.random.default_rng(11)
    coarse, fine = 1.0 * np.arange(-10, 11), 0.1 * np.arange(-10, 11)
    pools = ([1.0, 2.0, 3.0], [0.5, 1.0, math.inf], [1.0, 2.0, math.nan], [math.inf], [math.nan, 1.0, 0.0, -0.0])
    pruned = 0
    for trial in range(400):
        table = dict(zip(range(-110, 111), rng.choice(pools[trial % len(pools)], 221).tolist()))
        calls = []

        def exact(s):  # the table entry at s, in tenths
            return table[round(float(s) * 10)]

        def bounded(s, bound):
            nonlocal pruned
            calls.append((float(s), bound))
            d = exact(s)
            if not d > bound:  # a NaN, a tie or a lower distance: exact
                return d
            pruned += 1
            return float(rng.choice([d, np.nextafter(bound, math.inf), 2.0 * d - bound]))

        got, ref = scan_shift(bounded, 0.0, coarse, fine), scan_shift_exhaustive(exact, 0.0, coarse, fine)
        assert got[0] == ref[0] and (got[1] == ref[1] or math.isnan(got[1]) and math.isnan(ref[1]))
        # each scan scores its offset 0 first, with no bound
        assert len(calls) == 42 and calls[0] == (0.0, math.inf) and calls[21][1] == math.inf
    assert pruned > 1000


def test_gram_step_matches_tall_least_squares():
    rng = np.random.default_rng(7)
    n, cols, beta = 800, 6, 0.5
    ring = _AndersonRing(n, cols, beta)
    dx, df = rng.standard_normal((n, cols)), rng.standard_normal((n, cols))
    xs, fs = [np.zeros(n)], [rng.standard_normal(n)]
    for j in range(cols):  # steps whose differences are dx and df, up to rounding
        xs.append(xs[-1] + dx[:, j])
        fs.append(fs[-1] + df[:, j])
    for x, f in zip(xs, fs):
        ring.step(x, f, np.empty(n))
    ref = np.linalg.lstsq(ring.dF, fs[-1], rcond=None)[0]
    assert np.max(np.abs(ring.gamma - ref)) <= 1e-12 * np.max(np.abs(ref))
    for j in range(cols):
        assert np.array_equal(ring.dF[:, j], fs[j + 1] - fs[j])
        assert np.array_equal(ring.C[:, j], beta * ring.dF[:, j] + xs[j + 1] - xs[j])
        assert np.max(np.abs(ring.dF[:, j] - df[:, j])) <= 1e-14


def test_gram_matrix_follows_ring_wraparound(monkeypatch):
    rings = []

    class Counted(_AndersonRing):
        def __init__(self, *args):
            super().__init__(*args)
            self.steps = []
            rings.append(self)

        def step(self, x, f, work):
            self.steps.append((x, f))  # the solver writes neither later
            return super().step(x, f, work)

    monkeypatch.setattr(profile_mod, "_AndersonRing", Counted)
    monkeypatch.setattr(profile_mod, "ACCEL_DEPTH", 6)
    sol = solve_profile(builtin_kpp(1.0), 2.5)
    (ring,) = rings
    k, steps = ring.filled, ring.steps
    pushes = len(steps) - 1  # the first step finds no earlier iterate
    assert sol.converged and k == ring.G.shape[0] and pushes > 2 * k
    gram = ring.dF[:, :k].T @ ring.dF[:, :k]
    assert np.max(np.abs(ring.G[:k, :k] - gram)) <= 1e-13 * np.max(np.abs(gram))
    # after the wraparound, each column holds its step's differences, C = dX + beta dF
    for j in range(len(steps) - k, len(steps)):
        (x_prev, f_prev), (x, f) = steps[j - 1], steps[j]
        col = (j - 1) % k
        assert np.array_equal(ring.dF[:, col], f - f_prev)
        assert np.array_equal(ring.C[:, col], profile_mod.BETA * ring.dF[:, col] + x - x_prev)


# ------------------------------------------------------- metamorphic models


@pytest.mark.parametrize("K", [10.0, 0.1])
def test_kappa_scaling(kpp_h1, K):
    # u0*(1 - u1/K) maps onto kpp by phi -> phi/K; tol is absolute, so the
    # scaled solve stops at a residual relative to K that differs from kpp's
    sol = solve_profile(_logistic_config(1.0, K), 2.5)
    assert sol.converged and sol.t.shape == kpp_h1.t.shape
    assert np.max(np.abs(sol.phi - K * kpp_h1.phi)) <= 1e-7 * max(1.0, K)


def test_builtin_kpp_equals_custom_config(kpp_h1):
    sol = solve_profile(_logistic_config(1.0, 1.0, expr="u0 * (1.0 - u1)"), 2.5)
    assert sol.iterations == kpp_h1.iterations
    assert np.array_equal(sol.phi, kpp_h1.phi)


# ---------------------------------------------------------- random speeds


@settings(max_examples=6, deadline=None)
@given(
    h=st.floats(min_value=0.0, max_value=1.2),
    dc=st.floats(min_value=0.2, max_value=1.0),
)
def test_supercritical_solves_converge(h, dc):
    m = builtin_kpp(h)
    c_star, _ = critical_speed(m)
    sol = solve_profile(m, c_star + dc, SolverOptions(tol=1e-8))
    assert sol.converged
    assert sol.residual <= 2e-8
    assert np.max(sol.phi) <= m.bound
    assert np.all(sol.phi >= 0.0)
