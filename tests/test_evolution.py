import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest

from semifront import evolution, kernel
from semifront.evolution import (
    EvolutionState,
    _resolvent,
    front_speed,
    moving_frame_gap,
    step_init,
    tail_seed,
)
from semifront.model import builtin_kpp
from semifront.profile import solve_profile


def flat(value):
    return lambda x: np.full_like(np.asarray(x, dtype=float), value)


# ------------------------------------------------------------- equilibria


def test_equilibria_are_exact_fixed_points():
    m = builtin_kpp(1.0)
    top = EvolutionState(m, -5, 5, 0.1, flat(m.kappa), bc=(m.kappa, m.kappa))
    bottom = EvolutionState(m, -5, 5, 0.1, flat(0.0), bc=(0.0, 0.0))
    for _ in range(60):
        top.step()
        bottom.step()
    assert np.array_equal(top.u, np.full(top.x.size, m.kappa))
    assert np.array_equal(bottom.u, np.zeros(bottom.x.size))


def test_small_perturbation_stays_bounded():
    m = builtin_kpp(0.3)
    bump = lambda x: m.kappa + 0.1 * np.exp(-np.asarray(x) ** 2)
    st = EvolutionState(m, -10, 10, 0.1, bump, bc=(m.kappa, m.kappa))
    hi = 0.0
    while st.t < 2.0:
        st.step()
        hi = max(hi, float(np.max(st.u)))
    assert hi <= m.bound
    assert np.all(st.u >= 0.0)


# ------------------------------------------------------------- validation


@pytest.mark.parametrize("ratio", [0.6, 100.0])
def test_steps_past_the_explicit_bound_stay_bounded(ratio):
    # dt = 0.6 dx^2 broke the explicit stepper's bound dx^2/2; the implicit
    # diffusion takes it, and a step 100 dx^2 long, bounded and nonnegative
    m = builtin_kpp(1.0)
    st = EvolutionState(m, -20, 10, 0.1, tail_seed(m.kappa, 0.5), dt=ratio * 0.1**2)
    while st.t < 3.0:
        st.step()
        assert np.all(st.u >= 0.0) and np.max(st.u) <= m.bound


@pytest.mark.parametrize("dt", [0.0, -0.01])
def test_nonpositive_step_rejected(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        EvolutionState(builtin_kpp(0.0), -5, 5, 0.1, flat(0.0), dt=dt)


def test_state_limit_counts_every_node_and_ring_row(monkeypatch):
    # [-25, 25] at dx 0.5 has 101 nodes, and h = 1 at dt = 0.03 keeps
    # ceil(h/dt) + 1 = 35 ring rows: 3,535 values, above a limit of 3,500
    monkeypatch.setattr(evolution, "MAX_STATE_VALUES", 3500)
    m = builtin_kpp(1.0)
    with pytest.raises(ValueError, match="the state would hold 3535 node x history-row values, above 3500"):
        EvolutionState(m, -25.0, 25.0, 0.5, flat(0.0), dt=0.03)
    monkeypatch.setattr(evolution, "MAX_STATE_VALUES", 3535)
    st = EvolutionState(m, -25.0, 25.0, 0.5, flat(0.0), dt=0.03)
    assert st._ring.shape == (35, 101)


def test_bad_grid_and_data_rejected():
    m = builtin_kpp(0.0)
    with pytest.raises(ValueError):
        EvolutionState(m, 0.0, 0.5, 0.1, flat(0.0))  # under ten cells
    with pytest.raises(ValueError):
        EvolutionState(m, -5, 5, 0.1, lambda x: np.zeros(7))  # wrong sample count
    with pytest.raises(ValueError):
        tail_seed(1.0, 0.0)


def test_history_domain_enforced():
    m = builtin_kpp(1.0)
    st = EvolutionState(m, -5, 5, 0.1, flat(0.5))
    with pytest.raises(ValueError):
        st.history(0.1)
    with pytest.raises(ValueError):
        st.history(-m.h - 0.1)
    assert np.array_equal(st.history(-m.h), st.history(0.0))  # constant start


# ------------------------------------------------------------ the step


@pytest.mark.parametrize(
    "nu", [1e-3, 2.0 * 0.025 / (3 * 0.1**2), 0.025 / 0.1**2, 100.0], ids=["tiny", "sbdf2", "euler", "large"]
)
@pytest.mark.parametrize("n", [11, 1101])
def test_resolvent_solves_the_implicit_diffusion(nu, n):
    # (I - nu D2) d = rhs at every node, d held at 0 at the ghost nodes, to
    # rounding in the terms; the nus are tiny, the default step's SBDF2 and
    # backward Euler ones at dx = 0.1, and large
    rhs = np.random.default_rng(7).uniform(-1.0, 1.0, n)
    d = np.concatenate(([0.0], _resolvent(n, nu)(rhs), [0.0]))
    res = (1.0 + 2.0 * nu) * d[1:-1] - nu * (d[:-2] + d[2:]) - rhs
    terms = (1.0 + 2.0 * nu) * np.abs(d[1:-1]) + nu * (np.abs(d[:-2]) + np.abs(d[2:])) + np.abs(rhs)
    assert np.max(np.abs(res) / terms) <= 1e-14


def test_reaction_that_returns_its_argument():
    # SBDF2 keeps f^n for the next step; a reaction that hands back the
    # ring's own row must step like one that returns a copy of it
    fields = []
    for f in (lambda v0: v0, lambda v0: v0 + 0.0):
        m = dataclasses.replace(builtin_kpp(0.0), eval_points=(0.0,), f_pointwise=f)
        st = EvolutionState(m, -5, 5, 0.1, tail_seed(m.kappa, 0.5))
        for _ in range(5):
            st.step()
        fields.append(st.u.copy())
    assert np.array_equal(fields[0], fields[1])


def test_fine_grid_keeps_its_boundary_values():
    # nu = 41.7: an increment left free past the grid's ends (the resolvent
    # on Z alone) clamped nodes from the first step and drove the right
    # boundary from kappa to 2.98 within 100 steps
    m = builtin_kpp(0.0)
    st = EvolutionState(m, -10, 10, 0.02, tail_seed(m.kappa, 0.5))
    for _ in range(100):
        st.step()
    assert st.clamped == 0
    assert abs(st.u[-1] - m.kappa) <= 1e-6 and np.max(st.u) <= m.kappa + 1e-6


def test_second_order_in_time():
    # the field at t = 2 (past the delay's kink at t = h) against a run at
    # dt/8: the gap falls ~4x per halving of dt
    m = builtin_kpp(1.0)

    def field(dt):
        st = EvolutionState(m, -40, 20, 0.1, tail_seed(m.kappa, 0.5), dt=dt)
        for _ in range(round(2.0 / dt)):
            st.step()
        return st.u.copy()

    gaps = [np.max(np.abs(field(dt) - field(dt / 8))) for dt in (0.1, 0.05)]
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5


@pytest.mark.parametrize("t_run, dt", [(18.0, None), (1.0, 0.03)], ids=["default", "partial-step"])
def test_clock_is_the_step_count_times_dt(t_run, dt):
    # a running sum t += dt read t_final 18.000000000000046 after 18 units
    m = builtin_kpp(1.0)
    run = front_speed(m, tail_seed(m.kappa, 0.5), -80.0, 30.0, 0.1, t_run, dt=dt)
    dt = evolution.DT if dt is None else dt
    steps = math.ceil(t_run / dt)
    assert run.t_final == steps * dt
    every = round(evolution.SAMPLE_DT / dt)
    assert run.times.tolist() == [k * dt for k in range(1, steps + 1, every)]


def test_step_count_and_ring_do_not_depend_on_dx(monkeypatch):
    # EvolutionState.step wrapped as perfbench counts it: a default run takes
    # t_run/dt steps whatever dx, each with one scan of the kernel's
    # recurrence over its forward and its backward pass (every other scan
    # is a carry of such a scan), and holds ceil(h/dt) + 1 ring rows
    steps, scans = [], []
    step, scan = EvolutionState.step, kernel.Recurrence.scan

    def counted_step(state):
        step(state)
        steps.append((state.x.size, state._ring.shape[0]))

    monkeypatch.setattr(EvolutionState, "step", counted_step)
    monkeypatch.setattr(kernel.Recurrence, "scan", lambda rec, out: scans.append(rec) or scan(rec, out))
    m = builtin_kpp(1.0)
    for dx, nodes in ((0.1, 1101), (0.05, 2201)):
        steps.clear(), scans.clear()
        front_speed(m, tail_seed(m.kappa, 0.5), -80.0, 30.0, dx, 18.0)
        assert steps == [(nodes, 41)] * 720
        top = [rec for rec in scans if rec.n == 2 * nodes]
        carries = set()
        for rec in top:
            while rec.carry is not None:
                rec = rec.carry
                carries.add(id(rec))
        assert len(top) == 720 and carries
        assert all(id(rec) in carries for rec in scans if rec.n != 2 * nodes)


def test_evolution_keeps_no_scan_of_its_own():
    # the only loop in the module is front_speed's loop over time steps
    tree = ast.parse(inspect.getsource(evolution))
    loops = (ast.For, ast.While, ast.comprehension)
    owners = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              for node in ast.walk(f) if isinstance(node, loops)]
    assert owners == ["front_speed"]


# ------------------------------------------------------------ front speed


def test_speed_matches_tail_dispersion():
    # left tail e^{lam x} travels at c(lam) = lam + 1/lam = 2.5 for lam = 0.5
    run = front_speed(builtin_kpp(0.0), tail_seed(1.0, 0.5), -70.0, 25.0, 0.1, 16.0)
    assert not run.exited
    assert run.clamped == 0  # positivity never needed the clamp
    assert run.speed == pytest.approx(2.5, rel=0.02)


def test_steep_data_selects_minimal_speed():
    # compactly supported data converges to the minimal speed 2 (slowly:
    # the level-set rate carries a -3/(2t) transient, hence the long run
    # and the loose band)
    run = front_speed(builtin_kpp(0.0), step_init(1.0), -150.0, 25.0, 0.1, 60.0)
    assert not run.exited
    assert run.speed == pytest.approx(2.0, rel=0.03)


def test_delayed_run_matches_computed_profile():
    m = builtin_kpp(1.0)
    run = front_speed(m, tail_seed(1.0, 0.5), -80.0, 30.0, 0.1, 18.0)
    assert not run.exited
    assert run.speed == pytest.approx(2.5, rel=0.02)
    sol = solve_profile(m, 2.5)
    _, gap = moving_frame_gap(run, sol)
    assert gap <= 5e-2


def test_speed_consistent_across_resolutions():
    m = builtin_kpp(0.0)
    runs = [
        front_speed(m, tail_seed(1.0, 0.5), -60.0, 25.0, dx, 10.0)
        for dx in (0.15, 0.075)
    ]
    assert abs(runs[0].speed - runs[1].speed) <= 0.01 * abs(runs[1].speed)


def test_front_exit_yields_partial_track():
    # the domain is too short for the requested horizon: the run aborts
    # with whatever samples it collected
    run = front_speed(builtin_kpp(0.0), tail_seed(1.0, 0.5), -24.0, 12.0, 0.1, 40.0)
    assert run.exited
    assert run.t_final < 40.0
