"""Direct time-stepping cross-check for computed wave profiles.

The field u(tau, x) obeys  du/dtau = u_xx + f(u_tau(., x))  on a
truncated interval, where the reaction reads each spatial node's
temporal history u(tau + s, x), s in [-h, 0].  A profile phi of speed c
corresponds to the moving solution u(tau, x) = phi(x + c*tau): the wave
runs leftward at speed c, and the co-moving coordinate is xi = x + c*tau
(the profile's own history phi(t + c*s) is the PDE history read along
that change of variables).

SBDF2 (Ascher, Ruuth & Wetton, SIAM J. Numer. Anal. 32, 1995) steps the
central Laplacian implicitly, through the kernel's recurrence, and the
delayed reaction explicitly, so the default dt is set by accuracy, not dx.
Initial data are functions of x; ``tail_seed`` is the solver's tail start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernel import Recurrence
from .model import Model
from .profile import ProfileSolution, scan_shift, tail_start, up_crossing

__all__ = [
    "EvolutionState",
    "FrontRun",
    "front_speed",
    "moving_frame_gap",
    "step_init",
    "tail_seed",
]

MARGIN = 10.0  # distance from either boundary the front and the comparison keep
SAMPLE_DT = 0.05  # time between front-position samples
MIN_SAMPLES = 4  # front samples the speed fit needs
DT = SAMPLE_DT / 2  # default time step, whatever dx
MAX_STATE_VALUES = 40_000_000  # grid nodes x history rows (~320 MB), refused before allocation
MAX_CELL_STEPS = 800_000_000  # ceil(t_run/dt) x max(nodes, MIN_STEP_NODES) cell-steps, <= 47 ns each: under a minute
MIN_STEP_NODES = 2_000  # a step's fixed cost (~25-45 us) in nodes: a small grid is charged at least this


def tail_seed(kappa: float, lam: float, x0: float = 0.0) -> Callable:
    """Step-like initial data min(kappa, kappa/2 e^{lam (x - x0)}), by :func:`~.profile.tail_start`."""
    if lam <= 0:
        raise ValueError("tail rate must be positive")
    return lambda x: tail_start(x, kappa, lam, shift=x0)


def step_init(kappa: float, x0: float = 0.0) -> Callable:
    """Sharp (compactly supported) initial data: 0 left of x0, kappa right."""

    def u0(x):
        return np.where(np.asarray(x) >= x0, kappa, 0.0)

    return u0


def _resolvent(n: int, nu: float) -> Callable:
    """r -> d, (I - nu D2) d = r on n nodes, D2 the 3-point second difference, d = 0
    at the ghost nodes -1 and n.  On Z, d is r convolved with rho^|j|/sqrt(1+4nu): a
    forward plus a backward scan y_j = rho y_{j-1} + r_j, run as one over r and r
    reversed.  Their starts add the homogeneous solutions rho^(j+1) and rho^(n-j)
    that take d at the ghosts to 0; the second's also cancels the first's end."""
    root = math.sqrt(1.0 + 4.0 * nu)
    rho = 2.0 * nu / (1.0 + 2.0 * nu + root)  # the root < 1 of nu rho^2 - (1+2nu) rho + nu
    rec = Recurrence(2 * n, rho)
    decay = rho ** np.arange(float(n))  # rho^j; subnormal products run many times slower
    decay[decay < np.finfo(float).tiny] = 0.0
    rise, top, far = decay[::-1].copy(), rho ** float(n), rho ** (n + 1.0)

    def solve(rhs: np.ndarray) -> np.ndarray:
        ahead, behind = float(np.dot(rise, rhs)), float(np.dot(decay, rhs))  # the scans' ends
        left = rho * (behind - far * ahead) / (1.0 - far * far)  # of rho^(j+1), times root
        right = rho * (ahead - far * behind) / (1.0 - far * far)  # of rho^(n-j)
        rec.u[:n], rec.u[n : 2 * n] = rhs, rhs[::-1]
        rec.u[0] -= rho * left
        rec.u[n] -= rho * (right + ahead - left * top)
        y = rec.scan(np.empty(rec.u.size))
        return (y[:n] + y[: n - 1 : -1] - rhs) / root  # both scans count r_j

    return solve


def _state_size(m: Model, x_lo: float, x_hi: float, dx: float, dt: Optional[float]) -> tuple[float, float, float]:
    """(dt, nodes, ring rows) of a state, validated, counted in floats as
    ``np.arange`` and the ring count them: a tiny dt overflows counts."""
    if dx <= 0:
        raise ValueError("dx must be positive")
    if x_hi - x_lo < 10 * dx:
        raise ValueError("domain must span at least ten cells")
    dt = DT if dt is None else float(dt)
    if not dt > 0:
        raise ValueError("dt must be positive")
    n_nodes = float(np.ceil((x_hi + dx / 2 - x_lo) / dx))
    n_rows = 1.0 if m.h == 0 else float(np.ceil(m.h / dt - 1e-12)) + 1.0
    if n_nodes * n_rows > MAX_STATE_VALUES:
        raise ValueError(f"the state would hold {n_nodes * n_rows:.4g} node x history-row values, above {MAX_STATE_VALUES}")
    return dt, n_nodes, n_rows


class EvolutionState:
    """Method-of-lines state: spatial grid, clock, and the history ring.

    The ring holds the last ceil(h/dt)+1 accepted fields at uniform
    spacing dt, enough to interpolate u(tau + s, x) for any s in [-h, 0].
    Outside the grid the field is extended by the constant boundary
    values ``bc`` (defaults (0, kappa): zero far left, the positive
    equilibrium far right), and a step's increment by 0.  Negative values
    are clamped to 0 and counted.  ``u0`` maps the nodes to the first field.
    """

    def __init__(
        self,
        m: Model,
        x_lo: float,
        x_hi: float,
        dx: float,
        u0: Callable,
        dt: Optional[float] = None,
        bc: Optional[tuple[float, float]] = None,
    ):
        self.dt, _, n_rows = _state_size(m, x_lo, x_hi, dx, dt)
        self.m = m
        self.dx = float(dx)
        self.x = np.arange(x_lo, x_hi + dx / 2, dx)
        self.bc = (0.0, m.kappa) if bc is None else (float(bc[0]), float(bc[1]))
        u = np.asarray(u0(self.x), dtype=float)
        if u.shape != self.x.shape:
            raise ValueError(f"initial data has {u.size} values, grid has {self.x.size}")

        self.steps = 0
        self.clamped = 0
        # ring rows sit at tau, tau-dt, ..., tau-(n_rows-1)*dt; the segment
        # before tau = 0 is the initial field held constant
        self._ring = np.tile(u, (int(n_rows), 1))
        self._head = 0
        self._inc = self._react = None  # SBDF2's last increment and reaction
        self._solve = _resolvent(u.size, 2.0 * self.dt / (3.0 * self.dx**2))

    @property
    def u(self) -> np.ndarray:
        """The current field (a view into the ring; copy before mutating)."""
        return self._ring[self._head]

    def history(self, s: float) -> np.ndarray:
        """The field at time tau + s, s in [-h, 0], linear in the ring."""
        if s > 1e-12 or s < -self.m.h - 1e-12:
            raise ValueError(f"history offset {s} outside [-h, 0]")
        back, rows = -s / self.dt, self._ring.shape[0]
        j = min(int(back), rows - 1)
        w = back - j
        a = self._ring[(self._head + j) % rows]
        if w <= 1e-12 or j + 1 >= rows:
            return a
        b = self._ring[(self._head + j + 1) % rows]
        return (1.0 - w) * a + w * b

    def step(self) -> None:
        """One SBDF2 step for the increment d = u^{n+1} - u^n,
        (I - nu D2) d = d_prev/3 + nu D2 u^n + (2 dt/3)(2 f^n - f^{n-1}) with
        nu = 2 dt/(3 dx^2); the first is backward Euler.  On a constant
        state that matches ``bc`` the right side, and so d, is exactly 0."""
        u = self._ring[self._head]
        react = np.array(self.m.react(self.history))  # kept past the ring write, so never a view of it
        ext = np.concatenate(((self.bc[0],), u, (self.bc[1],)))
        lap = ext[:-2] + ext[2:] - 2.0 * ext[1:-1]
        if self._inc is None:  # backward Euler
            nu = self.dt / self.dx**2
            inc = _resolvent(u.size, nu)(nu * lap + self.dt * react)
        else:
            nu = 2.0 * self.dt / (3.0 * self.dx**2)
            inc = self._solve(self._inc / 3.0 + nu * lap + (2.0 * self.dt / 3.0) * (2.0 * react - self._react))
        self._head = (self._head - 1) % self._ring.shape[0]
        new = np.add(u, inc, out=self._ring[self._head])  # u's own row when h = 0
        if new.min() < 0.0:
            neg = new < 0.0
            self.clamped += int(np.count_nonzero(neg))
            inc[neg] -= new[neg]
            new[neg] = 0.0
        self._inc, self._react = inc, react
        self.steps += 1

    @property
    def t(self) -> float:
        """The time reached, steps x dt: a running sum would carry each step's rounding."""
        return self.steps * self.dt


@dataclass(frozen=True)
class FrontRun:
    """Outcome of a tracked run: level-set track, fitted speed, final field.

    ``speed`` is the leftward propagation rate (positive for a front
    invading the zero state), fitted by least squares on the second half
    of the track.  ``exited`` marks runs aborted because the front came
    within the safety margin of a boundary; their track is partial.
    """

    speed: float
    times: np.ndarray
    positions: np.ndarray
    x: np.ndarray
    u: np.ndarray
    t_final: float
    clamped: int
    exited: bool


def front_speed(
    m: Model,
    u0: Callable,
    x_lo: float,
    x_hi: float,
    dx: float,
    t_run: float,
    dt: Optional[float] = None,
) -> FrontRun:
    """Run the field from ``u0(x)`` for ``t_run`` and fit the front speed.

    The kappa/2 level-set position is sampled every :data:`SAMPLE_DT`
    time units; the speed is the negated least-squares slope over the
    second half of the samples (the wave travels toward -x).  The run
    aborts with partial data when the front comes within :data:`MARGIN`
    of either boundary.
    """
    if not t_run > 0:
        raise ValueError("t_run must be positive")
    step, n_nodes, _ = _state_size(m, x_lo, x_hi, dx, dt)
    if (cells := float(np.ceil(t_run / step)) * max(n_nodes, MIN_STEP_NODES)) > MAX_CELL_STEPS:
        raise ValueError(f"the run would take {cells:.4g} cell-steps (ceil(t_run/dt) x max(nodes, {MIN_STEP_NODES})), "
                         f"above {MAX_CELL_STEPS}")
    state = EvolutionState(m, x_lo, x_hi, dx, u0, step)
    every = max(1, int(round(SAMPLE_DT / step)))
    times, positions, exited = [], [], False
    for k in range(int(math.ceil(t_run / step))):
        state.step()
        if k % every == 0:
            pos = up_crossing(state.x, state.u, 0.5 * m.kappa)  # the kappa/2 level set
            if pos is None or pos < x_lo + MARGIN or pos > x_hi - MARGIN:
                exited = True
                break
            times.append(state.t)
            positions.append(pos)

    times_a, pos_a = np.asarray(times), np.asarray(positions)
    speed = math.nan
    if times_a.size >= MIN_SAMPLES:
        half = times_a.size // 2
        speed = -float(np.polyfit(times_a[half:], pos_a[half:], 1)[0])
    return FrontRun(speed=speed, times=times_a, positions=pos_a, x=state.x, u=state.u.copy(),
                    t_final=state.t, clamped=state.clamped, exited=exited)


def moving_frame_gap(run: FrontRun, sol: ProfileSolution) -> tuple[float, float]:
    """Sup distance between the evolved field and the profile, after alignment.

    Reads the final field in the co-moving coordinate xi = x + c*t_final
    and scans the residual translation (the PDE run and the pinned
    profile fix their phases independently).  Returns (shift, sup_gap)
    over the window :data:`MARGIN` away from both boundaries, trimmed to
    the profile's own grid.
    """
    sel = (run.x >= run.x[0] + MARGIN) & (run.x <= run.x[-1] - MARGIN)
    xi = run.x[sel] + sol.c * run.t_final
    uw = run.u[sel]

    def gap(shift: float) -> float:
        tq = xi + shift
        inside = (tq >= sol.t[0]) & (tq <= sol.t[-1])
        if np.count_nonzero(inside) < 10:
            return math.inf
        return float(np.max(np.abs(np.interp(tq[inside], sol.t, sol.phi) - uw[inside])))

    # phase guess from the half-crossings (the profile's sits at 0)
    tc = up_crossing(xi, uw, 0.5 * sol.model.kappa)
    shift0 = 0.0 if tc is None else -tc
    return scan_shift(gap, shift0, 0.25 * np.arange(-8, 9), 0.01 * np.arange(-30, 31))
