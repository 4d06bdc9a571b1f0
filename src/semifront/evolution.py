"""Direct time-stepping cross-check for computed wave profiles.

The field u(tau, x) obeys  du/dtau = u_xx + f(u_tau(., x))  on a
truncated interval, where the reaction reads each spatial node's
temporal history u(tau + s, x), s in [-h, 0].  A profile phi of speed c
corresponds to the moving solution u(tau, x) = phi(x + c*tau): the wave
runs leftward at speed c, and the co-moving coordinate is xi = x + c*tau
(the profile's own history phi(t + c*s) is the PDE history read along
that change of variables).

Explicit Euler with the second-order central Laplacian; one state per
run.  This module is an oracle for the profile solver, not a
performance target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import Model
from .profile import ProfileSolution, scan_shift, up_crossing

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
MAX_STATE_VALUES = 40_000_000  # grid nodes x history rows (~320 MB), refused before allocation


def tail_seed(kappa: float, lam: float, x0: float = 0.0) -> Callable:
    """Step-like initial data with left tail kappa/2 * e^{lam (x - x0)}."""
    if lam <= 0:
        raise ValueError("tail rate must be positive")

    def u0(x):
        return np.minimum(kappa, 0.5 * kappa * np.exp(lam * (np.asarray(x) - x0)))

    return u0


def step_init(kappa: float, x0: float = 0.0) -> Callable:
    """Sharp (compactly supported) initial data: 0 left of x0, kappa right."""

    def u0(x):
        return np.where(np.asarray(x) >= x0, kappa, 0.0)

    return u0


class EvolutionState:
    """Method-of-lines state: spatial grid, clock, and the history ring.

    The ring holds the last ceil(h/dt)+1 accepted fields at uniform
    spacing dt, enough to interpolate u(tau + s, x) for any s in [-h, 0].
    Outside the grid the field is extended by the constant boundary
    values ``bc`` (defaults (0, kappa): zero far left, the positive
    equilibrium far right).  Negative values are clamped to 0 and
    counted.
    """

    def __init__(
        self,
        m: Model,
        x_lo: float,
        x_hi: float,
        dx: float,
        u0: Callable | Sequence[float],
        dt: Optional[float] = None,
        bc: Optional[tuple[float, float]] = None,
    ):
        if dx <= 0:
            raise ValueError("dx must be positive")
        if x_hi - x_lo < 10 * dx:
            raise ValueError("domain must span at least ten cells")
        self.m = m
        self.dx = float(dx)
        self.dt = 0.4 * dx * dx if dt is None else float(dt)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.dt > 0.5 * dx * dx + 1e-15:
            raise ValueError(
                f"explicit step dt = {self.dt:g} violates the stability bound "
                f"dx^2/2 = {0.5 * dx * dx:g}"
            )
        # nodes times ring rows, in floats: a tiny dt makes h/dt overflow to inf
        n_nodes = (x_hi + dx / 2 - x_lo) / dx  # np.arange's length, before rounding up
        n_rows = 1.0 if m.h == 0 else m.h / self.dt + 1.0
        if n_nodes * n_rows > MAX_STATE_VALUES:
            raise ValueError(f"the state would hold {n_nodes * n_rows:.4g} node x history-row values, above {MAX_STATE_VALUES}")
        self.x = np.arange(x_lo, x_hi + dx / 2, dx)
        self.bc = (0.0, m.kappa) if bc is None else (float(bc[0]), float(bc[1]))
        u = np.asarray(u0(self.x) if callable(u0) else u0, dtype=float)
        if u.shape != self.x.shape:
            raise ValueError(f"initial data has {u.size} values, grid has {self.x.size}")

        self.t = 0.0
        self.clamped = 0
        # ring rows sit at tau, tau-dt, ..., tau-n_back*dt; the segment
        # before tau = 0 is the initial field held constant
        n_back = 0 if m.h == 0 else int(math.ceil(m.h / self.dt - 1e-12))
        self._ring = np.tile(u, (n_back + 1, 1))
        self._head = 0

    @property
    def u(self) -> np.ndarray:
        """The current field (a view into the ring; copy before mutating)."""
        return self._ring[self._head]

    def history(self, s: float) -> np.ndarray:
        """The field at time tau + s, s in [-h, 0], linear in the ring."""
        if s > 1e-12 or s < -self.m.h - 1e-12:
            raise ValueError(f"history offset {s} outside [-h, 0]")
        back = -s / self.dt
        j = min(int(back), self._ring.shape[0] - 1)
        w = back - j
        rows = self._ring.shape[0]
        a = self._ring[(self._head + j) % rows]
        if w <= 1e-12 or j + 1 >= rows:
            return a
        b = self._ring[(self._head + j + 1) % rows]
        return (1.0 - w) * a + w * b

    def step(self) -> None:
        """One explicit Euler step of Laplacian plus delayed reaction."""
        u = self._ring[self._head]
        lap = np.empty_like(u)
        lap[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
        lap[0] = u[1] - 2.0 * u[0] + self.bc[0]
        lap[-1] = self.bc[1] - 2.0 * u[-1] + u[-2]
        lap /= self.dx * self.dx
        new = u + self.dt * (lap + self.m.react(self.history))
        neg = new < 0.0
        if np.any(neg):
            self.clamped += int(np.count_nonzero(neg))
            new = np.where(neg, 0.0, new)
        self._head = (self._head - 1) % self._ring.shape[0]
        self._ring[self._head] = new
        self.t += self.dt

    def front_position(self) -> Optional[float]:
        """Leftmost upward kappa/2 crossing of the current field, or None."""
        return up_crossing(self.x, self._ring[self._head], 0.5 * self.m.kappa)


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
    u0: Callable | Sequence[float],
    x_lo: float,
    x_hi: float,
    dx: float,
    t_run: float,
    dt: Optional[float] = None,
) -> FrontRun:
    """Run the field for ``t_run`` and fit the front speed.

    The kappa/2 level-set position is sampled every :data:`SAMPLE_DT`
    time units; the speed is the negated least-squares slope over the
    second half of the samples (the wave travels toward -x).  The run
    aborts with partial data when the front comes within :data:`MARGIN`
    of either boundary.
    """
    if not t_run > 0:
        raise ValueError("t_run must be positive")
    state = EvolutionState(m, x_lo, x_hi, dx, u0, dt)
    every = max(1, int(round(SAMPLE_DT / state.dt)))
    times, positions = [], []
    exited = False

    n_steps = int(math.ceil(t_run / state.dt))
    for k in range(n_steps):
        state.step()
        if k % every == 0:
            pos = state.front_position()
            if pos is None or pos < x_lo + MARGIN or pos > x_hi - MARGIN:
                exited = True
                break
            times.append(state.t)
            positions.append(pos)

    times_a, pos_a = np.asarray(times), np.asarray(positions)
    speed = math.nan
    if times_a.size >= 4:
        half = times_a.size // 2
        slope = np.polyfit(times_a[half:], pos_a[half:], 1)[0]
        speed = -float(slope)
    return FrontRun(
        speed=speed,
        times=times_a,
        positions=pos_a,
        x=state.x,
        u=state.u.copy(),
        t_final=state.t,
        clamped=state.clamped,
        exited=exited,
    )


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
        return float(np.max(np.abs(sol.evaluate(tq[inside]) - uw[inside])))

    # phase guess from the half-crossings (the profile's sits at 0)
    tc = up_crossing(xi, uw, 0.5 * sol.model.kappa)
    shift0 = 0.0 if tc is None else -tc
    return scan_shift(gap, shift0, 0.25 * np.arange(-8, 9), 0.01 * np.arange(-30, 31))
