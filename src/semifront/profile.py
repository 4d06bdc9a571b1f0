"""Traveling-profile solver.

A speed-c profile of the reaction-diffusion equation solves, in the
co-moving coordinate t = x + c*tau,

    phi''(t) - c*phi'(t) + f(phi_t) = 0,     phi(-inf) = 0,  phi > 0,

which after adding (1+q)*phi to both sides inverts into the fixed-point
form  phi = A(phi) := K * [(1+q)*phi + f(phi_t)]  with K the Green
kernel of y'' - c y' - (1+q) y.  A commutes with translation, so the
solver iterates the *pinned* map P = recenter∘clamp∘A that resamples
each image so its first upward kappa/2 crossing sits exactly at t = 0.
Convergence is measured against P; the raw image A(phi) of a converged
profile still differs from phi by a pure O(step^2) translation (the
discretization's speed bias), reported separately as ``drift``.

One loop, one map application per step: damped steps take the seed into
the contraction basin, then Anderson mixing on P finishes to tolerance,
and the hand-over step's image is Anderson's first residual.  Plain damped
iteration cannot finish the job — it ends up orbiting the fixed point
along the translation direction at the drift amplitude.  No fixed damping
weight serves every model, so each damped step reads its own from the last
two residuals (Aitken-type; Irons & Tuck, Int. J. Numer. Meth. Eng. 1, 1969).

The stages' parameters are module constants, not options: the CLI, the
harness and the benchmark run one value of each, none reaching the damped
cap, and an earlier hand-over to Anderson made kpp fail or land on another
fixed point.

An iteration costs one kernel scan plus a few O(n) passes, with no search
and no n-row factorisation, and it allocates only the arrays it returns.
The map owns a workspace built once per solve: delayed reads are
precomputed slices of the grid (:class:`ShiftedRead`), each written into
its own buffer, and the scan runs in the map's :class:`~.kernel.ScanPlan`.
The pin writes the accepted offset straight into its output and clamps only
what it reads; the damped step updates the pinned image in place; Anderson's
least squares solve the normal equations of a Gram matrix whose ring
(:class:`_AndersonRing`) keeps dF and C = dX + beta dF, so a step reads it
twice: once for the Gram row and the right side, once for the mix.  Each
iterate is a new array, never a map buffer: Anderson keeps the last one
(and its residual) for the next step's differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chareq import chi_dz, real_roots
from .kernel import (
    Convolution,
    LeftTail,
    ScanPlan,
    convolve,
    convolve_at_offset,  # noqa: F401 - not called here; perfbench wraps this binding
    exp_integral_right,  # noqa: F401 - not called here; perfbench wraps this binding
    grid_step,
    make_kernel,
)
from .model import Model

__all__ = [
    "SolverOptions",
    "ProfileSolution",
    "solve_profile",
]

BETA = 0.5  # Anderson's beta and the floor of the damped step's weight
DAMPED_RISE = 0.05  # the most the damped step's weight rises in one step
DAMPED_STEPS = 600  # the damped stage's cap: criterion 09's solves hand over within 250 steps
SWITCH_RES = 1e-4  # residual, scaled by max(1, kappa), that hands over to Anderson
ACCEL_DEPTH = 20  # iterates Anderson mixing combines
# lower clamp of the map, relative to kappa: keeps the image positive and
# lies far below the deepest tail value a default grid resolves (~e^-20)
CLAMP_FLOOR = 1e-30
# the most grid nodes a solve allocates: Anderson's ring alone then holds
# 2*ACCEL_DEPTH columns of this length, about 300 MB
MAX_NODES = 1_000_000


@dataclass(frozen=True)
class SolverOptions:
    """Grid and iteration controls for :func:`solve_profile`.

    ``t_minus=None`` places the left edge at -12/lambda1, -20/lambda1 at
    the critical speed (rounded outward to the grid), where the left tail
    closure still pulls the profile toward the speed-c wave and its
    truncation error stays below the default step's.
    ``tol`` bounds the absolute sup-norm residual sup|P(phi) - phi| (not
    scaled by kappa); a solve counts as converged at residual <= 2*tol
    when its final raw image needed no clamp.
    ``accel_iter``, a nonnegative integer, budgets the Anderson steps (the
    hand-over step is Anderson's first); the damped stage's cap and each
    stage's own parameters are module constants (the module docstring says
    why): Anderson mixes with beta = ``BETA``, the floor of the damped step's own weight.
    """

    t_minus: Optional[float] = None
    t_plus: float = 40.0
    step: float = 0.02
    tol: float = 1e-9
    accel_iter: int = 400
    initial_phi: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0 < self.step < math.inf:  # each test is written so that a NaN fails it
            raise ValueError("step must be positive and finite")
        if not self.step < self.t_plus < math.inf:
            raise ValueError("t_plus must exceed one step and be finite")
        if self.t_minus is not None and not -math.inf < self.t_minus < -self.step:
            raise ValueError("t_minus must be below -step and be finite")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if not (self.accel_iter >= 0 and self.accel_iter % 1 == 0):  # a NaN, inf or fraction fails
            raise ValueError(f"accel_iter must be a nonnegative integer, got {self.accel_iter!r}")


@dataclass
class ProfileSolution:
    """Converged (or best-effort) profile on a uniform grid.

    ``residual`` is sup|P(phi) - phi| for the pinned map; ``drift`` is
    sup|A(phi) - phi| for the raw convolution map and measures the
    leftover translation per application.  ``dphi`` is the exact
    derivative of A(phi), which differs from phi by the drift, read from
    the final scan's accumulators (:meth:`Convolution.derivative`).
    ``tail`` extends phi below t[0] as
    (value + slope*(t - t[0])) * e^{lambda1 (t - t[0])}.
    """

    model: Model
    c: float
    t: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    tail: LeftTail
    lambda1: float
    residual: float
    drift: float
    converged: bool
    clamp_low: int
    clamp_high: int
    residual_history: list = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.residual_history) - 1

    @property
    def step(self) -> float:
        return grid_step(self.t)

    @property
    def failure(self) -> Optional[str]:
        """Why the solve did not converge, or None when it did."""
        if self.converged:
            return None
        clamped = self.clamp_low + self.clamp_high
        return f"residual {self.residual:.3g}, {self.iterations} iterations, {clamped} clamped nodes"


def tail_start(t, kappa: float, lam: float, scale: float = 1.0, shift: float = 0.0) -> np.ndarray:
    """The left-tail start min(kappa, scale * kappa/2 * e^{lam (t - shift)}) at ``t``."""
    return np.minimum(kappa, scale * 0.5 * kappa * np.exp(lam * (np.asarray(t) - shift)))


def first_up_crossing(values: np.ndarray, level: float) -> Optional[int]:
    """The first i with values[i] < level <= values[i+1], or None."""
    if values[0] < level:  # the first node at or above level ends the search
        i = int(np.argmax(values >= level)) - 1
        return i if i >= 0 else None
    idx = np.flatnonzero((values[:-1] < level) & (values[1:] >= level))
    return int(idx[0]) if idx.size else None


def up_crossing(x: np.ndarray, values: np.ndarray, level: float) -> Optional[float]:
    """The point where ``values`` at nodes ``x``, linear between them, first
    cross ``level`` upward (see :func:`first_up_crossing`), or None."""
    i = first_up_crossing(values, level)
    if i is None:
        return None
    frac = (level - values[i]) / (values[i + 1] - values[i])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def scan_shift(distance, start: float, coarse: np.ndarray, fine: np.ndarray) -> tuple[float, float]:
    """(shift, distance(shift)) minimising ``distance`` over start + coarse,
    then over the best coarse shift + fine."""
    for offsets in (coarse, fine):
        shifts = start + offsets
        d = [distance(s) for s in shifts]
        i = int(np.argmin(d))
        start = float(shifts[i])
    return start, float(d[i])


class ShiftedRead:
    """A grid function read at t_j + d for one fixed shift d, without search.

    t_j + d lies k whole steps plus a fraction theta past t_j, so nodes
    lo <= j < hi read (1-theta) v[j+k] + theta v[j+k+1] from values ``v``
    on a grid of the same step and ``n_src`` nodes (default: those of
    ``t``).  Called with a tail, it reads every node, past the grid too:
    the tail at the precomputed offsets u below t[0] and phi[-1] above
    t[-1].  The step comes from the whole span (one node difference is
    off by ~1e-12).  With ``snap`` a read within 1e-9 of a node reads the
    node itself, as a delay c*s of whole steps should; a shift searched
    over a continuum (the pair alignment) turns it off, so that its
    distance has no jump near the nodes.  The read owns its output buffer
    ``out``, which each call overwrites.
    """

    def __init__(self, t: np.ndarray, d: float, n_src: Optional[int] = None, snap: bool = True):
        x = d * (t.size - 1) / (t[-1] - t[0])
        whole = snap and abs(x - round(x)) < 1e-9
        k = round(x) if whole else math.floor(x)
        n, theta = t.size, 0.0 if whole else x - k
        self.k, self.theta = k, theta
        self.lo = min(n, max(0, -k))
        self.hi = max(self.lo, min(n, (n if n_src is None else n_src) - k - (theta > 0.0)))
        self.u = t[: self.lo] + d - t[0]
        self.out = np.empty(n)

    def into(self, v: np.ndarray) -> np.ndarray:
        """Write the reads of nodes lo .. hi-1 from ``v`` into ``out[lo:hi]``; return that view."""
        k, theta, lo, hi = self.k, self.theta, self.lo, self.hi
        body = np.multiply(v[lo + k : hi + k], 1.0 - theta, out=self.out[lo:hi])
        if theta:
            body += theta * v[lo + k + 1 : hi + k + 1]
        return body

    def __call__(self, phi: np.ndarray, tail: LeftTail) -> np.ndarray:
        """The reads of every node, written into ``out``; a zero shift
        returns ``phi`` itself."""
        if self.k == 0 and self.theta == 0.0:
            return phi
        out = self.out
        self.into(phi)
        out[: self.lo] = tail.at(self.u)
        out[self.hi :] = phi[-1]
        return out


class _PinnedMap:
    """The iteration map P = recenter∘clamp∘A on a fixed uniform grid."""

    def __init__(self, m: Model, c: float, opts: SolverOptions):
        roots = real_roots(m, c)
        self.m, self.c = m, c
        self.lam = roots.lambda1
        self.critical = roots.critical
        step = opts.step
        # snap to whole steps so 0 is a node; the 1e-9 slack keeps an
        # already-aligned edge from spilling onto an extra node.  The edge
        # sits where phi ~ e^{-12}: deeper, the tail closure pulls too
        # weakly to tell the speed-c wave from a nearby speed's, which the
        # map then keeps as a fixed point; shallower, its truncation error
        # exceeds the default step's.  At the critical speed depth 20 already
        # selects the wave, and a shallower edge would move the profile.
        if opts.t_minus is None:
            depth = 20.0 if self.critical else 12.0
            n_lo = math.ceil(depth / self.lam / step - 1e-9)
        else:
            n_lo = math.ceil(-opts.t_minus / step - 1e-9)
        n_hi = math.ceil(opts.t_plus / step - 1e-9)
        if n_lo + n_hi + 1 > MAX_NODES:  # the automatic left edge grows like 12c
            raise ValueError(f"the grid would have {n_lo + n_hi + 1} nodes, above {MAX_NODES}: "
                             "set a shallower --t-minus or a larger --step")
        # integer-multiple grid so the pin node sits at exactly 0.0, validated by the scan's plan
        self.plan = ScanPlan(make_kernel(c, m.lin.q), step * np.arange(-n_lo, n_hi + 1))
        self.t, self.step = self.plan.t, self.plan.step
        self.i_zero = int(round(-self.t[0] / self.step))
        # chi(lam) = 0 turns the source tail into closed form:
        # (1+q)*e + f'(0)[e] = D*e for e = e^{lam t}, D = 1 + q + c*lam - lam^2
        self.D = 1.0 + m.lin.q + c * self.lam - self.lam * self.lam
        self.chz = float(chi_dz(m, self.lam, c))
        # the rest of the map's workspace: each read's buffer; every array
        # the map returns is its own
        self.reads = {s: ShiftedRead(self.t, c * s) for s in m.eval_points}
        self.floor = CLAMP_FLOOR * m.kappa
        self.ceil = m.bound
        # the nodes tail_of reads: a multi-unit window at the critical speed
        span = min(5.0 / self.lam, 0.25 * (self.t[-1] - self.t[0]))
        self.tail_nodes = max(2, int(round(span / self.step))) + 1 if self.critical else 1

    def seed(self) -> np.ndarray:
        base = tail_start(self.t, self.m.kappa, self.lam)
        if self.critical:
            # give the seed the (width - t) prefactor of a degenerate-root
            # tail: the deep-tail amplitude is a near-neutral direction of
            # the profile map, so the iteration essentially keeps whatever
            # scale it starts from, and a pure-exponential seed parks the
            # tail far below the connecting orbit.  No clamp is needed: the
            # product is below kappa/2 for t < 0, the prefactor 1 for t >= 0.
            base = base * (1.0 - np.minimum(self.t, 0.0) * self.lam / 5.0)
        return base

    def tail_of(self, phi: np.ndarray) -> LeftTail:
        v = float(phi[0])
        if not self.critical:
            return LeftTail(v, self.lam, 0.0)
        # critical tails look like (A - t)e^{lam t}, so y = phi e^{-lam(t-t0)}
        # is a straight line; a least-squares line over a multi-unit window
        # recovers its slope as a *linear* functional of the nodes.  (A
        # two-node ratio is a rational function of two tiny values whose pole
        # at phi[0] -> 0 blows up under the perturbations mixing steps probe
        # with.)  The window must span several units: over a single step the
        # width signal is only step/(A - t0).
        k = self.tail_nodes - 1
        u = self.t[: k + 1] - self.t[0]
        if v <= 0.0:
            return LeftTail(v, self.lam, 0.0)
        y = phi[: k + 1] * np.exp(-self.lam * u)
        du = u - u.mean()
        s = float(du @ (y - y.mean()) / (du @ du))
        # decay orientation and width >= window keep the line positive there
        s = min(0.0, max(s, -v / float(u[-1])))
        return LeftTail(v, self.lam, s)

    def raw(self, phi: np.ndarray) -> Convolution:
        """A(phi), one kernel scan kept whole for the pin's sub-step reads."""
        m, tail = self.m, self.tail_of(phi)
        src = np.multiply(phi, 1.0 + m.lin.q)
        src += m.react(lambda s: self.reads[s](phi, tail))
        sv = tail.value * self.D + tail.slope * (self.c - 2.0 * self.lam + self.chz)
        stail = LeftTail(sv, self.lam, tail.slope * self.D)
        return convolve(self.plan, src, stail, float(src[-1]))

    def clip(self, values: np.ndarray) -> np.ndarray:
        return np.clip(values, self.floor, self.ceil)

    def clamp(self, v: float) -> float:
        """One value clipped like :meth:`clip`, in float arithmetic."""
        return min(max(v, self.floor), self.ceil)

    def pin(self, conv: Convolution) -> np.ndarray:
        """Clamp the image ``conv.values`` to [floor, ceil] and translate it
        so its first upward kappa/2 crossing sits at t = 0.

        The translation is exact and the crossing is located on the
        continuous image: whole steps shift node indices, and chord steps
        on the sub-step offset drive the node value at t = 0, read in O(1)
        from the scan's accumulators, onto kappa/2 itself; the accepted
        offset is read once, straight into the output.  Resampling by
        interpolation would corrugate the map along the translation
        direction (its O(step^2) error varies with the crossing's sub-cell
        phase), and a cell-interpolated crossing kinks when the crossing
        passes a node; either splits the pinned fixed point into several
        nearby ones.  The few nodes the whole-step shift exposes at the
        edges read the tail closure or the last node.  Clamping keeps
        every node on its side of kappa/2, so only the nodes the result
        reads are clamped.
        """
        img, half = conv.values, 0.5 * self.m.kappa
        i = first_up_crossing(img, half)
        if i is None:
            return self.clip(img)
        lo_v, hi_v = self.clamp(float(img[i])), self.clamp(float(img[i + 1]))
        slope = (hi_v - lo_v) / self.step
        tc = float(self.t[i]) + (half - lo_v) / slope
        size = self.t.size
        # floor < half < ceil keeps lo_v < half <= hi_v, so tc lies in
        # [t_i, t_{i+1}] and the zero node i_zero + n is i or i + 1
        n = int(round(tc / self.step))
        node = self.i_zero + n
        frac = tc - n * self.step
        lo, hi = max(0, -n), min(size, size - n)
        out = np.empty(size)
        accepted = 0.0  # a whole-step translation reads the nodes themselves
        if abs(frac) > 1e-14 * self.step:
            # the pinned value is Y(n*step + frac) at the zero node; chord
            # steps with the crossing-cell slope drive it to kappa/2
            for _ in range(6):
                accepted = frac
                gap = conv.at(node, frac) - half
                if abs(gap) <= 1e-13 * max(1.0, self.m.kappa):
                    break
                nudged = frac - gap / slope
                if not abs(nudged) < self.step:
                    break  # crossing left the offset window; keep last
                frac = nudged
            tc = n * self.step + accepted
        body = conv.shifted_into(out[lo:hi], lo + n, accepted)
        if body.min() < self.floor or body.max() > self.ceil:  # two reductions cost less than a clip
            np.clip(body, self.floor, self.ceil, out=body)
        # |accepted| < step: every filled node reads past an end of the grid,
        # so the head is the image's tail closure and the rest its last node
        if lo:
            tail = self.tail_of(self.clip(img[: self.tail_nodes]))
            out[:lo] = tail.at(self.t[:lo] + tc - self.t[0])
        if hi < size:
            out[hi:] = self.clamp(float(img[-1]))
        return out

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        return self.pin(self.raw(phi))


# the Gram solve drops eigenvalues of G below 1e-15 of the largest, i.e.
# directions of dF below ~3e-8 of its largest singular value
_GRAM_RCOND = 1e-15


class _AndersonRing:
    """Anderson mixing with damping ``beta`` over ring columns of dF and
    C = dX + beta dF (dX, dF: the differences of successive iterates and
    residuals), and G = dF^T dF.  Each step writes one column of each, and
    one product with the new dF column and the residual refills its row
    and column of G and gives the least squares' right side."""

    def __init__(self, n: int, cols: int, beta: float):
        self.dF = np.empty((n, cols), order="F")
        self.C = np.empty((n, cols), order="F")
        self.G = np.empty((cols, cols))
        self.pair = np.empty((n, 2), order="F")  # the new dF column and the residual
        self.beta, self.last = beta, None
        self.filled = self.head = 0

    def step(self, x: np.ndarray, f: np.ndarray, work: np.ndarray) -> np.ndarray:
        """The Anderson iterate x + beta f - C gamma as a new array, gamma =
        argmin |f - dF gamma| once the ring has taken the differences from
        the last step's x and f.  The first step, with an empty ring, is
        the relaxation x + beta f.  The ring keeps x and
        f, so neither may be written later; ``work`` takes C gamma."""
        if self.last is not None:
            h, beta, (x_prev, f_prev) = self.head, self.beta, self.last
            d = np.subtract(f, f_prev, out=self.pair[:, 0])
            self.dF[:, h] = d
            c = np.multiply(d, beta, out=self.C[:, h])
            c += x
            c -= x_prev
            self.pair[:, 1] = f
            k = self.filled = min(self.filled + 1, self.G.shape[0])
            g, rhs = (self.dF[:, :k].T @ self.pair).T
            self.G[h, :k] = g
            self.G[:k, h] = g
            self.gamma = np.linalg.lstsq(self.G[:k, :k], rhs, rcond=_GRAM_RCOND)[0]
            self.head = (h + 1) % self.G.shape[0]
        self.last = (x, f)
        out = np.multiply(f, self.beta)
        out += x
        if self.filled:
            out -= np.matmul(self.C[:, : self.filled], self.gamma, out=work)
        return out


def _sup_gap(a: np.ndarray, b: np.ndarray, work: np.ndarray) -> float:
    """sup|a - b|, computed in ``work``, from two reductions rather than an abs pass."""
    d = np.subtract(a, b, out=work)
    return float(max(abs(d.min()), abs(d.max())))


def solve_profile(
    m: Model, c: float, options: Optional[SolverOptions] = None
) -> ProfileSolution:
    """Compute the speed-c profile of ``m`` by pinned fixed-point iteration.

    Raises :class:`~.chareq.SubcriticalError` below the critical speed and
    ValueError at a speed that is not positive and finite, before it builds
    a grid.  The returned solution is pinned: its first upward kappa/2
    crossing sits at t = 0.
    """
    opts = options or SolverOptions()
    P = _PinnedMap(m, c, opts)
    history: list = []

    if opts.initial_phi is not None:
        phi = np.asarray(opts.initial_phi, dtype=float)
        if phi.shape != P.t.shape:
            raise ValueError(
                f"initial_phi has {phi.size} nodes, grid has {P.t.size}"
            )
        if not np.all(np.isfinite(phi)):
            raise ValueError("initial_phi must be finite")
        phi = P.clip(phi)
    else:
        phi = P.seed()

    switch = SWITCH_RES * max(1.0, m.kappa)
    # at the critical speed the deep-tail amplitude is a near-neutral
    # direction (double root): its error runs orders above the residual,
    # so aim below the contracted tolerance to resolve the tail scale
    goal = opts.tol * (1e-2 if P.critical else 1.0)
    # Anderson mixing on P: combine the differences between the last
    # ACCEL_DEPTH iterates by least squares, damped by BETA.  The
    # difference columns live in a ring: each step writes one, and the
    # least squares are the normal equations of the ring's Gram matrix.
    ring = _AndersonRing(phi.size, ACCEL_DEPTH - 1, BETA)
    # a solve that runs out of budget ends on its least-residual iterate
    res, best_res, best_phi = math.inf, math.inf, None
    # the solve's scratch; each iterate is a new array (the pinned image, or
    # Anderson's mix), since the ring keeps the last one and its residual
    work = np.empty(phi.size)
    # the damped step phi + w f (f = P(phi) - phi, left in work by _sup_gap)
    # takes its weight w from the last two residuals: r = <f, f_prev> /
    # <f_prev, f_prev> implies the eigenvalue lam = 1 + (r - 1)/w of P's
    # dominant mode, and w = 1/(1 - lam) would annihilate it.  w starts
    # undamped, falls at once and rises by DAMPED_RISE a step, never below
    # BETA; once a mode would oscillate undamped (lam < -1) it stays BETA.
    w, ff_prev, latched = 1.0, 0.0, False
    f_prev = np.empty(phi.size)  # swapped with work, so no step allocates
    # each step maps phi once: damped while the damped budget lasts and the
    # residual is above switch, Anderson from the first other step on
    damped = DAMPED_STEPS
    while len(history) < damped + opts.accel_iter:
        img = P(phi)
        res = _sup_gap(img, phi, work)
        if not math.isfinite(res):  # a NaN would pass every test below
            raise FloatingPointError(f"the map's image at iteration {len(history)} is not finite (residual {res})")
        history.append(res)
        if res <= goal:
            break
        if len(history) <= damped:  # a step of the damped budget
            if res > switch:
                f = work
                if not latched:
                    ff = float(f @ f)
                    if len(history) > 1:  # f_prev is the last damped step's
                        lam = 1.0 + (float(f @ f_prev) / ff_prev - 1.0) / w
                        latched = lam < -1.0
                        target = 1.0 if lam >= 0.0 else max(BETA, 1.0 / (1.0 - lam))
                        w = BETA if latched else min(target, w + DAMPED_RISE)
                    work, f_prev, ff_prev = f_prev, f, ff
                np.multiply(f, w, out=img)
                img += phi
                phi = img
                continue
            damped = len(history) - 1  # this step hands over to Anderson
            if opts.accel_iter == 0:
                break
        fx = np.subtract(img, phi, out=img)
        if res < best_res:  # no iterate is written after it is made
            best_res, best_phi = res, phi
        phi = ring.step(phi, fx, work)

    if res > best_res:
        phi = best_phi

    # final bookkeeping on the positively clipped iterate; the clamp counts
    # are those of its raw image, which also gives the drift and phi'
    phi = P.clip(phi)
    conv = P.raw(phi)
    res = _sup_gap(P.pin(conv), phi, work)
    history.append(res)
    clamp_low = int(np.count_nonzero(conv.values < P.floor))
    clamp_high = int(np.count_nonzero(conv.values > P.ceil))
    drift = _sup_gap(conv.values, phi, work)

    return ProfileSolution(
        model=m,
        c=c,
        t=P.t,
        phi=phi,
        dphi=conv.derivative(),
        tail=P.tail_of(phi),
        lambda1=P.lam,
        residual=res,
        drift=drift,
        # a clamped image is not A(phi): the solve then rests on the clamp
        converged=res <= 2.0 * opts.tol and clamp_low == clamp_high == 0,
        clamp_low=clamp_low,
        clamp_high=clamp_high,
        residual_history=history,
    )
