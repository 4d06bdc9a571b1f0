"""Green's function of y'' - c y' - (1+q) y and exact exponential quadrature.

The profile integral operator convolves sources against

    K(t) = N e^{mu_minus t} (t >= 0),   N e^{mu_plus t} (t <= 0),

where mu_-+ are the real roots of mu^2 - c mu - (1+q) = 0 and
N = 1/(mu_plus - mu_minus).  Sources are grid functions on [T-, T+]
extended by an exponential left tail and a constant right tail.  The
interior convolution is evaluated EXACTLY for piecewise-linear sources:
each cell contributes closed-form integrals of (a + b s) e^{mu s}, chained
into first-order recurrences (one forward scan for the decaying branch,
one backward for the growing branch).  Naive trapezoid quadrature would
poison the e^{lambda1 t} tail that the decay diagnostics must recover;
exactness in the source keeps the only discretization error in the
piecewise-linear representation itself, O(step^2).

Each scan is the first-order recurrence y_j = a y_{j-1} + u_j, run as a
blocked matrix product in numpy alone: blocks of 32 nodes are scanned by
one product with a cached 32x32 matrix of powers of a, and the carries
between blocks are the same recurrence over the block ends.

The scan keeps its two branch accumulators (:class:`Convolution`), left
tail and right closure included.  The convolution at a sub-step offset
t_i + delta then follows from the accumulators at t_i and t_{i+1} and one
partial-cell integral per branch, in closed form: a single node costs
O(1) and a whole shifted grid one elementwise pass, with no second scan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GreenKernel",
    "Grid",
    "Convolution",
    "LeftTail",
    "grid_step",
    "make_kernel",
    "tail_response",
    "convolve",
    "convolve_at_offset",
    "exp_integral_right",
    "pl_exp_integral",
]


def _phi1(x: float) -> float:
    """(e^x - 1)/x, the mean of e^{xu} over u in [0,1]."""
    if x == 0.0:
        return 1.0
    return math.expm1(x) / x


# Taylor coefficients 1/((k+2) k!) of _phi2, highest order first for Horner
_PHI2_SERIES = tuple(1.0 / ((k + 2) * math.factorial(k)) for k in range(10, -1, -1))


def _phi2(x: float) -> float:
    """integral of u e^{xu} over [0,1] = (e^x(x-1)+1)/x^2.

    The closed form cancels catastrophically near 0; there the series
    sum x^k/((k+2) k!), cut after x^10, is evaluated by Horner's rule.
    """
    if abs(x) < 0.15:
        acc = 0.0
        for coef in _PHI2_SERIES:
            acc = acc * x + coef
        return acc
    return (math.exp(x) * (x - 1.0) + 1.0) / (x * x)


@dataclass(frozen=True)
class GreenKernel:
    c: float
    q: float
    mu_plus_root: float
    mu_minus_root: float
    norm: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.norm * np.exp(np.where(t < 0, self.mu_plus_root, self.mu_minus_root) * t)
        return float(out) if out.ndim == 0 else out


def make_kernel(c: float, q: float) -> GreenKernel:
    if c <= 0:
        raise ValueError(f"speed must be positive, got {c}")
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    disc = math.sqrt(c * c + 4.0 * (1.0 + q))
    mu_plus = 0.5 * (c + disc)
    mu_minus = 0.5 * (c - disc)
    norm = 1.0 / disc
    k = GreenKernel(c, q, mu_plus, mu_minus, norm)
    # construction self-check: root property and unit derivative jump
    scale = 1.0 + c * c + q
    for mu in (mu_plus, mu_minus):
        if abs(mu * mu - c * mu - (1.0 + q)) > 1e-10 * scale:
            raise RuntimeError("kernel roots fail the defining quadratic")
    if abs(norm * (mu_plus - mu_minus) - 1.0) > 1e-12:
        raise RuntimeError("kernel normalization does not give a unit derivative jump")
    return k


class LeftTail(NamedTuple):
    """Source extension for s <= T-:  (value + slope*(s-T-)) * e^{rate*(s-T-)}.

    The shifted form keeps every stored number O(value): the tail equals
    ``value`` at T- and decays leftward for rate > 0.  slope != 0 gives the
    linear-times-exponential shape of critical-speed tails.
    """

    value: float
    rate: float
    slope: float = 0.0

    def at(self, u):
        """The tail at offsets u = s - T- <= 0."""
        return (self.value + self.slope * u) * np.exp(self.rate * u)


def _tail_moment(k: GreenKernel, tail: LeftTail) -> float:
    """integral of e^{mu_minus (T- - s)} tail(s) over s <= T-: the decaying
    branch's accumulator at T-, (value/gamma - slope/gamma^2) with
    gamma = rate - mu_minus > 0."""
    if tail.rate < 0:
        raise ValueError("left tail must not grow leftward: rate >= 0 required")
    gamma = tail.rate - k.mu_minus_root
    return tail.value / gamma - tail.slope / gamma**2


def tail_response(k: GreenKernel, tail: LeftTail, t_minus: float, t: float) -> float:
    """integral of K(t-s) * tail(s) over s in (-inf, T-], at one point t.

    For t >= T- only the decaying kernel branch e^{mu_minus(t-s)} is active
    and the answer is a single exponential in t.  For t < T- the kernel
    switches branch at s = t; the growing-branch piece degenerates when
    rate = mu_plus (resonance) into the (T- - t) e^{mu_plus(t-T-)} form.
    """
    moment = _tail_moment(k, tail)
    v, rate, slope = tail
    N, mu_m, mu_p = k.norm, k.mu_minus_root, k.mu_plus_root
    tau = t - t_minus
    if tau >= 0:
        return float(N * np.exp(mu_m * tau) * moment)
    # s < t piece, antiderivatives of (v + slope*u) e^{gamma u} up to u = tau
    gamma = rate - mu_m
    p1 = N * np.exp(rate * tau) * (v / gamma + slope * (tau / gamma - 1.0 / gamma**2))
    delta = rate - mu_p
    if abs(delta) <= 1e-8 * max(1.0, mu_p):
        return float(p1 + N * np.exp(mu_p * tau) * (-v * tau - 0.5 * slope * tau * tau))
    x = delta * tau
    i0 = -np.expm1(x) / delta
    i1 = (np.expm1(x) - x * np.exp(x)) / delta**2
    return float(p1 + N * np.exp(mu_p * tau) * (v * i0 + slope * i1))


def grid_step(t: np.ndarray) -> float:
    """The step of uniform nodes ``t``, from the whole span: one node
    difference is off by ~1e-12 at |t| ~ 80."""
    return float((t[-1] - t[0]) / (t.size - 1))


class Grid:
    """Uniform increasing nodes, validated once.

    Every kernel function takes a Grid or a plain node array.  An array
    is validated on each call; a Grid only when it is built, so a caller
    that scans one grid many times (the profile solver) builds it once.
    """

    __slots__ = ("t", "step")

    def __init__(self, t):
        t = np.asarray(t, dtype=float)
        if t.size < 2:
            raise ValueError("grid needs at least two nodes")
        step = grid_step(t)
        if step <= 0 or not np.allclose(np.diff(t), step, rtol=1e-9, atol=1e-12):
            raise ValueError("grid must be uniform and increasing")
        self.t, self.step = t, step

    def __len__(self) -> int:
        return self.t.size


def _grid(t) -> Grid:
    return t if isinstance(t, Grid) else Grid(t)


_BLOCK = 32  # nodes per block of the blocked scan


@functools.lru_cache(maxsize=64)
def _block_powers(a: float, span: int) -> tuple[np.ndarray, np.ndarray]:
    """For the multiplier b = a^span (0 < a < 1): the block matrix
    ``lower[k, m] = b^{m-k}`` (m >= k, else 0) and ``lift[m] = b^{m+1}``.

    Each entry is one power of a, so it carries one rounding however far
    the carry recursion takes span.  Powers below the smallest normal float are set to zero: a product
    with subnormal entries runs many times slower and adds nothing.
    """
    p = a ** (span * np.arange(_BLOCK + 1.0))
    p[p < np.finfo(float).tiny] = 0.0
    gap = np.arange(_BLOCK) - np.arange(_BLOCK)[:, None]  # m - k
    lower = np.where(gap >= 0, p[np.abs(gap)], 0.0)
    for arr in (lower, p):
        arr.setflags(write=False)
    return lower, p[1:]


@functools.lru_cache(maxsize=64)
def _scan_plan(step: float, rate: float) -> tuple[float, float, float]:
    """(far, near, a): the weights of a cell's far and near node in the
    scan's input, and the multiplier a = e^{-rate step}.  A map fixes
    step and kernel rates, so each is computed once per map."""
    x = -rate * step
    far = step * _phi2(x)
    return far, step * _phi1(x) - far, math.exp(x)


def _linear_scan(u: np.ndarray, a: float, span: int = 1) -> np.ndarray:
    """y_j = b y_{j-1} + u_j from y_{-1} = 0, b = a^span, as a blocked
    matrix product; ``u`` is overwritten when its length is whole blocks.

    The end of each block of 32, scanned from zero, is one dot product
    with the block matrix's last column.  The carry into block b, the
    full y at the end of block b-1, is the same recurrence over these
    ends with multiplier b^32 (Blelloch, CMU-CS-90-190, sec. 1.4); it
    enters the block as one more input b * carry at its first node, and
    one product with the block matrix then scans every block.
    """
    n = u.size
    pad = -n % _BLOCK
    if pad:
        u = np.concatenate((u, np.zeros(pad)))
    lower, lift = _block_powers(a, span)
    blocks = u.reshape(-1, _BLOCK)
    ends = blocks[:-1] @ lower[:, -1]
    if ends.size > _BLOCK:
        carry = _linear_scan(ends, a, _BLOCK * span)
    else:
        b, acc, carry = float(lift[-1]), 0.0, np.empty(ends.size)
        for j, e in enumerate(ends.tolist()):
            acc = b * acc + e
            carry[j] = acc
    blocks[1:, 0] += lift[0] * carry
    return (blocks @ lower).ravel()[:n]


def _exp_scan(src: np.ndarray, step: float, rate: float, start: float) -> np.ndarray:
    """y_0 = start, y_j = e^{-rate step} y_{j-1} + the integral of
    e^{-rate u} src over the cell that ends at node j, u the distance to it.

    The module's one exponential scan: the decaying kernel branch sweeps
    the source left to right, the growing branch sweeps it reversed.
    rate > 0, so the scan is stable and every power it uses is <= 1.
    """
    far, near, a = _scan_plan(step, rate)
    n = src.size
    u = np.zeros(n + -n % _BLOCK)  # whole blocks, so the scan pads nothing
    u[0] = start
    body = u[1:n]
    np.multiply(src[:-1], far, out=body)
    body += near * src[1:]
    return _linear_scan(u, a)[:n]


@dataclass(frozen=True, eq=False)
class Convolution:
    """One exact convolution, kept as its two kernel-branch accumulators.

    At every node t_i

        fwd_i = integral of e^{mu_minus(t_i - s)} source(s) over (-inf, t_i],
        bwd_i = integral of e^{mu_plus (t_i - s)} source(s) over [t_i, +inf),

    the left tail included in fwd and the right closure in bwd, so
    ``values = norm * (fwd + bwd)``.  Across part of one cell both
    accumulators continue in closed form,

        F(t_i + d) = e^{mu_minus d} fwd_i + integral over [t_i, t_i + d],
        B(t_i + d) = e^{-mu_plus (step - d)} bwd_{i+1} + integral over [t_i + d, t_{i+1}],

    the integrals being partial-cell integrals of the linear source
    (constant ``right_const`` past the last node).  The value at any
    sub-step offset is therefore O(1) per node and needs no further scan.
    """

    kernel: GreenKernel
    grid: Grid
    src: np.ndarray
    left_tail: LeftTail
    right_const: float
    fwd: np.ndarray
    bwd: np.ndarray
    values: np.ndarray

    def _weights(self, d: float) -> tuple[float, float, float, float]:
        """Coefficients of (fwd_i, bwd_{i+1}, src_i, src_{i+1}) in the
        value at t_i + d, 0 < d < step, the common factor norm folded in."""
        k = self.kernel
        mu_m, mu_p, norm = k.mu_minus_root, k.mu_plus_root, k.norm
        step = self.grid.step
        lead = step - d
        f1, f2 = d * _phi1(mu_m * d), d * d * _phi2(mu_m * d) / step
        b1, b2 = lead * _phi1(-mu_p * lead), lead * lead * _phi2(-mu_p * lead) / step
        theta = d / step
        w_lo = (1.0 - theta) * (f1 + b1) + f2 - b2
        w_hi = theta * (f1 + b1) - f2 + b2
        return norm * math.exp(mu_m * d), norm * math.exp(-mu_p * lead), norm * w_lo, norm * w_hi

    def _below_first(self, ell: float) -> float:
        """The value at t_0 - ell, 0 < ell < step: the tail's own response
        there plus bwd_0 discounted over ell."""
        k = self.kernel
        tail = tail_response(k, self.left_tail, 0.0, -ell)
        return tail + k.norm * math.exp(-k.mu_plus_root * ell) * float(self.bwd[0])

    def at(self, i: int, delta: float) -> float:
        """The value at t_i + delta, 0 <= i < n and |delta| < step, in O(1)."""
        if delta < 0.0:
            if i == 0:
                return self._below_first(-delta)
            i, delta = i - 1, delta + self.grid.step  # t_i - ell = t_{i-1} + (step - ell)
        elif delta == 0.0:
            return float(self.values[i])
        cf, cb, w_lo, w_hi = self._weights(delta)
        if i < self.src.size - 1:
            b_next, lo, hi = self.bwd[i + 1], self.src[i], self.src[i + 1]
        else:  # past the last node the source is the constant closure
            rc = self.right_const
            b_next, lo, hi = rc / self.kernel.mu_plus_root, rc, rc
        return float(cf * self.fwd[i] + cb * b_next + w_lo * lo + w_hi * hi)

    def shifted_into(self, out: np.ndarray, first: int, delta: float) -> np.ndarray:
        """Write the values at t_j + delta, j = first .. first + out.size - 1,
        into ``out`` and return it; |delta| < step.

        Elementwise the same arithmetic as :meth:`at`, so a node read
        with either gives the same number.
        """
        n, stop = self.src.size, first + out.size
        if delta == 0.0:
            out[:] = self.values[first:stop]
            return out
        lag = int(delta < 0.0)  # t_j - ell = t_{j-1} + (step - ell): node j reads cell j-1
        cf, cb, w_lo, w_hi = self._weights(delta + self.grid.step if lag else delta)
        a, b = max(first - lag, 0), min(stop - lag, n - 1)  # cells [t_c, t_{c+1}] read
        body = out[a + lag - first : b + lag - first]
        np.multiply(self.fwd[a:b], cf, out=body)
        part = np.multiply(self.bwd[a + 1 : b + 1], cb)
        body += part
        body += np.multiply(self.src[a:b], w_lo, out=part)
        body += np.multiply(self.src[a + 1 : b + 1], w_hi, out=part)
        edge = 0 if lag else n - 1  # the one node whose read leaves the cells
        if first <= edge < stop:
            out[edge - first] = self.at(edge, delta)
        return out

    def shifted(self, delta: float) -> np.ndarray:
        """The values at every t_i + delta, |delta| < step."""
        return self.shifted_into(np.empty(self.src.size), 0, delta)

    def derivative(self) -> np.ndarray:
        """The derivative at every node, exact like the values: fwd' =
        mu_minus fwd + source and bwd' = mu_plus bwd - source, and K is
        continuous at 0, so the source terms cancel."""
        k = self.kernel
        return k.norm * (k.mu_minus_root * self.fwd + k.mu_plus_root * self.bwd)


def convolve(k: GreenKernel, t, src, left_tail, right_const: float) -> Convolution:
    """integral of K(t_i - s) * source(s) over all of R, at every grid node.

    source = piecewise-linear interpolant of ``src`` on the uniform grid
    ``t`` (a :class:`Grid` or node array), extended by ``left_tail`` below
    t[0] and by the constant ``right_const`` above t[-1].  The node values
    are ``.values`` of the result, which also reads the convolution
    between nodes without another scan (:meth:`Convolution.at`,
    :meth:`Convolution.shifted`).
    """
    grid = _grid(t)
    src = np.asarray(src, dtype=float)
    if src.shape != grid.t.shape:
        raise ValueError("source values must match the grid")
    rc = float(right_const)
    # decaying branch swept left to right from the whole left tail, growing
    # branch right to left from the constant right closure
    fwd = _exp_scan(src, grid.step, -k.mu_minus_root, _tail_moment(k, left_tail))
    bwd = _exp_scan(src[::-1], grid.step, k.mu_plus_root, rc / k.mu_plus_root)[::-1]
    return Convolution(k, grid, src, left_tail, rc, fwd, bwd, k.norm * (fwd + bwd))


def convolve_at_offset(k: GreenKernel, t, src, left_tail, right_const: float, delta: float):
    """integral of K(t_i + delta - s) * source(s) over R: :func:`convolve`
    read at the sub-step shifted nodes t + delta, |delta| < step.

    The read continues the scan's two branch accumulators across part of
    one cell in closed form (see :class:`Convolution`): the same
    piecewise-linear source model is integrated exactly at the shifted
    points, so the values agree with re-running the convolution on an
    exactly translated grid.  Resampling a profile this way (instead of
    interpolating node values) keeps a translation step free of
    interpolation error.  To read one source at several offsets, call
    :func:`convolve` once and read its result.
    """
    grid = _grid(t)
    if np.size(src) < 3:
        raise ValueError("offset evaluation needs at least three nodes")
    if not abs(delta) < grid.step:
        raise ValueError(f"|delta| must be below one step, got {delta:g}")
    return convolve(k, grid, src, left_tail, right_const).shifted(delta)


def exp_integral_right(t, src, rate: float, tail_const: float = 0.0):
    """integral of e^{rate (t_i - s)} src(s) over s in [t_i, +inf).

    src is piecewise linear on the uniform grid, constant ``tail_const``
    beyond t[-1]; requires rate > 0 for convergence.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    grid = _grid(t)
    src = np.asarray(src, dtype=float)
    if src.shape != grid.t.shape:
        raise ValueError("source values must match the grid")
    return _exp_scan(src[::-1], grid.step, rate, tail_const / rate)[::-1]


def pl_exp_integral(t, src, rate: float) -> float:
    """Exact integral of e^{rate s} * (piecewise-linear src) over [t[0], t[-1]]."""
    grid = _grid(t)
    t, step = grid.t, grid.step
    src = np.asarray(src, dtype=float)
    if src.shape != t.shape:
        raise ValueError("source values must match the grid")
    w_hi, w_lo, _ = _scan_plan(step, -rate)  # a cell's far node is its right one
    cell = w_lo * src[:-1] + w_hi * src[1:]
    return float(np.dot(np.exp(rate * t[:-1]), cell))
