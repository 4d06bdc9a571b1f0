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

Both scans run as blocked matrix products in numpy alone.  The source is
copied once into rows of 32 nodes, and one product of the rows with a
33x32 matrix, built once per plan, scans every block of a branch; the
matrix folds the cell weights into the powers of a, and the carries
between blocks are :class:`Recurrence` scans over the block ends, run as
a loop within one block.  :class:`Recurrence` also runs ``evolution``'s
implicit diffusion step.  The scan runs only in a :class:`ScanPlan`, the
workspace a convolution is given: it validates its grid once and holds
the kernel, nodes and the scan's buffers, so a caller that passes one plan
to each convolution on its grid neither checks the grid again nor
allocates more than the arrays the convolution returns.

The scan keeps its two branch accumulators (:class:`Convolution`), left
tail and right closure included.  The convolution at a sub-step offset
t_i + delta then follows from the accumulators at t_i and t_{i+1} and one
partial-cell integral per branch, in closed form: a single node costs
O(1) and a whole shifted grid one elementwise pass, with no second scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GreenKernel",
    "Convolution",
    "LeftTail",
    "Recurrence",
    "ScanPlan",
    "grid_step",
    "make_kernel",
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
    sum x^k/((k+2) k!), cut after x^10, is evaluated by Horner's rule,
    written out because the pin's chord calls it several times a map.
    """
    if abs(x) < 0.15:
        c = _PHI2_SERIES
        acc = (((c[0] * x + c[1]) * x + c[2]) * x + c[3]) * x + c[4]
        return (((((acc * x + c[5]) * x + c[6]) * x + c[7]) * x + c[8]) * x + c[9]) * x + c[10]
    return (math.exp(x) * (x - 1.0) + 1.0) / (x * x)


@dataclass(frozen=True)
class GreenKernel:
    mu_plus_root: float
    mu_minus_root: float
    norm: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.norm * np.exp(np.where(t < 0, self.mu_plus_root, self.mu_minus_root) * t)
        return float(out) if out.ndim == 0 else out


def make_kernel(c: float, q: float) -> GreenKernel:
    if not 0.0 < c < math.inf:  # a NaN kernel would pass the self-check below
        raise ValueError(f"speed must be positive and finite, got {c}")
    if not 0.0 <= q < math.inf:
        raise ValueError(f"q must be nonnegative and finite, got {q}")
    disc = math.sqrt(c * c + 4.0 * (1.0 + q))
    mu_plus = 0.5 * (c + disc)
    mu_minus = 0.5 * (c - disc)
    norm = 1.0 / disc
    k = GreenKernel(mu_plus, mu_minus, norm)
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


def grid_step(t: np.ndarray) -> float:
    """The step of uniform nodes ``t``, from the whole span: one node
    difference is off by ~1e-12 at |t| ~ 80."""
    return float((t[-1] - t[0]) / (t.size - 1))


def _nodes(t) -> tuple[np.ndarray, float]:
    """Uniform increasing nodes ``t`` as floats, and their step."""
    t = np.asarray(t, dtype=float)
    if t.size < 2:
        raise ValueError("grid needs at least two nodes")
    step = grid_step(t)
    if step <= 0 or not np.allclose(np.diff(t), step, rtol=1e-9, atol=1e-12):
        raise ValueError("grid must be uniform and increasing")
    return t, step


def _on_grid(t: np.ndarray, src) -> np.ndarray:
    """``src`` as float values on the nodes ``t``."""
    src = np.asarray(src, dtype=float)
    if src.shape != t.shape:
        raise ValueError("source values must match the grid")
    return src


_BLOCK = 32  # nodes per block of the blocked scans


def _cell_weights(step: float, rate: float) -> tuple[float, float, float]:
    """(far, near, a): the weights of a cell's far and near node in the
    scan's input, and the multiplier a = e^{-rate step}."""
    x = -rate * step
    far = step * _phi2(x)
    return far, step * _phi1(x) - far, math.exp(x)


def _block_matrix(a: float, span: int = 1, near: float = 1.0, far: float = 0.0) -> np.ndarray:
    """The 33 x 33 matrix that scans y_j = b y_{j-1} + far x_{j-1} + near x_j,
    b = a^span (0 < a < 1), over a block row [carry-in, x_0 .. x_31]: column
    m < 32 gives y at node m, column 32 the next row's carry-in.  Row 0 is
    the carry-in's weight b^m, row 1 + k node k's, near b^{m-k} + far
    b^{m-k-1} (0 for m < k).  Each power of b is one power of a, one rounding
    however far the carries take span; entries below the smallest normal
    float are zero, since subnormal products run many times slower and add
    nothing."""
    p = a ** (span * np.arange(_BLOCK + 1.0))
    gap = np.arange(_BLOCK + 1) - np.arange(_BLOCK)[:, None]  # m - k
    g = np.maximum(gap, 1)
    cells = np.where(gap > 0, near * p[g] + far * p[g - 1], np.where(gap == 0, near, 0.0))
    mat = np.vstack((p, cells))
    mat[mat < np.finfo(float).tiny] = 0.0
    return mat


class Recurrence:
    """The first-order recurrence y_j = a y_{j-1} + u_j over ``n`` nodes,
    0 < a < 1, in its own input buffer: ``evolution``'s implicit diffusion
    and the carries of a plan's scan.

    The recurrence runs with multiplier b = a^span (span 1, except in a
    carry): within one block of 32 as a plain loop, past it as a blocked
    matrix product.  The end of each block, scanned from zero, is one dot
    product with the block matrix's last column.  The carry into block B,
    the full y at the end of block B-1, is the same recurrence over these
    ends with multiplier b^32 (Blelloch, CMU-CS-90-190, sec. 1.4), a
    ``Recurrence`` at 32 times the span whose input buffer the ends are
    written into.  It enters block B as one more input b * carry at its
    first node, and one product with the block matrix scans every block.
    The padding of the input buffer stays zero: the caller writes u_0 ..
    u_{n-1} into ``u`` before each scan, and a scan only block starts.
    """

    def __init__(self, n: int, a: float, span: int = 1):
        self.n = n
        self.u = np.zeros(n + -n % _BLOCK)
        self.blocks = self.u.reshape(-1, _BLOCK)
        mat = _block_matrix(a, span)
        self.lower, self.b = mat[1:, :-1].copy(), float(mat[0, 1])
        # views: every block but the last, the matrix's last column, each later block's start
        self.heads, self.last, self.starts = self.blocks[:-1], self.lower[:, -1], self.blocks[1:, 0]
        m = self.blocks.shape[0] - 1  # block ends, whose scan is the carry
        self.carry = Recurrence(m, a, span * _BLOCK) if m > 0 else None
        self.carried = np.empty(m + -m % _BLOCK)  # the carry's output

    def scan(self, out: np.ndarray) -> np.ndarray:
        """y_j = a y_{j-1} + u_j from y_{-1} = 0, written into ``out`` (as
        long as ``u``); returns its first n entries."""
        n = self.n
        if self.carry is None:  # one block: one entry at a time
            acc, y = 0.0, []
            for e in self.u[:n].tolist():
                acc = self.b * acc + e
                y.append(acc)
            out[:n] = y
            return out[:n]
        np.matmul(self.heads, self.last, out=self.carry.u[: self.carry.n])
        self.starts += self.b * self.carry.scan(self.carried)
        return np.matmul(self.blocks, self.lower, out=out.reshape(self.blocks.shape)).ravel()[:n]


class ScanPlan:
    """The workspace of :func:`convolve` on one kernel and grid, where both
    branches of the exact convolution are scanned: y_0 = start, y_j =
    a y_{j-1} + far src_{j-1} + near src_j left to right at the decaying
    branch's rate -mu_minus, and its mirror image, from y_{n-1} = start, at
    the growing branch's rate mu_plus.

    The plan validates its grid once and holds the ``kernel``, the nodes
    ``t`` and their ``step``, the scan's buffers and the scratch of
    :meth:`Convolution.shifted_into`.  A caller that convolves on one grid
    many times (the profile solver) passes one plan to every call; the
    arrays a convolution returns are their own, never the plan's buffers.
    A plan serves one convolution or shifted read at a time.

    Each row of the buffer holds the forward carry-in, one block's nodes
    and the backward carry-in, so one product scans a branch; the backward
    matrix is the forward one mirrored, and nothing is reversed.  One more
    product gives each row's share of both branches' next carry-in.  The
    forward start is row 0's carry-in less its node-0 term; the backward
    start enters as a source value at node n, just past the grid, so no
    carry starts in mid-block and nothing is divided by a power of a.  The
    buffer's padding stays zero.
    """

    __slots__ = (
        "kernel", "t", "step", "work", "buf", "nodes", "whole", "part", "fwd_near", "bwd_near",
        "bwd_past", "fwd_mat", "bwd_mat", "end", "ends", "fwd_carry", "bwd_carry", "carried",
    )

    def __init__(self, k: GreenKernel, t):
        self.t, self.step = _nodes(t)
        self.kernel = k
        self.work = np.empty(self.t.size)
        rows, r = divmod(self.t.size, _BLOCK)
        self.buf = np.zeros((rows + 1, _BLOCK + 2))  # room for node n
        self.nodes, self.whole, self.part = self.buf[:, 1:-1], self.buf[:rows, 1:-1], self.buf[rows, 1 : r + 2]
        fwd_far, self.fwd_near, a = _cell_weights(self.step, -k.mu_minus_root)
        bwd_far, self.bwd_near, b = _cell_weights(self.step, k.mu_plus_root)
        fwd, bwd = _block_matrix(a, 1, self.fwd_near, fwd_far), _block_matrix(b, 1, self.bwd_near, bwd_far)
        self.bwd_past = bwd[1, 1]  # node n's weight in y_{n-1}, near b + far
        self.fwd_mat, self.bwd_mat = fwd[:, :-1].copy(), bwd[::-1, -2::-1].copy()
        self.end = np.column_stack((fwd[1:, -1], bwd[:0:-1, -1]))  # each node's share of the carry-ins
        self.ends = np.empty((rows + 1, 2))
        self.fwd_carry, self.bwd_carry = Recurrence(rows + 1, a, _BLOCK), Recurrence(rows + 1, b, _BLOCK)
        self.carried = np.empty(self.fwd_carry.u.size)

    def scan(self, src: np.ndarray, fwd_start: float, bwd_start: float) -> tuple[np.ndarray, np.ndarray]:
        """The forward and the backward branch of ``src`` on the nodes, two new arrays."""
        buf, n, fc, bc = self.buf, self.t.size, self.fwd_carry, self.bwd_carry
        self.whole[:] = src[: self.whole.size].reshape(self.whole.shape)
        self.part[:-1] = src[self.whole.size :]
        self.part[-1] = (bwd_start - self.bwd_near * src.item(-1)) / self.bwd_past  # node n
        ends = np.matmul(self.nodes, self.end, out=self.ends)
        fc.u[0], fc.u[1 : fc.n] = fwd_start - self.fwd_near * src.item(0), ends[:-1, 0]
        buf[:, 0] = fc.scan(self.carried)
        bc.u[1 : bc.n] = ends[:0:-1, 1]  # from the last row, whose carry-in is 0
        buf[::-1, -1] = bc.scan(self.carried)
        fwd = np.matmul(buf[:, :-1], self.fwd_mat).ravel()[:n]
        return fwd, np.matmul(buf[:, 1:], self.bwd_mat).ravel()[:n]


class _NodeValues:
    """``Convolution.values``, norm * (fwd + bwd): unless given, formed on its first read."""

    def __get__(self, conv, owner=None):  # read on the class, it is the field's default, None
        if conv is not None and conv.__dict__["values"] is None:
            conv.__dict__["values"] = conv.nodes(slice(None))
        return None if conv is None else conv.__dict__["values"]

    def __set__(self, conv, values):
        conv.__dict__["values"] = values


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
    ``plan`` is the workspace the scan ran in, which gives the kernel, the
    grid and the scratch of :meth:`shifted_into`.
    """

    plan: ScanPlan
    src: np.ndarray
    left_tail: LeftTail
    right_const: float
    fwd: np.ndarray
    bwd: np.ndarray
    values: np.ndarray = _NodeValues()

    def nodes(self, part: slice) -> np.ndarray:
        """values[part]; until ``values`` is formed, those nodes alone are
        formed, in its arithmetic, so a reader of a few nodes forms no more."""
        if self.__dict__["values"] is not None:
            return self.__dict__["values"][part]
        out = np.add(self.fwd[part], self.bwd[part])
        return np.multiply(out, self.plan.kernel.norm, out=out)

    def _weights(self, d: float) -> tuple[float, float, float, float]:
        """Coefficients of (fwd_i, bwd_{i+1}, src_i, src_{i+1}) in the
        value at t_i + d, 0 < d < step, the common factor norm folded in."""
        k = self.plan.kernel
        mu_m, mu_p, norm = k.mu_minus_root, k.mu_plus_root, k.norm
        step = self.plan.step
        lead = step - d
        x, y = mu_m * d, -mu_p * lead
        f1, f2 = d * _phi1(x), d * d * _phi2(x) / step
        b1, b2 = lead * _phi1(y), lead * lead * _phi2(y) / step
        theta = d / step
        w_lo = (1.0 - theta) * (f1 + b1) + f2 - b2
        w_hi = theta * (f1 + b1) - f2 + b2
        return norm * math.exp(x), norm * math.exp(y), norm * w_lo, norm * w_hi

    def _below_first(self, ell: float) -> float:
        """The value at t_0 - ell, 0 < ell < step: the left tail's own
        response there plus bwd_0 discounted over ell.

        The kernel switches branch at s = t_0 - ell: the tail below it
        meets the decaying branch, the tail above it the growing one,
        whose piece degenerates when rate = mu_plus (resonance) into the
        ell e^{-mu_plus ell} form.
        """
        k = self.plan.kernel
        v, rate, slope = self.left_tail
        N, mu_p, u = k.norm, k.mu_plus_root, -ell
        # antiderivatives of (v + slope*u) e^{gamma u} up to u = -ell
        gamma = rate - k.mu_minus_root
        decaying = N * np.exp(rate * u) * (v / gamma + slope * (u / gamma - 1.0 / gamma**2))
        delta = rate - mu_p
        if abs(delta) <= 1e-8 * max(1.0, mu_p):
            growing = -v * u - 0.5 * slope * u * u
        else:
            x = delta * u
            growing = v * (-np.expm1(x) / delta) + slope * ((np.expm1(x) - x * np.exp(x)) / delta**2)
        tail = float(decaying + N * np.exp(mu_p * u) * growing)
        return tail + N * math.exp(-mu_p * ell) * float(self.bwd[0])

    def at(self, i: int, delta: float) -> float:
        """The value at t_i + delta, 0 <= i < n and |delta| < step, in O(1)."""
        if delta < 0.0:
            if i == 0:
                return self._below_first(-delta)
            i, delta = i - 1, delta + self.plan.step  # t_i - ell = t_{i-1} + (step - ell)
        elif delta == 0.0:
            return self.nodes(slice(i, i + 1)).item()
        return self._in_cell(i, self._weights(delta))

    def _in_cell(self, i: int, weights: tuple[float, float, float, float]) -> float:
        """The value inside cell [t_i, t_{i+1}] (past the last node for
        i = n - 1) whose :meth:`_weights` are given, in float arithmetic."""
        cf, cb, w_lo, w_hi = weights
        if i < self.src.size - 1:
            b_next, lo, hi = self.bwd.item(i + 1), self.src.item(i), self.src.item(i + 1)
        else:  # past the last node the source is the constant closure
            rc = self.right_const
            b_next, lo, hi = rc / self.plan.kernel.mu_plus_root, rc, rc
        return cf * self.fwd.item(i) + cb * b_next + w_lo * lo + w_hi * hi

    def shifted_into(self, out: np.ndarray, first: int, delta: float) -> np.ndarray:
        """Write the values at t_j + delta, j = first .. first + out.size - 1,
        into ``out`` and return it; |delta| < step.

        Elementwise the same arithmetic as :meth:`at`, so a node read
        with either gives the same number.  The products go through the
        plan's scratch, so the only array written is ``out``.
        """
        n, stop = self.src.size, first + out.size
        if delta == 0.0:
            out[:] = self.nodes(slice(first, stop))
            return out
        lag = int(delta < 0.0)  # t_j - ell = t_{j-1} + (step - ell): node j reads cell j-1
        weights = self._weights(delta + self.plan.step if lag else delta)
        cf, cb, w_lo, w_hi = weights
        a, b = max(first - lag, 0), min(stop - lag, n - 1)  # cells [t_c, t_{c+1}] read
        body = out[a + lag - first : b + lag - first]
        np.multiply(self.fwd[a:b], cf, out=body)
        part = np.multiply(self.bwd[a + 1 : b + 1], cb, out=self.plan.work[: b - a])
        body += part
        body += np.multiply(self.src[a:b], w_lo, out=part)
        body += np.multiply(self.src[a + 1 : b + 1], w_hi, out=part)
        edge = 0 if lag else n - 1  # the one node whose read leaves the cells
        if first <= edge < stop:
            out[edge - first] = self._below_first(-delta) if lag else self._in_cell(edge, weights)
        return out

    def derivative(self) -> np.ndarray:
        """The derivative at every node, exact like the values: fwd' =
        mu_minus fwd + source and bwd' = mu_plus bwd - source, and K is
        continuous at 0, so the source terms cancel."""
        k = self.plan.kernel
        return k.norm * (k.mu_minus_root * self.fwd + k.mu_plus_root * self.bwd)


def convolve(plan: ScanPlan, src, left_tail, right_const: float) -> Convolution:
    """integral of K(t_i - s) * source(s) over all of R, at every grid node.

    The scan runs in ``plan``, which holds the kernel K and the nodes t.
    source = piecewise-linear interpolant of ``src`` on t, extended by
    ``left_tail`` below t[0] and by the constant ``right_const`` above
    t[-1].  The node values are ``.values`` of the result, which also reads
    the convolution between nodes without another scan
    (:meth:`Convolution.at`, :meth:`Convolution.shifted_into`).
    """
    k = plan.kernel
    src = _on_grid(plan.t, src)
    rc = float(right_const)
    # the decaying branch starts from the whole left tail, the growing branch
    # from the constant right closure
    fwd, bwd = plan.scan(src, _tail_moment(k, left_tail), rc / k.mu_plus_root)
    return Convolution(plan, src, left_tail, rc, fwd, bwd)


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
    plan = ScanPlan(k, t)
    if np.size(src) < 3:
        raise ValueError("offset evaluation needs at least three nodes")
    if not abs(delta) < plan.step:
        raise ValueError(f"|delta| must be below one step, got {delta:g}")
    conv = convolve(plan, src, left_tail, right_const)
    return conv.shifted_into(np.empty(plan.t.size), 0, delta)


def exp_integral_right(t, src, rate: float, tail_const: float = 0.0):
    """integral of e^{rate (t_i - s)} src(s) over s in [t_i, +inf).

    src is piecewise linear on the uniform grid, constant ``tail_const``
    beyond t[-1]; requires rate > 0 for convergence.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    # the backward branch of a unit-norm kernel whose two rates are both ``rate``
    return convolve(ScanPlan(GreenKernel(rate, -rate, 1.0), t), src, LeftTail(0.0, rate), tail_const).bwd


def pl_exp_integral(t, src, rate: float) -> float:
    """Exact integral of e^{rate s} * (piecewise-linear src) over [t[0], t[-1]]."""
    t, step = _nodes(t)
    src = _on_grid(t, src)
    w_hi, w_lo, _ = _cell_weights(step, -rate)  # a cell's far node is its right one
    cell = w_lo * src[:-1] + w_hi * src[1:]
    return float(np.dot(np.exp(rate * t[:-1]), cell))
