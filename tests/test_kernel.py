import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from semifront.kernel import (
    GreenKernel,
    LeftTail,
    Recurrence,
    ScanPlan,
    _phi1,
    _phi2,
    convolve,
    convolve_at_offset,
    exp_integral_right,
    make_kernel,
    pl_exp_integral,
)

RNG = np.random.default_rng(20260819)


def random_cq(n):
    return zip(RNG.uniform(0.1, 6.0, n), RNG.uniform(0.0, 4.0, n))


# ------------------------------------------------------------ construction


def test_kernel_roots_c2_q0():
    k = make_kernel(2.0, 0.0)
    assert k.mu_plus_root == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-14)
    assert k.mu_minus_root == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-14)
    assert k.norm == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), rel=1e-14)


def test_kernel_k0_root_gap_formula():
    for c, q in random_cq(20):
        k = make_kernel(c, q)
        assert k(0.0) == pytest.approx(1.0 / math.sqrt(c * c + 4 * (1 + q)), rel=1e-13)


def test_kernel_positive_and_continuous():
    k = make_kernel(1.3, 0.7)
    ts = np.linspace(-30, 30, 501)
    assert np.all(k(ts) > 0)
    assert k(1e-12) == pytest.approx(k(-1e-12), rel=1e-9)


def test_kernel_mass_identity():
    for c, q in random_cq(20):
        k = make_kernel(c, q)
        total = quad(k, -np.inf, 0.0)[0] + quad(k, 0.0, np.inf)[0]
        assert abs(total - 1.0 / (1.0 + q)) <= 1e-10


def test_kernel_satisfies_ode_away_from_origin():
    eps = 1e-4
    for c, q in random_cq(10):
        k = make_kernel(c, q)
        for t0 in (-0.8, 0.6, 2.0):
            k2 = (k(t0 + eps) - 2 * k(t0) + k(t0 - eps)) / eps**2
            k1 = (k(t0 + eps) - k(t0 - eps)) / (2 * eps)
            assert k2 - c * k1 - (1 + q) * k(t0) == pytest.approx(0.0, abs=1e-5 * k(t0) + 1e-9)


def test_kernel_derivative_jump_is_one():
    eps = 2e-6
    for c, q in random_cq(20):
        k = make_kernel(c, q)
        left = (3 * k(0.0) - 4 * k(-eps) + k(-2 * eps)) / (2 * eps)
        right = (-3 * k(0.0) + 4 * k(eps) - k(2 * eps)) / (2 * eps)
        assert left - right == pytest.approx(1.0, abs=1e-8)


def test_make_kernel_rejects_bad_args():
    with pytest.raises(ValueError):
        make_kernel(0.0, 1.0)
    with pytest.raises(ValueError):
        make_kernel(2.0, -0.1)


# ------------------------------------------------------------- convolution


def grid(a, b, step):
    return np.arange(a, b + step / 2, step)


def test_convolve_constant_source_total_mass():
    for c, q in [(2.0, 0.0), (1.7, 0.8), (0.4, 2.5)]:
        k = make_kernel(c, q)
        t = grid(-10, 10, 0.05)
        out = convolve(ScanPlan(k, t), np.ones_like(t), LeftTail(1.0, 0.0), 1.0).values
        assert np.max(np.abs(out - 1.0 / (1.0 + q))) <= 1e-12


def test_convolve_zero_source():
    k = make_kernel(1.1, 0.3)
    t = grid(-5, 5, 0.1)
    out = convolve(ScanPlan(k, t), np.zeros_like(t), LeftTail(0.0, 1.0), 0.0).values
    assert np.all(out == 0.0)


def test_convolve_eigenfunction_identity_kpp():
    # chi(lambda, c) = 0 makes e^{lambda t} a fixed point of the linearized
    # map s -> K * ((1+q) s + f'(0) s); with q=0, c=2.5 the rate is 0.5
    c, lam = 2.5, 0.5
    k = make_kernel(c, 0.0)

    def run(step):
        t = grid(-80.0, 40.0, step)
        phi = np.exp(lam * t)
        src = phi + phi  # (1+q)phi + atom-at-0 evaluation
        out = convolve(ScanPlan(k, t), src, LeftTail(2 * phi[0], lam), 2 * phi[-1]).values
        sel = t <= 30.0  # keep clear of the (wrong) constant right extension
        return np.max(np.abs(out[sel] - phi[sel]) / phi[sel])

    err = run(0.02)
    assert err <= 2e-5
    # the only error is PL sampling of the exponential: second order in step
    assert run(0.01) <= err / 3.0


def test_convolve_linearity():
    k = make_kernel(2.2, 0.4)
    t = grid(-8, 8, 0.05)
    s1 = RNG.uniform(0, 1, t.size)
    s2 = RNG.uniform(0, 1, t.size)
    tail1, tail2 = LeftTail(s1[0], 0.7), LeftTail(s2[0], 0.7)
    out12 = convolve(ScanPlan(k, t), 2 * s1 + 3 * s2, LeftTail(2 * s1[0] + 3 * s2[0], 0.7), 2 * s1[-1] + 3 * s2[-1]).values
    ref = 2 * convolve(ScanPlan(k, t), s1, tail1, s1[-1]).values + 3 * convolve(ScanPlan(k, t), s2, tail2, s2[-1]).values
    assert np.max(np.abs(out12 - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_convolve_monotone_in_source():
    k = make_kernel(1.4, 0.9)
    t = grid(-6, 6, 0.05)
    lo = RNG.uniform(0.0, 1.0, t.size)
    hi = lo + RNG.uniform(0.0, 1.0, t.size)
    out_lo = convolve(ScanPlan(k, t), lo, LeftTail(lo[0], 0.5), lo[-1]).values
    out_hi = convolve(ScanPlan(k, t), hi, LeftTail(hi[0], 0.5), hi[-1]).values
    assert np.all(out_hi >= out_lo - 1e-14)


def test_convolve_exact_for_piecewise_linear_source():
    # interior quadrature is closed-form: compare against adaptive quad
    k = make_kernel(1.9, 1.2)
    t = grid(-5, 5, 0.5)
    vals = RNG.uniform(-1, 1, t.size)
    out = convolve(ScanPlan(k, t), vals, LeftTail(0.0, 1.0), 0.0).values
    pl = lambda s: np.interp(s, t, vals)
    for idx in (2, 7, 10, 14, 18):
        ti = t[idx]
        ref = quad(
            lambda s: k(ti - s) * pl(s), t[0], t[-1], points=list(t[::2]) + [ti], limit=400
        )[0]
        assert out[idx] == pytest.approx(ref, abs=1e-10)


def test_convolve_second_order_in_step_on_smooth_source():
    k = make_kernel(2.0, 0.5)

    def run(step):
        t = grid(-12, 12, step)
        src = 1.0 / (1.0 + np.exp(-t))
        return t, convolve(ScanPlan(k, t), src, LeftTail(src[0], 1.0), src[-1]).values

    tc, coarse = run(0.1)
    tf, fine = run(0.05)
    diff = np.max(np.abs(coarse - fine[::2][: coarse.size]))
    tq, quarter = run(0.025)
    diff2 = np.max(np.abs(fine - quarter[::2][: fine.size]))
    assert 2.5 <= diff / diff2 <= 6.0  # ~4 for a second-order scheme


def test_convolve_input_validation():
    k = make_kernel(1.0, 0.0)
    t = grid(0, 1, 0.1)
    with pytest.raises(ValueError):
        convolve(ScanPlan(k, t), np.ones(t.size - 1), LeftTail(0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        convolve(ScanPlan(k, np.array([0.0, 0.1, 0.3])), np.zeros(3), LeftTail(0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        convolve(ScanPlan(k, t), np.ones(t.size), LeftTail(1.0, -0.2), 0.0)


def test_grid_step_is_exact_on_offset_grid():
    # one node difference at |t| ~ 80 is ~2e-13 off the step; the span is not,
    # so a convolution does not depend on where its grid sits
    t = -80.0 + 0.02 * np.arange(4001)
    k = make_kernel(2.5, 1.0)
    assert ScanPlan(k, t).step == pytest.approx(0.02, rel=1e-15)
    src = 1.0 / (1.0 + np.exp(-np.linspace(-5.0, 5.0, t.size)))
    here = convolve(ScanPlan(k, t), src, LeftTail(src[0], 1.0), 1.0).values
    origin = convolve(ScanPlan(k, 0.02 * np.arange(t.size)), src, LeftTail(src[0], 1.0), 1.0).values
    assert np.max(np.abs(here - origin) / origin) <= 1e-15


# ------------------------------------------------------------ _phi2 series


def phi2_series_loop(x):
    """The series sum x^k/((k+2) k!), k <= 10, summed term by term."""
    acc, term = 0.0, 1.0  # term = x^k/k!
    for k in range(11):
        acc += term / (k + 2)
        term *= x / (k + 1)
    return acc


def phi2_exact(x):
    """The same series in exact rationals (far past x^10), rounded once."""
    X, acc, term = Fraction(x), Fraction(0), Fraction(1)
    for k in range(25):
        acc += term / (k + 2)
        term *= X / (k + 1)
    return float(acc)


def test_phi2_horner_matches_series_loop():
    xs = np.linspace(-0.15, 0.15, 20001)[1:-1]
    horner = np.array([_phi2(float(x)) for x in xs])
    loop = np.array([phi2_series_loop(float(x)) for x in xs])
    # the term-by-term loop itself is up to 4 ulp off near x = -0.15
    # (alternating terms); Horner's rule stays within 1 ulp of the exact sum
    assert np.max(np.abs(horner - loop) / np.spacing(loop)) <= 4.0
    picks = np.concatenate((xs[::97], xs[:40], xs[-40:]))
    exact = np.array([phi2_exact(float(x)) for x in picks])
    got = np.array([_phi2(float(x)) for x in picks])
    assert np.max(np.abs(got - exact) / np.spacing(exact)) <= 1.0


@pytest.mark.parametrize("edge", [0.15, -0.15])
def test_phi2_continuous_at_series_edge(edge):
    inside = math.nextafter(edge, 0.0)
    assert abs(inside) < 0.15  # the series side
    closed = (math.exp(edge) * (edge - 1.0) + 1.0) / (edge * edge)
    assert _phi2(edge) == closed
    assert _phi2(inside) == pytest.approx(closed, rel=1e-13)


# ------------------------------------------------------------ the scan


def scan_reference(src, step, rate, start):
    """The forward branch's recurrence, one node at a time."""
    x = -rate * step
    far = step * _phi2(x)
    near = step * _phi1(x) - far
    a, out = math.exp(x), [start]
    for lo, hi in zip(src[:-1].tolist(), src[1:].tolist()):
        out.append(a * out[-1] + (far * lo + near * hi))
    return np.array(out)


def branch_references(src, step, rates, starts):
    """Both branches one node at a time, the backward one on the reversed source."""
    bwd = scan_reference(src[::-1], step, rates[1], starts[1])[::-1]
    return scan_reference(src, step, rates[0], starts[0]), bwd


def fresh_scan(src, step, rates, starts):
    """Both branches of ``src`` in a plan of its own, on a unit-norm kernel
    with the forward rate -mu_minus and the backward rate mu_plus."""
    fwd_rate, bwd_rate = rates
    return ScanPlan(GreenKernel(bwd_rate, -fwd_rate, 1.0), step * np.arange(src.size)).scan(src, *starts)


def assert_branches_match_loop(src, step, rates, starts=(0.3, 0.7)):
    got = fresh_scan(src, step, rates, starts)
    for out, ref in zip(got, branch_references(src, step, rates, starts)):
        assert np.max(np.abs(out - ref) / ref) <= 1e-14


SCAN_CASES = [
    (20, 0.02, 2.5),  # below one block
    (1000, 0.02, 0.4),  # not whole blocks
    (3001, 0.02, 2.5),  # more than 32 blocks: the carries recurse
    (40000, 0.01, 0.3),  # more than 32^2 blocks: they recurse twice
    (3001, 0.5, 60.0),  # a^32 underflows
    (3001, 0.02, 1e-7),  # rate step near 0
]


@pytest.mark.parametrize("n, step, rate", SCAN_CASES)
def test_exp_scan_matches_recurrence(n, step, rate):
    # each branch at the case's rate, the other at an ordinary one, on a
    # source and on a reversed view of one
    src = RNG.uniform(0.1, 1.0, n)
    for s in (src, src[::-1]):
        for rates in ((rate, 2.5), (2.5, rate)):
            assert_branches_match_loop(s, step, rates)


@pytest.mark.parametrize("n", [2, 3, 31, 32, 33, 63, 64, 65, 1000, 10001])
def test_two_branch_scan_matches_one_node_loop(n):
    # one block, its edges and its multiples, where node n (the backward
    # start's slot) opens a row; a^32 below the smallest normal float at
    # rate step 30 and 12; a near 1
    src = RNG.uniform(0.1, 1.0, n)
    for step, rates in ((0.02, (2.5, 0.4)), (0.5, (60.0, 24.0)), (0.5, (1e-7, 60.0))):
        assert_branches_match_loop(src, step, rates)


@pytest.mark.parametrize("n, step, rate", SCAN_CASES)
def test_plain_recurrence_matches_loop(n, step, rate):
    # the recurrence alone, fed its input directly, as the time stepper's
    # implicit diffusion runs it, on the scans' sizes and multipliers
    a = math.exp(-rate * step)
    rec = Recurrence(n, a)
    src = RNG.uniform(0.1, 1.0, n)
    acc, ref = 0.0, []
    for v in src.tolist():
        acc = a * acc + v
        ref.append(acc)
    for _ in range(2):  # a scan leaves carries in the input's block starts
        rec.u[:n] = src
        out = rec.scan(np.empty(rec.u.size))
        assert np.max(np.abs(out - ref) / ref) <= 1e-14


@pytest.mark.parametrize("n, levels", [(31, 1), (33, 1), (1057, 2), (40000, 3)])
def test_scan_plan_reuse_matches_fresh_scan(n, levels):
    # one plan's scan, run twice on different sources (the second a reversed
    # view): every run equals a fresh scan bit for bit and the one-node
    # recurrence within the scan's bound, whatever the last run left in the
    # buffers, and returns arrays of its own; n spans one block and a carry
    # loop (its carries fit in one block), and two and three levels of carry
    step = 0.01
    k = make_kernel(2.5, 0.5)
    plan = ScanPlan(k, step * np.arange(n))
    rates = (-k.mu_minus_root, k.mu_plus_root)
    for carry in (plan.fwd_carry, plan.bwd_carry):
        chain, rec = 0, carry
        while rec is not None:  # each carry is a recurrence over its parent's block ends
            chain, rec = chain + 1, rec.carry
        assert chain == levels
    for src in (RNG.uniform(0.1, 1.0, n), RNG.uniform(0.1, 1.0, n)[::-1]):
        got = plan.scan(src, 0.3, 0.7)
        fresh = fresh_scan(src, step, rates, (0.3, 0.7))
        for out, again, ref in zip(got, fresh, branch_references(src, step, rates, (0.3, 0.7))):
            assert not np.shares_memory(out, plan.buf)
            assert np.array_equal(out, again)
            assert np.max(np.abs(out - ref) / ref) <= 1e-14


def test_convolutions_keep_their_arrays():
    # a convolution in a shared plan equals one in a fresh plan bit for bit,
    # and neither is overwritten by a later convolution in its plan
    k, grid = make_kernel(2.5, 0.0), 0.02 * np.arange(-1500, 1501)
    plan = ScanPlan(k, grid)
    tail = LeftTail(0.01, 0.4)
    first_src, later_src = RNG.uniform(0.1, 1.0, (2, len(grid)))
    fresh = convolve(ScanPlan(k, grid), first_src, tail, 0.7)
    shared = convolve(plan, first_src, tail, 0.7)
    assert fresh.plan is not plan and shared.plan is plan
    kept = [x.copy() for x in (first_src, fresh.fwd, fresh.bwd, fresh.values)]
    for _ in range(2):
        for conv in (fresh, shared):
            arrays = (conv.src, conv.fwd, conv.bwd, conv.values)
            assert all(np.array_equal(x, y) for x, y in zip(arrays, kept))
        convolve(plan, later_src, tail, 0.2)
        convolve(fresh.plan, later_src, tail, 0.2)


# ------------------------------------------------------------- tail pieces


def quad_tail(k, tail, t_minus, t_eval):
    v, rate, slope = tail
    f = lambda s: k(t_eval - s) * (v + slope * (s - t_minus)) * np.exp(rate * (s - t_minus))
    lo = t_minus - 80.0 / max(rate - k.mu_minus_root, 0.3)
    pts = [t_eval] if lo < t_eval < t_minus else None
    return quad(f, lo, t_minus, points=pts, limit=300)[0]


def tail_only(k, tail, t):
    """The convolution of a zero source on ``t``: bwd is zero, so every
    read is the left tail's own response."""
    return convolve(ScanPlan(k, t), np.zeros(t.size), tail, 0.0)


def test_tail_response_matches_quadrature():
    # a step-3 grid from T- = -3 reads tm - 2 below the first node
    k = make_kernel(2.5, 0.0)
    tm = -3.0
    cases = [
        LeftTail(0.7, 0.9),
        LeftTail(0.7, 0.9, -0.12),  # critical linear-times-exponential shape
        LeftTail(0.4, 0.0),  # constant tail
    ]
    for tail in cases:
        conv = tail_only(k, tail, grid(tm, tm + 9.0, 3.0))
        reads = {tm - 2.0: conv.at(0, -2.0), tm - 0.4: conv.at(0, -0.4), tm: conv.values[0],
                 tm + 1.7: conv.at(0, 1.7), tm + 6.0: conv.values[2]}
        for te, got in reads.items():
            assert got == pytest.approx(quad_tail(k, tail, tm, te), abs=1e-11)


def test_tail_response_resonant_rate():
    # rate == mu_plus degenerates the growing-branch antiderivative; the
    # dedicated (T- - t) e^{mu t} branch must take over for t < T-
    k = make_kernel(2.5, 0.0)
    tm = -3.0
    t = grid(tm, tm + 9.0, 3.0)
    tail = LeftTail(0.5, k.mu_plus_root, 0.0)
    conv = tail_only(k, tail, t)
    for ell in (2.0, 0.3):
        assert conv.at(0, -ell) == pytest.approx(quad_tail(k, tail, tm, tm - ell), rel=1e-9)
    # near-resonant rates agree with the resonant limit
    near = tail_only(k, LeftTail(0.5, k.mu_plus_root * (1 + 3e-9), 0.0), t).at(0, -1.0)
    assert near == pytest.approx(conv.at(0, -1.0), rel=1e-6)


def test_tail_response_continuous_at_break():
    k = make_kernel(1.8, 0.6)
    conv = tail_only(k, LeftTail(0.9, 0.4, -0.05), grid(0.0, 3.0, 1.0))
    assert conv.at(0, -1e-10) == pytest.approx(conv.values[0], rel=1e-8)


def test_tail_response_rejects_growing_tail():
    k = make_kernel(1.0, 0.0)
    with pytest.raises(ValueError):
        tail_only(k, LeftTail(1.0, -0.5), grid(0.0, 3.0, 1.0))


# ------------------------------------------------- auxiliary exponentials


def test_exp_integral_right_eigen_identity():
    # int_t^inf e^{c(t-s)} e^{lam s} ds = e^{lam t}/(c-lam); for the KPP pair
    # (lam, c) = (0.5, 2.5) the prefactor is exactly lam
    c, lam = 2.5, 0.5
    t = grid(-40, 40, 0.02)
    src = np.exp(lam * t)
    out = exp_integral_right(t, src, c, tail_const=src[-1])
    sel = t <= 30
    rel = np.abs(out[sel] - lam * src[sel]) / (lam * src[sel])
    assert rel.max() <= 2e-5


def test_exp_integral_right_vs_quad():
    t = grid(-4, 4, 0.25)
    vals = RNG.uniform(-1, 1, t.size)
    pl = lambda s: np.interp(s, t, vals)
    out = exp_integral_right(t, vals, 1.3, tail_const=0.0)
    for idx in (0, 9, 20):
        ref = quad(
            lambda s: math.exp(1.3 * (t[idx] - s)) * pl(s),
            t[idx],
            t[-1],
            points=[x for x in t[::2] if x > t[idx]],
            limit=400,
        )[0]
        assert out[idx] == pytest.approx(ref, abs=1e-11)


def test_exp_integral_right_requires_positive_rate():
    t = grid(0, 1, 0.1)
    with pytest.raises(ValueError):
        exp_integral_right(t, np.ones(t.size), 0.0)


def test_pl_exp_integral_vs_quad():
    t = grid(-5, 3, 0.4)
    vals = RNG.uniform(-2, 2, t.size)
    pl = lambda s: np.interp(s, t, vals)
    for rate in (-0.7, 0.0, 0.9):
        got = pl_exp_integral(t, vals, rate)
        ref = quad(lambda s: math.exp(rate * s) * pl(s), t[0], t[-1], points=list(t[::2]), limit=400)[0]
        assert got == pytest.approx(ref, abs=1e-11)


# ------------------------------------------------------ offset evaluation


def quad_offset(k, t, vals, tail, rc, tau):
    """Full-line convolution at an arbitrary point, by adaptive quadrature."""
    pl = lambda s: np.interp(s, t, vals)
    mid = quad(
        lambda s: k(tau - s) * pl(s), t[0], t[-1],
        points=list(t) + [tau], limit=800, epsabs=1e-12,
    )[0]
    left = quad_tail(k, tail, t[0], tau)
    # constant closure beyond the last node, integrated on the right branch
    # (and across the kernel break when tau lies past the edge)
    mu_p, mu_m = k.mu_plus_root, k.mu_minus_root
    if tau <= t[-1]:
        right = rc * k.norm * math.exp(mu_p * (tau - t[-1])) / mu_p
    else:
        right = rc * k.norm * ((math.exp(mu_m * (tau - t[-1])) - 1.0) / mu_m + 1.0 / mu_p)
    return left + mid + right


def test_offset_constant_state_is_equilibrium():
    for c, q in [(2.0, 0.0), (1.7, 0.8)]:
        k = make_kernel(c, q)
        t = grid(-8, 8, 0.05)
        src = np.full(t.size, 1.0 + q)
        tail = LeftTail(1.0 + q, 0.0)
        for delta in (-0.037, -0.002, 0.013, 0.049):
            out = convolve_at_offset(k, t, src, tail, 1.0 + q, delta)
            assert np.max(np.abs(out - 1.0)) <= 1e-12


def test_offset_matches_quadrature():
    k = make_kernel(2.1, 0.6)
    step = 0.25
    t = grid(-4, 4, step)
    vals = RNG.uniform(0.2, 1.0, t.size)
    tail = LeftTail(vals[0], 0.8, -0.1)
    rc = float(vals[-1])
    for delta in (0.6 * step, -0.6 * step, 0.04 * step, -0.97 * step):
        out = convolve_at_offset(k, t, vals, tail, rc, delta)
        for idx in (0, 1, t.size // 2, t.size - 2, t.size - 1):
            ref = quad_offset(k, t, vals, tail, rc, t[idx] + delta)
            assert out[idx] == pytest.approx(ref, abs=2e-9)


def test_offset_read_matches_quadrature_critical_resonant_tail():
    # the accumulator read at single nodes, both signs of delta; the tail is
    # critical (slope != 0) at the resonant rate mu_plus, and the right
    # closure differs from the last node value
    k = make_kernel(2.1, 0.6)
    step = 0.25
    t = grid(-4, 4, step)
    vals = RNG.uniform(0.2, 1.0, t.size)
    tail = LeftTail(vals[0], k.mu_plus_root, -0.1)
    rc = 0.5 * float(vals[-1])
    conv = convolve(ScanPlan(k, t), vals, tail, rc)
    for delta in (0.37 * step, -0.37 * step, 0.9 * step, -0.9 * step):
        for idx in (0, 1, t.size // 2, t.size - 2, t.size - 1):
            ref = quad_offset(k, t, vals, tail, rc, t[idx] + delta)
            assert conv.at(idx, delta) == pytest.approx(ref, abs=2e-9)


def test_offset_node_probe_equals_vector_read():
    k = make_kernel(2.3, 0.9)
    step = 0.1
    t = grid(-7, 7, step)
    vals = RNG.uniform(0.1, 1.1, t.size)
    conv = convolve(ScanPlan(k, t), vals, LeftTail(vals[0], 0.7, -0.02), 0.8)
    for delta in (-0.93 * step, -0.3 * step, 0.0, 0.41 * step, 0.99 * step):
        row = conv.shifted_into(np.empty(t.size), 0, delta)
        for idx in (0, 1, t.size // 2, t.size - 2, t.size - 1):
            assert conv.at(idx, delta) == row[idx]


@pytest.mark.parametrize("delta", [0.37, -0.37, 0.999, -0.999, 0.0])
@pytest.mark.parametrize("n", [0, 3, -3])
def test_shifted_into_equals_node_reads(delta, n):
    # the pin writes the nodes i + n at offset delta into out[lo:hi]; every
    # node, the last one (delta > 0) and the first (delta < 0) included,
    # equals the O(1) probe bit for bit
    k = make_kernel(2.3, 0.9)
    step = 0.1
    t = grid(-7, 7, step)
    vals = RNG.uniform(0.1, 1.1, t.size)
    conv = convolve(ScanPlan(k, t), vals, LeftTail(vals[0], 0.7, -0.02), 0.8)
    lo, hi = max(0, -n), min(t.size, t.size - n)
    out = np.full(t.size, np.nan)
    got = conv.shifted_into(out[lo:hi], lo + n, delta * step)
    assert np.shares_memory(got, out)
    ref = [conv.at(j, delta * step) for j in range(lo + n, hi + n)]
    assert np.array_equal(out[lo:hi], ref)
    assert np.all(np.isnan(out[:lo])) and np.all(np.isnan(out[hi:]))


def test_offset_zero_delta_is_convolve():
    k = make_kernel(1.4, 0.3)
    t = grid(-6, 6, 0.1)
    vals = RNG.uniform(0, 1, t.size)
    tail = LeftTail(vals[0], 0.5)
    out0 = convolve_at_offset(k, t, vals, tail, vals[-1], 0.0)
    ref = convolve(ScanPlan(k, t), vals, tail, vals[-1]).values
    assert np.array_equal(out0, ref)


def test_offset_sign_paths_agree():
    # t_i + delta equals t_{i+1} + (delta - step): the positive- and
    # negative-offset code paths must produce the same physical values
    k = make_kernel(2.3, 0.9)
    step = 0.1
    t = grid(-7, 7, step)
    vals = RNG.uniform(0.1, 1.1, t.size)
    tail = LeftTail(vals[0], 0.7, -0.02)
    rc = float(vals[-1])
    for delta in (0.3 * step, 0.71 * step):
        pos = convolve_at_offset(k, t, vals, tail, rc, delta)
        neg = convolve_at_offset(k, t, vals, tail, rc, delta - step)
        scale = np.max(np.abs(pos))
        assert np.max(np.abs(pos[:-1] - neg[1:])) <= 1e-12 * scale


def test_offset_eigenfunction_identity():
    # chi(lam, c) = 0 keeps e^{lam t} invariant at off-grid points too
    c, lam = 2.5, 0.5
    k = make_kernel(c, 0.0)
    t = grid(-60.0, 40.0, 0.02)
    phi = np.exp(lam * t)
    for delta in (0.011, -0.013):
        out = convolve_at_offset(k, t, 2 * phi, LeftTail(2 * phi[0], lam), 2 * phi[-1], delta)
        target = np.exp(lam * (t + delta))
        sel = t <= 30.0
        assert np.max(np.abs(out[sel] - target[sel]) / target[sel]) <= 2e-5


def test_offset_resonant_tail_rate():
    # tail rate == mu_plus degenerates the growing-branch antiderivative in
    # the corner evaluation below the first node
    k = make_kernel(2.5, 0.0)
    step = 0.2
    t = grid(-3, 3, step)
    vals = RNG.uniform(0.2, 0.8, t.size)
    tail = LeftTail(vals[0], k.mu_plus_root, 0.0)
    out = convolve_at_offset(k, t, vals, tail, float(vals[-1]), -0.4 * step)
    ref = quad_offset(k, t, vals, tail, float(vals[-1]), t[0] - 0.4 * step)
    assert out[0] == pytest.approx(ref, abs=2e-9)


def test_offset_input_validation():
    k = make_kernel(1.0, 0.0)
    t = grid(0, 1, 0.1)
    vals = np.ones(t.size)
    with pytest.raises(ValueError):
        convolve_at_offset(k, t, vals, LeftTail(1.0, 1.0), 1.0, 0.2)
    with pytest.raises(ValueError):
        convolve_at_offset(k, np.array([0.0, 0.1]), np.ones(2), LeftTail(1.0, 1.0), 1.0, 0.01)
