import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import count_zeros_rect_vectorized
from semifront import chareq as ce
from semifront import kernel, profile, verify
from semifront.model import Measure, builtin_kpp, builtin_mackey_glass, builtin_may, builtin_nicholson

KPP = builtin_kpp(1.0)
NICH = builtin_nicholson(1.0, 2.0)

# Nicholson p=2, h=1 has a closed-form critical point: plugging lambda = c
# into chi = chi_z = 0 gives 2 e^{-c^2} = 1 and c(1 - h) = 0, so for h = 1
# the double root sits at lambda* = c* = sqrt(ln 2).
NICH_C_STAR = math.sqrt(math.log(2.0))


# ------------------------------------------------------------- evaluation


def test_chi_at_zero_equals_p_minus_q():
    for c in (0.5, 1.0, 2.0, 7.0):
        assert ce.eval_chi(KPP, 0.0, c) == pytest.approx(1.0, abs=1e-14)
        assert ce.eval_chi(NICH, 0.0, c) == pytest.approx(1.0, abs=1e-14)


def test_chi_kpp_double_root_point():
    assert ce.eval_chi(KPP, 1.0, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_partials_match_finite_differences():
    # spot-check the hand-derived partial derivatives used by Newton
    lam, c, eps = 0.7, 1.4, 1e-6
    d = {
        ce.chi_dz: lambda l, s: ce.eval_chi(NICH, l + s, c),
        ce.chi_dc: lambda l, s: ce.eval_chi(NICH, l, c + s),
    }
    for fn, ev in d.items():
        fd = (ev(lam, eps) - ev(lam, -eps)) / (2 * eps)
        assert float(fn(NICH, lam, c)) == pytest.approx(float(fd), rel=1e-8)
    fd = (ce.chi_dz(NICH, lam + eps, c) - ce.chi_dz(NICH, lam - eps, c)) / (2 * eps)
    assert float(ce.chi_dzz(NICH, lam, c)) == pytest.approx(float(fd), rel=1e-8)
    fd = (ce.chi_dz(NICH, lam, c + eps) - ce.chi_dz(NICH, lam, c - eps)) / (2 * eps)
    assert float(ce.chi_dzc(NICH, lam, c)) == pytest.approx(float(fd), rel=1e-8)


# ------------------------------------------------------------- real roots


def test_kpp_roots_at_2_5():
    rr = ce.real_roots(KPP, 2.5)
    assert not rr.critical
    # h=0-form quadratic z^2 - 2.5 z + 1 = (z - 0.5)(z - 2)
    assert rr.lambda1 == pytest.approx(0.5, abs=1e-10)
    assert rr.lambda2 == pytest.approx(2.0, abs=1e-10)


def test_kpp_double_root_at_2():
    rr = ce.real_roots(KPP, 2.0)
    assert rr.critical
    assert rr.lambda1 == pytest.approx(1.0, abs=1e-9)
    assert rr.lambda1 == rr.lambda2


def test_zero_delay_models_reduce_to_quadratic():
    # with every atom at s=0 chi is literally z^2 - cz + (p - q)
    m = builtin_mackey_glass(
        0.0, lambda u: 2.0 * u - u * u, g_prime_0=2.0, kappa=1.0, smoothness=(1.0, 1.0, 0.5), bound=4.0
    )
    for c in (2.1, 3.0, 5.5):
        disc = math.sqrt(c * c - 4.0)
        rr = ce.real_roots(m, c)
        assert rr.lambda1 == pytest.approx((c - disc) / 2, abs=1e-12)
        assert rr.lambda2 == pytest.approx((c + disc) / 2, abs=1e-12)


def test_root_ordering_and_sign_change():
    rr = ce.real_roots(NICH, 1.4)
    assert 0 < rr.lambda1 < rr.lambda2
    eps = 1e-4
    assert ce.eval_chi(NICH, rr.lambda1 - eps, 1.4) > 0 > ce.eval_chi(NICH, rr.lambda1 + eps, 1.4)
    assert ce.eval_chi(NICH, rr.lambda2 - eps, 1.4) < 0 < ce.eval_chi(NICH, rr.lambda2 + eps, 1.4)


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(0.0, 2.0),
    w=st.floats(0.1, 3.0),
    s=st.floats(-2.0, 0.0),
    dc=st.floats(0.01, 3.0),
)
def test_root_residual_invariant(q, w, s, dc):
    m = dataclasses.replace(builtin_kpp(-s), lin=Measure(q=q, atoms=((s, q + w),)))
    c_star, _ = ce.critical_speed_bisection(m)
    rr = ce.real_roots(m, c_star + dc)
    for lam in (rr.lambda1, rr.lambda2):
        assert abs(ce.eval_chi(m, lam, c_star + dc)) <= 1e-9 * (1 + lam * lam)
        # roots live strictly inside the a-priori interval (0, z2)
        z2 = 0.5 * (c_star + dc + math.sqrt((c_star + dc) ** 2 + 4 * q))
        assert 0 < lam < z2 + 1e-12


def test_lambda1_decreases_lambda2_increases_with_c():
    cs = [NICH_C_STAR + d for d in (0.2, 0.5, 1.0, 2.0)]
    roots = [ce.real_roots(NICH, c) for c in cs]
    l1 = [r.lambda1 for r in roots]
    l2 = [r.lambda2 for r in roots]
    assert all(a > b for a, b in zip(l1, l1[1:]))
    assert all(a < b for a, b in zip(l2, l2[1:]))


# --------------------------------------------------------- critical speed


@pytest.mark.parametrize("h", [0.0, 0.5, 1.0, 2.0])
def test_kpp_critical_speed_all_delays(h):
    c_star, lam_star = ce.critical_speed(builtin_kpp(h))
    assert c_star == pytest.approx(2.0, abs=1e-10)
    assert lam_star == pytest.approx(1.0, abs=1e-9)


def test_mg_zero_delay_reduces_to_kpp_values():
    m = builtin_mackey_glass(
        0.0, lambda u: 2.0 * u - u * u, g_prime_0=2.0, kappa=1.0, smoothness=(1.0, 1.0, 0.5), bound=4.0
    )
    c_star, lam_star = ce.critical_speed(m)
    assert c_star == pytest.approx(2.0, abs=1e-12)
    assert lam_star == pytest.approx(1.0, abs=1e-12)


def test_nicholson_critical_speed_closed_form():
    c_n, lam_n, _, res = ce.critical_speed_newton(NICH)
    c_b, lam_b = ce.critical_speed_bisection(NICH)
    assert abs(c_n - c_b) <= 1e-8
    assert c_n == pytest.approx(NICH_C_STAR, abs=1e-11)
    assert lam_n == pytest.approx(NICH_C_STAR, abs=1e-11)
    assert abs(ce.eval_chi(NICH, lam_n, c_n)) <= 1e-9
    assert abs(ce.chi_dz(NICH, lam_n, c_n)) <= 1e-9


@pytest.mark.parametrize("m", [builtin_nicholson(h, p) for p in (2.0, 10.0, 20.0) for h in (0.5, 1.0, 2.0)]
                         + [builtin_may(h, 2.0, 2.0, 1.0) for h in (0.5, 1.0, 2.0)])
def test_sign_search_agrees_with_newton(m):
    # Brent's method on the sign of min chi uses no derivative, yet lands
    # within 1e-12 relative of Newton on the double-root system
    c_n, lam_n, _, _ = ce.critical_speed_newton(m)
    c_b, _ = ce.critical_speed_bisection(m)
    assert abs(c_b - c_n) <= 1e-12 * c_n
    assert ce.critical_speed(m) == (c_n, lam_n)


@pytest.mark.parametrize("m", [builtin_nicholson(20.0, 2.0), builtin_may(20.0, 2.0, 2.0, 1.0)], ids=["nicholson", "may"])
def test_newton_restarts_from_the_sign_search(m):
    # at h = 20 Newton's zero-delay start does not converge; critical_speed
    # restarts it from the sign search's point, where it stops at once
    with pytest.raises(RuntimeError, match=r"^Newton failed to converge \(residual 1\.000e\+00\)$"):
        ce.critical_speed_newton(m)
    c_b, lam_b = ce.critical_speed_bisection(m)
    assert (c_b, lam_b) == (0.08815166263225042, 0.6273772568988332)
    assert ce.critical_speed_newton(m, guess=(lam_b, c_b))[:3] == (c_b, lam_b, 0)
    assert ce.critical_speed(m) == (c_b, lam_b)


def test_critical_speed_below_zero_delay_bound():
    # delayed atoms only weaken the exponential term, so c* <= 2 sqrt(p-q)
    for m in (NICH, builtin_kpp(3.0), builtin_nicholson(2.0, 1.7)):
        c_star, _ = ce.critical_speed(m)
        bound = 2.0 * math.sqrt(m.lin.p - m.lin.q)
        assert c_star <= bound + 1e-12


@pytest.mark.parametrize("name, h, p", [
    ("nicholson", 1.0, 1e5), ("nicholson", 4.0, 1e6), ("may", 0.5, 1e5), ("may", 2.0, 1e6),
    ("nicholson", 0.1, 2.0),
])
def test_critical_speed_has_a_double_root(name, h, p):
    # Newton stops at |chi| <= CHI_ATOL (1+p+q), which grows with p; the merge
    # band of real_roots must hold its answer, or c* itself reads subcritical
    m = builtin_nicholson(h, p) if name == "nicholson" else builtin_may(h, p, 2.0, 1.0)
    c_star, _ = ce.critical_speed(m)
    roots = ce.real_roots(m, c_star)
    assert roots.critical
    assert not ce.real_roots(m, c_star * (1.0 + 1e-6)).critical


def test_char_min_is_global_minimum():
    z_min, chi_min = ce.char_min(NICH, 1.1)
    zs = np.linspace(1e-3, 5.0, 400).tolist()
    assert chi_min <= min(ce.eval_chi(NICH, z, 1.1) for z in zs) + 1e-12


# ----------------------------------------------------------- zero counts


def test_count_kpp_rect_examples():
    assert ce.count_zeros_rect(KPP, 2.5, (0.4, 2.1), 10.0) == 2
    assert ce.count_zeros_rect(KPP, 2.5, (0.6, 1.9), 10.0) == 0


def test_count_nicholson_tight_rect_tall_contour():
    c = NICH_C_STAR + 0.5
    rr = ce.real_roots(NICH, c)
    n = ce.count_zeros_rect(NICH, c, (rr.lambda1 - 1e-3, rr.lambda2 + 1e-3), 50.0)
    assert n == 2


def test_count_additive_over_vertical_split():
    total = ce.count_zeros_rect(KPP, 2.5, (0.4, 2.1), 10.0)
    left = ce.count_zeros_rect(KPP, 2.5, (0.4, 1.3), 10.0)
    right = ce.count_zeros_rect(KPP, 2.5, (1.3, 2.1), 10.0)
    assert total == left + right == 2


def test_count_double_root_counts_twice():
    n = ce.count_zeros_rect(KPP, 2.0, (0.9, 1.1), 5.0)
    assert n == 2


def test_contour_through_root_auto_perturbs():
    # left edge passes exactly through the zero at 0.5; the guard must
    # trigger and the dilated contour still yields a definite answer
    n = ce.count_zeros_rect(KPP, 2.5, (0.5, 2.1), 10.0)
    assert n == 2


def test_count_rejects_empty_rectangle():
    with pytest.raises(ValueError):
        ce.count_zeros_rect(KPP, 2.5, (1.0, 0.5), 10.0)


# ------------------------------------------------------------- dominance


def test_dominance_kpp():
    assert ce.dominance_check(KPP, 2.5) is True


def test_dominance_nicholson_supercritical_and_critical():
    assert ce.dominance_check(NICH, NICH_C_STAR + 1.0) is True
    assert ce.dominance_check(NICH, NICH_C_STAR) is True


# the (h, p, c - c*) points of nicholson, h in {0, 0.25, 0.5, 1, 1.5, 2},
# p in {1.5, 2, 2.5, 3}, c - c* in {0, 1e-3, 1e-2}, where a count that
# sampled the boundary ~0.25 apart read one zero of two: the rectangle's
# left edge passes 1e-3 from lambda1, so chi's phase turns by nearly 2*pi
# between two such samples (ROADMAP item 2; may shares the linearization)
UNCERTIFIED_DOMINANCE = [
    (0.0, 1.5, 0.0), (0.0, 1.5, 1e-3), (0.0, 2.5, 0.0), (0.25, 2.5, 0.0),
    (0.25, 2.5, 1e-3), (1.0, 1.5, 1e-3), (1.0, 3.0, 0.0), (1.0, 3.0, 1e-3),
    (1.5, 2.0, 0.0), (1.5, 2.0, 1e-3), (1.5, 2.5, 0.0), (1.5, 2.5, 1e-3),
    (1.5, 3.0, 0.0), (1.5, 3.0, 1e-3), (2.0, 2.0, 0.0), (2.0, 2.0, 1e-3),
    (2.0, 2.5, 0.0), (2.0, 3.0, 1e-3),
]


@pytest.mark.parametrize("h, p, dc", UNCERTIFIED_DOMINANCE)
def test_dominance_near_critical_speed(h, p, dc):
    m = builtin_nicholson(h, p)
    assert ce.dominance_check(m, ce.critical_speed(m)[0] + dc) is True


@pytest.fixture(scope="module")
def item2_rectangles():
    """Item 2's grid, both models: (label, model, c, rectangle, height) of
    the dominance rectangle (left edge lambda1 - 1e-3) and its twin with
    the edge at lambda1 - 0.1, 288 in all."""
    out = []
    for name, h, p, dc in itertools.product(
        ("nicholson", "may"), (0.0, 0.25, 0.5, 1.0, 1.5, 2.0), (1.5, 2.0, 2.5, 3.0), (0.0, 1e-3, 1e-2)
    ):
        m = builtin_nicholson(h, p) if name == "nicholson" else builtin_may(h, p, 2.0, 1.0)
        c = ce.critical_speed(m)[0] + dc
        lam1, R = ce.real_roots(m, c).lambda1, ce.zero_modulus_bound(m, c) + 1.0
        Y = 10.0 * (c + m.lin.p + m.lin.q + 1.0)
        out += [((name, h, p, dc, eps), m, c, (lam1 - eps, R), Y) for eps in (ce.DOMINANCE_EPS, 0.1)]
    return out


def test_chi_dz_bound_holds_on_the_dominance_rectangles(item2_rectangles):
    # the count's bound on |chi_z| holds on 64 points an edge of each
    # rectangle (2|z| + c alone fails on 132 of them); that each holds
    # exactly the real pair is asserted by the walk test below
    for label, m, c, (lo, R), Y in item2_rectangles:
        corners = [complex(lo, -Y), complex(R, -Y), complex(R, Y), complex(lo, Y)]
        G = ce._growth(m, c)
        for z0, z1 in zip(corners, corners[1:] + corners[:1]):
            for z in (z0 + (z1 - z0) * (k / 64) for k in range(64)):
                assert abs(ce.chi_dz(m, z, c)) <= 2.0 * abs(z) + c + G(z.real), (label, z)


def test_scalar_walk_matches_the_vectorized_walk(item2_rectangles, monkeypatch):
    # the scalar walk and the numpy walk split the same segments: same
    # count, two (each rectangle holds exactly the real pair), and same
    # vertices evaluated
    evaluated = []
    chi = ce._chi

    def counted(m, c):
        f = chi(m, c)

        def g(z):
            evaluated.append(z)
            return f(z)

        return g

    monkeypatch.setattr(ce, "_chi", counted)
    for label, m, c, rect, Y in item2_rectangles:
        evaluated.clear()
        n = ce.count_zeros_rect(m, c, rect, Y)
        assert n == 2, label
        assert (n, len(evaluated)) == count_zeros_rect_vectorized(m, c, rect, Y), label


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_zero_delay_counts_match_the_closed_form(p):
    # at h = 0, chi = z^2 - cz + p - 1 has exactly the zeros (c -+ d)/2,
    # d = sqrt(c^2 - 4(p - 1)); a rectangle counts those it holds
    m = builtin_nicholson(0.0, p)
    for dc in (1e-3, 1e-2, 1.0):
        c = 2.0 * math.sqrt(p - 1.0) + dc
        d = math.sqrt(c * c - 4.0 * (p - 1.0))
        r1, r2, R = 0.5 * (c - d), 0.5 * (c + d), ce.zero_modulus_bound(m, c) + 1.0
        for lo, expected in ((r1 - 1e-3, 2), (r1 + 1e-4, 1), (r2 + 1e-4, 0)):
            assert ce.count_zeros_rect(m, c, (lo, R), 10.0 * (c + p + 2.0)) == expected


def test_dominance_requires_real_roots():
    with pytest.raises(ce.SubcriticalError):
        ce.dominance_check(KPP, 1.5)


def test_zero_modulus_bound_contains_roots():
    c = NICH_C_STAR + 0.7
    rr = ce.real_roots(NICH, c)
    bound = ce.zero_modulus_bound(NICH, c)
    assert rr.lambda2 < bound


# --------------------------------------------------------------- summary


def test_analyze_speed_supercritical():
    sa = ce.analyze_speed(KPP, 2.5)
    assert sa.lambda1 == pytest.approx(0.5, abs=1e-10)
    assert sa.lambda2 == pytest.approx(2.0, abs=1e-10)
    assert not sa.critical and sa.dominance_ok
    assert sa.c_star == pytest.approx(2.0, abs=1e-10)


def test_analyze_speed_defaults_to_critical():
    sa = ce.analyze_speed(KPP)
    assert sa.critical
    assert sa.c == pytest.approx(2.0, abs=1e-10)
    assert sa.lambda1 == pytest.approx(1.0, abs=1e-6)


def test_analyze_speed_subcritical_raises():
    with pytest.raises(ce.SubcriticalError):
        ce.analyze_speed(KPP, 1.5)


def test_unchecked_dominance_reads_none():
    assert ce.analyze_speed(KPP, 2.5, check_dominance=False).dominance_ok is None


# ------------------------------------------------------------ speed gate


@pytest.fixture
def no_checks(monkeypatch):
    """verify's structural and sampled checks, each failing the test if called."""

    def check(*args, **kwargs):
        pytest.fail("a check ran before the speed was refused")

    for name in ("check_structure", "check_S", "check_UB", "check_LB"):
        monkeypatch.setattr(verify, name, check)


@pytest.mark.parametrize("entry", [
    ce.real_roots,
    ce.analyze_speed,
    ce.dominance_check,
    profile.solve_profile,
    lambda m, c: verify.verify_model(m, c=c),
], ids=["real_roots", "analyze_speed", "dominance_check", "solve_profile", "verify_model"])
def test_subcritical_speed_refused_with_one_message(entry, no_checks):
    # every library entry point refuses c < c* with the message the CLI
    # prints, and verify_model does so before any check runs
    with pytest.raises(ce.SubcriticalError) as refused:
        entry(KPP, 1.5)
    assert str(refused.value) == "speed 1.5 is below the critical speed 2.0: no real roots"


def test_supercritical_gate_computes_no_critical_speed(monkeypatch):
    # c* is computed for the refusal's message alone: verify_model's gate
    # and the solve it runs call real_roots and nothing that finds c*
    monkeypatch.setattr(ce, "critical_speed", lambda m: pytest.fail("c* was computed"))
    report = verify.verify_model(KPP, n_samples=20, c=2.5)
    assert report.q_min is not None and not report.failed_solves


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("entry", [
    ce.char_min,
    ce.real_roots,
    ce.analyze_speed,
    profile.solve_profile,
    lambda m, c: verify.verify_model(m, c=c),
    lambda m, c: kernel.make_kernel(c, m.lin.q),
], ids=["char_min", "real_roots", "analyze_speed", "solve_profile", "verify_model", "make_kernel"])
def test_speed_not_positive_and_finite_refused(entry, c, no_checks):
    # a NaN or infinite speed used to double char_min's bracket 80 times
    # and fail as a RuntimeError, and make_kernel returned a NaN kernel
    with pytest.raises(ValueError, match=f"speed must be positive and finite, got {c}"):
        entry(KPP, c)
