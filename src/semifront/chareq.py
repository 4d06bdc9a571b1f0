"""Characteristic function of the linearized wave equation and its zeros.

For a linearization -q*phi(0) + sum_j w_j*phi(s_j) the profile ansatz
e^{z t} leads to the exponential polynomial

    chi(z, c) = z^2 - c z - q + sum_j w_j e^{c z s_j},       s_j in [-h, 0].

Every function takes a :class:`~semifront.model.Model` (chi reads its
``lin``) and works one point at a time in ``math``/``cmath`` arithmetic,
so the speed analysis imports no numpy; :func:`eval_chi` is chi's one
implementation.

Restricted to real z, chi is strictly convex (chi_zz >= 2), so it has at
most two real zeros 0 < lambda1 <= lambda2; they exist iff the speed c
reaches the critical speed c*, at which the two collide into a double
root.  The minimum over real z is strictly decreasing in c, so its sign
brackets c*, and Brent's method on that sign finds c* independently of
the Newton solve on the double-root system chi = chi_z = 0.

Complex zeros are counted with the argument principle on rectangle
boundaries.  A boundary segment [u, v] is halved until |v - u| times a
bound on |chi_z| over it falls below min(|chi(u)|, |chi(v)|); chi then
maps it into a disc that excludes 0, so its principal argument increment
is exact.  The count certifies that no zero other than lambda1 and
lambda2 lies in {Re z >= lambda1 - eps}: on the zero set,
z^2 - c z = q - sum w_j e^{czs_j} is bounded by q + p whenever Re z >= 0,
hence |z| <= (c + sqrt(c^2 + 4(q+p)))/2; see README for the derivation.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Optional

from ._brentq import brentq
from .model import Model

__all__ = [
    "SpeedAnalysis",
    "RealRoots",
    "ContourError",
    "SubcriticalError",
    "eval_chi",
    "chi_dz",
    "chi_dzz",
    "chi_dc",
    "chi_dzc",
    "char_min",
    "real_roots",
    "critical_speed",
    "critical_speed_newton",
    "critical_speed_bisection",
    "count_zeros_rect",
    "dominance_check",
    "analyze_speed",
    "zero_modulus_bound",
]

DOUBLE_ROOT_RTOL = 1e-6  # roots merged when |l2-l1| < tol*max(1, l2)
# |chi| below CHI_ATOL*(1 + p + q) is zero: Newton's stop on the double-root
# system, and the least band in which real_roots merges a double root
CHI_ATOL = 1e-13
# the dominance half plane is {Re z >= lambda1 - DOMINANCE_EPS}; the zero
# count's default rectangle starts on the same edge
DOMINANCE_EPS = 1e-3


class ContourError(RuntimeError):
    """Rectangle contour could not be certified zero-free."""


class SubcriticalError(ValueError):
    """Operation requires real characteristic roots (c >= c*)."""


# ------------------------------------------------------------ evaluation
#
# All partials below are plain calculus on chi, at one point z (real or
# complex) and one speed c; a real z takes math.exp, a complex one cmath.exp.


def _exp(z):
    return cmath.exp if isinstance(z, complex) else math.exp


def _chi(m: Model, c: float):
    """chi(., c) as a function of z alone, its per-atom constants computed once."""
    q = m.lin.q
    terms = tuple((c * s, w) for s, w in m.lin.atoms)

    def chi(z):
        exp = _exp(z)
        out = z * z - c * z - q
        for cs, w in terms:
            out = out + w * exp(cs * z)
        return out

    return chi


def _atom_sum(m: Model, z, c: float, out, factor):
    """out + sum_j factor(s_j, w_j) e^{c s_j z} over the delayed atoms."""
    exp = _exp(z)
    for s, w in m.lin.atoms:
        out = out + factor(s, w) * exp(c * s * z)
    return out


def eval_chi(m: Model, z, c: float):
    return _chi(m, c)(z)


def chi_dz(m: Model, z, c: float):
    return _atom_sum(m, z, c, 2.0 * z - c, lambda s, w: w * (c * s))


def chi_dzz(m: Model, z, c: float):
    return _atom_sum(m, z, c, 2.0, lambda s, w: w * (c * s) ** 2)


def chi_dc(m: Model, z, c: float):
    return _atom_sum(m, z, c, -z + 0.0, lambda s, w: w * (s * z))


def chi_dzc(m: Model, z, c: float):
    return _atom_sum(m, z, c, -1.0, lambda s, w: w * s * (1.0 + c * s * z))


def zero_modulus_bound(m: Model, c: float) -> float:
    """|z| bound for zeros of chi(., c) in the closed right half plane.

    If chi(z,c)=0 and Re z >= 0 then |e^{czs_j}| <= 1, so
    |z^2 - cz| <= q + p and |z| <= (c + sqrt(c^2 + 4(q+p)))/2.
    """
    return 0.5 * (c + math.sqrt(c * c + 4.0 * (m.lin.q + m.lin.p)))


# ------------------------------------------------------------ real roots


class RealRoots(NamedTuple):
    lambda1: float
    lambda2: float
    critical: bool


def char_min(m: Model, c: float) -> tuple[float, float]:
    """(argmin, min) of chi(., c) over real z.

    chi_z is strictly increasing with chi_z(0) = -c - c*sum w_j|s_j| < 0,
    so the minimizer is the unique positive zero of chi_z.
    """
    if not 0.0 < c < math.inf:  # a NaN or infinite c would never bracket
        raise ValueError(f"speed must be positive and finite, got {c}")
    b = max(1.0, 0.5 * (c + math.sqrt(c * c + 4.0 * m.lin.q)))
    while chi_dz(m, b, c) <= 0:  # chi_z(z) >= 2z - c - c p h is eventually positive
        b *= 2.0
    z_min = brentq(lambda z: chi_dz(m, z, c), 0.0, b, xtol=1e-14, rtol=4e-15)
    return z_min, eval_chi(m, z_min, c)


def real_roots(m: Model, c: float) -> RealRoots:
    """The two positive real zeros lambda1 <= lambda2 of chi(., c).

    Roots closer than the double-root tolerance are merged and flagged
    critical.  Near-critical minima within the merge band of zero are
    treated as a double root at the minimizer (either sign).  A positive
    convex minimum means c < c*, the one refusal of a speed: it raises
    SubcriticalError, computing c* for its message alone.
    """
    z_min, chi_min = char_min(m, c)
    sep_tol = DOUBLE_ROOT_RTOL * max(1.0, z_min)
    # chi ~ chi_min + (z - z_min)^2 chi_zz/2 near the minimum, so a root
    # separation below sep_tol corresponds to |chi_min| below this band,
    # widened to Newton's stop so that the c* it returns reads critical:
    band = max(0.5 * chi_dzz(m, z_min, c) * (0.5 * sep_tol) ** 2,
               CHI_ATOL * (1.0 + m.lin.p + m.lin.q))
    if chi_min > band:
        raise SubcriticalError(f"speed {float(c)} is below the critical speed {critical_speed(m)[0]}: no real roots")
    if chi_min >= -band:
        return RealRoots(z_min, z_min, True)

    hi = 0.5 * (c + math.sqrt(c * c + 4.0 * m.lin.q))  # chi > z^2-cz-q ⇒ roots < hi
    f = _chi(m, c)
    if f(hi) <= 0.0:  # exponential tail underflowed; nudge out
        hi = hi * (1.0 + 1e-12) + 1e-12
    l1 = brentq(f, 0.0, z_min, xtol=1e-14, rtol=4e-15)
    l2 = brentq(f, z_min, hi, xtol=1e-14, rtol=4e-15)
    if l2 - l1 < DOUBLE_ROOT_RTOL * max(1.0, l2):
        mid = 0.5 * (l1 + l2)
        return RealRoots(mid, mid, True)
    return RealRoots(l1, l2, False)


# ------------------------------------------------------- critical speed


def critical_speed_bisection(m: Model) -> tuple[float, float]:
    """(c*, lambda*) by Brent's method on the sign of min_z chi(z, c).

    The minimum is strictly decreasing in c (chi_c < 0 at positive z), is
    positive as c -> 0+ and nonpositive at the closed-form bound
    2*sqrt(p - q), so the sign change brackets c*, which
    :func:`~._brentq.brentq` closes to 1e-12 relative.  It uses no
    derivative, so it checks Newton independently.
    """
    p, q = m.lin.p, m.lin.q
    c_hi = 2.0 * math.sqrt(p - q)
    z_hi, m_hi = char_min(m, c_hi)
    # min chi(., c_hi) <= 0 always, with equality iff all atoms sit at lag 0;
    # a tiny |min| is that equality up to roundoff, so c_hi IS the answer
    if abs(m_hi) <= 1e-11 * (1.0 + p + q):
        return c_hi, z_hi
    c_lo = 1e-8
    _, m_lo = char_min(m, c_lo)
    if m_lo <= 0 or m_hi > 0:
        raise RuntimeError("critical-speed bracket failed; degenerate linearization?")
    c_star = brentq(lambda c: char_min(m, c)[1], c_lo, c_hi, xtol=1e-12 * max(1.0, c_hi))
    return c_star, char_min(m, c_star)[0]


def critical_speed_newton(
    m: Model, guess: tuple[float, float] | None = None
) -> tuple[float, float, int, float]:
    """(c*, lambda*, iterations, residual) from damped Newton on the
    double-root system chi(lam, c) = 0, chi_z(lam, c) = 0.

    The Jacobian at the solution is [[0, chi_c], [chi_zz, chi_zc]] with
    determinant -chi_c*chi_zz > 0, so Newton is locally quadratic.  The
    default start is the zero-delay closed form lam = sqrt(p-q), c = 2 lam.
    Converged at |(chi, chi_z)| <= CHI_ATOL (1 + p + q), within 100 steps.
    """
    p, q = m.lin.p, m.lin.q
    if guess is None:
        lam0 = math.sqrt(p - q)
        lam, c = lam0, 2.0 * lam0
    else:
        lam, c = guess
    tol = CHI_ATOL * (1.0 + p + q)
    fnorm = math.inf
    for it in range(100):
        F0 = eval_chi(m, lam, c)
        F1 = chi_dz(m, lam, c)
        fnorm = math.hypot(F0, F1)
        if fnorm <= tol:
            return c, lam, it, fnorm
        # the Jacobian's first row is (chi_z, chi_c), and chi_z is F1
        J01 = chi_dc(m, lam, c)
        J10 = chi_dzz(m, lam, c)
        J11 = chi_dzc(m, lam, c)
        det = F1 * J11 - J01 * J10
        if det == 0.0:
            break
        dlam = -(F0 * J11 - J01 * F1) / det
        dc = -(F1 * F1 - F0 * J10) / det
        alpha = 1.0
        while alpha > 2.0**-40:
            lam_n, c_n = lam + alpha * dlam, c + alpha * dc
            if lam_n > 0 and c_n > 0:
                fn = math.hypot(eval_chi(m, lam_n, c_n), chi_dz(m, lam_n, c_n))
                if fn < fnorm * (1.0 - 1e-4 * alpha) or fn <= tol:
                    lam, c = lam_n, c_n
                    break
            alpha *= 0.5
        else:
            break  # no productive step; let caller fall back
    raise RuntimeError(f"Newton failed to converge (residual {fnorm:.3e})")


def critical_speed(m: Model) -> tuple[float, float]:
    """(c*, lambda*) with both routes cross-checked.

    Newton on the double-root system is the primary method; the sign
    search on the characteristic minimum (:func:`critical_speed_bisection`)
    is run as an independent check and as the fallback (restarting Newton
    from its point) when the default start does not converge.
    """
    c_bis, lam_bis = critical_speed_bisection(m)
    try:
        c_n, lam_n, _, _ = critical_speed_newton(m)
    except RuntimeError:
        try:
            c_n, lam_n, _, _ = critical_speed_newton(m, guess=(lam_bis, c_bis))
        except RuntimeError:
            return c_bis, lam_bis  # the sign search alone; already sign-certified
    if abs(c_n - c_bis) > 1e-6 * max(1.0, c_bis):
        raise RuntimeError(
            f"critical-speed methods disagree: newton {c_n!r} vs bisection {c_bis!r}"
        )
    return c_n, lam_n


# --------------------------------------------------- rectangle zero count


class _TooClose(Exception):
    pass


_GUARD = 1e-12  # |chi| below this, relative to 1 + |z|^2, is "on a zero"
_ATTEMPTS = 3  # dilations of a rectangle whose contour touches a zero
MAX_CONTOUR_SAMPLES = 1_000_000  # the most vertices one contour may take


def _growth(m: Model, c: float):
    """G(x) = sum_j w_j c|s_j| e^{c s_j x}, the delayed atoms' part of
    count_zeros_rect's bound S at real part x (inf past the float range)."""
    terms = tuple((s, w * c * abs(s)) for s, w in m.lin.atoms if s)

    def G(x: float) -> float:
        out = 0.0
        for s, k in terms:
            try:
                out += k * math.exp(c * (s * x))
            except OverflowError:
                return math.inf
        return out

    return G


def count_zeros_rect(m: Model, c: float, re_range: tuple[float, float], im_max: float) -> int:
    """Number of zeros of chi(., c), with multiplicity, inside the
    rectangle [a, b] x [-im_max, im_max], by the argument principle.

    The boundary is one closed polyline of 16 segments an edge, and every
    segment [u, v] with |v - u| S >= min(|chi(u)|, |chi(v)|) is halved
    until none is, where S = 2 max(|u|, |v|) + c + sum_j w_j c|s_j|
    e^{c max(s_j Re u, s_j Re v)} bounds |chi_z| on [u, v].  As every
    s_j <= 0, the sum is G (:func:`_growth`) at the endpoint of smaller
    real part, so each vertex carries |z| and G(Re z).  chi then maps
    each segment into a disc about chi(u) that excludes 0, so the winding
    number is the sum of the principal argument increments.  The segments
    are halved a level at a time, all halves of one level before the next.
    A non-finite chi on the contour is refused (ValueError), and a contour
    that needs more than MAX_CONTOUR_SAMPLES vertices raises ContourError.
    A vertex where |chi| < 1e-12 (1 + |z|^2) flags the contour as too
    close to a zero; the rectangle is then dilated by a small relative
    amount, at most three times.
    """
    a, b = re_range
    if not (a < b) or im_max <= 0:
        raise ValueError("empty rectangle")
    chi, G = _chi(m, c), _growth(m, c)

    def at(zs: list) -> list:
        """(chi(z), |chi(z)|, |z|, G(Re z)) at each vertex of one level;
        refuses a non-finite chi, then flags a zero."""
        out, close = [], False
        for z in zs:
            try:
                f = chi(z)
            except OverflowError:  # an e^{c s z} past the float range: no value
                f = complex(math.nan, math.nan)
            if not cmath.isfinite(f):
                raise ValueError(f"chi(z) = {f} is not finite at z = {z} on the zero-count contour")
            r, r_z = math.hypot(f.real, f.imag), abs(z)  # abs(f) raises where |f| overflows
            close = close or r < _GUARD * (1.0 + r_z * r_z)
            out.append((f, r, r_z, G(z.real)))
        if close:
            raise _TooClose
        return out

    for attempt in range(_ATTEMPTS + 1):
        da = attempt * 3e-4 * (1.0 + abs(a))
        db = attempt * 3e-4 * (1.0 + abs(b))
        dy = attempt * 1e-3 * im_max
        corners = [complex(a - da, -(im_max + dy)), complex(b + db, -(im_max + dy)),
                   complex(b + db, im_max + dy), complex(a - da, im_max + dy)]
        zs = [z0 + (z1 - z0) * (k / 16) for z0, z1 in zip(corners, corners[1:] + corners[:1]) for k in range(16)]
        try:
            fs = at(zs)
            level = list(zip(zs, zs[1:] + zs[:1], fs, fs[1:] + fs[:1]))  # the closed polyline's segments
            total, samples = 0.0, len(zs)
            while level:  # sum the certified segments' increments, halve the rest
                split = []
                for seg in level:  # max() and min() cost twice these conditionals here
                    u, v, (fu, ru, r_u, gu), (fv, rv, r_v, gv) = seg
                    S = 2.0 * (r_u if r_u > r_v else r_v) + c + (gu if u.real <= v.real else gv)
                    if abs(v - u) * S < (ru if ru < rv else rv):
                        total += cmath.phase(fv / fu)
                    else:
                        split.append(seg)
                if (samples := samples + len(split)) > MAX_CONTOUR_SAMPLES:
                    raise ContourError(f"the zero-count contour needs more than {MAX_CONTOUR_SAMPLES} samples")
                mids = [0.5 * (u + v) for u, v, _, _ in split]
                fms = at(mids)
                level = [(u, z, fu, fz) for (u, _, fu, _), z, fz in zip(split, mids, fms)]
                level += [(z, v, fz, fv) for (_, v, _, fv), z, fz in zip(split, mids, fms)]
        except _TooClose:
            continue
        winding = total / (2.0 * math.pi)
        n = round(winding)
        if abs(winding - n) > 0.05:
            raise ContourError(f"winding {winding} is not close to an integer")
        if n < 0:
            raise ContourError(f"negative winding {n}: contour orientation bug")
        return int(n)
    raise ContourError(
        f"a zero sits on (or within {_GUARD} of) every perturbed contour near "
        f"[{a},{b}]x[-{im_max},{im_max}]"
    )


def dominance_check(m: Model, c: float) -> bool:
    """True iff lambda1 dominates: the only zeros of chi(., c) with
    Re z >= lambda1 - DOMINANCE_EPS are the real pair {lambda1, lambda2}.

    The scan rectangle extends to R = zero_modulus_bound + 1 on the right
    and +-Y vertically with Y = 10 (c + p + q + 1) above the same bound,
    so it contains every zero of that half plane; the count must equal
    2 (a double root counts twice).
    """
    rr = real_roots(m, c)
    R = zero_modulus_bound(m, c) + 1.0
    Y = 10.0 * (c + m.lin.p + m.lin.q + 1.0)  # R <= c + sqrt(p + q) + 1 < Y
    return count_zeros_rect(m, c, (rr.lambda1 - DOMINANCE_EPS, R), Y) == 2


# -------------------------------------------------------------- summary


class SpeedAnalysis(NamedTuple):
    c: float
    lambda1: float
    lambda2: float
    critical: bool
    c_star: float
    dominance_ok: Optional[bool]  # None: not checked


def analyze_speed(
    m: Model, c: float | None = None, *, check_dominance: bool = True
) -> SpeedAnalysis:
    """Full root/speed report at speed c (or at c* when c is None).

    Raises SubcriticalError when c < c*, ValueError when c is not positive and finite.
    """
    c_star = critical_speed(m)[0]
    c_eff = c_star if c is None else float(c)
    rr = real_roots(m, c_eff)
    dom = dominance_check(m, c_eff) if check_dominance else None
    return SpeedAnalysis(c_eff, rr.lambda1, rr.lambda2, rr.critical, c_star, dom)
