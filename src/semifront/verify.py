"""Sampled hypothesis checks, profile diagnostics, and a uniqueness harness.

The checks draw random piecewise-linear history segments and test the
structural inequalities the front theory rests on: monostability of the
reaction on constants, the smoothness modulus near 0, the upper bound of
the functional by its linearization, and the lower bound by the delayed
mass.  A pass is a falsification result, not a proof: it means no
counterexample was found at the given sample size and seed.  Every fail
carries the concrete violating segments so it can be replayed.

On top of the sampled checks, ``diagnostics_Q`` evaluates the gap between
the linearization and the functional along a computed profile (which the
upper-linearization property predicts to be nonnegative) together with its
exponentially weighted integral (predicted strictly positive), and
``uniqueness_harness`` corroborates uniqueness-up-to-translation by
solving from independent initial guesses and aligning the results.

The sampled checks need the model and numpy alone: the speed gate, the
solver and the kernel integral are imported on first use, so the checks
without a speed load no ``chareq``, ``profile`` or ``kernel``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from . import _lazy_getattr
from ._brentq import brentq
from .model import Model

if TYPE_CHECKING:
    from .profile import ProfileSolution, SolverOptions

__all__ = [
    "CheckResult",
    "VerificationReport",
    "FALSIFICATION_NOTE",
    "check_UB",
    "check_LB",
    "check_S",
    "check_structure",
    "diagnostics_Q",
    "align_profiles",
    "uniqueness_harness",
    "verify_model",
]

FALSIFICATION_NOTE = (
    "sampled checks falsify, they do not prove: a pass means no counterexample "
    "was found at the recorded sample size and seed"
)

#: knots per random segment; endpoints -h and 0 are always knots, which is
#: where every built-in model reads its history.
N_KNOTS = 8

#: absolute slack applied to every sampled inequality.
SLACK = 1e-12

#: default samples per hypothesis and default (LB) test level epsilon,
#: shared by the checks, :func:`verify_model` and the CLI.
N_SAMPLES = 10_000
EPSILON = 0.1

MAX_SAMPLE_VALUES = 10_000_000  # samples x knots of one batch, refused before any draw

# The speed gate, solver and kernel names the driver, the diagnostics and
# the harness call, bound on first access as in ``semifront.cli`` and
# called through ``_this``: a wrapper or stub set on this module's
# attribute (the benchmark's tracer, a test's capped solve) is what runs.
__getattr__ = _lazy_getattr(globals(), {
    "chareq": ("real_roots",),
    "kernel": ("pl_exp_integral",),
    "profile": ("SolverOptions", "ShiftedRead", "scan_shift", "solve_profile", "tail_start", "up_crossing"),
})
_this = sys.modules[__name__]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one sampled or structural check.

    ``counterexample`` is None on a pass; on a fail it holds the violating
    segments and values keyed by name, enough to replay the inequality.
    """

    name: str
    passed: bool
    n_samples: int
    seed: int
    detail: str
    counterexample: dict | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Aggregated verification outcome for one model.

    ``hypotheses`` maps the check names M, S, J, ND, UB, LB to their
    results.  ``q_min`` and ``pi_integral`` are profile diagnostics (None
    when no profile was requested or its solve did not converge),
    ``uniqueness`` lists (shift, sup_distance) per aligned pair,
    ``excluded_seeds`` the indices of harness runs that failed to
    converge, and ``failed_solves`` the requested solves that failed: a
    profile that did not converge, a harness left with under two runs.
    """

    model: str
    hypotheses: Mapping[str, CheckResult]
    q_min: float | None = None
    pi_integral: float | None = None
    uniqueness: tuple[tuple[float, float], ...] = ()
    excluded_seeds: tuple[int, ...] = ()
    failed_solves: tuple[str, ...] = ()
    note: str = FALSIFICATION_NOTE

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.hypotheses.values())

    def to_dict(self) -> dict:
        uniqueness = [{"shift": s, "sup_distance": d} for s, d in self.uniqueness]
        return {**dataclasses.asdict(self), "all_passed": self.all_passed, "uniqueness": uniqueness}


# ---------------------------------------------------------------------------
# random piecewise-linear segments, vectorized over a sample batch


def _knot_grid(h: float) -> np.ndarray:
    return np.zeros(1) if h == 0 else np.linspace(-h, 0.0, N_KNOTS)


def _log_uniform(rng, lo: float, hi: float, size) -> np.ndarray:
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=size))


def _reader(h: float, vals: np.ndarray) -> Callable[[float], np.ndarray]:
    """read(s): the point value of each row of a (n, k) knot batch at s in [-h, 0]."""
    k = vals.shape[1]
    if h == 0 or k == 1:
        return lambda s: vals[:, 0]

    def read(s: float) -> np.ndarray:
        pos = (s + h) / h * (k - 1)
        j = min(max(int(pos), 0), k - 2)
        w = pos - j
        return (1.0 - w) * vals[:, j] + w * vals[:, j + 1]

    return read


def _increments(m: Model, phi: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(psi) - f(phi) and f'(0)[psi - phi] for each row of two knot batches."""
    df = m.react(_reader(m.h, psi)) - m.react(_reader(m.h, phi))
    return df, m.lin.apply(_reader(m.h, psi - phi))


def _sup_norms(vals: np.ndarray) -> np.ndarray:
    # piecewise-linear functions attain their max norm at a knot
    return np.max(np.abs(vals), axis=1)


def _counterexample(m: Model, i: int, seed: int, **arrays) -> dict:
    out: dict = {"sample": int(i), "seed": int(seed), "knots": [float(s) for s in _knot_grid(m.h)]}
    for key, value in arrays.items():
        if isinstance(value, np.ndarray):
            out[key] = [float(v) for v in value]
        else:
            out[key] = float(value)
    return out


def _sampling(m: Model, n_samples: int, seed: int) -> tuple[np.random.Generator, int]:
    """The RNG of ``seed`` and the knots per segment, for n_samples >= 1."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    k = _knot_grid(m.h).size
    if n_samples * k > MAX_SAMPLE_VALUES:
        raise ValueError(f"{n_samples} samples x {k} knots = {n_samples * k} values, above {MAX_SAMPLE_VALUES}")
    return np.random.default_rng(seed), k


def _not_finite(row: dict, total: int) -> str | None:
    """The detail naming the scalars of a counterexample ``row`` that are
    not finite, or None when all are."""
    nonfinite = [f"{key} = {v:.6g}" for key, v in row.items() if np.ndim(v) == 0 and not np.isfinite(v)]
    if not nonfinite:
        return None
    verb = "is" if len(nonfinite) == 1 else "are"
    return f"{' and '.join(nonfinite)} {verb} not finite ({total} violations total)"


def _verdict(
    m: Model, name: str, seed: int, viol: np.ndarray, passed: str,
    failed: Callable[[int, int], str], **rows: np.ndarray,
) -> CheckResult:
    """A pass with detail ``passed`` when no sample violates; otherwise a
    fail at the first violating sample i, with row i of every array in
    ``rows`` as its counterexample and detail ``failed(i, count)``, or,
    when a scalar of that row is not finite, a detail that names it."""
    bad = np.flatnonzero(viol)
    if not bad.size:
        return CheckResult(name=name, passed=True, n_samples=viol.size, seed=seed, detail=passed)
    i = int(bad[0])
    row = {key: value[i] for key, value in rows.items()}
    why = _not_finite(row, bad.size) or failed(i, bad.size)
    return CheckResult(
        name=name, passed=False, n_samples=viol.size, seed=seed,
        detail=f"violated at sample {i}: {why}", counterexample=_counterexample(m, i, seed, **row),
    )


# ---------------------------------------------------------------------------
# sampled hypothesis checks


def check_UB(m: Model, n_samples: int = N_SAMPLES, seed: int = 0) -> CheckResult:
    """Upper bound of the functional by its linearization on ordered pairs.

    Draws 0 < phi <= psi (pointwise, enforced at the shared knots) with
    values log-uniform in (0, 2*kappa] and tests
    f(psi) - f(phi) <= f'(0)[psi - phi] with absolute slack.
    """
    rng, k = _sampling(m, n_samples, seed)
    hi = 2.0 * m.kappa
    psi = _log_uniform(rng, hi * 1e-6, hi, (n_samples, k))
    # shrink each knot by a log-uniform factor so phi <= psi everywhere
    phi = psi * _log_uniform(rng, 1e-4, 1.0, (n_samples, k))
    lhs, rhs = _increments(m, phi, psi)
    return _verdict(
        m, "UB", seed, ~(lhs <= rhs + SLACK),
        f"no violation on {n_samples} ordered pairs with values in (0, {hi:.6g}]",
        lambda i, total: (
            f"f(psi)-f(phi) = {lhs[i]:.6g} exceeds "
            f"linearized bound {rhs[i]:.6g} ({total} violations total)"
        ),
        phi=phi, psi=psi, lhs=lhs, rhs=rhs,
    )


def check_LB(
    m: Model, epsilon: float = EPSILON, n_samples: int = N_SAMPLES, seed: int = 0
) -> CheckResult:
    """Lower bound of the functional by the shaved delayed mass near 0.

    Tests q*phi(0) + f(phi) >= (1-epsilon) * sum_j w_j phi(s_j) on segments
    of small norm and reports the largest delta on a geometric grid such
    that every sampled segment with norm <= delta satisfies it.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    rng, k = _sampling(m, n_samples, seed)
    vals = _log_uniform(rng, m.kappa * 1e-6, m.kappa, (n_samples, k))
    norms = _sup_norms(vals)
    read = _reader(m.h, vals)
    lhs = m.lin.q * read(0.0) + m.react(read)
    rhs = (1.0 - epsilon) * m.lin.mass(read)
    viol = ~(lhs >= rhs - SLACK)

    grid = m.kappa * 10.0 ** (-np.arange(0.0, 3.01, 0.1))
    bad = np.flatnonzero(viol)
    i = int(bad[np.argmin(norms[bad])]) if bad.size else -1  # the smallest violating segment
    # the levels decrease, so the first j, those at or above its norm, hold a violation
    j = int(np.count_nonzero(grid >= norms[i])) if i >= 0 else 0
    support = int(np.count_nonzero(norms <= grid[j])) if j < grid.size else 0
    if support >= 30:  # delta_hat is level j, with enough segments to count as tested
        detail = f"holds with epsilon={epsilon:g} on all {support} segments of norm <= delta_hat = {grid[j]:.6g}"
        if j:
            n_bad = int(np.count_nonzero(viol & (norms <= grid[j - 1])))
            detail += f"; first blocking level {grid[j - 1]:.6g} had {n_bad} violations"
        return CheckResult(name="LB", passed=True, n_samples=n_samples, seed=seed, detail=detail)
    detail = "no adequately supported norm level passed"
    ce = None
    if i >= 0:
        row = {"lhs": lhs[i], "rhs": rhs[i]}
        why = _not_finite(row, int(np.count_nonzero(viol)))
        detail += f"; violated at sample {i}: {why}" if why else f"; smallest violating norm {norms[i]:.6g}"
        ce = _counterexample(m, i, seed, phi=vals[i], **row)
    return CheckResult(
        name="LB", passed=False, n_samples=n_samples, seed=seed, detail=detail, counterexample=ce
    )


def check_S(m: Model, n_samples: int = N_SAMPLES, seed: int = 0) -> CheckResult:
    """Smoothness modulus near 0 against the declared (K, alpha, delta).

    Tests |f(psi) - f(phi) - f'(0)[psi - phi]|
          <= K |psi - phi|_C (|phi|_C^alpha + |psi|_C^alpha)
    on independent pairs with norms below delta.
    """
    rng, k = _sampling(m, n_samples, seed)
    K, alpha, delta = m.smoothness
    hi = delta * (1.0 - 1e-9)
    phi = _log_uniform(rng, delta * 1e-6, hi, (n_samples, k))
    psi = _log_uniform(rng, delta * 1e-6, hi, (n_samples, k))
    df, dlin = _increments(m, phi, psi)
    rem = np.abs(df - dlin)
    bound = K * _sup_norms(psi - phi) * (_sup_norms(phi) ** alpha + _sup_norms(psi) ** alpha)
    return _verdict(
        m, "S", seed, ~(rem <= bound + SLACK),
        (
            f"remainder within K|psi-phi|(|phi|^a+|psi|^a) on {n_samples} pairs "
            f"below delta = {delta:g}"
        ),
        lambda i, total: (
            f"remainder {rem[i]:.6g} exceeds modulus "
            f"bound {bound[i]:.6g} with (K, alpha, delta) = ({K:g}, {alpha:g}, {delta:g})"
        ),
        phi=phi, psi=psi, remainder=rem, bound=bound,
    )


def check_structure(m: Model) -> dict[str, CheckResult]:
    """Structural checks: monostability (M), loss form (J), nondegeneracy (ND).

    (M) scans the reaction on constant segments over (0, 2*kappa] for its
    sign pattern: positive up to kappa, a single zero there, negative
    beyond.  (J) and (ND) are properties of the linearization data: the
    instantaneous loss enters as -q*phi(0) with q >= 0 by construction,
    and the delayed mass p must exceed q.
    """
    q, p = m.lin.q, m.lin.p

    nd = CheckResult(
        name="ND",
        passed=p > q,
        n_samples=0,
        seed=0,
        detail=f"delayed mass p = {p:g} vs instantaneous loss q = {q:g}",
    )
    j = CheckResult(
        name="J",
        passed=q >= 0.0,
        n_samples=0,
        seed=0,
        detail=f"loss term is -q*phi(0) with q = {q:g} >= 0 (structural)",
    )

    def on_constant(x: float) -> float:  # f on the constant segment x
        return float(m.react(lambda s: np.float64(x)))

    xs = np.linspace(m.kappa * 1e-4, 2.0 * m.kappa, 4001)
    ys = m.react(lambda s: xs)
    f0 = on_constant(0.0)
    flips = np.flatnonzero(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0)
    zeros = [float(brentq(on_constant, xs[i], xs[i + 1])) for i in flips]
    ok = (
        abs(f0) <= 1e-12 * max(1.0, abs(p - q) * m.kappa)
        and len(zeros) == 1
        and abs(zeros[0] - m.kappa) <= 1e-6 * m.kappa
        and bool(np.all(ys[xs < zeros[0]] > 0))
        and bool(np.all(ys[xs > zeros[0]] < 0))
    )
    found = ", ".join(f"{z:.6g}" for z in zeros) or "none"
    ce = None
    if not ok:
        bad = int(np.argmin(np.where(xs < (zeros[0] if zeros else m.kappa), ys, -ys)))
        ce = {"x": float(xs[bad]), "f": float(ys[bad]), "zeros": [0.0] + zeros, "f_at_0": f0}
    msg = (
        f"zeros on (0, 2*kappa]: {{{found}}} plus the zero at 0; "
        f"expected sign pattern +/0/- around kappa = {m.kappa:.6g}"
    )
    return {
        "M": CheckResult(name="M", passed=ok, n_samples=xs.size, seed=0, detail=msg, counterexample=ce),
        "J": j,
        "ND": nd,
    }


# ---------------------------------------------------------------------------
# profile diagnostics


def diagnostics_Q(sol: ProfileSolution) -> tuple[float, float]:
    """Linearization gap along the profile and its weighted integral.

    Q(t) = f'(0)[history at t] - f(history at t) evaluated on the solution
    grid, reading the history through the solution's own tail extensions.
    Returns (min Q, integral of e^{-lambda1 s} Q(s) ds) where the integral
    is exact for the piecewise-linear interpolant on the grid and closed
    in form on both tails: Q decays like the squared profile ~ e^{2 lambda1 s}
    on the left and is frozen at its last value on the right.
    """
    if not sol.converged:
        raise ValueError("diagnostics require a converged profile")
    m, c, lam = sol.model, sol.c, sol.lambda1
    t = sol.t

    def history(s: float) -> np.ndarray:  # phi(t + c s) at every node
        return _this.ShiftedRead(t, c * s)(sol.phi, sol.tail)

    Q = m.lin.apply(history) - m.react(history)

    core = _this.pl_exp_integral(t, Q, -lam)
    # left: integral over (-inf, T-] of e^{-lam s} * Q(T-) e^{2 lam (s - T-)}
    left = float(Q[0]) * math.exp(-lam * t[0]) / lam
    # right: Q is asymptotically constant, weight e^{-lam s} integrates itself
    right = float(Q[-1]) * math.exp(-lam * t[-1]) / lam
    return float(np.min(Q)), float(core + left + right)


# ---------------------------------------------------------------------------
# uniqueness: alignment and the multi-seed harness


def _half_crossing(sol: ProfileSolution) -> float:
    """Location of the first upward crossing of kappa/2, linearly interpolated."""
    half = sol.model.kappa / 2.0
    tc = _this.up_crossing(sol.t, sol.phi, half)
    return float(sol.t[int(np.argmin(np.abs(sol.phi - half)))]) if tc is None else tc


def _sup_distance(a: ProfileSolution, b: ProfileSolution, shift: float, bound=math.inf, probe=None) -> float:
    """sup |a(t + shift) - b(t)| over b's nodes whose shifted point lies on
    a's grid (inf below 10), a linearly interpolated.  With one shared
    step every node reads k whole steps plus the same fraction theta.
    A gap at b's node ``probe`` above ``bound`` is returned alone: the sup is no less."""
    step = b.step
    if abs(a.step - step) > 1e-9 * step:
        raise ValueError(f"profiles must share one grid step, got {a.step:g} and {step:g}")
    d = float(b.t[0] + shift - a.t[0])
    k, theta, lo, hi = _this.ShiftedRead.span(b.t, d, a.t.size, snap=False)
    if hi - lo < 10:
        return math.inf
    if probe is not None and lo <= probe < hi:  # one node first, in ShiftedRead.into's arithmetic
        va = a.phi.item(probe + k) * (1.0 - theta) + (theta * a.phi.item(probe + k + 1) if theta else 0.0)
        if abs(va - b.phi.item(probe)) > bound:
            return abs(va - b.phi.item(probe))
    read = _this.ShiftedRead(b.t, d, a.t.size, snap=False)
    va = read.into(a.phi)
    va -= b.phi[read.lo : read.hi]
    return float(np.max(np.abs(va, out=va)))


def align_profiles(a: ProfileSolution, b: ProfileSolution) -> tuple[float, float]:
    """Shift t' minimizing sup |a(t + t') - b(t)|, resolved to step/10.

    The profiles must share one grid step (their origins may differ).
    The search starts from the offset of the half-level crossings, scans a
    coarse grid at the grid step, then refines around the coarse minimum
    at a tenth of the step.  Distances interpolate linearly between nodes,
    and a shift that cannot win is dropped after b's crossing node.
    """
    step, tenths, cross = b.step, np.arange(-10, 11), _half_crossing(b)
    shift0 = _half_crossing(a) - cross
    # a profile with a NaN or inf can have a NaN sup, which wins: then no shift is dropped
    probe = round((cross - b.t[0]) / step) if math.isfinite(a.phi.sum() + b.phi.sum()) else None
    return _this.scan_shift(lambda s, bound: _sup_distance(a, b, s, bound, probe),
                            shift0, step * tenths, (step / 10.0) * tenths)


def _harness_seeds(
    n_seeds: int, grid: np.ndarray, lam: float, kappa: float, rng
) -> list[np.ndarray | None]:
    """Distinct initial guesses: scaled tails, shifted pins, bounded noise."""

    def tail(scale: float, shift: float = 0.0) -> np.ndarray:
        return _this.tail_start(grid, kappa, lam, scale, shift)

    def wavy() -> np.ndarray:
        # bounded multiplicative noise built from a few long-wavelength
        # modes; per-node white noise instead would dump energy into the
        # weakly damped oscillation behind the front and park the iterate
        # in a truncation-locked wake state a grid-level distance away
        pert = np.zeros_like(grid)
        for _ in range(4):
            pert += rng.uniform(-1.0, 1.0) * np.cos(
                rng.uniform(0.1, 1.0) * grid + rng.uniform(0.0, 2.0 * np.pi)
            )
        return tail(1.0) * (1.0 + 0.25 * pert / np.max(np.abs(pert)))

    makers: list[Callable[[], np.ndarray]] = [
        lambda: tail(2.0),
        lambda: tail(0.5),
        lambda: tail(1.0, 2.0),
        wavy,
        lambda: tail(rng.uniform(0.25, 4.0), rng.uniform(-3.0, 3.0)),
    ]
    # the solver default first, then each maker once, the last one repeated
    return [None] + [makers[min(i, len(makers) - 1)]() for i in range(n_seeds - 1)]


def uniqueness_harness(
    m: Model,
    c: float,
    n_seeds: int,
    opts: SolverOptions | None = None,
    seed: int = 0,
    on_exclude: Callable[[int], None] | None = None,
) -> list[tuple[float, float]]:
    """Pairwise aligned distances between profiles solved from distinct seeds.

    Solves n_seeds times (default guess, scaled tails, a shifted pin,
    bounded multiplicative noise), drops runs that fail to converge
    (reported through ``on_exclude``, else as a warning), and returns
    (shift, sup_distance) for every converged pair.  Tighter tolerances
    than the plain solver default are used so that the reported distances
    measure profile disagreement rather than leftover iteration error,
    and the default window reaches t_plus = 120, far from the front.  Some
    profiles never settle to kappa (kpp h=2 and h=3 at c = 2.5 keep
    oscillating), and the constant closure at the right edge then bends
    the last ~10 units: solves at t_plus 120 and 240 agree to 3e-8-6e-8
    on [t[0], 110) but differ by up to 2e-2 beyond it.
    """
    if n_seeds < 2:
        raise ValueError("need at least two seeds to compare profiles")
    if opts is None:
        opts = _this.SolverOptions(tol=1e-10, accel_iter=3000, t_plus=120.0)
    rng = np.random.default_rng(seed)

    first = _this.solve_profile(m, c, opts)
    seeds = _harness_seeds(n_seeds, first.t, first.lambda1, m.kappa, rng)
    sols: list[ProfileSolution] = [first]
    for guess in seeds[1:]:
        sols.append(_this.solve_profile(m, c, dataclasses.replace(opts, initial_phi=guess)))

    kept: list[ProfileSolution] = []
    for i, s in enumerate(sols):
        if s.converged:
            kept.append(s)
        elif on_exclude is not None:
            on_exclude(i)
        else:
            warnings.warn(f"seed {i} did not converge ({s.failure}); excluded")
    return [align_profiles(a, b) for a, b in itertools.combinations(kept, 2)]


# ---------------------------------------------------------------------------
# top-level driver


def verify_model(
    m: Model,
    n_samples: int = N_SAMPLES,
    seed: int = 0,
    epsilon: float = EPSILON,
    c: float | None = None,
    n_seeds: int = 0,
) -> VerificationReport:
    """Run every hypothesis check and, when a speed is given, the profile
    diagnostics and (for n_seeds >= 2) the uniqueness harness, each with
    its default solver options.  An ``n_seeds`` that would skip the
    harness silently (1, negative, or >= 2 without a speed) raises
    ValueError, and a speed is refused before any check runs, as
    :func:`~.chareq.real_roots` refuses it (SubcriticalError below c*)."""
    if n_seeds == 1 or n_seeds < 0:
        raise ValueError(f"n_seeds must be 0 (no uniqueness harness) or at least 2, got {n_seeds}")
    if n_seeds >= 2 and c is None:
        raise ValueError("the uniqueness harness needs a speed (c or critical)")
    if c is not None:
        _this.real_roots(m, c)
    hyp = dict(check_structure(m))
    hyp["S"] = check_S(m, n_samples, seed + 1)
    hyp["UB"] = check_UB(m, n_samples, seed + 2)
    hyp["LB"] = check_LB(m, epsilon, n_samples, seed + 3)
    hyp = {k: hyp[k] for k in ("M", "S", "J", "ND", "UB", "LB")}

    q_min = pi = None
    uniq: tuple[tuple[float, float], ...] = ()
    dropped: list[int] = []
    failed = []
    if c is not None:
        sol = _this.solve_profile(m, c)
        if sol.converged:
            q_min, pi = diagnostics_Q(sol)
        else:
            failed.append(f"profile: {sol.failure}")
        if n_seeds >= 2:
            uniq = tuple(uniqueness_harness(m, c, n_seeds, seed=seed, on_exclude=dropped.append))
            if n_seeds - len(dropped) < 2:
                failed.append(f"uniqueness harness: only {n_seeds - len(dropped)} of {n_seeds} runs converged")
    return VerificationReport(
        model=m.name,
        hypotheses=hyp,
        q_min=q_min,
        pi_integral=pi,
        uniqueness=uniq,
        excluded_seeds=tuple(dropped),
        failed_solves=tuple(failed),
    )
