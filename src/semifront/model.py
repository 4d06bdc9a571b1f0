"""Delay reaction functionals and the built-in model registry.

A model couples a scalar reaction functional f acting on history segments
(continuous functions on [-h, 0]) with the data of its linearization at 0,

    f'(0)[phi] = -q*phi(0) + sum_j w_j*phi(s_j),      q >= 0, w_j > 0,

its positive equilibrium kappa, and the smoothness constants (K, alpha,
delta) controlling the quadratic remainder of f near 0.  Functionals are
declared through a finite list of read points s_j in [-h, 0] and a
vectorized map of the point values; this covers every discrete-delay
nonlinearity handled here and keeps grid evaluation cheap.

Only :meth:`Model.react` (f) and :meth:`Measure.apply` (f'(0)) evaluate
them, on a reader read(s) = phi(s) of lags s (scalars or aligned arrays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ._brentq import brentq

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Measure",
    "Model",
    "builtin_kpp",
    "builtin_mackey_glass",
    "builtin_nicholson",
    "builtin_may",
    "builtin_square",
    "model_from_config",
    "config_number",
    "MODEL_NAMES",
]


@dataclass(frozen=True)
class Measure:
    """Linearization data: the -q*phi(0) point mass plus delayed atoms.

    ``atoms`` is a sequence of (location, weight) pairs with locations at
    lags s <= 0 (the :class:`Model` bounds them below by -h) and strictly
    positive weights.  The total delayed mass p = sum of weights must
    exceed q (non-degeneracy).
    """

    q: float
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not 0 <= self.q < math.inf:
            raise ValueError(f"q must be nonnegative and finite, got {self.q}")
        for s, w in self.atoms:
            if s > 1e-12:
                raise ValueError(f"atom ({s}, {w}) sits at a positive lag; locations must be <= 0")
            if not 0 < w < math.inf:
                raise ValueError(f"atom weight must be positive and finite, got {w}")
        if self.p <= self.q:
            raise ValueError(
                f"degenerate linearization: delayed mass p={self.p} must exceed q={self.q}"
            )

    @property
    def p(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def mass(self, read: Callable, out=0.0):
        """The delayed part sum_j w_j read(s_j), added to ``out``."""
        for s, w in self.atoms:
            out = out + w * read(s)
        return out

    def apply(self, read: Callable):
        """The linearization -q*read(0) + sum_j w_j read(s_j)."""
        return self.mass(read, -self.q * read(0.0))


@dataclass(frozen=True)
class Model:
    """A delay reaction functional together with its linearization data.

    ``eval_points`` lists the history locations the functional reads and
    ``f_pointwise`` maps those point values (scalars or aligned numpy
    arrays) to the reaction value, called only through :meth:`react`;
    both built-ins and config-defined models are expressed this way.
    Read points and ``lin``'s atoms lie in [-h, 0].  ``bound`` is an
    a-priori sup bound used by the profile solver's clamp.

    numpy is imported where arrays are handled: in :meth:`react`, in the
    nicholson and may birth functions and in a config expression's
    functions; the characteristic equation reads ``lin`` alone.
    """

    name: str
    h: float
    eval_points: tuple[float, ...]
    f_pointwise: Callable
    lin: Measure
    kappa: float
    smoothness: tuple[float, float, float]  # (K, alpha, delta)
    bound: float

    def __post_init__(self):
        if self.h < 0:
            raise ValueError("delay must be nonnegative")
        for s, _ in self.lin.atoms:
            if s < -self.h - 1e-12:
                raise ValueError(f"atom location {s} outside [-h, 0] = [{-self.h}, 0]")
        for s in self.eval_points:
            if not (-self.h - 1e-12 <= s <= 1e-12):
                raise ValueError(f"read point {s} outside [-h, 0]")
        if self.kappa <= 0:
            raise ValueError("positive equilibrium kappa required")
        K, alpha, delta = self.smoothness
        if K <= 0 or alpha <= 0 or delta <= 0:
            raise ValueError("smoothness constants (K, alpha, delta) must be positive")

    def react(self, read: Callable) -> np.ndarray:
        """The reaction f on the history whose value at lag s is read(s)."""
        import numpy as np

        return np.asarray(self.f_pointwise(*(read(s) for s in self.eval_points)), dtype=float)


# ---------------------------------------------------------------------------
# built-in models


def builtin_kpp(h: float) -> Model:
    """Delayed logistic reaction f(phi) = phi(0)*(1 - phi(-h)), kappa = 1."""

    def f(v0, vh):
        return v0 * (1.0 - vh)

    # Between the last crossing of kappa and a local maximum the solution can
    # grow for at most one delay span at logistic rate <= 1, so sup phi stays
    # under e^h times an O(1) factor; 2*e^h reduces to the classical bound 2
    # at h = 0 and covers the oscillatory overshoot of large-delay profiles.
    # The product is inf from h ~ 709.09 on; the cap keeps math.exp from raising.
    return Model(
        name="kpp",
        h=h,
        eval_points=(0.0, -h),
        f_pointwise=f,
        lin=Measure(q=0.0, atoms=((0.0, 1.0),)),
        kappa=1.0,
        smoothness=(1.0, 1.0, 1.0),
        bound=2.0 * math.exp(min(h, 709.5)),
    )


def builtin_mackey_glass(
    h: float,
    g: Callable,
    g_prime_0: float,
    kappa: float,
    smoothness: tuple[float, float, float],
    bound: float,
    name: str = "mackey_glass",
) -> Model:
    """Reaction f(phi) = -phi(0) + g(phi(-h)) for a birth function g.

    g must fix 0 and kappa and satisfy g'(0) > 1, which makes the
    linearization -phi(0) + g'(0) phi(-h) non-degenerate (p = g'(0) > q = 1).
    ``smoothness`` and ``bound`` depend on g beyond g'(0); the caller states both.
    """
    if g_prime_0 <= 1.0:
        raise ValueError(
            f"g'(0) = {g_prime_0} <= 1: delayed mass would not exceed the instantaneous loss"
        )

    def f(v0, vh):
        return -v0 + g(vh)

    return Model(
        name=name,
        h=h,
        eval_points=(0.0, -h),
        f_pointwise=f,
        lin=Measure(q=1.0, atoms=((-h, g_prime_0),)),
        kappa=kappa,
        smoothness=smoothness,
        bound=bound,
    )


def builtin_nicholson(h: float, p: float) -> Model:
    """Nicholson blowflies birth g(u) = p*u*e^{-u}; kappa solves g(x) = x."""
    if p <= 1.0:
        raise ValueError("need p > 1 for a positive equilibrium")

    def g(u):
        import numpy as np

        return p * u * np.exp(-u)

    # g on floats, so finding kappa loads no numpy; the closed form ln p
    # would move kappa further from the numpy-form root (2.6e-14 at p = 20)
    kappa = brentq(lambda x: p * x * math.exp(-x) - x, 1e-12, max(10.0, 2.0 * math.log(p) + 10.0))
    # |g''(u)| = p e^{-u} |u - 2|, maximal at the left end of [-delta, delta]
    delta = min(0.5, kappa / 2.0)
    K = p * math.exp(delta) * (2.0 + delta) / 2.0
    return builtin_mackey_glass(
        h,
        g,
        g_prime_0=p,
        kappa=kappa,
        name="nicholson",
        smoothness=(K, 1.0, delta),
        bound=max(kappa, p * math.exp(-1.0)) * 1.5,
    )


def builtin_may(h: float, p: float, z: float, k: float) -> Model:
    """Harvest-type birth g(u) = max(p*u*(1 - (u/k)^z), 0), kappa = k*(1-1/p)^(1/z)."""
    if p <= 1.0:
        raise ValueError("need p > 1 for a positive equilibrium")
    if z <= 1.0 or k <= 0:
        raise ValueError("need z > 1 and k > 0")

    def g(u):
        import numpy as np

        u = np.asarray(u, dtype=float)
        out = p * u * (1.0 - (u / k) ** z)
        return np.maximum(out, 0.0)

    kappa = k * (1.0 - 1.0 / p) ** (1.0 / z)
    # on [0, delta]: |g''| = p z (z+1) u^{z-1} / k^z, increasing in u
    delta = min(0.5 * kappa, 0.5 * k)
    K = p * z * (z + 1.0) * delta ** (z - 1.0) / k**z / 2.0
    return builtin_mackey_glass(
        h,
        g,
        g_prime_0=p,
        kappa=kappa,
        name="may",
        smoothness=(max(K, 1e-6), 1.0, delta),
        bound=k,
    )


def builtin_square(h: float = 0.0) -> Model:
    """Negative control: f(phi) = phi(0)^2 with a deliberately overstated
    linearization phi(0).

    The declared slope at 0 is wrong (the true derivative vanishes), so the
    upper-linearization inequality must fail on segments with values above 1;
    verification is expected to report a counterexample for this model.
    """

    def f(v0):
        return v0 * v0

    return Model(
        name="square",
        h=h,
        eval_points=(0.0,),
        f_pointwise=f,
        lin=Measure(q=0.0, atoms=((0.0, 1.0),)),
        kappa=1.0,
        smoothness=(1.0, 1.0, 1.0),
        bound=4.0,
    )


# ---------------------------------------------------------------------------
# config-defined models

# the names an expression may use besides u0..: numpy's function of each
# name in _SAFE_FUNCS, so that the expression maps arrays, and two constants
_SAFE_FUNCS = ("exp", "log", "sqrt", "sin", "cos", "tanh", "abs", "minimum", "maximum")
_CONSTANTS = {"pi": math.pi, "e": math.e}


def _compile_expr(expr: str, n_points: int) -> Callable:
    """Compile an arithmetic expression in u0..u{n-1} into a vectorized callable.

    Expressions are trusted input (they come from the user's own config);
    only the names u0.., the functions in _SAFE_FUNCS, the constants and
    literals resolve.  numpy is imported when the callable first runs.
    """
    code = compile(expr, "<model-expr>", "eval")
    for const in code.co_consts:  # a nested scope cannot see the u0.. eval passes
        if isinstance(const, type(code)):
            raise ValueError(f"nested scope {const.co_name} in model expression")
    for name in code.co_names:
        if name not in _SAFE_FUNCS and name not in _CONSTANTS and not (
            name.startswith("u") and name[1:].isdigit() and int(name[1:]) < n_points
        ):
            raise ValueError(f"unknown name {name!r} in model expression")

    def f(*vals):
        import numpy as np

        env = {f"u{i}": v for i, v in enumerate(vals)}
        env.update((name, getattr(np, name)) for name in _SAFE_FUNCS)
        env.update(_CONSTANTS)
        return eval(code, {"__builtins__": {}}, env)

    return f


def config_number(key: str, value, kind: Callable = float):
    """The config entry ``key`` = ``value`` converted with ``kind``.  A JSON
    boolean is rejected, though float() and int() would take it as 0 or 1,
    and so is NaN or +-inf (JSON's NaN and Infinity, or "nan" and "inf"):
    no parameter, speed or option takes one.  An int ``kind`` refuses a
    fractional number, which int() would truncate."""
    if isinstance(value, bool):
        raise TypeError(f"{key} must be a number, got {str(value).lower()}")
    # a float is checked unconverted: int() of Infinity raises OverflowError
    if not math.isfinite(value if isinstance(value, float) else kind(value)):
        raise ValueError(f"{key} must be finite, got {value}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value}")
    return kind(value)


def _custom_model(cfg: dict) -> Model:
    h = config_number("h", cfg["h"])
    points = tuple(config_number("eval_points", s) for s in cfg["eval_points"])
    f = _compile_expr(cfg["expr"], len(points))
    atoms = tuple((config_number("atoms", s), config_number("atoms", w)) for s, w in cfg["atoms"])
    K, alpha, delta = (config_number("smoothness", v) for v in cfg.get("smoothness", (1.0, 1.0, 1.0)))
    kappa = config_number("kappa", cfg["kappa"])
    return Model(
        name=cfg.get("name", "custom"),
        h=h,
        eval_points=points,
        f_pointwise=f,
        lin=Measure(q=config_number("q", cfg.get("q", 0.0)), atoms=atoms),
        kappa=kappa,
        smoothness=(K, alpha, delta),
        bound=config_number("bound", cfg.get("bound", 4.0 * kappa)),
    )


# names buildable from a plain config mapping (builtin_mackey_glass is
# excluded: it takes an arbitrary callable, which a config cannot carry)
MODEL_NAMES = ("kpp", "nicholson", "may", "square", "custom")


def model_from_config(cfg: dict) -> Model:
    """Build a model from a config mapping; see README for the schema."""
    name = cfg.get("name")
    h = config_number("h", cfg.get("h", 0.0))
    if name == "kpp":
        return builtin_kpp(h)
    if name == "nicholson":
        return builtin_nicholson(h, config_number("p", cfg["p"]))
    if name == "may":
        p, z, k = (config_number(key, cfg[key]) for key in ("p", "z", "k"))
        return builtin_may(h, p, z, k)
    if name == "square":
        return builtin_square(h)
    if name == "custom":
        return _custom_model(cfg)
    raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
