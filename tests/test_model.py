import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifront.model import (
    Measure,
    builtin_kpp,
    builtin_may,
    builtin_mackey_glass,
    builtin_nicholson,
    builtin_square,
    model_from_config,
)

from oracles import HistorySegment, eval_f, eval_lin


# ---------------------------------------------------------------- measures


def test_measure_mass_and_validation():
    mu = Measure(q=0.5, atoms=((0.0, 1.0), (-1.0, 1.0)))
    assert mu.p == 2.0
    for q in (-0.1, math.nan, math.inf):  # a NaN or infinite q used to pass
        with pytest.raises(ValueError, match=f"q must be nonnegative and finite, got {q}"):
            Measure(q=q, atoms=((0.0, 1.0),))
    for w in (-1.0, 0.0, math.nan, math.inf):  # so did a NaN or infinite weight
        with pytest.raises(ValueError, match=f"atom weight must be positive and finite, got {w}"):
            Measure(q=0.0, atoms=((0.0, w),))
    with pytest.raises(ValueError, match="atom location"):  # below -h: the model owns h
        dataclasses.replace(builtin_kpp(1.0), lin=Measure(q=0.0, atoms=((-2.0, 1.0),)))
    with pytest.raises(ValueError, match=r"atom \(0.5, 2.0\) sits at a positive lag"):
        Measure(q=0.0, atoms=((0.5, 2.0),))  # the lag sign is the measure's own
    with pytest.raises(ValueError):
        Measure(q=2.0, atoms=((0.0, 1.0),))  # p <= q


# ------------------------------------------------------- history segments


def test_segment_interpolation_and_norm():
    seg = HistorySegment(2.0, [0.0, 1.0, 4.0])  # nodes at -2, -1, 0
    assert seg(-2.0) == 0.0
    assert seg(0.0) == 4.0
    assert seg(-1.5) == pytest.approx(0.5)  # linear between nodes
    assert seg.norm() == 4.0
    with pytest.raises(ValueError):
        seg(0.5)
    with pytest.raises(ValueError):
        seg(-2.5)


def test_segment_zero_delay():
    seg = HistorySegment(0.0, [3.0])
    assert seg(0.0) == 3.0
    assert seg.norm() == 3.0


def test_segment_from_callable_matches_function_at_nodes():
    seg = HistorySegment.from_callable(1.0, math.exp, n=65)
    for s in (-1.0, -0.5, 0.0):
        assert seg(s) == pytest.approx(math.exp(s), abs=2e-4)


# ----------------------------------------------------------- functionals


def test_kpp_values():
    m = builtin_kpp(1.0)
    seg = HistorySegment(1.0, [0.2, 0.6])  # phi(-1) = 0.2, phi(0) = 0.6
    assert eval_f(m, seg) == pytest.approx(0.6 * (1.0 - 0.2))
    # both equilibria are zeros of f on constant segments
    assert eval_f(m, HistorySegment.constant(1.0, 0.0)) == 0.0
    assert eval_f(m, HistorySegment.constant(1.0, 1.0)) == pytest.approx(0.0)


@pytest.mark.parametrize("h", [709.0, 709.08, 709.09, 709.5, 709.78, 709.8, 1000.0])
def test_kpp_bound_saturates_where_its_product_overflows(h):
    # 2 e^h overflows from h = log(max float / 2) ~ 709.0896 on, and e^h
    # alone from ~ 709.78: both read inf, neither raises
    bound = builtin_kpp(h).bound
    assert bound == (2.0 * math.exp(h) if h < 709.0896 else math.inf)


def test_kpp_linearization_is_identity_on_value_at_zero():
    m = builtin_kpp(1.0)
    seg = HistorySegment(1.0, [0.7, 0.3])
    assert eval_lin(m, seg) == pytest.approx(0.3)  # q = 0, single atom at 0


def test_horizon_mismatch_rejected():
    m = builtin_kpp(1.0)
    with pytest.raises(ValueError):
        eval_f(m, HistorySegment.constant(2.0, 0.5))


CUSTOM = {
    "name": "custom",
    "h": 1.0,
    "eval_points": [0.0, -0.5, -1.0],
    "expr": "u0 * (1.0 - 0.5 * u1 - 0.5 * u2)",
    "q": 0.0,
    "atoms": [[0.0, 1.0]],
    "kappa": 1.0,
}


@pytest.mark.parametrize(
    "m",
    [
        builtin_kpp(1.0),
        builtin_nicholson(1.0, 2.0),
        builtin_may(1.0, 2.0, 2.0, 1.0),
        builtin_square(1.0),
        model_from_config(CUSTOM),
    ],
    ids=lambda m: m.name,
)
@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    v=st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3),
    w=st.lists(st.floats(-3, 3, allow_nan=False), min_size=3, max_size=3),
)
def test_react_and_apply_match_oracles(m, a, b, v, w):
    s1 = HistorySegment(1.0, v)
    s2 = HistorySegment(1.0, w)
    combo = HistorySegment(1.0, a * np.asarray(v) + b * np.asarray(w))
    for seg in (s1, s2, combo):
        assert float(m.react(seg)) == pytest.approx(eval_f(m, seg), rel=1e-12, abs=1e-300)
        assert float(m.lin.apply(seg)) == pytest.approx(eval_lin(m, seg), rel=1e-12, abs=1e-300)
    # the oracle linearization is linear
    assert eval_lin(m, combo) == pytest.approx(
        a * eval_lin(m, s1) + b * eval_lin(m, s2), abs=1e-9
    )


# ------------------------------------------------------------- built-ins


def test_nicholson_equilibrium_is_log_p():
    m = builtin_nicholson(1.0, 2.0)
    assert m.kappa == pytest.approx(math.log(2.0), abs=1e-12)
    assert m.lin.q == 1.0 and m.lin.p == 2.0
    # equilibrium really is a fixed point of the birth function
    assert m.react(lambda s: m.kappa) == pytest.approx(0.0, abs=1e-12)


def test_nicholson_rejects_subcritical_p():
    with pytest.raises(ValueError):
        builtin_nicholson(1.0, 0.9)


def test_may_equilibrium_closed_form():
    m = builtin_may(1.0, 2.0, 2.0, 1.0)
    assert m.kappa == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert m.react(lambda s: m.kappa) == pytest.approx(0.0, abs=1e-12)
    # birth is clipped at zero for large arguments
    assert m.react(lambda s: 5.0) == pytest.approx(-5.0)


def test_mackey_glass_rejects_flat_birth():
    with pytest.raises(ValueError):
        builtin_mackey_glass(
            1.0, lambda u: 0.5 * u, g_prime_0=0.5, kappa=1.0, smoothness=(1.0, 1.0, 0.5), bound=4.0
        )


def test_square_model_has_overstated_linearization():
    m = builtin_square()
    seg = HistorySegment.constant(0.0, 2.0, n=1)
    # true functional is quadratic ...
    assert eval_f(m, seg) == 4.0
    # ... but the declared slope at zero pretends to be 1
    assert eval_lin(m, seg) == 2.0


# ----------------------------------------------------------------- config


def test_model_from_config_builtin():
    m = model_from_config({"name": "kpp", "h": 2.0})
    assert m.name == "kpp" and m.h == 2.0


def test_model_from_config_custom_expression():
    cfg = {
        "name": "custom",
        "h": 1.0,
        "eval_points": [0.0, -1.0],
        "expr": "u0 * (1.0 - u1)",
        "q": 0.0,
        "atoms": [[0.0, 1.0]],
        "kappa": 1.0,
        "smoothness": [1.0, 1.0, 1.0],
    }
    m = model_from_config(cfg)
    ref = builtin_kpp(1.0)
    seg = HistorySegment(1.0, [0.3, 0.9])
    assert eval_f(m, seg) == pytest.approx(eval_f(ref, seg))


@pytest.mark.parametrize(
    "expr, scope", [("(lambda: u0)()", "<lambda>"), ("maximum(*(u0 * v for v in (1.0, 2.0)))", "<genexpr>")]
)
def test_model_from_config_rejects_nested_scopes(expr, scope):
    # a nested scope cannot see the u0.. that eval passes as locals, so it
    # would fail only when f is evaluated: refuse it when the model is built
    cfg = {"name": "custom", "h": 0.0, "eval_points": [0.0], "expr": expr, "atoms": [[0.0, 1.0]], "kappa": 1.0}
    with pytest.raises(ValueError, match=f"nested scope {scope} in model expression"):
        model_from_config(cfg)


def test_model_from_config_rejects_rogue_names():
    cfg = {
        "name": "custom",
        "h": 0.0,
        "eval_points": [0.0],
        "expr": "__import__('os').system('true')",
        "atoms": [[0.0, 1.0]],
        "kappa": 1.0,
    }
    with pytest.raises(ValueError):
        model_from_config(cfg)


def test_model_from_config_unknown_model():
    with pytest.raises(ValueError):
        model_from_config({"name": "zebra"})
