import math

import pytest
from scipy.optimize import brentq as scipy_brentq

from semifront._brentq import brentq
from semifront.chareq import eval_chi
from semifront.model import builtin_nicholson


def traced(f, calls):
    def g(x):
        calls.append(x)
        return f(x)

    return g


nich = builtin_nicholson(1.0, 2.0)
CASES = [
    (lambda x: 2.0 * x * math.exp(-x) - x, 1e-12, 10.0, {}),  # nicholson kappa
    (lambda x: float(eval_chi(nich, x, 1.2)), 0.0, 0.5, dict(xtol=1e-14, rtol=4e-15)),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, {}),
    (lambda x: math.exp(x) - 2.0, 0.0, 3.0, dict(xtol=5e-324)),
    (lambda x: (x - 0.3) ** 5, -1.0, 2.0, {}),  # flat at the zero: many bisections
    (lambda x: math.tanh(40.0 * (x - 0.123)), -4.0, 5.0, {}),
    (lambda x: math.copysign(1.0, x - 1.0 / 3.0), 0.0, 1.0, {}),  # a jump, no zero
    (lambda x: math.atan(x - 1.5) + 1e-3 * x, 0.0, 7.0, dict(rtol=1e-10)),
]


@pytest.mark.parametrize("f, a, b, kw", CASES)
def test_brentq_equals_scipy_bit_for_bit(f, a, b, kw):
    ours, theirs = [], []
    root = brentq(traced(f, ours), a, b, **kw)
    ref = scipy_brentq(traced(f, theirs), a, b, **kw)
    assert type(root) is float
    assert root == ref
    assert ours == theirs  # the same iterates, not only the same end


def test_brentq_same_sign_raises():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_nan_raises():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)


def test_brentq_runs_out_of_iterations():
    f = lambda x: math.exp(x) - 2.0
    with pytest.raises(RuntimeError, match="3 iterations"):
        brentq(f, 0.0, 3.0, maxiter=3)
    with pytest.raises(RuntimeError):
        scipy_brentq(f, 0.0, 3.0, maxiter=3)
