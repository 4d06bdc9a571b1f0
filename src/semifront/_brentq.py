"""Brent's root finder (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4), ported from scipy's ``brentq`` C routine.

The iterates, defaults and errors are scipy's, step for step, so a root
found here equals ``scipy.optimize.brentq`` bit for bit.  The package
keeps its own copy because importing scipy.optimize costs more than
most CLI runs compute.
"""

from __future__ import annotations

import math
import sys

__all__ = ["brentq"]


def brentq(f, a, b, xtol=2e-12, rtol=4.0 * sys.float_info.epsilon, maxiter=100) -> float:
    """A zero of ``f`` in [a, b]; f(a) and f(b) must differ in sign.

    Stops when the bracket around the zero is below ``xtol + rtol*|x|``.
    Raises ValueError when f(a) and f(b) have the same sign or ``f``
    returns NaN, RuntimeError after ``maxiter`` iterations.
    """

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:  # C gives inf or nan here, and bisects
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
