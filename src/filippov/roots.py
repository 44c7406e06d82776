"""Bracketed scalar root finding by Brent's method (Brent 1973, ch. 4).

A step-for-step port of the C routine behind ``scipy.optimize.brentq``: the
same secant / inverse-quadratic / bisection rule, the same tolerance
``delta = (xtol + rtol*|x|)/2`` and the same iteration cap, so it visits the
same iterates and returns the same float.  The relative tolerance is fixed
at ``rtol = 8.9e-16``; callers choose only ``xtol``.
"""

from __future__ import annotations

import math

from .errors import RootNotBracketed, RootNotConverged

_MAXITER = 100
_RTOL = 8.9e-16


def brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b], where f(a) and f(b) have opposite signs.

    Raises RootNotBracketed when they do not or when f returns NaN, and
    RootNotConverged when 100 steps leave the bracket wider than
    xtol + rtol*|x|.
    """
    xpre, xcur = float(a), float(b)
    fpre = f(xpre)
    if fpre != fpre:
        raise RootNotBracketed(f"f({xpre!r}) is NaN")
    fcur = f(xcur)
    if fcur != fcur:
        raise RootNotBracketed(f"f({xcur!r}) is NaN")
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise RootNotBracketed(f"f({xpre!r}) and f({xcur!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # C yields inf or nan here; neither is a short step
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise RootNotBracketed(f"f({xcur!r}) is NaN")
    raise RootNotConverged(f"no convergence after {_MAXITER} iterations, last x = {xcur!r}")
