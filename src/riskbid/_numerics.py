"""The two scipy routines the first-price solver calls, ported so that importing the
package loads no scipy module.  Each gives scipy's result bit for bit: the not-a-knot
spline of ``CubicSpline`` (de Boor, *A Practical Guide to Splines*, ch. IV) with LAPACK's
``dgtsv`` for its slopes, and ``brentq`` (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) step for step as scipy's ``brentq.c``."""

import numpy as np

from .errors import ConfigError, SingularHazard


def _gtsv(dl, d, du, b):
    """LAPACK ``dgtsv`` on one right-hand side b: Gaussian elimination with partial
    pivoting of the tridiagonal system with sub-, main and super-diagonals dl, d, du
    (lists of floats), rounded as the Fortran rounds.  A zero pivot is ConfigError."""
    rows = []  # the factor's rows: pivot, first and second superdiagonal, right-hand side
    dc, uc, bc = d[0], du[0], b[0]
    for li, dn, un, bn in zip(dl, d[1:], du[1:] + [0.0], b[1:]):
        if abs(dc) >= abs(li):
            if dc == 0.0:
                break
            fact = li / dc
            rows.append((dc, uc, 0.0, bc))
            dc, uc, bc = dn - fact * uc, un, bn - fact * bc
        else:  # interchange this row and the next
            fact = dc / li
            rows.append((li, dn, un, bn))
            dc, uc, bc = uc - fact * dn, -fact * un, bc - fact * bn
    if dc == 0.0:
        raise ConfigError(f"the spline system of the solution table is singular at row {len(rows)}")
    x1, x2 = bc / dc, 0.0
    out = [x1]
    for di, ui, wi, bi in reversed(rows):
        x1, x2 = (bi - ui * x1 - wi * x2) / di, x1
        out.append(x1)
    return out[::-1]


def not_a_knot(x, y):
    """``CubicSpline(x, y).c`` on a strictly increasing float grid x, shape (4, len(x) - 1).
    Three points go to scipy, which solves them by a dense LU whose bits no port keeps."""
    n = len(x)
    if n == 3:
        from scipy.interpolate import CubicSpline
        return CubicSpline(x, y).c
    dx = np.diff(x)
    slope = np.diff(y) / dx
    if n == 2:  # both ends take the chord's slope
        dl, d, du, b = [0.0], [1.0, 1.0], [0.0], [float(slope[0])] * 2
    else:  # scipy's banded system and right-hand side, term for term
        d = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist()
        du = np.concatenate(([x[2] - x[0]], dx[:-1])).tolist()
        dl = np.concatenate((dx[1:], [x[-1] - x[-3]])).tolist()
        b = np.empty(n)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        w0, w1 = x[2] - x[0], x[-1] - x[-3]
        b[0] = ((dx[0] + 2 * w0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / w0
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * w1 + dx[-1]) * dx[-2] * slope[-1]) / w1
        b = b.tolist()
    s = np.fromiter(_gtsv(dl, d, du, b), float, n)
    if not np.isfinite(s).all():  # scipy refuses these slopes too
        raise ConfigError("the solution table spans too wide a range: its spline slopes overflow")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def brentq(f, xa, xb, maxiter):
    """``scipy.optimize.brentq(f, xa, xb, maxiter=maxiter)``.  Ends of one sign, a nan
    value and no convergence are SingularHazard, the first-price solver's error for a
    start it cannot resolve."""

    def call(x):
        if (fx := float(f(x))) != fx:  # read as scipy's C code reads it
            raise SingularHazard(f"Brent's method: the function is nan at {x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise SingularHazard(f"Brent's method: the function has one sign at {xpre!r} and {xcur!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre < 0 < fcur or fcur < 0 < fpre:
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (2e-12 + 4 * 2.0 ** -52 * abs(xcur)) / 2  # scipy's default xtol and rtol
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise SingularHazard(f"Brent's method did not converge in {maxiter} steps")
