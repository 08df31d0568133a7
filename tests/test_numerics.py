"""The in-package ports of scipy's not-a-knot spline fit (LAPACK dgtsv) and
of Brent's method, checked bit for bit against scipy itself."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import lapack
from scipy.optimize import brentq as scipy_brentq

from riskbid import ConfigError, RiskbidError, SingularHazard
from riskbid import _numerics
from riskbid.fpa import _start_bid, _tradeoff_raw

from conftest import fpa_matrix


# ---------------------------------------------------------------------------
# the not-a-knot fit
# ---------------------------------------------------------------------------

def _grids(rng):
    """Seeded grids of n = 4..40 and 1025 points: linspace, jittered by up
    to 0.4 spacings, and strongly uneven (log-uniform spacings)."""
    for n in list(range(4, 41)) + [1025]:
        for _ in range(3):
            lo, hi = rng.uniform(-2.0, 1.0), rng.uniform(1.5, 4.0)
            even = np.linspace(lo, hi, n)
            jittered = even.copy()
            jittered[1:-1] += (hi - lo) / (n - 1) * rng.uniform(-0.4, 0.4, n - 2)
            uneven = lo + np.cumsum(np.exp(rng.uniform(-6.0, 6.0, n)))
            for x in (even, jittered, uneven):
                yield x, (np.sin(3 * x) if rng.random() < 0.5 else np.cumsum(rng.normal(size=n)))


def _interchanges(x):
    """Whether LAPACK's own factorization of scipy's not-a-knot system swaps
    a row (``dgttrf`` pivots by the test ``dgtsv`` uses)."""
    dx = np.diff(x)
    d = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    du = np.concatenate(([x[2] - x[0]], dx[:-1]))
    dl = np.concatenate((dx[1:], [x[-1] - x[-3]]))
    ipiv = lapack.dgttrf(dl, d, du)[4]
    return bool(np.any(ipiv != np.arange(1, len(x) + 1)))


def test_fit_is_scipys_cubic_spline_byte_for_byte():
    systems = swapped = 0
    for x, y in _grids(np.random.default_rng(26)):
        ref = CubicSpline(x, y).c
        ours = _numerics.not_a_knot(x, y)
        assert ours.shape == ref.shape and ours.tobytes() == ref.tobytes(), len(x)
        systems += 1
        swapped += _interchanges(x)
    assert systems == 38 * 9
    assert swapped >= 1  # the row-interchange branch is exercised


def test_gtsv_is_lapacks():
    # random tridiagonal systems, many of which pivot
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 9, 64):
        for _ in range(50):
            dl, d, du, b = rng.normal(size=n - 1), rng.normal(size=n), rng.normal(size=n - 1), rng.normal(size=n)
            ref = lapack.dgtsv(dl, d, du, b)[3]
            ours = _numerics._gtsv(dl.tolist(), d.tolist(), du.tolist(), b.tolist())
            assert np.array(ours).tobytes() == ref.tobytes()


def test_two_rows_give_scipys_line():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y = np.sort(rng.uniform(-2.0, 3.0, 2)), rng.uniform(-1.0, 2.0, 2)
        assert _numerics.not_a_knot(x, y).tobytes() == CubicSpline(x, y).c.tobytes()


@pytest.mark.parametrize("dl, d, row", [
    ([0.0], [0.0, 1.0], 0),            # the first pivot
    ([0.0], [1.0, 0.0], 1),            # the last diagonal
    ([1.0, 0.0], [1.0, 1.0, 1.0], 1),  # a pivot that elimination zeroes
])
def test_zero_pivot_is_a_config_error(dl, d, row):
    n = len(d)
    with pytest.raises(ConfigError, match=f"singular at row {row}$"):
        _numerics._gtsv(dl, d, [1.0] * (n - 1), [1.0] * n)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("x, y", [
    ([-1.5e308, -1e308, 1e308, 1.5e308], [0.0, 0.1, 0.2, 0.3]),  # v differences overflow
    ([0.0, 1.0, 2.0, 3.0], [0.0, 1e308, -1e308, 0.0]),            # beta differences overflow
])
def test_overflowing_table_is_a_config_error(x, y):
    # scipy refuses the non-finite slopes with a ValueError; the port names the table
    with pytest.raises(ValueError):
        CubicSpline(x, y)
    with pytest.raises(ConfigError, match="too wide a range: its spline slopes overflow"):
        _numerics.not_a_knot(np.array(x), np.array(y))


# ---------------------------------------------------------------------------
# Brent's method
# ---------------------------------------------------------------------------

def _brackets(rng):
    """1,200 seeded (f, a, b) brackets over smooth, steep, flat and kinked
    functions, with the root anywhere inside, at an end, or near one."""
    kinds = [
        lambda r, k: lambda x: (x - r) ** 3 + k * (x - r),
        lambda r, k: lambda x: math.exp(k * x) - math.exp(k * r),
        lambda r, k: lambda x: math.atan(50.0 * k * (x - r)),
        lambda r, k: lambda x: (x - r) * (1.0 + k * abs(x - r)),
        lambda r, k: lambda x: math.tanh(k * (x - r)) - 1e-3 * (x - r),
        lambda r, k: lambda x: (x - r) if x < r else k * (x - r) ** 2,
    ]
    for i in range(1200):
        a, b = sorted(rng.uniform(-3.0, 3.0, 2))
        where = rng.random()
        r = a if where < 0.02 else b if where < 0.04 else a + (b - a) * rng.uniform(0.0, 1.0) ** 3
        f = kinds[i % len(kinds)](r, float(rng.uniform(0.1, 4.0)))
        yield (f, a, b) if i % 2 else (lambda x, f=f: -f(x), a, b)


def test_brent_is_scipys_brentq_bit_for_bit():
    n = 0
    for f, a, b in _brackets(np.random.default_rng(4507)):
        if f(a) * f(b) > 0:
            continue
        for maxiter in (100, 200):
            try:
                ref = scipy_brentq(f, a, b, maxiter=maxiter)
            except RuntimeError:  # scipy's "failed to converge": a few kinked roots at 100
                with pytest.raises(SingularHazard, match="did not converge"):
                    _numerics.brentq(f, a, b, maxiter)
            else:
                assert _numerics.brentq(f, a, b, maxiter) == ref
        n += 1
    assert n >= 1000


def test_start_bids_are_scipys():
    # the start bid of every comparison scenario, baseline and transformed
    for name, scn in fpa_matrix():
        vm, eps, v0, b0 = scn.values, scn.start_offset, scn.start, scn.boundary_bid
        s0 = float(scn.outside.value(v0))
        cap, lam0 = v0 - s0 - b0, vm.hazard(v0)
        for u in (scn.utility, scn.effective_utility()):
            def gap(slope):
                return slope - lam0 * _tradeoff_raw(u, v0 - (b0 + eps * slope), s0)
            hi = cap * (1.0 - 1e-3) / eps
            assert gap(hi) > 0, name  # the root is bracketed, not clipped
            ref = b0 + eps * scipy_brentq(gap, 0.0, hi, maxiter=200)
            assert _start_bid(u, lam0, v0, s0, b0, eps, cap) == ref, name


@pytest.mark.parametrize("f, maxiter, match", [
    (lambda x: x * x + 1.0, 100, "has one sign at 0.0 and 1.0"),
    (lambda x: math.nan if x > 0.5 else x - 0.7, 100, "nan at 1.0"),
    (lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 100, "nan at 0.5"),
    (lambda x: x - 0.3, 1, "did not converge in 1 steps"),
])
def test_brent_failures_are_singular_hazards(f, maxiter, match):
    with pytest.raises(SingularHazard, match=match) as info:
        _numerics.brentq(f, 0.0, 1.0, maxiter)
    assert isinstance(info.value, RiskbidError)
    assert not isinstance(info.value, (ValueError, RuntimeError, ZeroDivisionError))
