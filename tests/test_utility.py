"""Unit tests for the utility families and transform composition."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbid import (
    CARAUtility,
    ComposedUtility,
    CRRAUtility,
    ConfigError,
    DomainError,
    LinearUtility,
    LogUtility,
    PiecewiseLinearUtility,
    compose,
    crra,
    effective_utility,
)
from riskbid.config import _build_utility

FAMILIES = [
    LinearUtility(),
    LinearUtility(shift=0.7),
    CRRAUtility(0.5),
    CRRAUtility(0.3, shift=1.0),
    CRRAUtility(2.0, shift=0.5),
    LogUtility(shift=1.0),
    CARAUtility(2.0),
    CARAUtility(0.5, shift=-1.0),
    PiecewiseLinearUtility([(-2.0, 3.0), (0.0, 1.0)]),
    PiecewiseLinearUtility([(0.0, 5.0), (1.0, 2.0), (2.0, 0.5)], shift=0.25),
]


def test_crra_point_values():
    u = CRRAUtility(0.5)
    assert u.value(1.0) == pytest.approx(2.0, abs=0)
    assert u.deriv(4.0) == pytest.approx(0.5, abs=0)
    assert u.value(0.0) == 0.0


def test_crra_high_curvature_negative_branch():
    u = CRRAUtility(2.0)
    assert u.value(1.0) == pytest.approx(-1.0)
    assert u.deriv(1.0) == pytest.approx(1.0)
    assert u.value(2.0) == pytest.approx(-0.5)
    with pytest.raises(DomainError):
        u.value(0.0)  # boundary excluded when rho > 1


def test_crra_rejects_bad_rho():
    with pytest.raises(ConfigError):
        CRRAUtility(-0.1)
    with pytest.raises(ConfigError):
        CRRAUtility(1.0)


def test_log_point_values():
    u = LogUtility(shift=1.0)
    assert u.value(0.0) == 0.0
    assert u.deriv(0.0) == pytest.approx(1.0)
    assert u.value(math.e - 1.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        u.value(-1.0)


def test_crra_router_handles_log_member():
    assert isinstance(crra(1.0, shift=2.0), LogUtility)
    assert isinstance(crra(0.5), CRRAUtility)


def test_cara_point_values():
    u = CARAUtility(2.0)
    assert u.value(0.0) == 0.0
    assert u.value(1.0) == pytest.approx(1.0 - math.exp(-2.0))
    assert u.deriv(0.0) == pytest.approx(2.0)
    # defined on the whole line
    assert np.isfinite(u.value(-50.0))


def test_cara_rejects_nonpositive_alpha():
    with pytest.raises(ConfigError):
        CARAUtility(0.0)


def test_piecewise_values_and_kinks():
    u = PiecewiseLinearUtility([(-2.0, 3.0), (0.0, 1.0)])
    assert u.value(-2.0) == 0.0
    assert u.value(0.0) == pytest.approx(6.0)
    assert u.value(1.0) == pytest.approx(7.0)
    assert u.value(-3.0) == pytest.approx(-3.0)  # first slope extends left
    assert u.deriv(-1.0) == pytest.approx(3.0)
    assert u.deriv(0.5) == pytest.approx(1.0)
    assert u.deriv(0.0) == pytest.approx(1.0)  # right-hand slope at the kink


def test_piecewise_validation():
    with pytest.raises(ConfigError):
        PiecewiseLinearUtility([])
    with pytest.raises(ConfigError):
        PiecewiseLinearUtility([(0.0, 1.0), (0.0, 0.5)])  # repeated knot
    with pytest.raises(ConfigError):
        PiecewiseLinearUtility([(0.0, 1.0), (1.0, 2.0)])  # increasing slope
    with pytest.raises(ConfigError):
        PiecewiseLinearUtility([(0.0, -1.0)])


def test_shift_semantics():
    base = CRRAUtility(0.5)
    shifted = CRRAUtility(0.5, shift=1.5)
    x = np.linspace(-1.0, 3.0, 7)
    np.testing.assert_allclose(shifted.value(x), base.value(x + 1.5))
    np.testing.assert_allclose(shifted.deriv(x), base.deriv(x + 1.5))


@pytest.mark.parametrize("u", FAMILIES, ids=lambda u: repr(u))
def test_deriv_matches_finite_difference(u):
    lo = u.domain_lo - u.shift if np.isfinite(u.domain_lo) else -2.0
    xs = np.linspace(lo + 0.05, lo + 4.0, 23)
    h = 1e-5
    fd = (u.value(xs + h) - u.value(xs - h)) / (2 * h)
    dv = u.deriv(xs)
    # skip points within a step of a piecewise kink where u'' is a spike
    if isinstance(u, PiecewiseLinearUtility):
        dist = np.min(np.abs((xs + u.shift)[:, None] - u.knot_x[None, :]), axis=1)
        keep = dist > 10 * h
        fd, dv = fd[keep], dv[keep]
    np.testing.assert_allclose(fd, dv, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("u", FAMILIES, ids=lambda u: repr(u))
def test_values_increasing(u):
    lo = u.domain_lo - u.shift if np.isfinite(u.domain_lo) else -3.0
    xs = np.linspace(lo + 0.02, lo + 5.0, 101)
    vals = u.value(xs)
    assert np.all(np.diff(vals) > 0)


def test_vector_and_scalar_agree():
    u = CARAUtility(1.5, shift=0.25)
    xs = np.array([-0.5, 0.0, 1.25])
    vec = u.value(xs)
    for i, x in enumerate(xs):
        assert vec[i] == u.value(float(x))
    assert isinstance(u.value(0.3), float)
    assert u.value(xs).shape == xs.shape


def test_domain_mask_elementwise():
    u = CRRAUtility(0.5)
    np.testing.assert_array_equal(
        u.masked_value(np.array([-1.0, 0.0, 1.0])) > -np.inf, [False, True, True]
    )
    v = LogUtility()
    np.testing.assert_array_equal(
        v.masked_value(np.array([0.0, 1.0])) > -np.inf, [False, True]
    )
    assert v.masked_value(1.0) > -np.inf
    assert not np.all(v.masked_value(np.array([0.5, -0.5])) > -np.inf)


@pytest.mark.parametrize(
    "u, x, msg",
    [
        (CRRAUtility(0.5, shift=1.0), np.array([-3.0, 1.0]),
         "CRRAUtility: argument + shift = -2 outside domain ([0, inf)"),
        (LogUtility(), 0.0, "LogUtility: argument + shift = 0 outside domain ((0, inf)"),
    ],
    ids=["closed", "open"],
)
@pytest.mark.parametrize("method", ["value", "deriv"])
def test_domain_error_message(u, x, msg, method):
    with pytest.raises(DomainError, match=f"^{re.escape(msg)}$"):
        getattr(u, method)(x)


def test_composed_chain_rule():
    phi = CARAUtility(1.0)
    u = CRRAUtility(0.5, shift=1.0)
    g = compose(phi, u)
    xs = np.linspace(-0.5, 3.0, 11)
    np.testing.assert_allclose(g.value(xs), phi.value(u.value(xs)))
    h = 1e-6
    fd = (g.value(xs + h) - g.value(xs - h)) / (2 * h)
    np.testing.assert_allclose(g.deriv(xs), fd, rtol=1e-5)


def test_composed_domain_mask_two_stage():
    # outer log is only defined on positive inner values
    g = ComposedUtility(LogUtility(), LinearUtility())
    np.testing.assert_array_equal(
        g.masked_value(np.array([-1.0, 0.0, 2.0])) > -np.inf, [False, False, True]
    )
    # inner domain violations must not be evaluated by the outer
    g2 = ComposedUtility(LogUtility(shift=10.0), CRRAUtility(0.5))
    mask = g2.masked_value(np.array([-4.0, 1.0])) > -np.inf
    np.testing.assert_array_equal(mask, [False, True])


# outer layers over CRRA(0.5): the shifted log and CRRA(2) outers also
# breach on inner values in (0, 1], i.e. for x in [0, 0.25]
COMPOSED = [
    compose(outer, CRRAUtility(0.5))
    for outer in (
        LinearUtility(),
        CARAUtility(1.5),
        PiecewiseLinearUtility([(0.5, 2.0), (1.5, 1.0)]),
        LogUtility(shift=-1.0),
        CRRAUtility(2.0, shift=-1.0),
    )
]


def _in_domain(u, x):
    try:
        u.value(x)
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("u", FAMILIES + COMPOSED, ids=lambda u: repr(u))
def test_masked_value_contract(u):
    lo = u.domain_lo - u.shift if np.isfinite(u.domain_lo) else 0.0
    x = np.concatenate([lo + np.linspace(-2.0, 3.0, 41), [0.1, 0.25, 0.3]])
    ok = np.array([_in_domain(u, xi) for xi in x])
    assert ok.any()
    if not isinstance(u, ComposedUtility) and np.isfinite(u.domain_lo):
        assert not ok.all()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = u.masked_value(x)
        grid = u.masked_value(x.reshape(4, 11))
        empty = u.masked_value(np.empty((0, 3)))
        point = u.masked_value(x[-1])
    assert got.shape == x.shape and grid.shape == (4, 11)
    assert empty.shape == (0, 3) and np.shape(point) == ()
    # in-domain entries are value's own bits; every breach is -inf
    np.testing.assert_array_equal(got[ok], u.value(x[ok]))
    assert np.all(got[~ok] == -np.inf)
    np.testing.assert_array_equal(grid.ravel(), got)


def test_masked_value_composed_breaches_both_layers():
    x = np.array([-1.0, 0.0, 0.2, 1.0])
    for g in COMPOSED[3:]:
        # x < 0 breaches the inner CRRA, x in [0, 0.25] the outer layer
        np.testing.assert_array_equal(
            g.masked_value(x) > -np.inf, [False, False, False, True]
        )


def test_effective_utility_passthrough():
    u = LinearUtility()
    assert effective_utility(u, None) is u
    g = effective_utility(u, CARAUtility(1.0))
    assert isinstance(g, ComposedUtility)
    assert g.value(0.0) == 0.0


def test_config_round_trip():
    for u in FAMILIES:
        doc = u.to_config()
        rebuilt = _build_utility(doc, "utility")
        xs = np.linspace(0.5, 2.0, 5) + max(0.0, -u.shift + (u.domain_lo or 0.0))
        np.testing.assert_allclose(rebuilt.value(xs), u.value(xs))
        assert rebuilt.to_config() == doc


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        _build_utility({"family": "crra", "rho": 0.5, "gamma": 1.0}, "utility")
    with pytest.raises(ConfigError):
        _build_utility({"family": "quadratic"}, "utility")
    with pytest.raises(ConfigError):
        _build_utility({"family": "cara"}, "utility")  # missing alpha


@settings(max_examples=60, deadline=None)
@given(
    rho=st.floats(0.05, 0.95),
    x=st.floats(0.01, 50.0),
    y=st.floats(0.01, 50.0),
)
def test_crra_concavity_property(rho, x, y):
    u = CRRAUtility(rho)
    mid = u.value(0.5 * x + 0.5 * y)
    chord = 0.5 * u.value(x) + 0.5 * u.value(y)
    assert mid >= chord - 1e-12 * max(1.0, abs(mid))


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.05, 4.0), x=st.floats(-5.0, 5.0))
def test_cara_bounded_above(alpha, x):
    u = CARAUtility(alpha)
    assert u.value(x) < 1.0 + 1e-12
