"""Unit tests for the second-price and uniform-price solvers."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from riskbid import (
    AffineOutside,
    BracketError,
    CARAUtility,
    ConfigError,
    CRRAUtility,
    DiscreteNoise,
    LinearUtility,
    NoisyWin,
    SPAScenario,
    TruncatedNormalNoise,
    UniformDist,
    ValueModel,
    compare_risk_aversion_spa,
    pivotal_expectation,
    solve_spa,
    solve_uniform_price,
)

UNIT3 = ValueModel.iid(UniformDist(0.0, 1.0), 3)
TWO_POINT = DiscreteNoise([-1.0, 1.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------------------

def test_scenario_validation():
    with pytest.raises(ConfigError):
        SPAScenario(values=UNIT3, units=0)
    with pytest.raises(ConfigError):
        SPAScenario(values=ValueModel.iid(UniformDist(0.0, 1.0), 2), units=2)
    with pytest.raises(ConfigError):
        SPAScenario(values=UNIT3, units=3)  # needs units <= bidders - 1
    with pytest.raises(ConfigError):
        SPAScenario(values=UNIT3, grid=16)
    with pytest.raises(ConfigError):
        SPAScenario(values=UNIT3, bracket=(1.0, 0.5))


def test_default_bracket_covers_noise():
    scn = SPAScenario(values=UNIT3, win_payoff=NoisyWin(TWO_POINT, scale=0.3))
    lo, hi = scn.default_bracket()
    assert lo < -0.4 and hi > 1.4  # pad at least 1.5x the noise span around support


# ---------------------------------------------------------------------------
# pivotal expectation
# ---------------------------------------------------------------------------

def test_pivotal_expectation_deterministic():
    scn = SPAScenario(values=UNIT3)
    assert pivotal_expectation(scn, 0.8, 0.3) == pytest.approx(0.5)


def test_pivotal_expectation_noise_value():
    scn = SPAScenario(values=UNIT3, utility=CARAUtility(1.0),
                      win_payoff=NoisyWin(TWO_POINT, scale=0.1))
    assert pivotal_expectation(scn, 0.9, 0.5) == pytest.approx(
        0.32632555980282435, abs=1e-15
    )


def test_pivotal_expectation_decreasing_in_bid():
    scn = SPAScenario(values=UNIT3, utility=CRRAUtility(0.5, shift=2.0),
                      win_payoff=NoisyWin(TWO_POINT, scale=0.2))
    bids = np.linspace(-0.5, 1.2, 40)
    vals = [pivotal_expectation(scn, 0.7, b) for b in bids]
    assert np.all(np.diff(vals) < 0)


# ---------------------------------------------------------------------------
# truthful bidding benchmarks
# ---------------------------------------------------------------------------

def test_vickrey_families(vickrey_solutions):
    for name, (scn, sol) in vickrey_solutions.items():
        dev = np.max(np.abs(sol.bids - sol.grid))
        assert dev < scn.root_tol, (name, dev)
        assert sol.monotone


def test_affine_outside_shifts_bids():
    # keeping 90% of the value when losing leaves only 10% worth bidding for
    sol = solve_spa(SPAScenario(values=UNIT3, outside=AffineOutside(0.0, 0.9)))
    ts = np.linspace(0.05, 1.0, 30)
    np.testing.assert_allclose(sol.bid_at(ts), 0.1 * ts, atol=1e-9)


# ---------------------------------------------------------------------------
# precautionary shading under noise
# ---------------------------------------------------------------------------

def test_cara_two_point_shading_closed_form():
    scn = SPAScenario(values=UNIT3, utility=CARAUtility(2.0),
                      win_payoff=NoisyWin(TWO_POINT, scale=0.2))
    sol = solve_spa(scn)
    shade = math.log(math.cosh(0.4)) / 2.0
    ts = np.linspace(0.1, 1.0, 30)
    np.testing.assert_allclose(ts - sol.bid_at(ts), shade, atol=1e-9)


def test_concave_utility_shades_below_value():
    scn = SPAScenario(values=UNIT3, utility=CRRAUtility(0.5, shift=2.0),
                      win_payoff=NoisyWin(TruncatedNormalNoise(0.0, 1.0, -3.0, 3.0),
                                          scale=0.15))
    sol = solve_spa(scn)
    interior = (sol.grid > 0.05) & (sol.grid < 0.95)
    assert np.all(sol.bids[interior] < sol.grid[interior])
    assert sol.monotone


def test_risk_neutral_noise_is_truthful():
    # symmetric zero-mean noise leaves a linear bidder truthful
    scn = SPAScenario(values=UNIT3, win_payoff=NoisyWin(TWO_POINT, scale=0.2))
    sol = solve_spa(scn)
    np.testing.assert_allclose(sol.bids, sol.grid, atol=1e-9)


# ---------------------------------------------------------------------------
# bracketing behavior
# ---------------------------------------------------------------------------

def test_bracket_widening_rescues_offset_bracket():
    sol = solve_spa(SPAScenario(values=UNIT3, bracket=(0.8, 1.1)))
    assert np.max(np.abs(sol.bids - sol.grid)) < 1e-9


def test_bracket_far_from_root_fails():
    with pytest.raises(BracketError):
        solve_spa(SPAScenario(values=UNIT3, bracket=(100.0, 100.1)))


def test_domain_edge_pins_bid():
    # a hard utility floor caps how high the bid can go: the solver pins
    # the bid at the edge and reports the indifference gap honestly
    scn = SPAScenario(values=UNIT3, utility=CRRAUtility(0.5),
                      win_payoff=NoisyWin(TWO_POINT, scale=0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve_spa(scn)
    np.testing.assert_allclose(sol.bids, sol.grid - 0.3, atol=1e-6)
    assert sol.residuals.max() > 0.1  # no exact indifference exists here
    assert sol.monotone


def test_residuals_small_on_regular_problems():
    scn = SPAScenario(values=UNIT3, utility=CARAUtility(2.0),
                      win_payoff=NoisyWin(TWO_POINT, scale=0.2))
    sol = solve_spa(scn)
    assert sol.derivative_check <= 10 * scn.root_tol
    assert np.all(sol.residuals >= 0)


# ---------------------------------------------------------------------------
# uniform price
# ---------------------------------------------------------------------------

def test_uniform_price_single_unit_is_bitwise_identical():
    scn = SPAScenario(values=UNIT3, utility=CARAUtility(1.5),
                      win_payoff=NoisyWin(TWO_POINT, scale=0.1))
    a = solve_spa(scn)
    b = solve_uniform_price(scn)
    assert np.array_equal(a.bids, b.bids)
    assert np.array_equal(a.residuals, b.residuals)


def test_uniform_price_truthful_across_units():
    for units in (1, 2, 3):
        scn = SPAScenario(values=ValueModel.iid(UniformDist(0.0, 1.0), 4),
                          units=units)
        sol = solve_uniform_price(scn)
        assert np.max(np.abs(sol.bids - sol.grid)) < scn.root_tol


def test_uniform_price_shading_matches_single_unit():
    # pivotal indifference does not involve the rank of the price-setting
    # rival, so shading is the same for any number of units
    base = SPAScenario(values=ValueModel.iid(UniformDist(0.0, 1.0), 4),
                       utility=CARAUtility(2.0),
                       win_payoff=NoisyWin(TWO_POINT, scale=0.2))
    multi = replace(base, units=2)
    np.testing.assert_allclose(
        solve_uniform_price(base).bids, solve_uniform_price(multi).bids
    )


# ---------------------------------------------------------------------------
# comparative statics
# ---------------------------------------------------------------------------

def test_compare_needs_transform():
    with pytest.raises(ConfigError):
        compare_risk_aversion_spa(SPAScenario(values=UNIT3))


def test_compare_lowers_bids_under_noise():
    scn = SPAScenario(values=UNIT3, transform=CRRAUtility(0.5, shift=2.0),
                      win_payoff=NoisyWin(TWO_POINT, scale=0.2))
    rep = compare_risk_aversion_spa(scn)
    assert rep.max_d <= 10 * scn.root_tol
    assert rep.min_d < -1e-3             # strictly lower somewhere
    assert np.all(rep.diagnostics["pivotal_slack"] >= -10 * scn.root_tol)


def test_compare_deterministic_win_is_unchanged():
    # without payoff risk conditional on winning, bending the utility
    # moves nothing: both solve to truthful bidding
    rep = compare_risk_aversion_spa(
        SPAScenario(values=UNIT3, transform=CRRAUtility(0.5, shift=2.0))
    )
    assert rep.min_d == pytest.approx(0.0, abs=1e-9)
    assert rep.max_d == pytest.approx(0.0, abs=1e-9)


def test_compare_sharper_bend_shades_more():
    base = SPAScenario(values=UNIT3, transform=CARAUtility(1.0),
                       win_payoff=NoisyWin(TWO_POINT, scale=0.2))
    sharp = replace(base, transform=CARAUtility(3.0))
    d1 = compare_risk_aversion_spa(base).min_d
    d2 = compare_risk_aversion_spa(sharp).min_d
    assert d2 < d1 < 0


def test_compare_slack_is_minus_inf_win_for_out_of_domain_atoms():
    # the atom at -5 has weight 0 but still pushes low types' baseline
    # surplus out of the transform's domain: those rows must win at -inf
    # (slack +inf), never NaN, which would hide failing rows from the
    # slack check
    noise = DiscreteNoise([-5.0, -1.0, 1.0], [0.0, 0.5, 0.5])
    scn = SPAScenario(values=UNIT3, transform=CRRAUtility(0.5, shift=0.8),
                      outside=AffineOutside(0.0, 0.5),
                      win_payoff=NoisyWin(noise, scale=0.2), grid=65)
    rep = compare_risk_aversion_spa(scn)
    slack = rep.diagnostics["pivotal_slack"]
    assert not np.any(np.isnan(slack))
    breach = rep.grid - 1.0 - rep.beta + 0.8 < 0.0
    assert 0 < breach.sum() < breach.size
    np.testing.assert_array_equal(np.isposinf(slack), breach)
    uh = scn.effective_utility()
    for v, b, s in zip(rep.grid[~breach], rep.beta[~breach], slack[~breach]):
        won = pivotal_expectation(scn, v, b, utility=uh)
        assert s == pytest.approx(uh.value(0.5 * v) - won, abs=1e-14)


def test_pivotal_expectation_array_matches_scalar():
    scn = SPAScenario(values=UNIT3, transform=CARAUtility(2.0),
                      win_payoff=NoisyWin(DiscreteNoise([-1.0, 1.0], [0.25, 0.75]),
                                          scale=0.2), grid=65)
    vs = np.linspace(0.0, 1.0, 9)
    bs = 0.8 * vs
    arr = pivotal_expectation(scn, vs, bs)
    assert arr.shape == vs.shape
    for v, b, x in zip(vs, bs, arr):
        # the array form sums atoms as a matrix-vector product, so it may
        # differ from the scalar dot product in the last bit
        assert pivotal_expectation(scn, float(v), float(b)) == pytest.approx(x, rel=1e-14)
