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
    DomainError,
    LinearUtility,
    NoisyWin,
    SolverWarning,
    SPAScenario,
    TruncatedNormalNoise,
    UniformDist,
    ValueModel,
    compare_risk_aversion_spa,
    pivotal_expectation,
    solve_spa,
    solve_uniform_price,
)
from riskbid.spa import _MAX_BISECT, _MAX_WIDEN

UNIT3 = ValueModel.iid(UniformDist(0.0, 1.0), 3)
TWO_POINT = DiscreteNoise([-1.0, 1.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# scalar reference: one type at a time, one pivotal_expectation call per step
# ---------------------------------------------------------------------------

def _reference_root(scenario, u, v, lo, hi, target):
    """Bisect the indifference condition for one type.

    Returns ("ok", bid, residual) on success or ("lo"/"hi", None, None)
    when the bracket end on that side fails its sign check.
    """
    tol = scenario.root_tol
    resid_tol = tol * (1.0 + abs(target))

    def gap(b):
        try:
            return pivotal_expectation(scenario, v, b, utility=u) - target
        except DomainError:
            return -np.inf

    f_lo = gap(lo)
    if f_lo < 0.0:
        if abs(f_lo) <= resid_tol:
            return "ok", lo, abs(f_lo)
        return "lo", None, None
    f_hi = gap(hi)
    if f_hi > 0.0:
        if f_hi <= resid_tol:
            return "ok", hi, f_hi
        return "hi", None, None
    if f_lo == 0.0:
        return "ok", lo, 0.0
    if f_hi == 0.0:
        return "ok", hi, 0.0

    a, fa, c = lo, f_lo, hi
    mid, f_mid = a, fa
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (a + c)
        f_mid = gap(mid)
        width_ok = (c - a) <= tol * max(1.0, abs(mid))
        if width_ok and (np.isfinite(f_mid) and abs(f_mid) <= resid_tol):
            return "ok", mid, abs(f_mid)
        if width_ok and not np.isfinite(f_mid):
            return "ok", a, abs(fa)
        if f_mid > 0.0:
            a, fa = mid, f_mid
        else:
            c = mid
    return "ok", mid, abs(f_mid) if np.isfinite(f_mid) else abs(fa)


def reference_solve_spa(scenario):
    """(bids, residuals) by scalar bisection, one type at a time; raises
    ``BracketError`` with the solver's message."""
    u = scenario.effective_utility()
    grid = scenario.report_grid()
    s_grid = np.broadcast_to(np.asarray(scenario.outside.value(grid), dtype=float),
                             grid.shape)
    lo0, hi0 = scenario.bracket if scenario.bracket is not None else scenario.default_bracket()
    bids = np.empty_like(grid)
    residuals = np.empty_like(grid)
    for i, v in enumerate(grid):
        target = float(u.value(s_grid[i]))
        lo, hi = lo0, hi0
        for attempt in range(_MAX_WIDEN + 1):
            status, bid, resid = _reference_root(scenario, u, v, lo, hi, target)
            if status == "ok":
                break
            if attempt == _MAX_WIDEN:
                raise BracketError(
                    f"could not bracket the indifference root for type {v:g} "
                    f"after widening to [{lo:g}, {hi:g}]"
                )
            width = hi - lo
            if status == "lo":
                lo -= width
            else:
                hi += width
        bids[i] = bid
        residuals[i] = resid
    return bids, residuals


def assert_matches_reference(scenario, sol):
    bids, residuals = reference_solve_spa(scenario)
    np.testing.assert_array_equal(sol.bids, bids)
    # atoms are summed as one matrix-vector product instead of one dot
    # product per type, so residuals may differ in the last bits of a sum
    # of up to 64 terms of order 1
    np.testing.assert_allclose(sol.residuals, residuals, rtol=0.0, atol=1e-14)


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


def test_pivotal_expectation_array_evaluates_inner_once():
    # one masked pass: no separate domain scan that re-evaluates the inner layer
    scn = SPAScenario(values=UNIT3, utility=CRRAUtility(0.5, shift=0.5),
                      transform=CARAUtility(1.0),
                      win_payoff=NoisyWin(TruncatedNormalNoise(0.0, 1.0, -3.0, 3.0), scale=0.2))
    u = scn.effective_utility()
    calls = []
    kernel = u.inner._u
    u.inner._u = lambda z: calls.append(z.shape) or kernel(z)
    v = np.linspace(0.0, 1.0, 9)
    out = pivotal_expectation(scn, v, np.full(v.shape, 0.6), utility=u)
    assert len(calls) == 1
    # the low types breach the inner domain on some atoms, the rest do not
    assert np.isneginf(out[0]) and np.all(np.isfinite(out[-3:]))


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


def test_mixed_widening_matches_reference():
    # bids run from about -0.04 to 0.96: low types widen the lower end,
    # high types the upper end, and the middle types need no widening
    scn = SPAScenario(values=UNIT3, utility=CARAUtility(2.0),
                      win_payoff=NoisyWin(TWO_POINT, scale=0.2),
                      bracket=(0.3, 0.6), grid=65)
    sol = solve_spa(scn)
    assert np.any(sol.bids < 0.3) and np.any(sol.bids > 0.6)
    assert np.any((sol.bids > 0.3) & (sol.bids < 0.6))
    assert_matches_reference(scn, sol)


def test_bracket_error_names_first_unbracketed_type():
    # four widenings of [0, 0.01] reach [0, 0.16]: truthful types up to
    # 0.16 are solved, the first grid type above it cannot be bracketed
    scn = SPAScenario(values=UNIT3, bracket=(0.0, 0.01), grid=64)
    with pytest.raises(BracketError) as new:
        solve_spa(scn)
    with pytest.raises(BracketError) as ref:
        reference_solve_spa(scn)
    assert str(new.value) == str(ref.value)
    first = scn.report_grid()[11]
    assert f"type {first:g} after widening to [0, 0.16]" in str(new.value)


def test_one_warning_per_solve_at_bisection_cap():
    # no bracket narrows to 1e-300, so every type runs into _MAX_BISECT
    scn = SPAScenario(values=UNIT3, grid=64, root_tol=1e-300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_spa(scn)
    hits = [w for w in caught if issubclass(w.category, SolverWarning)]
    assert len(hits) == 1
    msg = str(hits[0].message)
    assert "at 64 of 64 types" in msg and "first at type 0)" in msg
    assert f"worst {sol.residuals.max():.3e}" in msg
    assert hits[0].filename == __file__  # attributed to the caller
    assert_matches_reference(scn, sol)


def test_bids_match_scalar_reference(spa_solutions):
    for scn, base, bent in spa_solutions.values():
        assert_matches_reference(replace(scn, transform=None), base)
        assert_matches_reference(scn, bent)


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


def test_pivotal_expectation_array_is_minus_inf_out_of_domain():
    # the -1 atom has weight 0 but still leaves CRRA's domain at b = v
    scn = SPAScenario(values=UNIT3, transform=CRRAUtility(0.5),
                      win_payoff=NoisyWin(DiscreteNoise([-1.0, 1.0], [0.0, 1.0]),
                                          scale=0.2), grid=65)
    vs = np.array([0.5, 0.5, 0.5])
    arr = pivotal_expectation(scn, vs, np.array([0.0, 0.5, 0.2]))
    assert arr[1] == -np.inf and np.all(np.isfinite(arr[[0, 2]]))
    assert arr[0] == pytest.approx(pivotal_expectation(scn, 0.5, 0.0), rel=1e-14)
    with pytest.raises(DomainError):
        pivotal_expectation(scn, 0.5, 0.5)
    assert pivotal_expectation(scn, np.empty(0), np.empty(0)).shape == (0,)
