"""Unit tests for the second-price and uniform-price solvers."""

import math
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from riskbid import (
    AffineOutside,
    CARAUtility,
    ConfigError,
    ConstantOutside,
    CRRAUtility,
    DeterministicWin,
    DiscreteNoise,
    EquilibriumSolution,
    LinearUtility,
    LogUtility,
    NoisyWin,
    PiecewiseLinearUtility,
    SolverWarning,
    SPAScenario,
    TruncatedNormalNoise,
    UniformDist,
    UniformNoise,
    ValueModel,
    best_response_audit,
    compare_risk_aversion_spa,
    pivotal_expectation,
    solve_spa,
    solve_uniform_price,
)
from riskbid import spa
from riskbid.spa import _MAX_BISECT, _SLAB

UNIT3 = ValueModel.iid(UniformDist(0.0, 1.0), 3)
TWO_POINT = DiscreteNoise([-1.0, 1.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# scalar reference: one type at a time, one pivotal_expectation call per step
# ---------------------------------------------------------------------------

def _reference_root(scenario, u, v, lo, hi, target):
    """Bisect the indifference condition for one type.

    Returns (bid, residual); an end that fails its sign check (the
    bracket misses the root) fails the calling test.
    """
    tol = scenario.root_tol
    resid_tol = tol * (1.0 + abs(target))

    def gap(b):
        return pivotal_expectation(scenario, v, b, utility=u) - target

    f_lo = gap(lo)
    if f_lo < 0.0:
        assert abs(f_lo) <= resid_tol, f"bracket end {lo:g} is above the root of type {v:g}"
        return lo, abs(f_lo)
    f_hi = gap(hi)
    if f_hi > 0.0:
        assert f_hi <= resid_tol, f"bracket end {hi:g} is below the root of type {v:g}"
        return hi, f_hi
    if f_lo == 0.0:
        return lo, 0.0
    if f_hi == 0.0:
        return hi, 0.0

    a, fa, c = lo, f_lo, hi
    mid, f_mid = a, fa
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (a + c)
        f_mid = gap(mid)
        width_ok = (c - a) <= tol * max(1.0, abs(mid))
        if width_ok and (np.isfinite(f_mid) and abs(f_mid) <= resid_tol):
            return mid, abs(f_mid)
        if width_ok and not np.isfinite(f_mid):
            return a, abs(fa)
        if f_mid > 0.0:
            a, fa = mid, f_mid
        else:
            c = mid
    return mid, abs(f_mid) if np.isfinite(f_mid) else abs(fa)


def reference_bracket(scenario):
    """A bid bracket padded around the value support by the largest
    outside option, the mean noise offset and 1.5 noise-support spans."""
    lo, hi = scenario.values.support
    probe = np.linspace(lo, hi, 257)
    s_abs = float(np.max(np.abs(np.asarray(scenario.outside.value(probe)))))
    wp = scenario.win_payoff
    offsets, weights = scenario._noise_rule  # the solver's noise rule
    span = wp.scale * np.ptp(wp.noise.support) if isinstance(wp, NoisyWin) else 0.0
    pad = s_abs + abs(float(np.dot(weights, offsets))) + 1.5 * span + 1e-9 * max(1.0, hi - lo)
    return lo - pad, hi + pad


def reference_solve_spa(scenario):
    """(bids, residuals, targets) by scalar bisection in the bid, one type
    at a time, each inside ``reference_bracket``."""
    u = scenario.effective_utility()
    grid = scenario.report_grid()
    targets = u.value(np.asarray(scenario.outside.value(grid), dtype=float))
    lo, hi = reference_bracket(scenario)
    bids = np.empty_like(grid)
    residuals = np.empty_like(grid)
    for i, v in enumerate(grid):
        bids[i], residuals[i] = _reference_root(scenario, u, v, lo, hi, targets[i])
    return bids, residuals, targets


def reference_noise_mean(u, x, rule):
    """M(x) over the whole (types x atoms) tensor in one pass, as before it
    was evaluated in slabs."""
    offsets, weights = rule
    vals = u.masked_value(np.asarray(x)[..., None] + offsets)
    inside = np.all(vals > -np.inf, axis=-1)
    out = np.full(inside.shape, -np.inf)
    out[inside] = vals[inside] @ weights
    return out


def assert_matches_reference(scenario, sol):
    # the solver bisects in x = v - b, not in b, so the two roots agree to
    # the stopping tolerance rather than bit for bit
    bids, residuals, targets = reference_solve_spa(scenario)
    tol = scenario.root_tol
    assert np.all(np.abs(sol.bids - bids) <= 2 * tol * np.maximum(1.0, np.abs(bids)))
    # where the reference found exact indifference (no domain-edge pin),
    # the solver's residual at its own bid is within tolerance too
    resid_tol = tol * (1.0 + np.abs(targets))
    inner = residuals <= resid_tol
    assert np.all(sol.residuals[inner] <= resid_tol[inner])


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


# ---------------------------------------------------------------------------
# continuous noise laws: a value marginal on Gauss-Legendre nodes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "noise, mean, direct",
    [
        (UniformNoise(-1.0, 2.0), 0.5, lambda rng, size: -1.0 + 3.0 * rng.random(size)),
        (TruncatedNormalNoise(0.0, 1.0, -3.0, 3.0), 0.0, None),
    ],
    ids=["uniform", "truncated_normal"],
)
def test_continuous_noise_atoms_and_draws(noise, mean, direct):
    # a 32-node rule, then the 64-node default
    assert [pts.size for pts, _ in noise.rules] == [32, 64]
    for pts, wts in noise.rules:
        order = pts.size
        assert wts.shape == (order,), order
        assert np.all(wts > 0) and wts.sum() == pytest.approx(1.0, abs=1e-15), order
        assert abs(np.dot(wts, pts) - mean) <= 1e-14, order
    lo, hi = noise.support
    draws = noise.sample(np.random.default_rng(7), 10_000)
    assert np.all((draws >= lo) & (draws <= hi))
    if direct is not None:
        assert np.array_equal(draws, direct(np.random.default_rng(7), 10_000))


def test_continuous_noise_needs_quadrature_mass():
    # all mass within 1e-9 of 0.5, between the nodes: pdf is 0 at every node
    with pytest.raises(ConfigError, match="quadrature mass 0 on its 64 Gauss-Legendre nodes"):
        TruncatedNormalNoise(0.5, 1e-10, 0.0, 1.0)


def test_lower_order_without_quadrature_mass_is_skipped():
    # all mass within 1e-3 of the 64-node abscissa of [-1, 1] farthest from
    # the 32 nodes, where the pdf underflows to 0
    x32, x64 = (np.polynomial.legendre.leggauss(n)[0] for n in (32, 64))
    gap = np.min(np.abs(x64[:, None] - x32), axis=1)
    assert gap.max() > 100 * 2e-4
    mu = x64[np.argmax(gap)]
    noise = TruncatedNormalNoise(mu, 2e-4, -1.0, 1.0)
    win = NoisyWin(noise, scale=0.2)
    assert [pts.size for pts, _ in noise.rules] == [pts.size for pts, _ in win.rules] == [64]
    scn = SPAScenario(values=UNIT3, utility=CARAUtility(1.0), win_payoff=win, grid=64)
    assert scn._noise_rule is win.rules[0]


def test_continuous_rules_are_built_once(monkeypatch):
    # Gauss-Legendre nodes are computed once per order per process, and a
    # rule choice reads the payoff's rules without building any
    UniformNoise(-1.0, 1.0)
    calls = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    win = NoisyWin(TruncatedNormalNoise(0.1, 0.8, -2.0, 2.0), scale=0.2)
    scn = SPAScenario(values=UNIT3, utility=CARAUtility(1.0), win_payoff=win, grid=64)
    rule = scn._noise_rule
    assert calls == []
    assert any(rule is own for own in win.rules)


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
    scn._noise_rule  # the scenario's one-off choice of rule is not this pass
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
    # a deterministic win solves M(x) = u(x) = u(0) on the bracket [0, 0]
    for name, (scn, sol) in vickrey_solutions.items():
        assert np.array_equal(sol.bids, sol.grid), name
        assert sol.monotone


def test_affine_outside_shifts_bids():
    # keeping 90% of the value when losing leaves only 10% worth bidding for
    scn = SPAScenario(values=UNIT3, outside=AffineOutside(0.0, 0.9))
    sol = solve_spa(scn)
    ts = np.linspace(0.05, 1.0, 30)
    np.testing.assert_allclose(sol.bid_at(ts), 0.1 * ts, atol=1e-9)
    # one root per type, as many levels as types: still the reference's bids
    assert_matches_reference(scn, sol)


# ---------------------------------------------------------------------------
# precautionary shading under noise
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s0, shift", [(0.0, 0.0), (0.2, 0.5)], ids=["s0", "s02_shift05"])
@pytest.mark.parametrize(
    "win_payoff",
    [NoisyWin(TWO_POINT, scale=0.2), NoisyWin(TruncatedNormalNoise(0.0, 1.0, -2.0, 2.0), scale=0.2)],
    ids=["two_point", "tnorm64"],
)
def test_cara_shading_closed_form(win_payoff, s0, shift):
    # under CARA the surplus x = v - b solving E[u(x + o)] = u(s0) is
    # s0 plus the noise's risk premium, Pratt's certainty equivalent
    alpha = 2.0
    scn = SPAScenario(values=UNIT3, utility=CARAUtility(alpha, shift=shift),
                      outside=ConstantOutside(s0), win_payoff=win_payoff)
    sol = solve_spa(scn)
    offsets, weights = scn._noise_rule  # the solver's noise rule
    shade = s0 + math.log(np.dot(weights, np.exp(-alpha * offsets))) / alpha
    np.testing.assert_allclose(sol.grid - sol.bids, shade, rtol=0.0, atol=1e-9)


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
# bisection behavior
# ---------------------------------------------------------------------------

def test_one_warning_per_solve_at_bisection_cap():
    # no bracket around a noisy root narrows to 1e-300, so the one level,
    # and with it every type, runs into _MAX_BISECT
    scn = SPAScenario(values=UNIT3, utility=CARAUtility(2.0),
                      win_payoff=NoisyWin(TWO_POINT, scale=0.2), grid=64, root_tol=1e-300)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_spa(scn)
    hits = [w for w in caught if issubclass(w.category, SolverWarning)]
    assert len(hits) == 1
    msg = str(hits[0].message)
    assert "at 64 of 64 types" in msg and "first at type 0)" in msg
    assert f"worst {sol.residuals.max():.3e}" in msg
    assert hits[0].filename == __file__  # attributed to the caller


def test_bids_match_scalar_reference(spa_solutions):
    for name, (scn, base, bent) in spa_solutions.items():
        assert_matches_reference(replace(scn, transform=None), base)
        assert_matches_reference(scn, bent)
        # a constant outside option is one level: every type shades alike
        for sol in (base, bent):
            assert np.ptp(sol.grid - sol.bids) <= 1e-15, name


def test_domain_edge_pins_bid():
    # a hard utility floor caps how high the bid can go: the solver pins
    # the bid at the edge and reports the indifference gap honestly
    scn = SPAScenario(values=UNIT3, utility=CRRAUtility(0.5),
                      win_payoff=NoisyWin(TWO_POINT, scale=0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sol = solve_spa(scn)
    np.testing.assert_allclose(sol.bids, sol.grid - 0.3, atol=1e-6)
    assert np.all(np.isfinite(sol.residuals))
    assert sol.residuals.max() > 0.1  # no exact indifference exists here
    assert sol.monotone

    # an outside level on the domain edge pins x at exactly s - min o = 0;
    # the residual pass sees that surplus exactly, so every type's M is
    # finite and the gap is M(0) - u(s) = sqrt(0.6)
    scn = SPAScenario(values=UNIT3, utility=CRRAUtility(0.5, shift=0.3),
                      outside=ConstantOutside(-0.3), win_payoff=NoisyWin(TWO_POINT, scale=0.3))
    sol = solve_spa(scn)
    np.testing.assert_array_equal(sol.grid - sol.bids, 0.0)
    assert np.all(np.isfinite(pivotal_expectation(scn, sol.grid, sol.bids)))
    np.testing.assert_allclose(sol.residuals, math.sqrt(0.6), rtol=0.0, atol=1e-7)


def test_residual_pass_falls_back_to_the_pinned_gap():
    # on a grid of non-dyadic types the surplus v - b of a type whose level
    # is pinned at the domain edge can round below the pin; such a type
    # reports the gap at its level's pin instead of inf
    s = -0.811
    scn = SPAScenario(values=ValueModel.iid(UniformDist(0.171, 1.111), 3),
                      utility=CRRAUtility(0.5, shift=-s), outside=ConstantOutside(s),
                      win_payoff=NoisyWin(TWO_POINT, scale=0.312))
    sol = solve_spa(scn)
    fallback = np.isneginf(pivotal_expectation(scn, sol.grid, sol.bids))
    assert 0 < fallback.sum() < fallback.size
    pin = np.array([s - np.min(scn._noise_rule[0])])
    gap = pivotal_expectation(scn, pin, 0.0)[0] - scn.utility.value(s)
    assert np.all(sol.residuals[fallback] == abs(gap))
    assert np.all(np.isfinite(sol.residuals))


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
    assert (rep.extremum, rep.tolerance) == ("max_d", 10 * scn.root_tol)
    assert rep.max_d <= rep.tolerance
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


def test_compare_and_audit_under_an_overflowing_cara_bend_do_not_warn():
    # near the CRRA edge the inner value is hugely negative and the outer
    # CARA overflows to -inf, its value: no RuntimeWarning (an error here)
    scn = SPAScenario(values=UNIT3, utility=CRRAUtility(2.0, shift=0.05),
                      transform=CARAUtility(4.0),
                      win_payoff=NoisyWin(UniformNoise(-1.0, 1.0), scale=0.5), grid=64)
    rep = compare_risk_aversion_spa(scn)
    sol = EquilibriumSolution.from_grid(rep.grid, rep.beta_hat, v_floor=0.0)
    assert best_response_audit("spa", scn, sol).passed


def test_pivotal_expectation_array_matches_scalar():
    scn = SPAScenario(values=UNIT3, transform=CARAUtility(2.0),
                      win_payoff=NoisyWin(DiscreteNoise([-1.0, 1.0], [0.25, 0.75]),
                                          scale=0.2), grid=65)
    vs = np.linspace(0.0, 1.0, 9)
    bs = 0.8 * vs
    arr = pivotal_expectation(scn, vs, bs)
    assert arr.shape == vs.shape
    for v, b, x in zip(vs, bs, arr):
        # a many-type array sums atoms as a matrix-vector product, so it
        # may differ from the one-type sum in the last bit
        assert pivotal_expectation(scn, float(v), float(b)) == pytest.approx(x, rel=1e-14)


@pytest.mark.parametrize("noise", [DiscreteNoise([-1.0, 1.0], [0.0, 1.0]),
                                   TruncatedNormalNoise(0.0, 1.0, -2.0, 2.0)])
def test_pivotal_expectation_scalar_is_one_element_array(noise):
    # one rule for every shape: a scalar takes the array path, bit for bit,
    # and a breach (weight-0 atoms included) is -inf rather than an error
    scn = SPAScenario(values=UNIT3, transform=CRRAUtility(0.5),
                      win_payoff=NoisyWin(noise, scale=0.2), grid=65)
    breached = 0
    for v in np.linspace(0.0, 1.0, 17):
        for b in np.linspace(0.0, 1.0, 17):
            x = pivotal_expectation(scn, float(v), float(b))
            arr = pivotal_expectation(scn, np.array([v]), np.array([b]))
            assert type(x) is float and arr.shape == (1,)
            assert x == arr[0]
            assert x == -np.inf or np.isfinite(x)
            breached += x == -np.inf
    assert 0 < breached < 17 * 17


def test_pivotal_expectation_array_is_minus_inf_out_of_domain():
    # the -1 atom has weight 0 but still leaves CRRA's domain at b = v
    scn = SPAScenario(values=UNIT3, transform=CRRAUtility(0.5),
                      win_payoff=NoisyWin(DiscreteNoise([-1.0, 1.0], [0.0, 1.0]),
                                          scale=0.2), grid=65)
    vs = np.array([0.5, 0.5, 0.5])
    arr = pivotal_expectation(scn, vs, np.array([0.0, 0.5, 0.2]))
    assert arr[1] == -np.inf and np.all(np.isfinite(arr[[0, 2]]))
    assert arr[0] == pytest.approx(pivotal_expectation(scn, 0.5, 0.0), rel=1e-14)
    assert pivotal_expectation(scn, 0.5, 0.5) == -np.inf
    assert pivotal_expectation(scn, np.empty(0), np.empty(0)).shape == (0,)


# ---------------------------------------------------------------------------
# slabbed noise expectation: 1025 types x 64 atoms spans several slabs
# ---------------------------------------------------------------------------

TNORM64 = NoisyWin(TruncatedNormalNoise(0.0, 1.0, -2.0, 2.0), scale=0.2)
#: a transform whose lower-order noise means miss the 64-node one near its
#: domain edge, so the solver keeps all 64 atoms
EDGE64 = CRRAUtility(0.5, shift=0.3)


def test_slabbed_solve_matches_scalar_reference():
    scn = SPAScenario(values=UNIT3, transform=EDGE64, win_payoff=TNORM64, grid=1025)
    atoms = scn._noise_rule[0].size
    assert atoms == 64 and scn.grid * atoms >= 4 * _SLAB
    assert_matches_reference(scn, solve_spa(scn))


@pytest.mark.parametrize(
    "transform",
    [
        CRRAUtility(0.5, shift=2.0),
        CARAUtility(1.5),
        # the level is pinned at the domain edge; the solved bids keep every
        # row of the residual pass inside the domain
        EDGE64,
    ],
    ids=["crra", "cara", "crra_domain_edge"],
)
def test_slabbed_solve_matches_whole_tensor_solve(monkeypatch, transform):
    # against the same solve with the expectation taken over the whole
    # (types x atoms) tensor: bids and residuals bit for bit
    scn = SPAScenario(values=UNIT3, transform=transform, win_payoff=TNORM64, grid=1025)
    sol = solve_spa(scn)
    with monkeypatch.context() as m:
        m.setattr(spa, "_noise_mean", reference_noise_mean)
        whole = solve_spa(scn)
    assert sol.bids.tobytes() == whole.bids.tobytes()
    assert sol.residuals.tobytes() == whole.residuals.tobytes()


def test_slabbed_pivotal_expectation_within_4_ulp():
    # a slab's matrix-vector product may round a row as a different
    # position in the product than the whole tensor did
    scn = SPAScenario(values=UNIT3, utility=CRRAUtility(0.5, shift=0.3), win_payoff=TNORM64,
                      grid=1025)
    u = scn.effective_utility()
    v = scn.report_grid()
    b = 0.5 * v + 0.2 * np.sin(40.0 * v)  # scattered rows leave the domain
    got = pivotal_expectation(scn, v, b)
    ref = reference_noise_mean(u, v - b, scn.win_payoff.rules[-1])
    out = np.isneginf(ref)
    assert 0 < out.sum() < out.size
    np.testing.assert_array_equal(np.isneginf(got), out)
    assert np.all(np.abs(got[~out] - ref[~out]) <= 4 * np.spacing(np.abs(ref[~out])))


def test_pivotal_expectation_never_holds_the_whole_tensor():
    scn = SPAScenario(values=UNIT3, transform=EDGE64, win_payoff=TNORM64, grid=1025)
    v = scn.report_grid()
    b = 0.8 * v - 0.2  # every row inside the domain
    atoms = scn._noise_rule[0].size
    assert atoms == 64
    whole = v.size * atoms * 8  # bytes of one (types x atoms) float64 tensor
    pivotal_expectation(scn, v, b)  # warm caches outside the trace
    tracemalloc.start()
    try:
        pivotal_expectation(scn, v, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole, (peak, whole)


# ---------------------------------------------------------------------------
# sized noise quadrature: the fewest nodes that reproduce the 64-node mean
# ---------------------------------------------------------------------------

def _tnorm_pdf(mu, sigma, lo, hi):
    """The truncated-normal density, written on ``math.erf``."""
    def cdf(z):
        return 0.5 * (1.0 + math.erf((z - mu) / (sigma * math.sqrt(2.0))))

    norm = sigma * math.sqrt(2.0 * math.pi) * (cdf(hi) - cdf(lo))
    return lambda z: math.exp(-0.5 * ((z - mu) / sigma) ** 2) / norm


@pytest.mark.parametrize("law", [(0.0, 1.0, -3.0, 3.0), (0.3, 0.7, -2.0, 2.5)],
                         ids=["tn_sym", "tn_skew"])
@pytest.mark.parametrize("alpha, scale", [(0.5, 0.1), (2.0, 0.3), (3.0, 0.1)])
def test_cara_bids_match_continuous_noise_oracle(law, alpha, scale):
    # Pratt: a CARA bidder bids b = v - s - log E[exp(-alpha scale o)] / alpha,
    # the expectation over the truncated normal itself by adaptive quad
    s0 = 0.2
    pdf = _tnorm_pdf(*law)
    mgf, err = quad(lambda o: math.exp(-alpha * scale * o) * pdf(o), law[2], law[3],
                    epsabs=0.0, epsrel=1e-13, limit=200)
    # quad's own error estimate is about 1e-14 relative on these laws
    assert err <= 1e-13 * mgf
    x_exact = s0 + math.log(mgf) / alpha
    scn = SPAScenario(values=UNIT3, utility=CARAUtility(alpha, shift=0.5),
                      outside=ConstantOutside(s0),
                      win_payoff=NoisyWin(TruncatedNormalNoise(*law), scale))
    sol = solve_spa(scn)
    assert np.max(np.abs(sol.bids - (sol.grid - x_exact))) <= scn.root_tol
    # the chosen rule's certainty equivalent, like the 64-node one, is
    # exact to within the oracle's own error
    for offsets, weights in (scn._noise_rule, scn.win_payoff.rules[-1]):
        x_rule = s0 + math.log(np.dot(weights, np.exp(-alpha * offsets))) / alpha
        assert abs(x_rule - x_exact) <= err / mgf / alpha + 4 * np.spacing(x_exact)


_SHIFT = st.floats(0.0, 3.0)
_UTILITIES = st.one_of(
    st.builds(LinearUtility, _SHIFT),
    st.builds(CRRAUtility, st.floats(0.0, 3.0).filter(lambda rho: rho != 1.0), _SHIFT),
    st.builds(LogUtility, _SHIFT),
    st.builds(CARAUtility, st.floats(0.1, 4.0), _SHIFT),
    st.builds(lambda x, m0, m1, shift: PiecewiseLinearUtility([(x, max(m0, m1)),
                                                              (x + 1.0, min(m0, m1))], shift),
              st.floats(-3.0, 3.0), st.floats(0.2, 4.0), st.floats(0.2, 4.0), _SHIFT),
)
_LAWS = st.one_of(
    st.builds(UniformNoise, st.floats(-3.0, -0.1), st.floats(0.1, 3.0)),
    st.builds(TruncatedNormalNoise, st.floats(-1.0, 1.0), st.floats(0.05, 3.0),
              st.floats(-4.0, -0.5), st.floats(0.5, 4.0)),
)
_OUTSIDES = st.one_of(
    st.builds(ConstantOutside, st.floats(-0.5, 0.5)),
    st.builds(AffineOutside, st.floats(-0.5, 0.5), st.floats(0.0, 0.9)),
)


@settings(max_examples=300, deadline=None)
@given(law=_LAWS, scale=st.floats(0.02, 0.5), utility=_UTILITIES,
       transform=st.none() | _UTILITIES, outside=_OUTSIDES, seed=st.integers(0, 2**32 - 1))
def test_noise_rule_reproduces_the_64_node_mean(law, scale, utility, transform, outside, seed):
    scn = SPAScenario(values=UNIT3, utility=utility, transform=transform, outside=outside,
                      win_payoff=NoisyWin(law, scale), grid=64)
    rule = scn._noise_rule
    offsets, weights = scn.win_payoff.rules[-1]
    s = scn.outside.value(scn.report_grid())
    lo, hi = np.min(s) - np.max(offsets) - 1.0, np.max(s) - np.min(offsets) + 1.0
    x = np.random.default_rng(seed).uniform(lo, hi, 200)
    x = np.append(x[~np.isin(x, np.linspace(lo, hi, spa._PROBES))], lo)  # off the probes
    for u in (scn.utility, scn.effective_utility()):
        full = spa._noise_mean(u, x, (offsets, weights))
        got = spa._noise_mean(u, x, rule)
        if not np.all(np.isfinite(full)):
            assert rule[0].size == 64
        bound = spa._RULE_ULPS * np.finfo(float).eps * np.maximum(1.0, np.abs(full))
        assert got.tobytes() == full.tobytes() or np.all(np.abs(got - full) <= bound)


def test_noise_rule_is_chosen_once_per_scenario(monkeypatch):
    calls = []
    choose = spa._choose_rule
    monkeypatch.setattr(spa, "_choose_rule", lambda s: calls.append(s) or choose(s))
    scn = SPAScenario(values=UNIT3, transform=CARAUtility(2.0), win_payoff=TNORM64, grid=129)
    assert calls == []  # not at construction
    sol = solve_spa(scn)
    rule = scn._noise_rule
    assert rule[0].size < 64  # a smooth bend on smooth noise needs fewer nodes
    compare_risk_aversion_spa(scn)
    best_response_audit("spa", scn, sol)
    pivotal_expectation(scn, sol.grid, sol.bids)
    assert calls == [scn]
    # both solves of a comparison take the scenario's own rule
    assert scn._noise_rule is rule
    # a scenario's fields are fixed; a replaced copy chooses its own rule
    with pytest.raises(FrozenInstanceError):
        scn.transform = CRRAUtility(0.5, shift=0.3)
    bent = replace(scn, transform=CRRAUtility(0.5, shift=0.3))
    assert bent._noise_rule[0].size == 64 and calls == [scn, bent]
    assert scn._noise_rule is rule


def test_discrete_and_deterministic_payoffs_keep_their_atoms():
    assert len(TNORM64.rules) == 2
    for win in (NoisyWin(TWO_POINT, scale=0.2), DeterministicWin()):
        assert len(win.rules) == 1
        scn = SPAScenario(values=UNIT3, transform=CARAUtility(2.0), win_payoff=win, grid=64)
        for got, own in zip(scn._noise_rule, win.rules[0]):
            assert got.tobytes() == own.tobytes()
