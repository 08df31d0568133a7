"""Unit tests for the first-price equilibrium solver."""

import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import OdeSolution, quad, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.interpolate import CubicSpline

from riskbid import (
    AffineOutside,
    CARAUtility,
    ConfigError,
    ConstantOutside,
    CRRAUtility,
    DiscreteNoise,
    DomainError,
    EquilibriumSolution,
    FPAScenario,
    LinearUtility,
    NonmonotoneSolution,
    NoisyWin,
    NonpositiveSurplus,
    OrderingViolation,
    PowerDist,
    SingularHazard,
    SolverWarning,
    SPAScenario,
    UniformDist,
    ValueModel,
    best_response_audit,
    closed_form_crra_uniform,
    compare_risk_aversion_fpa,
    compare_risk_aversion_spa,
    marginal_tradeoff,
    solve_fpa,
    solve_spa,
)
from riskbid import _dop853, fpa
from riskbid.fpa import (
    _SLAB,
    _in_slabs,
    _interpolant_slope,
    _solve_joint,
    _start_bid,
    _tradeoff_raw,
    check_monotone,
)

from conftest import doctor_fpa_compare, fpa_matrix

UNIT3 = ValueModel.iid(UniformDist(0.0, 1.0), 3)


# ---------------------------------------------------------------------------
# scalar reference: the residual check one grid point at a time
# ---------------------------------------------------------------------------

def _scipy_dense(dense):
    """The stepper's dense output as scipy's ``OdeSolution`` of one
    ``Dop853DenseOutput`` per step, which evaluates a point at a time."""
    ts = dense.ts
    pieces = [Dop853DenseOutput(ts[j], ts[j + 1], dense.ys[j], dense.F[:, j])
              for j in range(len(ts) - 1)]
    return OdeSolution(ts, pieces)


def _reference_slope(dense, t, span):
    """Central difference of the dense output, kept inside t's own piece."""
    ts = dense.ts
    j = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2))
    lo, hi = ts[j], ts[j + 1]
    h = min(1e-5 * span, (hi - lo) / 8.0)
    c = min(max(t, lo + h), hi - h)
    return float((dense(c + h)[0] - dense(c - h)[0]) / (2.0 * h))


def reference_residuals(scenario, dense):
    """(bids, residuals, derivative_check) for a scenario whose integration
    returned the dense output ``dense``, with one scalar dense-output,
    hazard, tradeoff and slope call per grid point."""
    u = scenario.effective_utility()
    vm = scenario.values
    grid = scenario.report_grid()
    s_grid = np.asarray(scenario.outside.value(grid))
    bids = np.empty_like(grid)
    residuals = np.empty_like(grid)
    scaled = np.empty_like(grid)
    for i, v in enumerate(grid):
        bids[i] = dense(v)[0]
        field_val = vm.hazard(v) * _tradeoff_raw(u, v - bids[i], float(s_grid[i]))
        slope = _reference_slope(dense, v, vm.span)
        residuals[i] = abs(slope - field_val)
        scaled[i] = residuals[i] / (1.0 + abs(field_val))
    return bids, residuals, float(np.max(scaled[1:-1]))


def _catch_dense(monkeypatch):
    """A list that receives the dense output of every integration."""
    caught = []
    integrate = _dop853.integrate

    def spy(*args, **kwargs):
        caught.append(integrate(*args, **kwargs))
        return caught[-1]

    monkeypatch.setattr(_dop853, "integrate", spy)
    return caught


@pytest.mark.parametrize("grid", [129, 1025])
def test_residual_check_matches_scalar_reference(grid, monkeypatch):
    # the solution keeps no integrator output, so catch the stepper's
    dense = _catch_dense(monkeypatch)
    for _, scn in fpa_matrix():
        for case in (replace(scn, transform=None, grid=grid), replace(scn, grid=grid)):
            sol = solve_fpa(case)
            bids, residuals, check = reference_residuals(case, _scipy_dense(dense.pop()))
            np.testing.assert_array_equal(sol.bids, bids)
            np.testing.assert_array_equal(sol.residuals, residuals)
            assert sol.derivative_check == check


def test_one_array_hazard_call_per_solve(monkeypatch):
    calls = []
    original = ValueModel.hazard

    def spy(self, v):
        calls.append(np.shape(v))
        return original(self, v)

    monkeypatch.setattr(ValueModel, "hazard", spy)
    attempts = []
    integrate = _dop853.integrate

    def counting(stages, *args, **kwargs):
        def counted(ts):
            attempts.append(ts.size)
            return stages(ts)
        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(_dop853, "integrate", counting)
    scn = FPAScenario(values=UNIT3, utility=CRRAUtility(0.5), grid=129)
    # the start bid's scalar call, one call on the 15 abscissae of each
    # step attempt, and one on the grid; a comparison integrates both
    # schedules at once, so the same calls serve both
    for solve, case in ((solve_fpa, scn), (solve_fpa, replace(scn, transform=CARAUtility(1.0))),
                        (compare_risk_aversion_fpa, replace(scn, transform=CARAUtility(1.0)))):
        calls.clear()
        attempts.clear()
        solve(case)
        assert attempts and set(attempts) == {15}
        assert calls == [()] + [(15,)] * len(attempts) + [(scn.grid,)]


# ---------------------------------------------------------------------------
# the stepper against scipy's solve_ivp
# ---------------------------------------------------------------------------

def reference_integration(scenario, utilities):
    """scipy's ``solve_ivp(method="DOP853")`` on the joint equation, with a
    right-hand side called one scalar stage at a time: the solver before
    it had its own stepper.  The grid plays no part."""
    vm, outside = scenario.values, scenario.outside
    eps, v0, b0 = scenario.start_offset, scenario.start, scenario.boundary_bid
    s0 = float(outside.value(v0))
    lam0 = vm.hazard(v0)
    y0 = [_start_bid(u, lam0, v0, s0, b0, eps, v0 - s0 - b0) for u in utilities]
    memos = [(u, functools.lru_cache(maxsize=1)(u.value)) for u in utilities]

    def rhs(v, y):
        v = float(v)
        s_v, lam = float(outside.value(v)), vm.hazard(v)
        return [0.0 if v - b <= s_v else lam * _tradeoff_raw(u, v - b, s_v, value_s)
                for (u, value_s), b in zip(memos, y.tolist())]

    tol = max(5e-14, min(scenario.ode_tol, 1.0) * 1e-3)
    sol = solve_ivp(rhs, (v0, vm.hi), y0, method="DOP853", dense_output=True, rtol=tol,
                    atol=tol, first_step=min(eps / 4.0, vm.span / 1000.0))
    assert sol.success, sol.message
    return sol


def reference_schedules(scenario, utilities, sol):
    """(bids, residuals, derivative checks) on the scenario's grid from
    :func:`reference_integration`'s dense output."""
    vm, grid = scenario.values, scenario.report_grid()
    s_grid, lam = np.asarray(scenario.outside.value(grid)), vm.hazard(grid)
    bids = sol.sol(grid)
    slopes = _interpolant_slope(sol.sol, grid, vm.span)
    residuals, checks = [], []
    for u, b, slope in zip(utilities, bids, slopes):
        field_val = lam * _tradeoff_raw(u, grid - b, s_grid)
        residuals.append(np.abs(slope - field_val))
        checks.append(float(np.max((residuals[-1] / (1.0 + np.abs(field_val)))[1:-1])))
    return bids, residuals, checks


def test_tableau_is_scipys():
    for name in ("A", "B", "C", "E3", "E5", "D"):
        ours, theirs = getattr(_dop853, name), getattr(dop853_coefficients, name)
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name


def test_stepper_takes_solve_ivps_steps(monkeypatch):
    # every comparison scenario, solved alone with and without the
    # transform and jointly, at two grids: the same step points, and bids,
    # residuals and checks that agree to 1e-12 (they are bit-equal today)
    dense = _catch_dense(monkeypatch)
    bases = set()  # the scenarios of one value model share their baseline
    for name, scn in fpa_matrix():
        u, uh = scn.utility, scn.effective_utility()
        runs = [[uh], [u, uh]]
        if str(scn.values.to_config()) not in bases:
            bases.add(str(scn.values.to_config()))
            runs.insert(0, [u])
        for utilities in runs:
            ref = reference_integration(scn, utilities)
            for grid in (129, 1025):
                case = replace(scn, grid=grid)
                sols = _solve_joint(case, utilities)
                assert np.array_equal(dense.pop().ts, ref.t), name
                bids, residuals, checks = reference_schedules(case, utilities, ref)
                for k, sol in enumerate(sols):
                    assert np.max(np.abs(sol.bids - bids[k])) <= 1e-12, name
                    assert np.max(np.abs(sol.residuals - residuals[k])) <= 1e-12, name
                    assert abs(sol.derivative_check - checks[k]) <= 1e-12, name


def test_stepper_stops_at_a_blow_up():
    # y' = y^2, y(0) = 1 blows up at t = 1: the step size shrinks below the
    # spacing of t there, and the stepper gives up as solve_ivp does
    attempts = []

    def stages(ts):
        attempts.append(ts[0])
        if len(attempts) > 10_000:
            raise RuntimeError("the stepper does not stop")
        return lambda i, y: [y[0] * y[0]]

    with pytest.raises(SingularHazard, match="^integration failed: Required step size is less "
                       "than spacing between numbers[.]$"):
        _dop853.integrate(stages, 0.0, [1.0], [1.0], 2.0, first_step=1e-3, tol=1e-11)
    assert abs(attempts[-1] - 1.0) < 1e-9


def test_domain_breach_inside_integration_raises():
    # s(v) = -v leaves CRRA's shifted domain just past v = 0.5, inside the
    # integration: the right-hand side's float check raises there
    scn = FPAScenario(
        values=UNIT3,
        outside=AffineOutside(0.0, -1.0),
        utility=CRRAUtility(0.5, shift=0.5),
        grid=129,
    )
    msg = "CRRAUtility: argument + shift = -1.04712e-07 outside domain ([0, inf)"
    with pytest.raises(DomainError, match=f"^{re.escape(msg)}$"):
        solve_fpa(scn)


def test_domain_breach_inside_joint_integration_raises():
    # the transform alone breaches: u(s_v) = phi(-v) leaves CRRA's domain past
    # v = 0.5, which the baseline never evaluates; the joint stages meet it
    scn = FPAScenario(
        values=UNIT3,
        outside=AffineOutside(0.0, -1.0),
        transform=CRRAUtility(0.5, shift=0.5),
        grid=129,
    )
    assert solve_fpa(replace(scn, transform=None)).monotone
    with pytest.raises(DomainError, match="^CRRAUtility: argument [+] shift = -1.0"):
        solve_fpa(scn)
    with pytest.raises(DomainError, match="^CRRAUtility: argument [+] shift = -1.0"):
        compare_risk_aversion_fpa(scn)


def _flat_cell_grid(scn):
    """The scenario with one report point repeated: a flat cell, which
    ``check_monotone`` only warns about."""
    grid = scn.report_grid()
    grid[5] = grid[4]
    object.__setattr__(scn, "report_grid", lambda: grid.copy())  # a frozen scenario
    return scn


def test_monotone_warning_names_the_caller():
    for scenario_cls, solve, compare in ((FPAScenario, solve_fpa, compare_risk_aversion_fpa),
                                         (SPAScenario, solve_spa, compare_risk_aversion_spa)):
        scn = _flat_cell_grid(scenario_cls(values=UNIT3, transform=CARAUtility(1.0), grid=129))
        with pytest.warns(SolverWarning) as rec:
            assert solve(scn).monotone is False
        assert [w.filename for w in rec] == [__file__], scenario_cls
        with pytest.warns(SolverWarning) as rec:
            compare(scn)
        assert [w.filename for w in rec] == [__file__, __file__], scenario_cls  # one per schedule


# ---------------------------------------------------------------------------
# marginal tradeoff and closed forms
# ---------------------------------------------------------------------------

def test_marginal_tradeoff_linear():
    u = LinearUtility()
    assert marginal_tradeoff(u, 0.7, 0.2) == pytest.approx(0.5)


def test_marginal_tradeoff_crra():
    u = CRRAUtility(0.5)
    # (u(x) - u(0)) / u'(x) = 2 sqrt(x) * sqrt(x) = 2x
    assert marginal_tradeoff(u, 1.0, 0.0) == pytest.approx(2.0)
    assert marginal_tradeoff(u, 4.0, 0.0) == pytest.approx(8.0)


def test_marginal_tradeoff_needs_surplus():
    with pytest.raises(NonpositiveSurplus):
        marginal_tradeoff(LinearUtility(), 0.2, 0.2)
    with pytest.raises(NonpositiveSurplus):
        marginal_tradeoff(LinearUtility(), 0.1, 0.2)


def test_marginal_tradeoff_on_arrays():
    u = CRRAUtility(0.5)
    x = np.array([1.0, 4.0, 2.25])
    out = marginal_tradeoff(u, x, 0.0)
    assert isinstance(out, np.ndarray) and out.shape == (3,)
    assert np.array_equal(out, [marginal_tradeoff(u, float(xi), 0.0) for xi in x])
    grid = marginal_tradeoff(LinearUtility(), x[:, None], np.array([0.0, 0.5]))
    assert np.array_equal(grid, x[:, None] - np.array([0.0, 0.5]))
    assert isinstance(marginal_tradeoff(u, 1.0, 0.0), float)


def test_marginal_tradeoff_names_the_first_bad_entry():
    x = np.array([0.7, 0.2, 0.1, 0.9])
    with pytest.raises(NonpositiveSurplus, match="^entry 1: winning surplus 0.2 does not "
                       "exceed the outside option 0.2$"):
        marginal_tradeoff(LinearUtility(), x, 0.2)
    with pytest.raises(NonpositiveSurplus, match="^entry 2: .* surplus nan "):
        marginal_tradeoff(LinearUtility(), [0.7, 0.8, np.nan], [0.2, 0.2, 0.2])


def test_closed_form_coefficients():
    assert closed_form_crra_uniform(2, 0.0) == pytest.approx(0.5)
    assert closed_form_crra_uniform(3, 0.5) == pytest.approx(0.8)
    assert closed_form_crra_uniform(5, 0.8) == pytest.approx(4.0 / 4.2)
    with pytest.raises(ConfigError):
        closed_form_crra_uniform(1, 0.0)
    with pytest.raises(ConfigError):
        closed_form_crra_uniform(3, 1.0)


# ---------------------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------------------

def test_scenario_validation():
    with pytest.raises(ConfigError):
        FPAScenario(values=UNIT3, grid=32)
    with pytest.raises(ConfigError):
        FPAScenario(values=UNIT3, ode_tol=0.0)
    with pytest.raises(ConfigError):
        FPAScenario(values=UNIT3, boundary_bid=0.5)  # above zero surplus


def test_scenario_rejects_dominated_interior():
    # outside option equal to the value leaves no room to bid
    with pytest.raises(ConfigError):
        FPAScenario(values=UNIT3, outside=AffineOutside(0.0, 1.0))


def test_default_boundary_is_zero_surplus():
    scn = FPAScenario(values=UNIT3, outside=ConstantOutside(-0.25))
    assert scn.boundary_bid == pytest.approx(0.25)
    scn2 = FPAScenario(values=UNIT3)
    assert scn2.boundary_bid == 0.0


def test_replace_keeps_a_defaulted_boundary_bid():
    # the default is stored at construction, so a copy keeps it; a copy with
    # new values or outside passes boundary_bid=None to take its own
    scn = FPAScenario(values=UNIT3, grid=129)
    with pytest.raises(ConfigError, match="^boundary bid 0 exceeds the zero-surplus bid -0.3 "):
        replace(scn, outside=ConstantOutside(0.3))
    assert replace(scn, outside=ConstantOutside(0.3), boundary_bid=None).boundary_bid == -0.3
    high = ValueModel.iid(UniformDist(5.0, 6.0), 3)
    kept = solve_fpa(replace(scn, values=high))
    fresh = solve_fpa(FPAScenario(values=high, grid=129))
    assert (kept.boundary_bid, fresh.boundary_bid) == (0.0, 5.0)
    assert round(kept.bids[0], 2) == 3.33 and round(fresh.bids[0], 4) == 5.0
    assert round(kept.bids[1], 4) == round(fresh.bids[1], 4) == 5.0052
    own = solve_fpa(replace(scn, values=high, boundary_bid=None))
    assert own.bids.tobytes() == fresh.bids.tobytes()


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def test_linear_uniform_closed_form():
    sol = solve_fpa(FPAScenario(values=ValueModel.iid(UniformDist(0.0, 1.0), 2)))
    assert sol.bid_at(0.5) == pytest.approx(0.25, rel=1e-6)
    ts = np.linspace(0.05, 1.0, 50)
    np.testing.assert_allclose(sol.bid_at(ts), 0.5 * ts, rtol=1e-6)


def test_crra_uniform_closed_form(closed_form_solutions):
    for (n, rho), (scn, sol) in closed_form_solutions.items():
        c = closed_form_crra_uniform(n, rho)
        ts = np.linspace(0.01, 1.0, 80)
        rel = np.abs(sol.bid_at(ts) - c * ts) / np.maximum(c * ts, 1e-12)
        assert rel.max() < 1e-4, (n, rho, rel.max())


def test_solution_reports_health(closed_form_solutions):
    scn, sol = closed_form_solutions[(3, 0.5)]
    assert sol.monotone
    assert sol.derivative_check <= 10 * scn.ode_tol
    assert np.all(np.isfinite(sol.residuals))
    assert sol.grid.shape == sol.bids.shape == sol.residuals.shape
    assert sol.bid_at(0.5) == pytest.approx(0.4, rel=1e-6)


def test_start_offset_insensitivity(monkeypatch):
    scn = FPAScenario(values=UNIT3, utility=CRRAUtility(0.5), grid=129)
    sol1 = solve_fpa(scn)
    monkeypatch.setattr(fpa, "START_OFFSET_FACTOR", 1e-4)
    sol2 = solve_fpa(FPAScenario(values=UNIT3, utility=CRRAUtility(0.5), grid=129))
    ts = np.linspace(0.05, 1.0, 100)
    assert np.max(np.abs(sol1.bid_at(ts) - sol2.bid_at(ts))) < 1e-9


def test_bids_below_value_with_positive_outside():
    scn = FPAScenario(values=UNIT3, outside=ConstantOutside(-0.5))
    sol = solve_fpa(scn)
    ts = np.linspace(0.05, 1.0, 40)
    bids = sol.bid_at(ts)
    assert np.all(bids < ts + 0.5)       # never bid past the surplus frontier
    assert np.all(np.diff(bids) > 0)


def test_nonuniform_values_solve():
    scn = FPAScenario(values=ValueModel.iid(PowerDist(2.0, 0.0, 1.0), 3),
                      utility=CARAUtility(2.0), grid=129)
    sol = solve_fpa(scn)
    assert sol.monotone
    assert sol.derivative_check <= 10 * scn.ode_tol
    # power values make high types more common, pushing bids up
    uni = solve_fpa(replace(scn, values=UNIT3))
    assert sol.bid_at(0.8) > uni.bid_at(0.8)


def test_bid_extrapolation_rules():
    sol = solve_fpa(FPAScenario(values=UNIT3))
    # below the grid: linear ramp down to the boundary bid at the floor
    assert sol.bid_at(0.0) == pytest.approx(sol.boundary_bid, abs=1e-12)
    assert sol.bid_at(2.0) == pytest.approx(sol.bids[-1])
    mid = 0.5 * (sol.v_floor + sol.grid[0])
    lo, hi = sorted((sol.boundary_bid, sol.bids[0]))
    assert lo <= sol.bid_at(mid) <= hi
    arr = sol.bid_at(np.array([[0.3, 0.6], [0.9, 0.2]]))
    assert arr.shape == (2, 2)
    rebuilt = EquilibriumSolution.from_grid(
        sol.grid, sol.bids, v_floor=sol.v_floor, boundary_bid=sol.boundary_bid
    )
    # mixed in-range and out-of-range points keep their places, and a
    # transposed (non-contiguous) input matches element for element
    t = np.array([[-1.0, 0.3, 2.0], [0.6, 0.5 * sol.grid[0], 1.0]])
    for s in (sol, rebuilt):
        out = s.bid_at(t)
        assert np.array_equal(out, [[s.bid_at(x) for x in row] for row in t])
        assert np.array_equal(s.bid_at(t.T), out.T)
        for empty in (np.array([]), np.zeros((0, 3))):
            assert s.bid_at(empty).shape == empty.shape


def test_check_monotone_rules():
    def solver(bids):
        return check_monotone(np.asarray(bids, dtype=float))

    assert solver([0.0, 0.1, 0.2, 0.3]) is True
    with pytest.warns(SolverWarning) as rec:
        assert solver([0.0, 0.2, 0.1, 0.3, 0.4]) is False
    assert rec[0].filename == __file__  # attributed to the solver's caller
    with pytest.warns(SolverWarning):
        assert solver([0.0, 0.2, 0.2, 0.1, 0.3]) is False  # two cells
    with pytest.raises(NonmonotoneSolution, match="3 consecutive"):
        solver([0.0, 0.3, 0.2, 0.2, 0.1, 0.4])


def test_from_grid_round_trip():
    sol = solve_fpa(FPAScenario(values=UNIT3, utility=CRRAUtility(0.3), grid=129))
    rebuilt = EquilibriumSolution.from_grid(
        sol.grid, sol.bids, v_floor=sol.v_floor, boundary_bid=sol.boundary_bid
    )
    # a fresh solve and its rebuilt table are one spline, tails included
    ts = np.concatenate([np.linspace(-0.1, 1.1, 241), sol.grid])
    assert np.array_equal(rebuilt.bid_at(ts), sol.bid_at(ts))
    assert rebuilt.monotone


# ---------------------------------------------------------------------------
# accuracy of the evaluated schedule against an independent oracle
# ---------------------------------------------------------------------------

def _milgrom_weber_bid(v, n, weight, rho):
    """First-price bid at v for n bidders whose values are U[0, 1] with
    probability ``weight`` and power(3) on [0, 1] otherwise (one draw of
    the component for all bidders), with CRRA(rho) utility and no outside
    option.

    Milgrom & Weber (1982, Thm 14): beta(v) = v - int_0^v L(a | v) da,
    L(a | v) = exp(-int_a^v lambda(s) / (1 - rho) ds), where lambda is the
    hazard of the highest rival value at the own value, here built from
    the component formulas.  CRRA scales the hazard by 1 / (1 - rho)
    because its tradeoff u(x) / u'(x) is x / (1 - rho).
    """
    def hazard(s):
        comps = ((weight, 1.0, s), (1.0 - weight, 3.0 * s * s, s ** 3))  # (w, f, F)
        num = sum(w * f * (n - 1) * F ** (n - 2) * f for w, f, F in comps)
        return num / sum(w * f * F ** (n - 1) for w, f, F in comps)

    def stay(a):
        inner = quad(hazard, a, v, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return math.exp(-inner / (1.0 - rho))

    return v - quad(stay, 0.0, v, epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("utility, rho", [(LinearUtility(), 0.0), (CRRAUtility(0.5), 0.5)],
                         ids=["linear", "crra"])
def test_bid_at_matches_milgrom_weber_oracle(utility, rho):
    weight = 0.5
    values = ValueModel.mixture([(weight, UniformDist(0.0, 1.0)),
                                 (1.0 - weight, PowerDist(3.0, 0.0, 1.0))], 3)
    sol = solve_fpa(FPAScenario(values=values, utility=utility, grid=257))
    cells = np.linspace(0, len(sol.grid) - 2, 16).astype(int)  # bottom to top
    mids = 0.5 * (sol.grid[cells] + sol.grid[cells + 1])
    t = np.concatenate([mids, sol.grid[cells], sol.grid[cells + 1]])
    oracle = np.array([_milgrom_weber_bid(x, 3, weight, rho) for x in t])
    assert np.max(np.abs(sol.bid_at(t) - oracle)) <= 1e-9


# ---------------------------------------------------------------------------
# every schedule: scipy's CubicSpline is the reference evaluator
# ---------------------------------------------------------------------------

def _spline_schedules(grid):
    """A second-price solution, a fresh first-price one and the first-price
    one rebuilt from its table."""
    noisy = NoisyWin(DiscreteNoise([-1.0, 1.0], [0.5, 0.5]), 0.2)
    spa = solve_spa(SPAScenario(values=UNIT3, transform=CRRAUtility(0.5, shift=2.0),
                                win_payoff=noisy, grid=grid))
    fpa = solve_fpa(FPAScenario(values=UNIT3, utility=CRRAUtility(0.3), grid=grid))
    rebuilt = EquilibriumSolution.from_grid(
        fpa.grid, fpa.bids, v_floor=fpa.v_floor, boundary_bid=fpa.boundary_bid
    )
    return spa, fpa, rebuilt


def _knots_and_draws(grid, rng):
    """Every knot and both its neighbours, the ends, and uniform draws
    (more than two evaluation blocks' worth)."""
    near = np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf)])
    near = near[(near >= grid[0]) & (near <= grid[-1])]
    return np.concatenate([near, [grid[0], grid[-1]], rng.uniform(grid[0], grid[-1], 70_000)])


def _assert_matches_spline(sol, rng):
    ref = CubicSpline(sol.grid, sol.bids)
    t = _knots_and_draws(sol.grid, rng)
    assert np.array_equal(sol.bid_at(t), ref(t))
    t2 = t[: 4 * (len(t) // 4)].reshape(-1, 4)
    assert np.array_equal(sol.bid_at(t2), ref(t2))
    for x in (float(t[-1]), np.float64(t[-2]), np.array(t[-3])):
        out = sol.bid_at(x)
        assert isinstance(out, float) and out == ref(x)


@pytest.mark.parametrize("grid", [64, 129, 257, 1025])
def test_spline_schedule_equals_scipy_bit_for_bit(grid):
    rng = np.random.default_rng(grid)
    for sol in _spline_schedules(grid):
        _assert_matches_spline(sol, rng)
        assert sol._spline.indexed  # a linspace grid locates pieces by index
        assert np.isnan(sol.bid_at(np.nan))


@pytest.mark.parametrize("extra", [(2, 3), (3, 5)])
def test_spline_blocks_change_no_bits(extra):
    blocks, rest = extra
    sol = _spline_schedules(257)[1]
    spline = sol._spline
    t = np.random.default_rng(blocks).uniform(sol.grid[0], sol.grid[-1], blocks * _SLAB + rest)
    block, sizes = spline._block, []
    whole = block(t)
    spline._block = lambda part: sizes.append(part.size) or block(part)
    assert sol.bid_at(t).tobytes() == whole.tobytes()
    assert sizes == [_SLAB] * (blocks - 1) + [_SLAB + rest]  # the last block takes the rest


def test_in_slabs_takes_a_0d_input_whole():
    calls = []
    out = _in_slabs(lambda x: calls.append(x.shape) or 2.0 * x, np.array(1.5), 1)
    assert calls == [()] and out.shape == () and out == 3.0


@pytest.mark.parametrize("uneven", ["jittered", "thinned"])
def test_spline_schedule_on_uneven_grid(uneven):
    sol = _spline_schedules(257)[2]
    grid, bids = sol.grid.copy(), sol.bids
    h = grid[1] - grid[0]
    if uneven == "jittered":
        # knots moved by up to h/5 still locate by index, and need both fix-ups
        grid[1:-1] += h * np.random.default_rng(2).uniform(-0.2, 0.2, len(grid) - 2)
    else:
        keep = np.arange(len(grid)) % 3 != 2  # every third row dropped
        grid, bids = grid[keep], bids[keep]
    rebuilt = EquilibriumSolution.from_grid(
        grid, bids, v_floor=sol.v_floor, boundary_bid=sol.boundary_bid
    )
    _assert_matches_spline(rebuilt, np.random.default_rng(3))
    assert rebuilt._spline.indexed == (uneven == "jittered")  # else searchsorted


def test_spline_schedule_tails():
    for sol in _spline_schedules(129):
        g0, g1, b0 = sol.grid[0], sol.grid[-1], sol.boundary_bid
        below = np.array([-1.0, sol.v_floor, 0.5 * (sol.v_floor + g0), np.nextafter(g0, -np.inf)])
        if g0 > sol.v_floor:
            frac = np.clip((below - sol.v_floor) / (g0 - sol.v_floor), 0.0, 1.0)
            ramp = b0 + frac * (sol.bids[0] - b0)
        else:
            ramp = np.full_like(below, sol.bids[0])
        assert np.array_equal(sol.bid_at(below), ramp)
        above = np.array([np.nextafter(g1, np.inf), g1 + 1.0, np.inf])
        assert np.array_equal(sol.bid_at(above), np.full(3, sol.bids[-1]))


def test_two_row_table_is_linear():
    rng = np.random.default_rng(5)
    for _ in range(20):
        grid, bids = np.sort(rng.uniform(-2.0, 3.0, 2)), rng.uniform(-1.0, 2.0, 2)
        sol = EquilibriumSolution.from_grid(grid, bids)
        t = np.concatenate([grid[:1], rng.uniform(*grid, 5_000), np.nextafter(grid[1:], -np.inf)])
        assert np.array_equal(sol.bid_at(t), np.interp(t, grid, bids))
        # the top knot itself is scipy's, which may round one ulp off bids[1]
        top = sol.bid_at(grid[1])
        assert top == CubicSpline(grid, bids)(grid[1])
        assert abs(top - bids[1]) <= 4 * np.spacing(np.max(np.abs(bids)))


def test_three_row_table_is_scipys_parabola():
    sol = EquilibriumSolution.from_grid([0.0, 0.5, 1.0], [0.0, 0.3, 0.4])
    _assert_matches_spline(sol, np.random.default_rng(6))
    # the parabola 0.8 v - 0.4 v^2 through all three rows, not two segments
    assert sol.bid_at(0.25) == pytest.approx(0.175, rel=1e-14)


@pytest.mark.parametrize("grid, bids, residuals, match", [
    ([0.0, 0.5, 1.0], [0.0, 0.2], None, "differ in shape"),
    ([0.0, 0.5, 1.0], [0.0, 0.2, 0.4], [0.0, 0.0], "differ in shape"),
    ([0.0, 0.5, np.nan], [0.0, 0.2, 0.4], None, "row 2: v = nan"),
    ([0.0, 0.5, 1.0], [0.0, np.inf, 0.4], None, "row 1: beta = inf"),
    ([0.0, 0.5, 1.0], [0.0, 0.2, 0.4], [0.0, -np.inf, 0.0], "row 1: residual = -inf"),
    ([0.0, 0.5, 0.5, 1.0], [0.0, 0.2, 0.3, 0.4], None, "row 2: v = 0.5 does not exceed"),
    ([0.0, 0.6, 0.5, 1.0], [0.0, 0.2, 0.3, 0.4], None, "row 2: v = 0.5 does not exceed"),
    ([0.5], [0.2], None, "at least 2 rows, got 1"),
    ([], [], None, "at least 2 rows, got 0"),
    # the spline cubes the spacing, so a wider one would give nan bids on the
    # line, scipy's parabola and the not-a-knot fit alike
    ([0.0, 1e120], [0.0, 0.2], None, "row 1: v = 1e[+]120 lies 1e[+]120 above row 0; the spline"),
    ([-1e120, 0.0, 1e120], [0.0, 0.2, 0.4], None, "row 1: v = 0.0 lies 1e[+]120 above"),
    ([-2e120, -1e120, 0.0, 1e120, 2e120], [0.0, 0.1, 0.2, 0.3, 0.4], None,
     "row 1: v = -1e[+]120 lies 1e[+]120 above row 0; the spline cubes that spacing"),
    ([-2e307, 0.0, 2e307], [0.0, 0.2, 0.4], None, "row 1: v = 0.0 lies 2e[+]307 above"),
    ([-1e308, 0.0, 1e308], [0.0, 0.2, 0.4], None, "row 1: v = 0.0 lies 1e[+]308 above"),
])
def test_from_grid_rejects_malformed_tables(grid, bids, residuals, match):
    with pytest.raises(ConfigError, match=match):
        EquilibriumSolution.from_grid(grid, bids, residuals)


@pytest.mark.parametrize("columns, match", [
    ((np.array([False, True]), [True, 0.5]), "column v must hold numbers, got bool entries"),
    ((["a", "b"], [0.0, 0.5]), "column v must hold numbers, got <U1 entries"),
    (([0.0, 1.0], ["0", "0.5"]), "column beta must hold numbers, got <U3 entries"),
    (([0.0, 1.0], [0.0, 0.5], [False, False]), "column residual must hold numbers, got bool"),
    (([[0.0, 1.0], [2.0]], [0.0, 0.5]), "column v must hold numbers in rows of equal length$"),
])
def test_from_grid_refuses_columns_that_are_not_numbers(columns, match):
    # each column's dtype is checked before it is converted, so a bool is not
    # read as 0 or 1 and a string is no raw numpy error
    with pytest.raises(ConfigError, match=f"^solution {match}"):
        EquilibriumSolution.from_grid(*columns)


def test_spacings_near_the_overflow_still_fit():
    wide = EquilibriumSolution.from_grid([0.0, 5e102], [0.0, 0.5])
    assert wide.bid_at(2.5e102) == pytest.approx(0.25, rel=1e-14)
    # bids near the float range still reach the fit's own overflow check
    tall = EquilibriumSolution.from_grid([0.0, 1.0, 2.0, 3.0], [0.0, 1e308, -1e308, 0.0])
    with pytest.raises(ConfigError, match="spline slopes overflow"):
        tall.bid_at(0.5)


# ---------------------------------------------------------------------------
# comparative statics
# ---------------------------------------------------------------------------

def test_compare_needs_transform():
    with pytest.raises(ConfigError):
        compare_risk_aversion_fpa(FPAScenario(values=UNIT3))


def test_compare_bends_bids_up():
    scn = FPAScenario(values=UNIT3, transform=CRRAUtility(0.5, shift=1.0), grid=129)
    rep = compare_risk_aversion_fpa(scn)
    assert (rep.extremum, rep.tolerance) == ("min_d", 10 * scn.ode_tol)
    assert rep.min_d >= -rep.tolerance
    assert rep.max_d > 1e-3               # strictly more aggressive somewhere
    assert rep.grid.shape == rep.beta.shape == rep.beta_hat.shape
    assert "tradeoff_gap" in rep.diagnostics
    # the array columns match the pointwise marginal tradeoff
    uh = scn.effective_utility()
    for i in (0, 40, 128):
        v = rep.grid[i]
        assert rep.diagnostics["tradeoff_base"][i] == pytest.approx(
            marginal_tradeoff(scn.utility, v - rep.beta[i], 0.0), rel=1e-14)
        assert rep.diagnostics["tradeoff_bent"][i] == pytest.approx(
            marginal_tradeoff(uh, v - rep.beta_hat[i], 0.0), rel=1e-14)


def test_compare_and_audit_under_an_overflowing_cara_bend_do_not_warn():
    # the audit's report utility meets an outer CARA overflowing to -inf near
    # the CRRA edge: no RuntimeWarning (an error here)
    scn = FPAScenario(values=UNIT3, utility=CRRAUtility(2.0, shift=0.05),
                      transform=CARAUtility(4.0), grid=129)
    rep = compare_risk_aversion_fpa(scn)
    sol = EquilibriumSolution.from_grid(rep.grid, rep.beta_hat, v_floor=0.0,
                                        boundary_bid=scn.boundary_bid)
    assert best_response_audit("fpa", scn, sol).passed


def test_compare_linear_transform_is_identity():
    scn = FPAScenario(values=UNIT3, transform=LinearUtility(), grid=129)
    rep = compare_risk_aversion_fpa(scn)
    assert rep.min_d == 0.0 and rep.max_d == 0.0


def test_compare_more_concave_shades_less():
    base = FPAScenario(values=UNIT3, transform=CARAUtility(1.0), grid=129)
    sharp = replace(base, transform=CARAUtility(3.0))
    d1 = compare_risk_aversion_fpa(base)
    d2 = compare_risk_aversion_fpa(sharp)
    # a sharper bend raises bids even further
    assert d2.max_d > d1.max_d


def test_compare_matches_separate_solves(fpa_solutions):
    # the joint step sizes follow both schedules' errors, so the bids move
    # only at the integration tolerance
    for name, (scn, base, bent) in fpa_solutions.items():
        rep = compare_risk_aversion_fpa(scn)
        assert np.array_equal(rep.grid, base.grid)
        assert np.max(np.abs(rep.beta - base.bids)) <= scn.ode_tol, name
        assert np.max(np.abs(rep.beta_hat - bent.bids)) <= scn.ode_tol, name


@pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 6) for k in (1.0, 2.0, 3.0)])
def test_compare_matches_crra_power_oracle(n, k):
    # IID power(k) values, linear utility bent by unshifted CRRA(rho): both
    # schedules are linear, km / (km + 1) v, with m = n - 1 before the bend
    # and m = (n - 1) / (1 - rho) after it (Riley & Samuelson; Krishna 4.1);
    # rho cycles so that every (n, rho) pair occurs once
    rho = (0.2, 0.5, 0.8)[(n + int(k)) % 3]
    scn = FPAScenario(values=ValueModel.iid(PowerDist(k, 0.0, 1.0), n),
                      transform=CRRAUtility(rho), grid=257)
    rep = compare_risk_aversion_fpa(scn)
    keep = rep.grid >= 0.01
    for m, bids in ((n - 1, rep.beta), ((n - 1) / (1 - rho), rep.beta_hat)):
        exact = k * m / (k * m + 1) * rep.grid[keep]
        assert np.max(np.abs(bids[keep] - exact)) <= 1e-9, (m, rho)


def test_ordering_violation_raises_with_report(monkeypatch):
    scn = FPAScenario(values=UNIT3, transform=CRRAUtility(0.5, shift=1.0), grid=129)
    doctor_fpa_compare(monkeypatch, 1e-3)  # the bent bids fall 1e-3 below the baseline
    with pytest.raises(OrderingViolation,
                       match="^transformed bids fall 1.000e-03 below the baseline$") as info:
        compare_risk_aversion_fpa(scn)
    rep = info.value.report
    assert (rep.extremum, rep.tolerance) == ("min_d", 10 * scn.ode_tol)
    assert rep.beta_hat.tobytes() == (rep.beta - 1e-3).tobytes()
    assert rep.min_d == pytest.approx(-1e-3)
    gap = rep.diagnostics["tradeoff_bent"] - rep.diagnostics["tradeoff_base"]
    assert rep.diagnostics["tradeoff_gap"].tobytes() == gap.tobytes()
