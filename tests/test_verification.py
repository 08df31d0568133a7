"""Unit tests for report-utility curves, audits, and Monte Carlo runs."""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from riskbid import (
    AffineOutside,
    CARAUtility,
    ConfigError,
    ConstantOutside,
    CRRAUtility,
    DeterministicWin,
    DiscreteNoise,
    EquilibriumSolution,
    FiniteDecisionProblem,
    FPAScenario,
    LinearUtility,
    LogUtility,
    NoisyWin,
    PiecewiseLinearUtility,
    PowerDist,
    SPAScenario,
    TableOutside,
    TruncatedNormalDist,
    TruncatedNormalNoise,
    UniformDist,
    UniformNoise,
    ValueModel,
    best_response_audit,
    fpa_report_utility,
    monte_carlo_auction,
    pivotal_expectation,
    solve_fpa,
    solve_spa,
    solve_uniform_price,
    spa_report_utility,
)
from riskbid import spa, verification
from riskbid.spa import _RULE_ULPS, _SLAB
from riskbid.verification import _GL8_NODES, _GL8_WEIGHTS, _ROUNDING_GAIN

U2 = ValueModel.iid(UniformDist(0.0, 1.0), 2)
U3 = ValueModel.iid(UniformDist(0.0, 1.0), 3)


def spa_report_utility_quad(scenario, solution, v, t):
    """Independent oracle for ``spa_report_utility``: adaptive quadrature
    of the win branch over the pivotal rival's density up to the
    (clamped) report, plus the outside option times the losing
    probability."""
    u = scenario.effective_utility()
    vm = scenario.values
    lo, hi = vm.support
    t = min(max(float(t), lo), hi)
    u_s = float(u.value(float(scenario.outside.value(v))))
    if t <= lo:
        return u_s
    units = scenario.units
    q = float(vm.kth_win_prob(units, v, t))
    offsets, wts = scenario._noise_rule  # the solver's noise rule

    def integrand(z):
        b = float(solution.bid_at(z))
        m = float(np.dot(wts, u.value(v + offsets - b)))
        return m * float(vm.kth_rival_density(units, v, z))

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        win_term, _ = quad(integrand, lo, t, limit=200)
    return win_term + u_s * (1.0 - q)


def reference_spa_report_utility(scenario, solution, v, t):
    """``spa_report_utility`` with the noise expectation taken over the
    whole (panels x 8 x atoms) tensor in one pass, as before it was
    evaluated in slabs."""
    u = scenario.effective_utility()
    vm = scenario.values
    units = scenario.units
    lo, hi = vm.support
    offsets, wts = scenario._noise_rule  # the solver's noise rule
    u_s = float(u.value(scenario.outside.value(v)))

    t = np.clip(np.asarray(t, dtype=float), lo, hi)
    ts, where = np.unique(np.concatenate([[lo], t.ravel()]), return_inverse=True)
    q = np.asarray(vm.kth_win_prob(units, v, ts), dtype=float)
    a, b = ts[:-1], ts[1:]
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b)[:, None] + half[:, None] * _GL8_NODES[None, :]
    node_w = half[:, None] * _GL8_WEIGHTS[None, :]

    bids = np.asarray(solution.bid_at(nodes), dtype=float)
    vals = u.masked_value((v - bids)[:, :, None] + offsets)  # the surplus v - b, then each offset
    m = vals @ wts
    dens = np.asarray(vm.kth_rival_density(units, v, nodes), dtype=float)
    with np.errstate(invalid="ignore"):
        g = m * dens
        panel = np.sum(g * node_w, axis=1)
    panel[~np.isfinite(g).all(axis=1)] = -np.inf
    win_term = np.concatenate([[0.0], np.cumsum(panel)])
    psi = win_term + u_s * (1.0 - q)
    psi[0] = u_s
    out = psi[where[1:]].reshape(t.shape)
    return float(out) if out.ndim == 0 else out


@pytest.fixture(scope="module")
def fpa_pair():
    scn = FPAScenario(values=U2, grid=129)
    return scn, solve_fpa(scn)


@pytest.fixture(scope="module")
def spa_pair():
    scn = SPAScenario(values=U2, grid=129)
    return scn, solve_spa(scn)


# ---------------------------------------------------------------------------
# report-utility curves
# ---------------------------------------------------------------------------

def test_fpa_report_utility_values(fpa_pair):
    scn, sol = fpa_pair
    assert fpa_report_utility(scn, sol, 0.6, 0.6) == pytest.approx(0.18, abs=1e-9)
    assert fpa_report_utility(scn, sol, 0.6, 0.8) == pytest.approx(0.16, abs=1e-9)
    assert fpa_report_utility(scn, sol, 0.6, 0.0) == 0.0


def test_spa_report_utility_values(spa_pair):
    scn, sol = spa_pair
    assert spa_report_utility(scn, sol, 0.6, 0.6) == pytest.approx(0.18, abs=1e-8)
    assert spa_report_utility(scn, sol, 0.6, 0.8) == pytest.approx(0.16, abs=1e-8)
    assert spa_report_utility(scn, sol, 0.6, 0.0) == 0.0


def test_truthful_report_is_stationary_fpa(fpa_pair):
    scn, sol = fpa_pair
    h = 1e-6
    for v in np.linspace(0.05, 0.98, 50):
        slope = (fpa_report_utility(scn, sol, v, v + h)
                 - fpa_report_utility(scn, sol, v, v - h)) / (2 * h)
        assert abs(slope) <= 1e-5, (v, slope)


def test_truthful_report_is_stationary_spa(spa_pair):
    scn, sol = spa_pair
    h = 1e-6
    for v in np.linspace(0.05, 0.98, 50):
        slope = (spa_report_utility(scn, sol, v, v + h)
                 - spa_report_utility(scn, sol, v, v - h)) / (2 * h)
        assert abs(slope) <= 1e-5, (v, slope)


def test_spa_report_slope_matches_pivotal_gap(spa_pair):
    # d(psi)/dt at t = v equals rival density times the indifference gap,
    # checked on a deliberately non-equilibrium bid function
    scn, sol = spa_pair
    alt = EquilibriumSolution.from_grid(sol.grid, 0.8 * sol.grid)
    h = 1e-6
    for v in (0.3, 0.55, 0.85):
        fd = (spa_report_utility(scn, alt, v, v + h)
              - spa_report_utility(scn, alt, v, v - h)) / (2 * h)
        formula = U2.top_rival_density(v, v) * pivotal_expectation(scn, v, alt.bid_at(v))
        assert fd == pytest.approx(formula, rel=1e-4)


def test_report_clamps_to_support(spa_pair):
    scn, sol = spa_pair
    # reporting beyond the top type is the same as reporting the top type
    assert spa_report_utility(scn, sol, 0.6, 1.5) == pytest.approx(
        spa_report_utility(scn, sol, 0.6, 1.0), abs=1e-9
    )


_NOISE = NoisyWin(DiscreteNoise([-1.0, 1.0], [0.5, 0.5]), scale=0.2)
_ORACLE_SCENARIOS = {
    "iid_uniform": SPAScenario(values=U3, transform=CRRAUtility(0.5, shift=2.0),
                               win_payoff=_NOISE, grid=129),
    "power_mixture": SPAScenario(
        values=ValueModel.mixture([(0.6, UniformDist(0.0, 1.0)),
                                   (0.4, PowerDist(2.0, 0.0, 1.0))], 3),
        transform=CARAUtility(2.0), win_payoff=_NOISE, grid=129),
    "two_unit_uniform_price": SPAScenario(
        values=ValueModel.iid(PowerDist(2.0, 0.0, 1.0), 4),
        utility=LogUtility(shift=1.5), units=2, grid=129),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_SCENARIOS))
def test_spa_report_utility_matches_quad_oracle(name):
    scn = _ORACLE_SCENARIOS[name]
    sol = solve_spa(scn)
    pairs = [(0.3, 0.3), (0.6, 0.45), (0.6, 0.8), (0.9, 1.0), (0.2, 0.7),
             (0.5, 0.0), (0.4, 1.3)]
    for v, t in pairs:
        got = spa_report_utility(scn, sol, v, t)
        assert isinstance(got, float)
        assert got == pytest.approx(spa_report_utility_quad(scn, sol, v, t),
                                    abs=1e-8), (v, t)
    # one array call agrees with the scalar calls, in the caller's shape
    ts = np.array([[0.7, 0.1], [1.2, 0.45]])
    batch = spa_report_utility(scn, sol, 0.6, ts)
    assert batch.shape == ts.shape
    for t, got in zip(ts.ravel(), batch.ravel()):
        assert got == pytest.approx(spa_report_utility(scn, sol, 0.6, t), abs=1e-10)


def test_fpa_report_utility_scalar_and_array_agree(fpa_pair):
    scn, sol = fpa_pair
    ts = np.linspace(0.0, 1.0, 11)
    batch = fpa_report_utility(scn, sol, 0.6, ts)
    assert batch.shape == ts.shape
    for t, got in zip(ts, batch):
        scalar = fpa_report_utility(scn, sol, 0.6, t)
        assert isinstance(scalar, float)
        assert scalar == got


def test_report_utility_out_of_domain_is_minus_inf():
    # bids above value leave power utility's domain: -inf, not an error
    grid = np.linspace(0.0, 1.0, 65)
    over = EquilibriumSolution.from_grid(grid, grid + 0.5)
    fscn = FPAScenario(values=U2, utility=CRRAUtility(0.5), grid=65)
    assert fpa_report_utility(fscn, over, 0.6, 0.8) == -np.inf
    assert fpa_report_utility(fscn, over, 0.6, 0.0) == 0.0  # never wins
    sscn = SPAScenario(values=U2, utility=CRRAUtility(0.5), grid=65)
    psi = spa_report_utility(sscn, over, 0.6, np.array([0.0, 0.05, 0.2, 0.9]))
    assert psi[0] == 0.0
    assert np.isfinite(psi[1])  # every bid below 0.55 keeps surplus
    assert np.all(psi[2:] == -np.inf)


# ---------------------------------------------------------------------------
# slabbed noise expectation
# ---------------------------------------------------------------------------

#: 64 atoms, the continuous-noise quadrature
_TNORM64 = NoisyWin(TruncatedNormalNoise(0.0, 1.0, -2.0, 2.0), scale=0.1)
#: a transform under which the solver keeps all 64 atoms: the lower-order
#: noise mean misses the 64-node one near its domain edge
_EDGE64 = CRRAUtility(0.5, shift=0.3)


def _slab_panels(scenario):
    """Report panels per slab of the (panels x 8 x atoms) utility tensor."""
    return _SLAB // (8 * scenario._noise_rule[0].size)


@pytest.mark.parametrize(
    "payoff",
    [DeterministicWin(), NoisyWin(DiscreteNoise([-1.0, 1.0], [0.5, 0.5]), scale=0.2), _TNORM64],
    ids=["deterministic", "two_point", "tnorm64"],
)
def test_spa_report_utility_slabs_match_whole_tensor(payoff):
    scn = SPAScenario(values=U3, transform=CARAUtility(2.0), win_payoff=payoff, grid=129)
    sol = solve_spa(scn)
    panels = 3 * _slab_panels(scn) + 5  # three slabs, the last with a ragged end
    t = np.linspace(0.0, 1.0, panels + 1)[1:]
    for v in (0.0, 0.37, 1.0):
        got = spa_report_utility(scn, sol, v, t)
        assert got.tobytes() == reference_spa_report_utility(scn, sol, v, t).tobytes(), v


@pytest.mark.parametrize("where", ["inside_slab", "slab_boundary"])
def test_spa_report_utility_slabs_match_whole_tensor_across_breach(where):
    # truthful bids b(z) = z under a CRRA base: a node z's win branch leaves
    # the domain on the lowest atom once z > v + shift + min(offset), so
    # the shift places the first -inf node inside a slab or on its first row
    v = 0.3
    scn = SPAScenario(values=U3, win_payoff=_TNORM64, grid=129)
    step = _slab_panels(scn)
    panels = 4 * step
    ts = np.linspace(0.0, 1.0, panels + 1)
    first = 2 * step + step // 2 if where == "inside_slab" else 2 * step
    z_breach = ts[first] + (0.5 * (ts[1] - ts[0]) if where == "inside_slab" else 0.0)
    shift = z_breach - v - np.min(_TNORM64.rules[-1][0])
    scn = SPAScenario(values=U3, utility=CRRAUtility(0.5, shift=shift), win_payoff=_TNORM64,
                      grid=129)
    grid = np.linspace(0.0, 1.0, 129)
    sol = EquilibriumSolution.from_grid(grid, grid)
    ref = reference_spa_report_utility(scn, sol, v, ts[1:])
    # psi at report ts[j + 1] closes panel j: the first breached panel is `first`
    assert np.argmax(ref == -np.inf) == first and np.all(ref[first:] == -np.inf)
    assert spa_report_utility(scn, sol, v, ts[1:]).tobytes() == ref.tobytes()


def test_spa_report_utility_never_holds_the_whole_tensor():
    scn = SPAScenario(values=U3, transform=_EDGE64, win_payoff=_TNORM64, grid=129)
    sol = solve_spa(scn)
    ts = np.unique(np.concatenate([np.linspace(0.0, 1.0, 512), [0.37]]))  # an audit sweep
    atoms = scn._noise_rule[0].size
    assert atoms == 64
    whole = (ts.size - 1) * 8 * atoms * 8  # bytes of one (panels x 8 x atoms) float64 tensor
    spa_report_utility(scn, sol, 0.37, ts)  # warm caches outside the trace
    tracemalloc.start()
    try:
        spa_report_utility(scn, sol, 0.37, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole, (peak, whole)


# ---------------------------------------------------------------------------
# best-response audits
# ---------------------------------------------------------------------------

def test_audit_passes_on_equilibrium(fpa_pair, spa_pair):
    fscn, fsol = fpa_pair
    arep = best_response_audit("fpa", fscn, fsol)
    assert arep.passed
    assert arep.max_gain <= arep.audit_tol
    sscn, ssol = spa_pair
    srep = best_response_audit("spa", sscn, ssol)
    assert srep.passed
    assert srep.max_gain <= srep.audit_tol


def test_audit_fails_on_inflated_bids(fpa_pair):
    scn, sol = fpa_pair
    bad = EquilibriumSolution.from_grid(sol.grid, sol.bids * 1.1,
                                        v_floor=sol.v_floor,
                                        boundary_bid=sol.boundary_bid)
    rep = best_response_audit("fpa", scn, bad)
    assert not rep.passed
    assert rep.max_gain > 1e-3


def test_audit_fails_on_deflated_bids(fpa_pair):
    # with bids shaved 20% below equilibrium a type gains by reporting
    # above its value, and the report grid reaches that deviation (up to
    # the top of the support, whose bid already wins with certainty)
    scn, sol = fpa_pair
    bad = EquilibriumSolution.from_grid(sol.grid, sol.bids * 0.8,
                                        v_floor=sol.v_floor,
                                        boundary_bid=sol.boundary_bid)
    rep = best_response_audit("fpa", scn, bad)
    assert not rep.passed
    assert rep.max_gain > 1e-3


def test_audit_fails_on_corrupted_spa(spa_pair):
    scn, sol = spa_pair
    bad = EquilibriumSolution.from_grid(sol.grid, np.minimum(sol.bids * 1.2, 2.0))
    rep = best_response_audit("spa", scn, bad)
    assert not rep.passed


def test_audit_ignores_rounding_level_gain():
    # the truthful report is flat to rounding at the bottom type; a gain
    # of a few ulps two cells away is not a profitable deviation
    vm = ValueModel.iid(PowerDist(2.762113268369622, 0.0, 1.0), 3)
    scn = SPAScenario(
        values=vm,
        transform=CRRAUtility(0.6500456453866623, shift=2.3316354279413725),
        win_payoff=NoisyWin(DiscreteNoise([-1.0, 1.0], [0.5, 0.5]),
                            scale=0.21985062388738663),
        grid=1025,
    )
    rep = best_response_audit("spa", scn, solve_spa(scn))
    assert rep.passed
    assert rep.max_gain == 0.0
    assert rep.best_reports[0] == rep.types[0]


@pytest.mark.parametrize("fmt, scenario_cls", [("fpa", FPAScenario), ("spa", SPAScenario)])
def test_audit_fails_when_truthful_report_leaves_domain(fmt, scenario_cls):
    # every bid is above its value, so a truthful win has negative surplus
    # and psi_self is -inf; the rounding floor must not turn that into 0
    scn = scenario_cls(values=U2, utility=CRRAUtility(0.5), grid=65)
    grid = np.linspace(0.0, 1.0, 65)
    bad = EquilibriumSolution.from_grid(grid, grid + 0.5)
    rep = best_response_audit(fmt, scn, bad)
    assert not rep.passed
    assert rep.max_gain == np.inf


def _audit_sizes(monkeypatch, types, reports):
    """Audit ``types`` types against ``reports`` report points from here on."""
    monkeypatch.setattr(verification, "_TYPES", types)
    monkeypatch.setattr(verification, "_REPORTS", reports)


def test_audit_report_shape_and_json(monkeypatch, fpa_pair):
    scn, sol = fpa_pair
    _audit_sizes(monkeypatch, 17, 128)
    rep = best_response_audit("fpa", scn, sol)
    assert rep.types.shape == rep.gains.shape == (len(rep.best_reports),)
    assert rep.deviation_grid_size == 128
    assert np.all(rep.gains >= 0)
    doc = rep.to_json()
    text = json.dumps(doc)
    assert json.loads(text)["passed"] is True
    assert json.loads(text)["max_gain"] == rep.max_gain


def test_audit_pass_needs_gain_and_location(fpa_pair):
    # the verdict is an AND: a loose gain tolerance cannot rescue bids
    # whose best response sits far from truthful reporting
    scn, sol = fpa_pair
    bad = EquilibriumSolution.from_grid(sol.grid, sol.bids * 1.1,
                                        v_floor=sol.v_floor,
                                        boundary_bid=sol.boundary_bid)
    loose = best_response_audit("fpa", scn, bad, audit_tol=1.0)
    assert loose.max_gain <= 1.0
    assert not loose.passed
    # while the true equilibrium passes even at zero tolerance
    exact = best_response_audit("fpa", scn, sol, audit_tol=0.0)
    assert exact.passed


def reference_best_response_audit(fmt, scenario, solution, type_grid_size,
                                  deviation_grid_size, audit_tol=1e-6):
    """``best_response_audit`` as a loop over types: each type evaluates
    its whole report sweep on its own, with the truthful report merged
    into the report grid, through the per-type report utilities."""
    lo, hi = scenario.values.support
    types = np.linspace(lo, hi, int(type_grid_size))
    base_ts = np.linspace(lo, hi, int(deviation_grid_size))
    cell = (hi - lo) / (int(deviation_grid_size) - 1)
    report_utility = fpa_report_utility if fmt == "fpa" else spa_report_utility
    best_reports = np.empty_like(types)
    gains = np.empty_like(types)
    for i, v in enumerate(types):
        ts = np.unique(np.concatenate([base_ts, [v]]))
        psi = report_utility(scenario, solution, v, ts)
        psi_self = psi[int(np.searchsorted(ts, v))]
        j = int(np.argmax(psi))
        gain, t_star = psi[j] - psi_self, ts[j]
        floor = _ROUNDING_GAIN * max(1.0, abs(psi_self)) if np.isfinite(psi_self) else 0.0
        if gain <= floor:
            gain, t_star = 0.0, v
        best_reports[i], gains[i] = t_star, gain
    max_gain = float(np.max(gains))
    loc_ok = np.abs(best_reports - types) <= cell * (1 + 1e-9)
    return types, best_reports, gains, max_gain, bool(max_gain <= audit_tol and np.all(loc_ok))


_MIX3 = ValueModel.mixture([(0.6, UniformDist(0.0, 1.0)), (0.4, PowerDist(2.0, 0.0, 1.0))], 3)
_TWO_POINT = NoisyWin(DiscreteNoise([-1.0, 1.0], [0.5, 0.5]), scale=0.2)
#: (format, scenario, factor on the solved bids); a factor of None bids
#: 0.5 above value under a CRRA base, so the truthful report is -inf
_AUDIT_CASES = {
    "spa_u3_deterministic": ("spa", SPAScenario(values=U3, grid=129), 1.0),
    "spa_u3_two_units_two_point_cara": (
        "spa", SPAScenario(values=U3, transform=CARAUtility(2.0), win_payoff=_TWO_POINT,
                           units=2, grid=129), 1.0),
    "spa_mix_tnorm64_crra": (
        "spa", SPAScenario(values=_MIX3, transform=CRRAUtility(0.5, shift=2.0),
                           win_payoff=_TNORM64, grid=129), 1.0),
    "spa_mix_two_units_two_point_inflated": (
        "spa", SPAScenario(values=_MIX3, transform=CRRAUtility(0.5, shift=2.0),
                           win_payoff=_TWO_POINT, units=2, grid=129), 1.2),
    "spa_u3_tnorm64_outside_deflated": (
        "spa", SPAScenario(values=U3, outside=ConstantOutside(0.1), win_payoff=_TNORM64,
                           grid=129), 0.8),
    "spa_mix_deterministic_cara_deflated": (
        "spa", SPAScenario(values=_MIX3, transform=CARAUtility(1.5), grid=129), 0.8),
    "spa_truthful_minus_inf": (
        "spa", SPAScenario(values=U3, utility=CRRAUtility(0.5), grid=65), None),
    "fpa_u3": ("fpa", FPAScenario(values=U3, grid=129), 1.0),
    "fpa_mix_crra_inflated": (
        "fpa", FPAScenario(values=_MIX3, transform=CRRAUtility(0.5, shift=2.0), grid=129), 1.1),
    "fpa_u3_outside_cara_deflated": (
        "fpa", FPAScenario(values=U3, outside=ConstantOutside(0.1), transform=CARAUtility(2.0),
                           grid=129), 0.8),
    "fpa_mix_truthful_minus_inf": (
        "fpa", FPAScenario(values=_MIX3, utility=CRRAUtility(0.5), grid=65), None),
}


def _audit_case(name):
    fmt, scn, factor = _AUDIT_CASES[name]
    if factor is None:
        grid = np.linspace(0.0, 1.0, 65)
        return fmt, scn, EquilibriumSolution.from_grid(grid, grid + 0.5)
    sol = solve_fpa(scn) if fmt == "fpa" else solve_spa(scn)
    if factor == 1.0:
        return fmt, scn, sol
    return fmt, scn, EquilibriumSolution.from_grid(
        sol.grid, sol.bids * factor, v_floor=sol.v_floor, boundary_bid=sol.boundary_bid * factor)


@pytest.mark.parametrize("name", sorted(_AUDIT_CASES))
def test_audit_matches_per_type_loop(monkeypatch, name):
    # on the direct path: no sweep reads M from a table
    monkeypatch.setattr(verification, "_TABLE_COST", np.inf)
    fmt, scn, sol = _audit_case(name)
    # in the last three sizes every type is a report point, so no panel splits
    for sizes in ((33, 512), (17, 128), (33, 33), (2, 2), (1, 2)):
        _audit_sizes(monkeypatch, *sizes)
        rep = best_response_audit(fmt, scn, sol)
        got = (rep.types, rep.best_reports, rep.gains, rep.max_gain, rep.passed)
        want = reference_best_response_audit(fmt, scn, sol, *sizes)
        for field, a, b in zip(("types", "best_reports", "gains", "max_gain", "passed"), got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (sizes, field)


def _spy_tables(monkeypatch):
    """The list each ``_noise_table`` result of the audits that follow goes to."""
    built = []
    monkeypatch.setattr(verification, "_noise_table",
                        lambda *args: built.append(spa._noise_table(*args)) or built[-1])
    return built


@pytest.mark.parametrize("name", ["spa_mix_tnorm64_crra", "spa_u3_tnorm64_outside_deflated"])
def test_tabled_audit_matches_per_type_loop(monkeypatch, name):
    fmt, scn, sol = _audit_case(name)
    built = _spy_tables(monkeypatch)
    rep = best_response_audit(fmt, scn, sol)
    assert len(built) == 1 and built[0] is not None  # the table served
    types, best_reports, gains, _, passed = reference_best_response_audit(fmt, scn, sol, 33, 512)
    assert rep.types.tobytes() == types.tobytes()
    assert rep.best_reports.tobytes() == best_reports.tobytes()
    assert rep.passed == passed
    psi_self = np.array([spa_report_utility(scn, sol, v, v) for v in types])
    bound = _RULE_ULPS * np.finfo(float).eps * np.maximum(1.0, np.abs(psi_self))
    assert np.all(np.abs(rep.gains - gains) <= bound)


@pytest.mark.parametrize("transform", [_EDGE64, CARAUtility(8.0)], ids=["domain_edge", "steep_cara"])
def test_refused_table_audit_matches_per_type_loop(monkeypatch, transform):
    # the interval crosses the domain edge, or 2^13 cells miss exp(-8 x) at a midpoint
    scn = SPAScenario(values=U3, transform=transform, win_payoff=_TNORM64, grid=129)
    sol = solve_spa(scn)
    built = _spy_tables(monkeypatch)
    rep = best_response_audit("spa", scn, sol)
    assert built == [None]
    want = reference_best_response_audit("spa", scn, sol, 33, 512)
    got = (rep.types, rep.best_reports, rep.gains, rep.max_gain, rep.passed)
    for field, a, b in zip(("types", "best_reports", "gains", "max_gain", "passed"), got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field


def test_audit_cases_cover_passes_and_failures(monkeypatch):
    _audit_sizes(monkeypatch, 17, 128)
    passed = {name: best_response_audit(*_audit_case(name)).passed
              for name in _AUDIT_CASES}
    assert passed["spa_u3_deterministic"] and passed["fpa_u3"]
    assert not passed["spa_truthful_minus_inf"] and not passed["fpa_mix_truthful_minus_inf"]
    assert not passed["spa_mix_two_units_two_point_inflated"]
    assert not passed["spa_u3_tnorm64_outside_deflated"]
    assert not passed["fpa_mix_crra_inflated"] and not passed["fpa_u3_outside_cara_deflated"]


def _spa_audit_peak(monkeypatch, types, scn=SPAScenario(values=U3, transform=_EDGE64,
                                                         win_payoff=_TNORM64, grid=1025)):
    """(traced peak bytes of a 64-atom audit of ``types`` types at grid 1025,
    bytes of one (panels x 8 x atoms) float64 tensor)."""
    atoms = scn._noise_rule[0].size
    assert atoms == 64
    sol = solve_spa(scn)
    monkeypatch.setattr(verification, "_TYPES", types)
    best_response_audit("spa", scn, sol)  # warm caches outside the trace
    tracemalloc.start()
    try:
        best_response_audit("spa", scn, sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, 511 * 8 * atoms * 8


def test_spa_audit_never_holds_the_whole_tensor(monkeypatch):
    peak, whole = _spa_audit_peak(monkeypatch, 33)
    assert peak < whole, (peak, whole)


def test_tabled_spa_audit_never_holds_the_whole_tensor(monkeypatch):
    # the lowest atom stays 0.5 inside the domain over the audit, not over
    # the solver's probe span, so 64 atoms and a table
    scn = SPAScenario(values=U3, transform=CRRAUtility(0.75, shift=2.0),
                      win_payoff=NoisyWin(TruncatedNormalNoise(0.0, 1.0, -3.0, 3.0), scale=0.25),
                      grid=1025)
    built = _spy_tables(monkeypatch)
    peak, whole = _spa_audit_peak(monkeypatch, 33, scn)
    assert built and all(table is not None for table in built)
    assert peak < whole, (peak, whole)


def test_spa_audit_holds_no_array_per_type_and_node(monkeypatch):
    # at 65 types one (types x panels x 8) float64 array is larger than the
    # bound as well (at 33 it would fit under it)
    peak, whole = _spa_audit_peak(monkeypatch, 65)
    assert 65 * 511 * 8 * 8 > whole
    assert peak < whole, (peak, whole)


@pytest.mark.parametrize("case", ["equilibrium", "over"])
def test_fpa_report_utility_type_column_matches_scalar_calls(case):
    scn = FPAScenario(values=_MIX3, transform=CARAUtility(1.5),
                      utility=CRRAUtility(0.5, shift=0.2), grid=129)
    if case == "equilibrium":
        sol = solve_fpa(scn)
    else:  # bids above value: the high reports leave the domain
        grid = np.linspace(0.0, 1.0, 65)
        sol = EquilibriumSolution.from_grid(grid, grid + 0.5)
    types = np.linspace(0.0, 1.0, 9)
    ts = np.linspace(0.0, 1.0, 37)
    table = fpa_report_utility(scn, sol, types[:, None], ts)
    assert table.shape == (types.size, ts.size)
    scalar = np.array([[fpa_report_utility(scn, sol, float(v), float(t)) for t in ts]
                       for v in types])
    assert table.tobytes() == scalar.tobytes()
    if case == "over":
        assert np.any(table == -np.inf) and np.any(np.isfinite(table))
    diag = fpa_report_utility(scn, sol, types, types)
    assert diag.tobytes() == np.array([fpa_report_utility(scn, sol, float(v), float(v))
                                       for v in types]).tobytes()


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_mc_fpa_revenue_oracle(fpa_pair):
    scn, sol = fpa_pair
    stats = monte_carlo_auction("fpa", scn, sol, 100_000, seed=1)
    # two uniform bidders bidding half their value: revenue E[max]/2 = 1/3
    assert abs(stats.mean_revenue - 1 / 3) < 3 * stats.se_revenue
    assert stats.efficiency == pytest.approx(1.0)
    np.testing.assert_allclose(stats.win_freq, [0.5, 0.5], atol=0.01)
    assert stats.rounds == 100_000


def test_mc_spa_revenue_oracle(spa_pair):
    scn, sol = spa_pair
    stats = monte_carlo_auction("spa", scn, sol, 100_000, seed=1)
    # truthful bidding: revenue is the expected second-highest value
    assert abs(stats.mean_revenue - 1 / 3) < 3 * stats.se_revenue
    assert stats.efficiency == pytest.approx(1.0)


def test_mc_uniform_price_revenue():
    scn = SPAScenario(values=ValueModel.iid(UniformDist(0.0, 1.0), 4), units=2)
    sol = solve_uniform_price(scn)
    stats = monte_carlo_auction("uniform", scn, sol, 100_000, seed=2)
    # both units sell at the third-highest of four values: 2 * 2/5
    assert abs(stats.mean_revenue - 0.8) < 3 * stats.se_revenue
    assert stats.efficiency == pytest.approx(1.0)


def test_mc_units_come_from_the_scenario():
    # "spa" on a two-unit scenario sells both units, as the audit and the
    # solver assume; it replays exactly what "uniform" does
    scn = SPAScenario(values=ValueModel.iid(UniformDist(0.0, 1.0), 4), units=2)
    sol = solve_spa(scn)
    stats = monte_carlo_auction("spa", scn, sol, 50_000, seed=2)
    assert stats.to_json() | {"format": "uniform"} == (
        monte_carlo_auction("uniform", scn, sol, 50_000, seed=2).to_json())
    assert abs(stats.mean_revenue - 0.8) < 3 * stats.se_revenue


def _audit(fmt, scn, sol):
    return best_response_audit(fmt, scn, sol)


def _replay(fmt, scn, sol):
    return monte_carlo_auction(fmt, scn, sol, 1000, seed=0)


@pytest.mark.parametrize("check", [_audit, _replay])
@pytest.mark.parametrize("fmt, pair", [("spa", "fpa_pair"), ("uniform", "fpa_pair"),
                                       ("fpa", "spa_pair")])
def test_format_must_match_the_scenario(check, fmt, pair, request):
    scn, sol = request.getfixturevalue(pair)
    with pytest.raises(ConfigError, match=f"^format '{fmt}' needs an (FPA|SPA)Scenario, got"):
        check(fmt, scn, sol)


@pytest.mark.parametrize("check", [_audit, _replay])
@pytest.mark.parametrize("fmt", ["FPA", "Fpa", " fpa", "first-price", None])
def test_format_names_match_exactly(check, fmt, fpa_pair):
    scn, sol = fpa_pair
    with pytest.raises(ConfigError, match="^format must be one of"):
        check(fmt, scn, sol)


def test_mc_determinism(fpa_pair):
    scn, sol = fpa_pair
    a = monte_carlo_auction("fpa", scn, sol, 20_000, seed=9)
    b = monte_carlo_auction("fpa", scn, sol, 20_000, seed=9)
    assert a.mean_revenue == b.mean_revenue
    assert a.mean_utility == b.mean_utility
    c = monte_carlo_auction("fpa", scn, sol, 20_000, seed=10)
    assert c.mean_revenue != a.mean_revenue


def test_mc_chunking_consistency(monkeypatch, fpa_pair):
    # chunk size reshapes how the stream is consumed, so estimates differ,
    # but each is deterministic and they agree statistically
    scn, sol = fpa_pair
    monkeypatch.setattr(verification, "_CHUNK", 7_000)
    a = monte_carlo_auction("fpa", scn, sol, 30_000, seed=4)
    a2 = monte_carlo_auction("fpa", scn, sol, 30_000, seed=4)
    assert a.mean_revenue == a2.mean_revenue
    monkeypatch.setattr(verification, "_CHUNK", 30_000)
    b = monte_carlo_auction("fpa", scn, sol, 30_000, seed=4)
    assert abs(a.mean_revenue - b.mean_revenue) < 3 * (a.se_revenue + b.se_revenue)


@pytest.mark.parametrize("bad", [
    {"rounds": 2.7}, {"rounds": float("nan")}, {"rounds": "abc"}, {"rounds": -1},
    {"rounds": True}, {"seed": 2.5}, {"seed": True}, {"seed": -1}, {"seed": "0"},
    {"seed": None},
], ids=repr)
def test_mc_rejects_bad_rounds_and_seed(fpa_pair, bad):
    scn, sol = fpa_pair
    (name, _), = bad.items()
    with pytest.raises(ConfigError, match=f"^{name} must be an integer >= 0, got "):
        monte_carlo_auction("fpa", scn, sol, **{"rounds": 1_000, "seed": 0, **bad})


def test_mc_accepts_numpy_integers(monkeypatch, fpa_pair):
    scn, sol = fpa_pair
    monkeypatch.setattr(verification, "_CHUNK", 700)  # a ragged last chunk
    a = monte_carlo_auction("fpa", scn, sol, np.int64(2_000), seed=np.uint8(3))
    b = monte_carlo_auction("fpa", scn, sol, 2_000, seed=3)
    assert a == b
    assert type(a.rounds) is int and type(a.seed) is int
    json.dumps(a.to_json())


def reference_monte_carlo(fmt, scenario, solution, rounds, seed):
    """``monte_carlo_auction`` as a round-major loop: each chunk is an
    (m, n) array ranked by a stable argsort of the relabelled seats.  Ties
    are broken once per chunk, so it is a reference for tie-free replays
    only."""
    u = scenario.effective_utility()
    vm = scenario.values
    n = vm.n
    units = 1 if fmt == "fpa" else scenario.units
    win_payoff = getattr(scenario, "win_payoff", None)
    rng = np.random.default_rng(seed)
    rev_acc = util_acc = (0, 0.0, 0.0)
    eff_count = 0
    seat_wins = np.zeros(n)
    done = 0
    while done < rounds:
        m = min(verification._CHUNK, rounds - done)
        vals = vm.sample(rng, m)
        bids = np.asarray(solution.bid_at(vals), dtype=float)
        perm = rng.permutation(n)
        order = perm[np.argsort(-bids[:, perm], axis=1, kind="stable")]
        ranked_bids = np.take_along_axis(bids, order, axis=1)
        winners = order[:, :units]
        win_vals = np.take_along_axis(vals, winners, axis=1)
        col = 0 if fmt == "fpa" else units
        price = ranked_bids[:, col:col + 1]
        w = win_vals if win_payoff is None else win_payoff.sample(rng, win_vals)
        util = np.broadcast_to(u.value(scenario.outside.value(vals)), vals.shape).copy()
        np.put_along_axis(util, winners, np.asarray(u.value(w - price)), axis=1)
        np.add.at(seat_wins, winners.ravel(), 1.0)
        top_vals = -np.sort(-vals, axis=1)
        eff_count += int(np.sum(win_vals.min(axis=1) >= top_vals[:, units - 1] - 1e-12))
        rev_acc = verification._merge_moments(rev_acc, units * price[:, 0])
        util_acc = verification._merge_moments(util_acc, util.mean(axis=1))
        done += m
    _, sum_rev, m2_rev = rev_acc
    _, sum_util, m2_util = util_acc
    return verification.StatsReport(
        format=fmt, rounds=rounds, seed=seed,
        mean_revenue=sum_rev / rounds, se_revenue=float(np.sqrt(m2_rev / rounds / rounds)),
        mean_utility=sum_util / rounds, se_utility=float(np.sqrt(m2_util / rounds / rounds)),
        win_freq=list(seat_wins / rounds), efficiency=eff_count / rounds,
    )


_REPLAY_GRID = np.linspace(0.0, 1.0, 65)
_REPLAY_NOISES = [
    DeterministicWin(),
    NoisyWin(DiscreteNoise([-1.0, 0.5, 1.0], [0.3, 0.4, 0.3]), scale=0.1),
    NoisyWin(UniformNoise(-1.0, 1.0), scale=0.1),
    NoisyWin(TruncatedNormalNoise(0.0, 1.0, -2.0, 2.0), scale=0.1),
]


def _replay_cases():
    """(id, format, scenario, solution): every format, n in {2, 3, 5, 8, 10}
    with K up to n - 1, each noise family, a mixture, an affine outside
    option, 130 bidders and a schedule that falls."""
    cases = []
    crra = CRRAUtility(0.5, shift=2.0)
    shaded = EquilibriumSolution.from_grid(_REPLAY_GRID, 0.8 * _REPLAY_GRID)
    for n in (2, 3, 5, 8, 10):
        values = ValueModel.iid(UniformDist(0.0, 1.0), n)
        cases.append((f"fpa-n{n}", "fpa", FPAScenario(values=values, utility=crra), shaded))
        for k in sorted({1, n // 2, n - 1}):
            noise = _REPLAY_NOISES[(n + k) % len(_REPLAY_NOISES)]
            fmt = "spa" if k == 1 else "uniform"
            scn = SPAScenario(values=values, utility=crra, win_payoff=noise, units=k)
            cases.append((f"{fmt}-n{n}-K{k}-{type(noise).__name__}", fmt, scn, shaded))
    cases += [
        ("fpa-mixture", "fpa", FPAScenario(values=_MIX3, utility=crra), shaded),
        ("uniform-mixture", "uniform", SPAScenario(values=ValueModel.mixture(
            [(0.3, UniformDist(0.0, 1.0)), (0.7, TruncatedNormalDist(0.5, 0.2, 0.0, 1.0))], 5),
            utility=crra, win_payoff=_REPLAY_NOISES[3], units=2), shaded),
        ("fpa-affine", "fpa", FPAScenario(values=U3, outside=AffineOutside(0.1, 0.2),
                                          utility=crra), shaded),
        ("spa-affine", "spa", SPAScenario(values=U3, outside=AffineOutside(0.1, 0.2),
                                          utility=crra), shaded),
        # a rank up to 129 overflows an int8
        ("fpa-n130", "fpa", FPAScenario(values=ValueModel.iid(UniformDist(0.0, 1.0), 130)), shaded),
    ]
    falling = EquilibriumSolution.from_grid(_REPLAY_GRID, 0.5 + 0.3 * np.sin(7.0 * _REPLAY_GRID))
    assert not falling.monotone
    cases += [(f"{fmt}-falling", fmt, scn, falling) for fmt, scn in [
        ("fpa", FPAScenario(values=U3, utility=CARAUtility(1.0))),
        ("uniform", SPAScenario(values=ValueModel.iid(UniformDist(0.0, 1.0), 5),
                                utility=CARAUtility(1.0), units=3))]]
    return cases


@pytest.mark.parametrize("fmt, scn, sol", [c[1:] for c in _replay_cases()],
                         ids=[c[0] for c in _replay_cases()])
def test_mc_matches_row_major_reference(monkeypatch, fmt, scn, sol):
    # the bidder-major replay reads the same stream and rounds the same sums
    monkeypatch.setattr(verification, "_CHUNK", 7_000)  # two full chunks and a ragged one
    got = monte_carlo_auction(fmt, scn, sol, 20_000, seed=5)
    assert got.to_json() == reference_monte_carlo(fmt, scn, sol, 20_000, seed=5).to_json()


_FLAT = EquilibriumSolution.from_grid(np.linspace(0.0, 1.0, 5), np.full(5, 0.3))


@pytest.mark.parametrize("fmt, n, units, seed", [
    *[("spa", n, 1, seed) for n in (2, 3) for seed in range(4)],
    ("uniform", 3, 2, 0),
])
def test_mc_breaks_ties_per_round(fmt, n, units, seed):
    # every bid is 0.3, so each round's winners are a random draw: over one
    # chunk each seat wins with probability units / n, round by round
    scn = SPAScenario(values=ValueModel.iid(UniformDist(0.0, 1.0), n), units=units)
    rounds = 100_000
    stats = monte_carlo_auction(fmt, scn, _FLAT, rounds, seed=seed)
    p = units / n
    assert np.all(np.abs(np.array(stats.win_freq) - p) <= 4 * np.sqrt(p * (1 - p) / rounds))
    assert sum(stats.win_freq) == pytest.approx(units)
    assert stats.mean_revenue == pytest.approx(0.3 * units)


#: every numeric constructor parameter, as a function of the value passed to it
_NUMERIC_PARAMETERS = {
    "NoisyWin.scale": lambda x: NoisyWin(DiscreteNoise([-1.0, 1.0], [0.5, 0.5]), scale=x),
    "LinearUtility.shift": lambda x: LinearUtility(shift=x),
    "CARAUtility.alpha": lambda x: CARAUtility(x),
    "CARAUtility.shift": lambda x: CARAUtility(1.0, shift=x),
    "CRRAUtility.rho": lambda x: CRRAUtility(x),
    "CRRAUtility.shift": lambda x: CRRAUtility(0.5, shift=x),
    "LogUtility.shift": lambda x: LogUtility(shift=x),
    "PiecewiseLinearUtility.knot": lambda x: PiecewiseLinearUtility([(x, 2.0), (1.0, 1.0)]),
    "PiecewiseLinearUtility.slope": lambda x: PiecewiseLinearUtility([(0.0, 2.0), (1.0, x)]),
    "PiecewiseLinearUtility.shift": lambda x: PiecewiseLinearUtility([(0.0, 1.0)], shift=x),
    "UniformDist.lo": lambda x: UniformDist(x, 1.0),
    "UniformDist.hi": lambda x: UniformDist(0.0, x),
    "PowerDist.k": lambda x: PowerDist(x, 0.0, 1.0),
    "TruncatedNormalDist.mu": lambda x: TruncatedNormalDist(x, 1.0, 0.0, 1.0),
    "TruncatedNormalDist.sigma": lambda x: TruncatedNormalDist(0.5, x, 0.0, 1.0),
    "ValueModel.weight": lambda x: ValueModel.mixture([(x, UniformDist(0.0, 1.0))], 2),
    "ConstantOutside.s0": lambda x: ConstantOutside(x),
    "AffineOutside.c0": lambda x: AffineOutside(x, 0.0),
    "AffineOutside.c1": lambda x: AffineOutside(0.0, x),
    "FPAScenario.boundary_bid": lambda x: FPAScenario(values=U3, boundary_bid=x),
    "FPAScenario.ode_tol": lambda x: FPAScenario(values=U3, ode_tol=x),
    "SPAScenario.root_tol": lambda x: SPAScenario(values=U3, root_tol=x),
    "EquilibriumSolution.v_floor": lambda x: EquilibriumSolution.from_grid(
        [0.0, 1.0], [0.0, 0.5], v_floor=x),
    "EquilibriumSolution.boundary_bid": lambda x: EquilibriumSolution.from_grid(
        [0.0, 1.0], [0.0, 0.5], boundary_bid=x),
    # the tolerance is checked before the schedule is read
    "best_response_audit.audit_tol": lambda x: best_response_audit(
        "spa", SPAScenario(values=U3), None, audit_tol=x),
}
#: integer counts, which also refuse a bool
_COUNT_PARAMETERS = {
    "SPAScenario.units": lambda x: SPAScenario(values=U3, units=x),
    "SPAScenario.grid": lambda x: SPAScenario(values=U3, grid=x),
    "ValueModel.n": lambda x: ValueModel.iid(UniformDist(0.0, 1.0), x),
}
#: entries of numeric lists, each given in a list and in an array; an entry
#: also refuses a bool.  np.array([x, x]) keeps a bool a bool; a table's
#: array holds objects, as a float array would turn True into 1.0
_ENTRY_PARAMETERS = {
    "TableOutside.abscissa": lambda x: TableOutside([(0.0, 0.0), (x, 1.0)]),
    "TableOutside.abscissa array": lambda x: TableOutside(
        np.array([(0.0, 0.0), (x, 1.0)], dtype=object)),
    "TableOutside.value": lambda x: TableOutside([(0.0, 0.0), (1.0, x)]),
    "TableOutside.value array": lambda x: TableOutside(
        np.array([(0.0, 0.0), (1.0, x)], dtype=object)),
    "DiscreteNoise.point": lambda x: DiscreteNoise([-1.0, x], [0.5, 0.5]),
    "DiscreteNoise.point array": lambda x: DiscreteNoise(np.array([x, x]), [0.5, 0.5]),
    "DiscreteNoise.prob": lambda x: DiscreteNoise([-1.0, 1.0], [0.5, x]),
    "DiscreteNoise.prob array": lambda x: DiscreteNoise([-1.0, 1.0], np.array([x, x])),
    "FiniteDecisionProblem.a": lambda x: FiniteDecisionProblem([x, 0.0], [0.0, 1.0]),
    "FiniteDecisionProblem.a array": lambda x: FiniteDecisionProblem(
        np.array([x, x]), np.array([0.0, 1.0])),
    "FiniteDecisionProblem.b": lambda x: FiniteDecisionProblem([1.0, 0.0], [0.0, x]),
    "FiniteDecisionProblem.b array": lambda x: FiniteDecisionProblem(
        np.array([1.0, 0.0]), np.array([x, x])),
}
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")]).flatmap(
    lambda x: st.sampled_from([x, np.float64(x), np.float32(x)]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_numeric_parameter_refuses_non_finite_values(data):
    params, values = data.draw(st.sampled_from([
        (_NUMERIC_PARAMETERS, _NON_FINITE),
        (_COUNT_PARAMETERS, _NON_FINITE | st.just(True)),
        (_ENTRY_PARAMETERS, _NON_FINITE | st.sampled_from([True, np.True_])),
    ]))
    name = data.draw(st.sampled_from(sorted(params)))
    bad = data.draw(values)
    with pytest.raises(ConfigError):
        params[name](bad)


def test_numeric_parameters_take_numpy_scalars():
    # a numpy scalar passes without a RuntimeWarning (the suite makes them errors)
    assert CARAUtility(np.float32(2.0), shift=np.int64(1)).alpha == 2.0
    assert PowerDist(np.float16(0.5), np.float32(0.0), np.uint8(1)).k == 0.5
    assert SPAScenario(values=U3, root_tol=np.float32(1e-6), units=np.int8(2)).units == 2
    assert ValueModel.iid(UniformDist(0.0, 1.0), np.int64(3)).n == 3


@pytest.mark.parametrize("make", [
    pytest.param(lambda: TableOutside([(True, 0.0), (2.0, 1.0)]), id="table-bool"),
    pytest.param(lambda: DiscreteNoise([True, 2.0], [0.5, True]), id="noise-bool"),
    pytest.param(lambda: FiniteDecisionProblem(np.array([True, False]), [0.0, 1.0]),
                 id="problem-bool-array"),
    pytest.param(lambda: TableOutside([(0, 1, 2), (1, 2, 3)]), id="table-triples"),
    pytest.param(lambda: PiecewiseLinearUtility([(0, 1, 2)]), id="knots-triple"),
    pytest.param(lambda: DiscreteNoise(["x"], [1.0]), id="noise-string"),
    pytest.param(lambda: FiniteDecisionProblem(["a"], ["b"]), id="problem-strings"),
    pytest.param(lambda: TableOutside(5), id="table-scalar"),
    pytest.param(lambda: PiecewiseLinearUtility(5), id="knots-scalar"),
])
def test_malformed_number_lists_raise_config_error(make):
    # bools, ragged pairs, strings and scalars where a list belongs
    with pytest.raises(ConfigError):
        make()


@pytest.mark.parametrize("make, text", [
    (lambda: FiniteDecisionProblem(np.ones((2, 2)), [1.0, 2.0]),
     "payoffs a must be a nonempty list of numbers, got array("),
    (lambda: DiscreteNoise([1.0], np.ones((1, 1))),
     "discrete noise probs must be a nonempty list of numbers, got array("),
    (lambda: TableOutside(np.array([0.0, 1.0])),
     "table points must be a nonempty list of [x, y] pairs, got array("),
    (lambda: FiniteDecisionProblem([1.0], [1.0, 2.0]), "payoff vectors must have equal length"),
])
def test_number_lists_of_the_wrong_shape_say_so(make, text):
    # an array of the wrong dimension is refused whole, not entry by entry
    with pytest.raises(ConfigError, match="^" + re.escape(text)):
        make()


def test_number_lists_take_arrays():
    table = TableOutside(np.array([[0.0, 0.5], [1.0, 2.0], [3.0, 2.5]]))
    assert table.vs.tolist() == [0.0, 1.0, 3.0] and table.ss.tolist() == [0.5, 2.0, 2.5]
    noise = DiscreteNoise(np.array([-1.0, 0.0, 2.0]), np.array([1, 2, 1], dtype=np.int64))
    assert noise.points.tolist() == [-1.0, 0.0, 2.0]
    assert noise.probs.tolist() == [0.25, 0.5, 0.25]
    problem = FiniteDecisionProblem(np.array([3, 1], dtype=np.int32),
                                    np.array([2.5, 1.5], dtype=np.float32))
    assert problem.a.dtype == problem.b.dtype == np.float64
    assert problem.a.tolist() == [3.0, 1.0] and problem.b.tolist() == [2.5, 1.5]
    knots = PiecewiseLinearUtility(np.array([[0.0, 2.0], [1.0, 1.0]]))
    assert knots.to_config() == PiecewiseLinearUtility([(0.0, 2.0), (1.0, 1.0)]).to_config()


def test_number_lists_take_any_iterable():
    assert TableOutside(zip([0.0, 1.0], [0.5, 2.0])).ss.tolist() == [0.5, 2.0]
    assert TableOutside({0.0: 0.5, 1.0: 2.0}.items()).vs.tolist() == [0.0, 1.0]
    knots = PiecewiseLinearUtility(zip([0.0, 1.0], [2.0, 1.0]))
    assert knots.to_config() == PiecewiseLinearUtility([(0.0, 2.0), (1.0, 1.0)]).to_config()
    assert DiscreteNoise(range(3), [1, 1, 2]).probs.tolist() == [0.25, 0.25, 0.5]
    problem = FiniteDecisionProblem(range(3), (x / 2 for x in range(3)))
    assert problem.a.tolist() == [0.0, 1.0, 2.0] and problem.b.tolist() == [0.0, 0.5, 1.0]


def test_mc_standard_error_is_shift_invariant():
    # shifting every value by 1e8 shifts revenue but not its spread; a
    # sum-of-squares variance cancels to 0.0 at this offset
    def replay(lo):
        scn = SPAScenario(values=ValueModel.iid(UniformDist(lo, lo + 1.0), 2))
        return monte_carlo_auction("spa", scn, solve_spa(scn), 1_000_000, seed=11)

    base, shifted = replay(0.0), replay(1e8)
    assert base.se_revenue > 0.0
    assert shifted.se_revenue == pytest.approx(base.se_revenue, rel=1e-3)
    assert shifted.se_utility == pytest.approx(base.se_utility, rel=1e-3)


def test_mc_zero_rounds(fpa_pair):
    scn, sol = fpa_pair
    stats = monte_carlo_auction("fpa", scn, sol, 0, seed=1)
    assert stats.rounds == 0
    assert stats.mean_revenue is None
    json.dumps(stats.to_json())


def test_mc_noisy_win_payoff_spa():
    scn = SPAScenario(values=U3, utility=CRRAUtility(0.5, shift=2.0),
                      win_payoff=NoisyWin(DiscreteNoise([-1.0, 1.0], [0.5, 0.5]),
                                          scale=0.2))
    sol = solve_spa(scn)
    stats = monte_carlo_auction("spa", scn, sol, 50_000, seed=3)
    assert stats.mean_revenue < 0.5  # shading lowers the price-setting bid
    assert stats.mean_utility > 0


def test_revenue_negative_control():
    # with concave utility the formats stop being revenue equivalent:
    # first price collects strictly more than second price
    fscn = FPAScenario(values=U3, utility=CRRAUtility(0.5), grid=129)
    fsol = solve_fpa(fscn)
    fstats = monte_carlo_auction("fpa", fscn, fsol, 100_000, seed=5)
    sscn = SPAScenario(values=U3, utility=CRRAUtility(0.5), grid=129)
    ssol = solve_spa(sscn)
    sstats = monte_carlo_auction("spa", sscn, ssol, 100_000, seed=5)
    gap = fstats.mean_revenue - sstats.mean_revenue
    spread = 3 * (fstats.se_revenue + sstats.se_revenue)
    assert gap > spread
    # point values: 0.8 * E[max of 3] = 0.6 vs E[second of 3] = 0.5
    assert fstats.mean_revenue == pytest.approx(0.6, abs=0.01)
    assert sstats.mean_revenue == pytest.approx(0.5, abs=0.01)


def test_stats_report_json_fields(fpa_pair):
    scn, sol = fpa_pair
    stats = monte_carlo_auction("fpa", scn, sol, 5_000, seed=0)
    doc = stats.to_json()
    for key in ("format", "rounds", "seed", "mean_revenue", "se_revenue",
                "mean_utility", "se_utility", "win_freq", "efficiency"):
        assert key in doc, key
    json.dumps(doc)
