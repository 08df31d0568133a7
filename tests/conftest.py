"""Shared fixtures and generators for the test suite.

The acceptance tests solve a matrix of scenarios that several criteria
reuse (equilibria feed both the ordering checks and the best-response
audits), so solved equilibria are cached at session scope.
"""

from dataclasses import replace

import numpy as np
import pytest

from riskbid import (
    CARAUtility,
    ConstantOutside,
    CRRAUtility,
    DeterministicWin,
    DiscreteNoise,
    FiniteDecisionProblem,
    FPAScenario,
    LinearUtility,
    LogUtility,
    PiecewiseLinearUtility,
    PowerDist,
    SPAScenario,
    StateRecord,
    TruncatedNormalNoise,
    NoisyWin,
    UniformDist,
    ValueModel,
    fpa,
    solve_fpa,
    solve_spa,
    spa,
)


# ---------------------------------------------------------------------------
# concave transforms
# ---------------------------------------------------------------------------

def random_concave_transform(rng, lo, hi):
    """Draw a strictly increasing concave transform whose domain covers
    [lo, hi].  Shifts are chosen so the transform is finite on the whole
    payoff range with margin to spare."""
    kind = rng.choice(["crra", "log", "cara", "piecewise"])
    if kind == "crra":
        rho = float(rng.uniform(0.1, 0.95))
        shift = max(0.0, -lo) + float(rng.uniform(0.1, 1.0))
        return CRRAUtility(rho, shift=shift)
    if kind == "log":
        shift = max(0.0, -lo) + float(rng.uniform(0.2, 1.5))
        return LogUtility(shift=shift)
    if kind == "cara":
        # anchor the exponent at the window bottom so the exponential
        # never saturates to 1.0 in float64 on high payoff windows
        span = max(hi - lo, 1.0)
        alpha = float(rng.uniform(0.2, 3.0)) / span
        return CARAUtility(alpha, shift=-lo)
    # piecewise: slopes decreasing across kinks inside (lo, hi)
    n_kinks = int(rng.integers(1, 3))
    kinks = np.sort(rng.uniform(lo, hi, size=n_kinks))
    slopes = np.sort(rng.uniform(0.2, 5.0, size=n_kinks + 1))[::-1]
    knots = [(float(kinks[0]) - 1.0, float(slopes[0]))]
    knots += [(float(k), float(s)) for k, s in zip(kinks, slopes[1:])]
    return PiecewiseLinearUtility(knots)


# ---------------------------------------------------------------------------
# finite decision problems
# ---------------------------------------------------------------------------

def random_problem(rng, max_states=5, lo=0.0, hi=10.0):
    """Unstructured problem: payoffs drawn uniformly on [lo, hi]."""
    n = int(rng.integers(2, max_states + 1))
    a = rng.uniform(lo, hi, size=n)
    b = rng.uniform(lo, hi, size=n)
    return FiniteDecisionProblem(a, b)


def constructed_safe_problem(rng, max_states=5, lo=0.0, hi=10.0):
    """Problem built to satisfy the safety inequalities: a threshold m
    splits the payoff range; states where a is better live below m and
    states where b is better live above it."""
    n = int(rng.integers(2, max_states + 1))
    m = float(rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo)))
    a = np.empty(n)
    b = np.empty(n)
    n_up = int(rng.integers(1, n))  # states where a is strictly better
    for i in range(n):
        if i < n_up:
            x, y = np.sort(rng.uniform(lo, m, size=2))
            a[i], b[i] = y, x
        else:
            x, y = np.sort(rng.uniform(m, hi, size=2))
            a[i], b[i] = x, y
    return FiniteDecisionProblem(a, b)


# ---------------------------------------------------------------------------
# auction-state generators (safety reports for the two formats)
# ---------------------------------------------------------------------------

def known_values_states(rng, n_states=6):
    """First-price environment with constant value and constant outside
    option, bids a > b, at least one pivotal and one both-win state, and
    a positive winning surplus margin."""
    v = float(rng.uniform(4.0, 8.0))
    bid_b = float(rng.uniform(0.5, 2.0))
    bid_a = bid_b + float(rng.uniform(0.3, 1.5))
    s = float(rng.uniform(0.0, v - bid_a - 0.05))
    gammas = [float(rng.uniform(bid_b + 1e-3, bid_a - 1e-3))]   # pivotal
    gammas.append(float(rng.uniform(0.0, bid_b - 1e-3)))        # both win
    for _ in range(n_states - 2):
        gammas.append(float(rng.uniform(0.0, bid_a + 1.0)))
    states = [StateRecord(gamma=g, value=v, outside=s) for g in gammas]
    return states, bid_a, bid_b


def known_outside_states(rng, n_states=6):
    """Second-price environment with constant outside option and pivotal
    states on both sides of the surplus cutoff (so neither bid dominates)."""
    s = float(rng.uniform(0.5, 2.0))
    bid_b = float(rng.uniform(1.0, 3.0))
    bid_a = bid_b + float(rng.uniform(0.5, 2.0))

    def pivotal(surplus_sign):
        g = float(rng.uniform(bid_b + 1e-3, bid_a - 1e-3))
        if surplus_sign > 0:
            v = g + s + float(rng.uniform(0.2, 2.0))
        else:
            v = g + s - float(rng.uniform(0.2, min(2.0, g + s - 0.01)))
        return StateRecord(gamma=g, value=v, outside=s)

    states = [pivotal(+1), pivotal(-1)]
    for _ in range(n_states - 2):
        g = float(rng.uniform(0.0, bid_a + 2.0))
        v = float(rng.uniform(0.0, g + s + 3.0))
        states.append(StateRecord(gamma=g, value=v, outside=s))
    return states, bid_a, bid_b


def violating_states(rng, n_states=5):
    """First-price environment where the winning-cannot-hurt condition
    fails: one pivotal state wins at a loss while another pivotal state
    wins at a gain, so neither partition side is empty."""
    bid_b = float(rng.uniform(1.0, 2.0))
    bid_a = bid_b + float(rng.uniform(0.5, 1.5))
    s = float(rng.uniform(1.0, 2.0))
    g1 = float(rng.uniform(bid_b + 1e-3, bid_a - 1e-3))
    win_gain = StateRecord(gamma=g1, value=bid_a + s + float(rng.uniform(0.5, 2.0)),
                           outside=s)
    g2 = float(rng.uniform(bid_b + 1e-3, bid_a - 1e-3))
    win_loss = StateRecord(gamma=g2, value=bid_a + s - float(rng.uniform(0.5, 1.0 + s)),
                           outside=s)
    states = [win_gain, win_loss]
    for _ in range(n_states - 2):
        g = float(rng.uniform(0.0, bid_a + 1.0))
        states.append(StateRecord(gamma=g, value=float(rng.uniform(0.0, 8.0)), outside=s))
    return states, bid_a, bid_b


# ---------------------------------------------------------------------------
# acceptance scenario matrix (shared by the ordering and audit criteria)
# ---------------------------------------------------------------------------

VALUE_CASES = [
    ("uniform", lambda n: ValueModel.iid(UniformDist(0.0, 1.0), n)),
    ("power2", lambda n: ValueModel.iid(PowerDist(2.0, 0.0, 1.0), n)),
    ("mix", lambda n: ValueModel.mixture(
        [(0.6, UniformDist(0.0, 1.0)), (0.4, PowerDist(2.0, 0.0, 1.0))], n)),
]

TRANSFORM_CASES = [
    ("crra03", CRRAUtility(0.3, shift=2.0)),
    ("crra07", CRRAUtility(0.7, shift=2.0)),
    ("cara1", CARAUtility(1.0)),
    ("cara3", CARAUtility(3.0)),
]

NOISE_CASES = [
    ("two_point_01", NoisyWin(DiscreteNoise([-1.0, 1.0], [0.5, 0.5]), scale=0.1)),
    ("two_point_03", NoisyWin(DiscreteNoise([-1.0, 1.0], [0.5, 0.5]), scale=0.3)),
    ("tnorm_01", NoisyWin(TruncatedNormalNoise(0.0, 1.0, -3.0, 3.0), scale=0.1)),
    ("tnorm_03", NoisyWin(TruncatedNormalNoise(0.0, 1.0, -3.0, 3.0), scale=0.3)),
]


def fpa_matrix():
    """The 12 first-price comparison scenarios: value model x transform."""
    out = []
    for vname, vf in VALUE_CASES:
        for tname, phi in TRANSFORM_CASES:
            scn = FPAScenario(
                values=vf(3),
                outside=ConstantOutside(0.0),
                utility=LinearUtility(),
                transform=phi,
                grid=257,
            )
            out.append((f"{vname}-{tname}", scn))
    return out


def spa_matrix():
    """The 12 second-price comparison scenarios: value model x transform,
    with noisy win payoffs cycled across cases."""
    out = []
    k = 0
    for vname, vf in VALUE_CASES:
        for tname, phi in TRANSFORM_CASES:
            _, wp = NOISE_CASES[k % len(NOISE_CASES)]
            k += 1
            scn = SPAScenario(
                values=vf(3),
                outside=ConstantOutside(0.0),
                utility=LinearUtility(),
                transform=phi,
                win_payoff=wp,
                grid=257,
            )
            out.append((f"{vname}-{tname}", scn))
    return out


@pytest.fixture(scope="session")
def fpa_solutions():
    """Base and transformed first-price equilibria for the scenario matrix."""
    cache = {}
    for name, scn in fpa_matrix():
        base = solve_fpa(replace(scn, transform=None))
        bent = solve_fpa(scn)
        cache[name] = (scn, base, bent)
    return cache


@pytest.fixture(scope="session")
def spa_solutions():
    """Base and transformed second-price equilibria for the scenario matrix."""
    cache = {}
    for name, scn in spa_matrix():
        base = solve_spa(replace(scn, transform=None))
        bent = solve_spa(scn)
        cache[name] = (scn, base, bent)
    return cache


@pytest.fixture(scope="session")
def closed_form_solutions():
    """IID uniform, risk neutral s = 0 first-price runs with known
    linear equilibria, over n in {2, 3, 5} and constant relative risk
    aversion levels."""
    cache = {}
    for n in (2, 3, 5):
        for rho in (0.0, 0.3, 0.5, 0.8):
            util = CRRAUtility(rho) if rho > 0 else LinearUtility()
            scn = FPAScenario(
                values=ValueModel.iid(UniformDist(0.0, 1.0), n),
                outside=ConstantOutside(0.0),
                utility=util,
                grid=257,
            )
            cache[(n, rho)] = (scn, solve_fpa(scn))
    return cache


@pytest.fixture(scope="session")
def vickrey_solutions():
    """Second-price truthful-bidding runs across utility families."""
    families = [
        ("linear", LinearUtility()),
        ("crra", CRRAUtility(0.5, shift=1.5)),
        ("log", LogUtility(shift=1.5)),
        ("cara", CARAUtility(1.0)),
        ("piecewise", PiecewiseLinearUtility([(-2.0, 3.0), (0.0, 1.0)])),
    ]
    cache = {}
    for name, util in families:
        scn = SPAScenario(
            values=ValueModel.iid(UniformDist(0.0, 1.0), 3),
            outside=ConstantOutside(0.0),
            utility=util,
            win_payoff=DeterministicWin(),
            grid=129,
        )
        cache[name] = (scn, solve_spa(scn))
    return cache


# ---------------------------------------------------------------------------
# doctored comparisons
# ---------------------------------------------------------------------------

def doctor_fpa_compare(monkeypatch, drop):
    """Make ``compare_risk_aversion_fpa``'s bent schedule its baseline less ``drop``."""
    real = fpa._solve_joint

    def solve(scenario, utilities):
        base, _ = real(scenario, utilities)
        return [base, replace(base, bids=base.bids - drop)]

    monkeypatch.setattr(fpa, "_solve_joint", solve)


def doctor_spa_compare(monkeypatch, base_by, bent_by):
    """Make ``compare_risk_aversion_spa``'s schedules its baseline moved up by
    ``base_by`` and ``bent_by``."""
    real = spa._solve

    def solve(scenario, u):
        base = real(scenario, scenario.utility)
        return replace(base, bids=base.bids + (base_by if u is scenario.utility else bent_by))

    monkeypatch.setattr(spa, "_solve", solve)
