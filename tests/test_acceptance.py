"""Release gate: ten acceptance criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each test prints exactly one ``criterion N: PASS/FAIL`` line
(with the headline number and elapsed time) before asserting.
"""

import time
from dataclasses import replace

import numpy as np

from conftest import (
    constructed_safe_problem,
    known_outside_states,
    known_values_states,
    random_concave_transform,
    random_problem,
    violating_states,
)
from riskbid import (
    CARAUtility,
    ConstantOutside,
    CRRAUtility,
    DeterministicWin,
    DiscreteNoise,
    Dominance,
    EquilibriumSolution,
    FPAScenario,
    LinearUtility,
    LogUtility,
    NoisyWin,
    PiecewiseLinearUtility,
    SPAScenario,
    UniformDist,
    ValueModel,
    belief_inclusion_probe,
    best_response_audit,
    check_dominance,
    closed_form_crra_uniform,
    compose,
    find_violation_witness,
    fpa_higher_bid_safer,
    is_safer,
    marginal_tradeoff,
    monte_carlo_auction,
    pivotal_expectation,
    sample_beliefs,
    solve_fpa,
    solve_spa,
    solve_uniform_price,
    spa_lower_bid_safer,
    violation_margin,
)
from riskbid.errors import DomainError


def _verdict(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail} ({time.perf_counter() - t0:.1f}s)")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. closed-form first-price oracle

def test_01_first_price_closed_form_oracle(closed_form_solutions):
    """IID uniform values with constant relative risk aversion have the
    linear equilibrium c*v, c = (n-1)/(n-rho); the solved bids must match
    to relative error 1e-4 at every grid point v >= 0.01."""
    t0 = time.perf_counter()
    worst = 0.0
    for (n, rho), (scn, sol) in closed_form_solutions.items():
        c = closed_form_crra_uniform(n, rho)
        mask = sol.grid >= 0.01
        rel = np.abs(sol.bids[mask] - c * sol.grid[mask]) / (c * sol.grid[mask])
        worst = max(worst, float(np.max(rel)))
    _verdict(1, worst <= 1e-4,
             f"closed-form linear bids over 12 (n, rho) cases, "
             f"worst rel err {worst:.2e}", t0)


# ---------------------------------------------------------------------------
# 2. more risk aversion raises first-price bids

def test_02_first_price_bids_rise_with_risk_aversion(fpa_solutions):
    """Across the 12-scenario value-model x transform matrix, the bid
    schedule under the concavified utility never drops below the base
    schedule by more than 1e-7."""
    t0 = time.perf_counter()
    min_d = np.inf
    worst_name = None
    for name, (scn, base, bent) in fpa_solutions.items():
        d = float(np.min(bent.bids - base.bids))
        if d < min_d:
            min_d, worst_name = d, name
    _verdict(2, min_d >= -1e-7,
             f"12 scenarios, min(bent - base) = {min_d:.2e} at {worst_name}", t0)


# ---------------------------------------------------------------------------
# 3. more risk aversion lowers second-price bids

def test_03_second_price_bids_fall_with_risk_aversion(spa_solutions):
    """Same matrix with noisy win payoffs: the concavified schedule never
    rises above the base schedule by more than 1e-7, and at every grid
    point the bent utility weakly prefers the outside option to winning
    at the base bid (the one-sided condition behind the ordering)."""
    t0 = time.perf_counter()
    max_d = -np.inf
    min_slack = np.inf
    slack_tol = 0.0
    for name, (scn, base, bent) in spa_solutions.items():
        max_d = max(max_d, float(np.max(bent.bids - base.bids)))
        slack_tol = max(slack_tol, 10.0 * scn.root_tol)
        uh = scn.effective_utility()
        s_grid = np.asarray(scn.outside.value(base.grid), dtype=float)
        if s_grid.ndim == 0:
            s_grid = np.full_like(base.grid, float(s_grid))
        for i, v in enumerate(base.grid):
            try:
                won = pivotal_expectation(scn, v, base.bids[i], utility=uh)
            except DomainError:
                won = -np.inf
            min_slack = min(min_slack, float(uh.value(s_grid[i])) - won)
    ok = max_d <= 1e-7 and min_slack >= -slack_tol
    _verdict(3, ok,
             f"12 scenarios, max(bent - base) = {max_d:.2e}, "
             f"min outside-preference slack = {min_slack:.2e}", t0)


# ---------------------------------------------------------------------------
# 4. deterministic win payoff and zero outside option force truthful bids

def test_04_truthful_bidding_degenerate_case(vickrey_solutions):
    """With a deterministic win payoff and s = 0 the pivotal indifference
    pins the bid at the value for every utility family."""
    t0 = time.perf_counter()
    worst = 0.0
    tol = 0.0
    for name, (scn, sol) in vickrey_solutions.items():
        worst = max(worst, float(np.max(np.abs(sol.bids - sol.grid))))
        tol = max(tol, scn.root_tol)
    _verdict(4, worst <= tol,
             f"5 utility families, max |bid - value| = {worst:.2e} "
             f"(root_tol {tol:.0e})", t0)


# ---------------------------------------------------------------------------
# 5. safety verdicts are consistent with exhaustive belief probes

def test_05_safety_verdicts_match_belief_probes():
    """On 10^4 random non-dominated problems (up to 5 states, payoffs in
    [0, 10]): every safer=True verdict survives 50 random concave
    transforms x 200 beliefs with zero violations, and every safer=False
    verdict with violation margin > 0.05 yields a concrete (belief,
    transform) witness."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260818)
    base = LinearUtility()
    n_safer = n_witnessed = n_small = n_probe_viol = n_missing = 0
    for i in range(10_000):
        while True:
            prob = (constructed_safe_problem(rng) if i % 5 < 2
                    else random_problem(rng))
            if check_dominance(prob) is Dominance.NONE:
                break
        verdict = is_safer(prob)
        if verdict.safer:
            n_safer += 1
            beliefs = sample_beliefs(prob.n_states, 200, rng)
            for _ in range(50):
                phi = random_concave_transform(rng, 0.0, 10.0)
                if not belief_inclusion_probe(prob, base, phi, beliefs).holds:
                    n_probe_viol += 1
        elif violation_margin(prob) > 0.05:
            if find_violation_witness(prob, base) is None:
                n_missing += 1
            else:
                n_witnessed += 1
        else:
            n_small += 1
    # both branches must be exercised at scale for the sweep to mean much
    ok = (n_probe_viol == 0 and n_missing == 0
          and n_safer >= 1000 and n_witnessed >= 1000)
    _verdict(5, ok,
             f"10000 problems: {n_safer} safer ({n_probe_viol} probe "
             f"violations), {n_witnessed} witnessed ({n_missing} missing), "
             f"{n_small} below the margin cutoff", t0)


# ---------------------------------------------------------------------------
# 6. the bid-level propositions hold on randomized instances

def test_06_bid_level_propositions():
    """Known values: the higher first-price bid is safer on 10^3 random
    instances.  Known outside option: the lower second-price bid is safer
    on 10^3 random instances with pivotal states on both surplus sides.
    Necessity: instances where winning hurts in some pivotal state while
    helping in another are never ruled safer."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    bad = []
    for _ in range(1000):
        states, bid_a, bid_b = known_values_states(rng)
        rep = fpa_higher_bid_safer(bid_a, bid_b, states)
        if not (rep.verdict.safer and rep.winning_cannot_hurt
                and rep.low_bids_better_winners):
            bad.append(("known-values", states))
    for _ in range(1000):
        states, bid_a, bid_b = known_outside_states(rng)
        rep = spa_lower_bid_safer(bid_a, bid_b, states)
        if not rep.verdict.safer:
            bad.append(("known-outside", states))
    for _ in range(1000):
        states, bid_a, bid_b = violating_states(rng)
        rep = fpa_higher_bid_safer(bid_a, bid_b, states)
        if rep.verdict.safer or rep.winning_cannot_hurt:
            bad.append(("necessity", states))
        elif rep.verdict.witness is None:
            bad.append(("necessity-witness", states))
    _verdict(6, not bad,
             f"1000 known-values safer, 1000 known-outside safer, "
             f"1000 winning-hurts instances rejected; {len(bad)} failures", t0)


# ---------------------------------------------------------------------------
# 7. every solved equilibrium survives a best-response audit

def test_07_best_response_audits(closed_form_solutions, fpa_solutions,
                                 spa_solutions, vickrey_solutions):
    """All equilibria from criteria 1-4 pass a 512-point deviation audit
    with max_gain <= 1e-6; bid schedules inflated by 10% fail with
    max_gain > 1e-3."""
    t0 = time.perf_counter()
    audited = 0
    worst_gain = 0.0
    fails = []

    def audit(fmt, scenario, solution, label):
        nonlocal audited, worst_gain
        rep = best_response_audit(fmt, scenario, solution, audit_tol=1e-6)
        audited += 1
        worst_gain = max(worst_gain, rep.max_gain)
        if not rep.passed:
            fails.append(label)

    for (n, rho), (scn, sol) in closed_form_solutions.items():
        audit("fpa", scn, sol, f"closed-form n={n} rho={rho}")
    for name, (scn, base, bent) in fpa_solutions.items():
        audit("fpa", replace(scn, transform=None), base, f"fpa {name} base")
        audit("fpa", scn, bent, f"fpa {name} bent")
    for name, (scn, base, bent) in spa_solutions.items():
        audit("spa", replace(scn, transform=None), base, f"spa {name} base")
        audit("spa", scn, bent, f"spa {name} bent")
    for name, (scn, sol) in vickrey_solutions.items():
        audit("spa", scn, sol, f"vickrey {name}")

    # negative controls: inflate the solved bids by 10%
    scn, _, bent = fpa_solutions["uniform-crra03"]
    bad = EquilibriumSolution.from_grid(bent.grid, bent.bids * 1.1,
                                        v_floor=bent.v_floor,
                                        boundary_bid=bent.boundary_bid)
    frep = best_response_audit("fpa", scn, bad)
    sscn, _, sbent = spa_solutions["uniform-crra03"]
    sbad = EquilibriumSolution.from_grid(sbent.grid, sbent.bids * 1.1,
                                         v_floor=sbent.v_floor,
                                         boundary_bid=sbent.boundary_bid)
    srep = best_response_audit("spa", sscn, sbad)
    controls_ok = (not frep.passed and frep.max_gain > 1e-3
                   and not srep.passed and srep.max_gain > 1e-3)

    ok = not fails and worst_gain <= 1e-6 and controls_ok
    _verdict(7, ok,
             f"{audited} audits, worst gain {worst_gain:.2e}, "
             f"{len(fails)} failures; corrupted controls gain "
             f"{frep.max_gain:.1e}/{srep.max_gain:.1e}", t0)


# ---------------------------------------------------------------------------
# 8. concave transforms raise the marginal tradeoff, which rises in surplus

def test_08_marginal_tradeoff_properties():
    """(u(x) - u(s)) / u'(x) weakly increases under any concave transform
    of u, and is strictly increasing in x, on 10^3 random tuples each."""
    t0 = time.perf_counter()

    def random_base_utility(rng):
        kind = rng.choice(["linear", "crra", "log", "cara", "piecewise"])
        if kind == "linear":
            return LinearUtility()
        if kind == "crra":
            return CRRAUtility(float(rng.uniform(0.1, 0.95)),
                               shift=float(rng.uniform(0.1, 1.0)))
        if kind == "log":
            return LogUtility(shift=float(rng.uniform(0.2, 1.5)))
        if kind == "cara":
            return CARAUtility(float(rng.uniform(0.1, 1.0)))
        kink = float(rng.uniform(0.5, 4.0))
        hi_m, lo_m = sorted(rng.uniform(0.2, 4.0, size=2).tolist(),
                            reverse=True)
        return PiecewiseLinearUtility([(0.0, hi_m), (kink, lo_m)])

    rng = np.random.default_rng(42)
    worst_lift = np.inf
    worst_mono = np.inf
    for _ in range(1000):
        u = random_base_utility(rng)
        s = float(rng.uniform(0.0, 3.0))
        x1 = s + float(rng.uniform(0.05, 3.0))
        x2 = x1 + float(rng.uniform(0.05, 2.0))
        phi = random_concave_transform(rng, float(u.value(s)),
                                       float(u.value(x2)))
        uhat = compose(phi, u)
        worst_lift = min(worst_lift,
                         marginal_tradeoff(uhat, x1, s)
                         - marginal_tradeoff(u, x1, s))
        worst_mono = min(worst_mono,
                         marginal_tradeoff(uhat, x2, s)
                         - marginal_tradeoff(uhat, x1, s))
    ok = worst_lift >= -1e-10 and worst_mono > 0.0
    _verdict(8, ok,
             f"1000 tuples: worst concavity lift {worst_lift:.2e}, "
             f"worst monotone gap {worst_mono:.2e}", t0)


# ---------------------------------------------------------------------------
# 9. uniform-price bids are unit-count invariant

def test_09_uniform_price_consistency():
    """Single-unit sale reproduces the second-price bids bitwise; selling
    2 or n-1 units with an opponent-independent win payoff leaves the
    bids within root_tol; the two-units-of-four win probability at the
    median matches the binomial tail computed by hand."""
    t0 = time.perf_counter()
    scn1 = SPAScenario(
        values=ValueModel.iid(UniformDist(0.0, 1.0), 4),
        outside=ConstantOutside(0.2),
        utility=CARAUtility(1.0),
        win_payoff=NoisyWin(DiscreteNoise([-1.0, 1.0], [0.5, 0.5]), scale=0.2),
        grid=129,
    )
    spa_sol = solve_spa(scn1)
    uni_sol = solve_uniform_price(scn1)
    bitwise = np.array_equal(spa_sol.bids, uni_sol.bids)

    dev = 0.0
    for k in (2, 3):
        sol_k = solve_uniform_price(replace(scn1, units=k))
        dev = max(dev, float(np.max(np.abs(sol_k.bids - spa_sol.bids))))

    # P(win one of 2 units among 4 bidders) at v = t = 0.5:
    # F^3 + 3 F^2 (1 - F) with F = 0.5 -> 0.125 + 0.375 = 0.5
    q = scn1.values.kth_win_prob(2, 0.5, 0.5)
    q_ok = abs(q - 0.5) <= 1e-15

    ok = bitwise and dev <= scn1.root_tol and q_ok
    _verdict(9, ok,
             f"single-unit bitwise match {bitwise}, multi-unit max dev "
             f"{dev:.2e}, two-of-four win prob {q:.6f}", t0)


# ---------------------------------------------------------------------------
# 10. simulated revenues match the order-statistic integrals

def test_10_monte_carlo_revenue():
    """Two risk-neutral bidders with uniform values: first-price revenue
    E[max(v1,v2)/2] and second-price revenue E[min(v1,v2)] both equal the
    order-statistic integral 1/3; a million simulated rounds must land
    within three standard errors of it."""
    t0 = time.perf_counter()
    vals = ValueModel.iid(UniformDist(0.0, 1.0), 2)
    fscn = FPAScenario(values=vals, outside=ConstantOutside(0.0),
                       utility=LinearUtility(), grid=257)
    sscn = SPAScenario(values=vals, outside=ConstantOutside(0.0),
                       utility=LinearUtility(), win_payoff=DeterministicWin(),
                       grid=257)
    fsol = solve_fpa(fscn)
    ssol = solve_spa(sscn)
    fst = monte_carlo_auction("fpa", fscn, fsol, rounds=10**6, seed=2026)
    sst = monte_carlo_auction("spa", sscn, ssol, rounds=10**6, seed=2027)

    v = np.linspace(0.0, 1.0, 200_001)
    oracle_fpa = float(np.trapezoid((v / 2.0) * 2.0 * v, v))   # E[beta(max)]
    oracle_spa = float(np.trapezoid(v * 2.0 * (1.0 - v), v))   # E[min]

    dev_f = abs(fst.mean_revenue - oracle_fpa) / fst.se_revenue
    dev_s = abs(sst.mean_revenue - oracle_spa) / sst.se_revenue
    ok = dev_f <= 3.0 and dev_s <= 3.0
    _verdict(10, ok,
             f"first-price {fst.mean_revenue:.5f} ({dev_f:.2f} SE from "
             f"{oracle_fpa:.5f}), second-price {sst.mean_revenue:.5f} "
             f"({dev_s:.2f} SE from {oracle_spa:.5f})", t0)
