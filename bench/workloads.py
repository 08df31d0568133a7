"""The four workloads: inputs drawn from a seed, a warm-up, and operations.

A workload object is built from ``(seed, out_dir)``.  Building it draws
every input the run will use; riskbid receives only these scenario
objects and config files.  ``round(r)`` returns the operations of round
r as a list of ``(kind, callable)``.  Every round has the same make-up,
so each kind of operation has the same share in every run whatever its
length; longer runs cycle through ``POOL`` distinct rounds.

An operation takes the tracer (a no-op in untraced runs) and raises
:class:`CheckFailed` when its output breaks a property the method must
have or disagrees with an oracle from ``oracles``.  riskbid is always
called through its package namespace, so the traced run's wrappers see
every call.
"""

import contextlib
import functools
import io
import json
import os
import shutil
from dataclasses import replace

import numpy as np

import oracles
import riskbid as rb
import riskbid.cli

#: distinct rounds drawn per seed; longer runs cycle through them
POOL = 32
#: fine reporting grid for the statics workloads
GRID = 1025
VALUE_KINDS = ("uniform", "power", "mixture")
TRANSFORM_FAMILIES = ("crra", "cara")

# tolerances of the method properties checked below
ORDER_TOL = 1e-7
ORACLE_REL_TOL = 1e-4
MAX_Z = 6.0


class CheckFailed(Exception):
    """An operation's output broke a checked property."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def _value_model(rng, kind, n):
    if kind == "uniform":
        return rb.ValueModel.iid(rb.UniformDist(0.0, 1.0), n)
    # exponents above 2 are left out: there the bottom type's report
    # utility is flat to rounding and best_response_audit fails on a
    # 4e-16 gain two cells from the truthful report (see README)
    power = rb.PowerDist(float(rng.uniform(1.5, 2.0)), 0.0, 1.0)
    if kind == "power":
        return rb.ValueModel.iid(power, n)
    w = float(rng.uniform(0.3, 0.7))
    return rb.ValueModel.mixture([(w, rb.UniformDist(0.0, 1.0)), (1.0 - w, power)], n)


def _transform(rng, family):
    # shift 2 keeps the power transform's domain clear of noisy payoffs
    if family == "crra":
        return rb.CRRAUtility(float(rng.uniform(0.2, 0.8)), shift=float(rng.uniform(2.0, 3.0)))
    return rb.CARAUtility(float(rng.uniform(0.5, 3.0)))


def _bent_schedule(scenario, report, boundary_bid):
    """The transformed bids as a schedule, rebuilt as the CLI rebuilds a CSV."""
    return rb.EquilibriumSolution.from_grid(
        report.grid, report.beta_hat, v_floor=scenario.values.lo, boundary_bid=boundary_bid
    )


def _check_audit(fmt, scenario, solution):
    audit = rb.best_response_audit(fmt, scenario, solution)
    check(audit.passed, f"{fmt} audit failed: max_gain {audit.max_gain:.3e}")


# ---------------------------------------------------------------------------
# fpa-statics


def _fpa_op(tr, scenario, closed_form):
    report = rb.compare_risk_aversion_fpa(scenario)
    min_d = float(np.min(report.beta_hat - report.beta))
    check(min_d >= -ORDER_TOL, f"first-price bids fell {min_d:.3e} under more risk aversion")
    _check_audit("fpa", scenario, _bent_schedule(scenario, report, scenario.boundary_bid))

    cf_scenario, n, rho = closed_form
    sol = rb.solve_fpa(cf_scenario)
    c = oracles.fpa_crra_coefficient(n, rho)
    mask = sol.grid >= 0.01
    rel = float(np.max(np.abs(sol.bids[mask] - c * sol.grid[mask]) / (c * sol.grid[mask])))
    tr.note_max("fpa.oracle_rel_err", rel)
    check(rel <= ORACLE_REL_TOL, f"CRRA n={n} rho={rho:.3f}: rel err {rel:.2e} against c*v")


class FpaStatics:
    """First-price comparative statics at grid 1025.

    One op: compare_risk_aversion_fpa on one value model x transform,
    audit the bent schedule, and solve one IID-uniform CRRA case against
    the closed form.  A round holds one op per value kind.  Sizes and
    families (n, transform family, closed-form n) cycle with the round
    so that every run has the same mix; parameters are drawn from the
    seed.
    """

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        self.pool = [
            [self._draw(rng, kind, r + i) for i, kind in enumerate(VALUE_KINDS)]
            for r in range(POOL)
        ]

    @staticmethod
    def _draw(rng, kind, slot, grid=GRID):
        scenario = rb.FPAScenario(
            values=_value_model(rng, kind, 2 + slot % 3),
            transform=_transform(rng, TRANSFORM_FAMILIES[slot % 2]),
            grid=grid,
        )
        n, rho = 2 + slot % 4, float(rng.uniform(0.0, 0.8))
        cf = rb.FPAScenario(
            values=rb.ValueModel.iid(rb.UniformDist(0.0, 1.0), n),
            utility=rb.CRRAUtility(rho),
            grid=grid,
        )
        return functools.partial(_fpa_op, scenario=scenario, closed_form=(cf, n, rho))

    def warm_up(self, tr):
        rng = np.random.default_rng(0)
        self._draw(rng, "mixture", 0, grid=129)(tr)

    def round(self, r):
        return [("fpa", op) for op in self.pool[r % POOL]]


# ---------------------------------------------------------------------------
# spa-statics


def _noise(kind, scale):
    if kind == "two_point":
        return rb.NoisyWin(rb.DiscreteNoise([-1.0, 1.0], [0.5, 0.5]), scale=scale)
    return rb.NoisyWin(rb.TruncatedNormalNoise(0.0, 1.0, -3.0, 3.0), scale=scale)


def _utility_family(rng, family):
    if family == "linear":
        return rb.LinearUtility()
    if family == "crra":
        return rb.CRRAUtility(float(rng.uniform(0.2, 0.8)), shift=float(rng.uniform(1.0, 2.0)))
    if family == "log":
        return rb.LogUtility(shift=float(rng.uniform(1.0, 2.0)))
    if family == "cara":
        return rb.CARAUtility(float(rng.uniform(0.5, 2.0)))
    hi, lo = sorted(rng.uniform(0.5, 4.0, size=2).tolist(), reverse=True)
    return rb.PiecewiseLinearUtility([(-2.0, hi), (0.0, lo)])


UTILITY_FAMILIES = ("linear", "crra", "log", "cara", "piecewise")


def _spa_noisy_op(tr, scenario):
    report = rb.compare_risk_aversion_spa(scenario)
    max_d = float(np.max(report.beta_hat - report.beta))
    check(max_d <= ORDER_TOL, f"second-price bids rose {max_d:.3e} under more risk aversion")
    slack = float(np.min(report.diagnostics["pivotal_slack"]))
    check(slack >= -10.0 * scenario.root_tol, f"outside-preference slack {slack:.3e}")
    _check_audit("spa", scenario, _bent_schedule(scenario, report, None))


def _spa_truthful_uniform_op(tr, truthful, multi_unit):
    sol = rb.solve_spa(truthful)
    err = float(np.max(np.abs(sol.bids - sol.grid)))
    check(err <= truthful.root_tol, f"truthful bids off by {err:.3e}")

    multi = rb.solve_uniform_price(multi_unit)
    single = rb.solve_spa(replace(multi_unit, units=1))
    dev = float(np.max(np.abs(multi.bids - single.bids)))
    check(dev <= multi_unit.root_tol, f"{multi_unit.units}-unit bids differ by {dev:.3e}")


class SpaStatics:
    """Second-price statics at grid 1025.

    A round holds three ops: a noisy two-point comparison plus audit, a
    noisy truncated-normal comparison plus audit, and one deterministic
    truthful solve bundled with a K >= 2 uniform-price solve checked
    against its single-unit bids; the bundle keeps all three ops near
    the same cost.  Value kind, n, K and families cycle with the round;
    parameters are drawn from the seed.
    """

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        self.pool = [self._draw_round(rng, r) for r in range(POOL)]

    @staticmethod
    def _noisy(rng, noise, slot, grid=GRID):
        scenario = rb.SPAScenario(
            values=_value_model(rng, VALUE_KINDS[slot % 3], 2 + slot % 3),
            transform=_transform(rng, TRANSFORM_FAMILIES[slot % 2]),
            win_payoff=_noise(noise, float(rng.uniform(0.1, 0.3))),
            grid=grid,
        )
        return functools.partial(_spa_noisy_op, scenario=scenario)

    @staticmethod
    def _truthful_uniform(rng, slot, grid=GRID):
        truthful = rb.SPAScenario(
            values=rb.ValueModel.iid(rb.UniformDist(0.0, 1.0), 2 + slot % 3),
            utility=_utility_family(rng, UTILITY_FAMILIES[slot % len(UTILITY_FAMILIES)]),
            grid=grid,
        )
        n = 4 + slot % 2
        multi_unit = rb.SPAScenario(
            values=_value_model(rng, VALUE_KINDS[slot % 2], n),
            outside=rb.ConstantOutside(float(rng.uniform(0.0, 0.3))),
            utility=rb.CARAUtility(float(rng.uniform(0.5, 2.0))),
            win_payoff=_noise("two_point", float(rng.uniform(0.1, 0.3))),
            units=2 + slot % (n - 2),
            grid=grid,
        )
        return functools.partial(_spa_truthful_uniform_op, truthful=truthful, multi_unit=multi_unit)

    def _draw_round(self, rng, r):
        return [
            ("spa-noisy", self._noisy(rng, "two_point", r)),
            ("spa-noisy", self._noisy(rng, "tnorm", r + 1)),
            ("spa-truthful", self._truthful_uniform(rng, r)),
        ]

    def warm_up(self, tr):
        rng = np.random.default_rng(0)
        self._noisy(rng, "tnorm", 1, grid=129)(tr)
        self._truthful_uniform(rng, 1, grid=129)(tr)

    def round(self, r):
        return self.pool[r % POOL]


# ---------------------------------------------------------------------------
# safety-batch

#: state counts of a block's problems; safe pairs alternate built / random
SAFE_STATES = (3, 2, 5, 4)
UNSAFE_STATES = (2, 3, 4, 5)
AUCTIONS_PER_KIND = 2
N_TRANSFORMS = 50
N_BELIEFS = 200
#: unsafe problems get a witness search only beyond this violation margin
WITNESS_MARGIN = 0.05
PAYOFF_LO, PAYOFF_HI = 0.0, 10.0
BLOCKS = 100


def _random_payoffs(rng, n):
    return rng.uniform(PAYOFF_LO, PAYOFF_HI, size=n), rng.uniform(PAYOFF_LO, PAYOFF_HI, size=n)


def _constructed_safe(rng, n):
    """Payoffs split by a threshold m: a's better states below it, b's above."""
    lo, hi = PAYOFF_LO, PAYOFF_HI
    m = float(rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo)))
    a, b = np.empty(n), np.empty(n)
    n_up = int(rng.integers(1, n))
    for i in range(n):
        if i < n_up:
            x, y = np.sort(rng.uniform(lo, m, size=2))
            a[i], b[i] = y, x
        else:
            x, y = np.sort(rng.uniform(m, hi, size=2))
            a[i], b[i] = x, y
    return a, b


def _draw_problem(rng, n, want_safe):
    """Rejection-sample a non-dominated problem of the wanted class (by the oracle)."""
    while True:
        a, b = _random_payoffs(rng, n)
        if oracles.is_dominated(a, b):
            continue
        if want_safe and oracles.cross_pair_safe(a, b):
            return a, b
        if not want_safe and oracles.cross_pair_margin(a, b) > WITNESS_MARGIN:
            return a, b


def _concave_transform(rng):
    """A strictly increasing concave transform finite on the payoffs [0, 10]."""
    kind = int(rng.integers(4))
    if kind == 0:
        return rb.CRRAUtility(float(rng.uniform(0.1, 0.95)), shift=float(rng.uniform(0.1, 1.0)))
    if kind == 1:
        return rb.LogUtility(shift=float(rng.uniform(0.2, 1.5)))
    if kind == 2:
        # alpha * payoff stays below 3, so the exponential never saturates
        return rb.CARAUtility(float(rng.uniform(0.2, 3.0)) / PAYOFF_HI)
    kinks = np.sort(rng.uniform(PAYOFF_LO, PAYOFF_HI, size=int(rng.integers(1, 3))))
    slopes = np.sort(rng.uniform(0.2, 5.0, size=kinks.size + 1))[::-1]
    knots = [(float(kinks[0]) - 1.0, float(slopes[0]))]
    knots += [(float(k), float(s)) for k, s in zip(kinks, slopes[1:])]
    return rb.PiecewiseLinearUtility(knots)


def _beliefs(rng, n_states, count=N_BELIEFS):
    """Simplex vertices, edge midpoints, then flat Dirichlet draws."""
    rows = [np.eye(n_states)]
    for i in range(n_states):
        for j in range(i + 1, n_states):
            m = np.zeros(n_states)
            m[i] = m[j] = 0.5
            rows.append(m[None, :])
    fixed = np.vstack(rows)
    return np.vstack([fixed, rng.dirichlet(np.ones(n_states), size=count - fixed.shape[0])])


def _known_values_states(rng, n_states=6):
    """First price, constant value and outside option: the high bid is safer."""
    v = float(rng.uniform(4.0, 8.0))
    bid_b = float(rng.uniform(0.5, 2.0))
    bid_a = bid_b + float(rng.uniform(0.3, 1.5))
    s = float(rng.uniform(0.0, v - bid_a - 0.05))
    gammas = [float(rng.uniform(bid_b + 1e-3, bid_a - 1e-3)), float(rng.uniform(0.0, bid_b - 1e-3))]
    gammas += [float(rng.uniform(0.0, bid_a + 1.0)) for _ in range(n_states - 2)]
    return [(g, v, s, False, False) for g in gammas], bid_a, bid_b


def _known_outside_states(rng, n_states=6):
    """Second price, constant outside option, pivotal states on both surplus sides."""
    s = float(rng.uniform(0.5, 2.0))
    bid_b = float(rng.uniform(1.0, 3.0))
    bid_a = bid_b + float(rng.uniform(0.5, 2.0))
    states = []
    for sign in (1, -1):
        g = float(rng.uniform(bid_b + 1e-3, bid_a - 1e-3))
        if sign > 0:
            v = g + s + float(rng.uniform(0.2, 2.0))
        else:
            v = g + s - float(rng.uniform(0.2, min(2.0, g + s - 0.01)))
        states.append((g, v, s, False, False))
    for _ in range(n_states - 2):
        g = float(rng.uniform(0.0, bid_a + 2.0))
        states.append((g, float(rng.uniform(0.0, g + s + 3.0)), s, False, False))
    return states, bid_a, bid_b


def _violating_states(rng, n_states=5):
    """First price where winning at the high bid hurts in one pivotal state."""
    bid_b = float(rng.uniform(1.0, 2.0))
    bid_a = bid_b + float(rng.uniform(0.5, 1.5))
    s = float(rng.uniform(1.0, 2.0))
    g1 = float(rng.uniform(bid_b + 1e-3, bid_a - 1e-3))
    g2 = float(rng.uniform(bid_b + 1e-3, bid_a - 1e-3))
    states = [
        (g1, bid_a + s + float(rng.uniform(0.5, 2.0)), s, False, False),
        (g2, bid_a + s - float(rng.uniform(0.5, 1.0 + s)), s, False, False),
    ]
    for _ in range(n_states - 2):
        states.append((float(rng.uniform(0.0, bid_a + 1.0)), float(rng.uniform(0.0, 8.0)), s, False, False))
    return states, bid_a, bid_b


def _records(states):
    return [rb.StateRecord(g, v, s, th, tl) for g, v, s, th, tl in states]


def _safety_op(tr, block):
    base = rb.LinearUtility()
    for a, b, beliefs in block["safe"]:
        problem = rb.FiniteDecisionProblem(a, b)
        check(rb.is_safer(problem).safer, "is_safer rejected a pair the cross-pair oracle accepts")
        with tr.span("bench.probe", work=float(len(block["transforms"]) * len(beliefs))):
            for phi in block["transforms"]:
                check(
                    rb.belief_inclusion_probe(problem, base, phi, beliefs).holds,
                    "a safer pair lost its preference under a concave transform",
                )
    for a, b in block["unsafe"]:
        problem = rb.FiniteDecisionProblem(a, b)
        check(not rb.is_safer(problem).safer, "is_safer accepted a pair the cross-pair oracle rejects")
        found = rb.find_violation_witness(problem, base)
        check(found is not None, "no witness for a violation margin above 0.05")
        belief, phi = found
        cfg = phi.to_config()
        check(
            oracles.witness_reverses(belief, a, b, cfg["knots"], cfg["shift"]),
            "witness belief does not reverse the preference",
        )
    for kind, states, bid_a, bid_b in block["auctions"]:
        records = _records(states)
        if kind == "spa-known-outside":
            rep = rb.spa_lower_bid_safer(bid_a, bid_b, records)
            lo = oracles.spa_state_payoffs(bid_b, states, high=False)
            hi = oracles.spa_state_payoffs(bid_a, states, high=True)
            expected, oracle = True, oracles.cross_pair_safe(lo, hi)
        else:
            rep = rb.fpa_higher_bid_safer(bid_a, bid_b, records)
            hi = oracles.fpa_state_payoffs(bid_a, states, high=True)
            lo = oracles.fpa_state_payoffs(bid_b, states, high=False)
            expected, oracle = kind == "fpa-known-values", oracles.cross_pair_safe(hi, lo)
        check(
            rep.verdict.safer == oracle == expected,
            f"{kind}: verdict {rep.verdict.safer}, oracle {oracle}, construction {expected}",
        )


class SafetyBatch:
    """Finite two-bid problems; one op is a fixed block of them.

    A block holds 4 safe pairs (2 built safe, 2 drawn at random and
    found safe by the oracle), each probed with 50 concave transforms x
    200 beliefs; 4 random pairs with violation margin above 0.05, each
    given a witness search; and 2 of each auction-state kind.  A fixed
    make-up (state counts included) keeps the ~100x cost gap between
    safe and unsafe problems inside every op, so the op median does not
    flip between modes.
    """

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        self.blocks = [self._draw_block(rng) for _ in range(BLOCKS)]

    @staticmethod
    def _draw_block(rng):
        safe = [
            _constructed_safe(rng, n) if i % 2 == 0 else _draw_problem(rng, n, want_safe=True)
            for i, n in enumerate(SAFE_STATES)
        ]
        auctions = []
        for kind, gen in (
            ("fpa-known-values", _known_values_states),
            ("spa-known-outside", _known_outside_states),
            ("fpa-violating", _violating_states),
        ):
            auctions += [(kind, *gen(rng)) for _ in range(AUCTIONS_PER_KIND)]
        return {
            "safe": [(a, b, _beliefs(rng, a.size)) for a, b in safe],
            "unsafe": [_draw_problem(rng, n, want_safe=False) for n in UNSAFE_STATES],
            "transforms": [_concave_transform(rng) for _ in range(N_TRANSFORMS)],
            "auctions": auctions,
        }

    def warm_up(self, tr):
        _safety_op(tr, self.blocks[0])

    def round(self, r):
        return [("safety-block", functools.partial(_safety_op, block=self.blocks[r % BLOCKS]))]


# ---------------------------------------------------------------------------
# replay

MC_ROUNDS = 1_000_000
REPLAY_GRID = 257


def _cli(argv):
    """riskbid.cli.main in-process, its progress lines kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return riskbid.cli.main(argv)


def _replay_op(tr, fmt, config, work_dir, sim_seed, revenue, win_p):
    shutil.rmtree(work_dir, ignore_errors=True)
    resolve_dir = os.path.join(work_dir, "resolve")
    check(_cli(["solve", "--config", config, "--out", work_dir]) == 0, f"{fmt} solve failed")
    rc = _cli(["audit", "--config", config, "--out", work_dir])
    with open(os.path.join(work_dir, "audit.json")) as fh:
        check(rc == 0 and json.load(fh)["passed"], f"{fmt} audit failed")
    rc = _cli(["simulate", "--config", config, "--out", work_dir,
               "--rounds", str(MC_ROUNDS), "--seed", str(sim_seed)])
    check(rc == 0, f"{fmt} simulate failed")
    with open(os.path.join(work_dir, "stats.json")) as fh:
        stats = json.load(fh)
    se = stats["se_revenue"]
    check(se > 0, f"{fmt} revenue standard error is {se}")
    z = abs(stats["mean_revenue"] - revenue) / se
    tr.note_max("verification.mc_max_z", z)
    check(z <= MAX_Z, f"{fmt} mean revenue {stats['mean_revenue']:.6f} is {z:.1f} SE from {revenue:.6f}")
    check(stats["efficiency"] == 1.0, f"{fmt} efficiency {stats['efficiency']}")
    worst = max(oracles.frequency_z(f, win_p, MC_ROUNDS) for f in stats["win_freq"])
    check(worst <= MAX_Z, f"{fmt} win frequency {worst:.1f} SE from {win_p:.4f}")

    meta = os.path.join(work_dir, "meta.json")
    check(_cli(["solve", "--config", meta, "--out", resolve_dir]) == 0, f"{fmt} re-solve failed")
    with open(os.path.join(work_dir, "solution.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(resolve_dir, "solution.csv"), "rb") as fh:
        check(fh.read() == first, f"{fmt} re-solve from meta.json changed solution.csv")
    tr.add("cli.artifact_bytes", sum(
        os.path.getsize(os.path.join(d, f))
        for d in (work_dir, resolve_dir)
        for f in os.listdir(d)
        if os.path.isfile(os.path.join(d, f))
    ))


def _uniform_values(n):
    return {"support": [0.0, 1.0], "n": n, "kind": "iid", "dist": {"family": "uniform"}}


def _replay_utility(rng, family):
    if family == "linear":
        return {"family": "linear"}
    if family == "crra":
        return {"family": "crra", "rho": float(rng.uniform(0.2, 0.8)), "shift": float(rng.uniform(1.0, 2.0))}
    if family == "crra_log":
        return {"family": "crra_log", "shift": float(rng.uniform(1.0, 2.0))}
    return {"family": "cara", "alpha": float(rng.uniform(0.5, 2.0))}


#: zero-mean win noise laws: with linear utility the second-price bid is the value
REPLAY_NOISES = (
    {"kind": "discrete", "points": [-1.0, 1.0], "probs": [0.5, 0.5]},
    {"kind": "uniform", "lo": -1.0, "hi": 1.0},
    {"kind": "truncated_normal", "mu": 0.0, "sigma": 1.0, "lo": -3.0, "hi": 3.0},
)


def _replay_formats(tr, pipelines):
    for kwargs in pipelines:
        _replay_op(tr, **kwargs)


class Replay:
    """solve -> audit -> simulate (10^6 rounds) -> re-solve through the CLI.

    One op runs the pipeline once per format, each on a config whose
    revenue has an order-statistic closed form: first price with IID uniform values
    and CRRA utility (bids c * v); second price with linear utility and
    zero-mean win noise (truthful); uniform price, 5 bidders, K units,
    deterministic payoff (truthful).  Bundling the three formats keeps
    every op near the same cost.  n, K, the noise kind and the utility
    family cycle with the round; parameters and simulation seeds are
    drawn from the seed.
    """

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        config_dir = os.path.join(out_dir, "configs")
        os.makedirs(config_dir, exist_ok=True)
        self.pool = [self._draw_round(rng, r, config_dir) for r in range(POOL)]

    def _pipeline(self, fmt, doc, path, sim_seed, revenue, win_p):
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return dict(fmt=fmt, config=path, work_dir=os.path.join(self.out_dir, fmt),
                    sim_seed=sim_seed, revenue=revenue, win_p=win_p)

    def _draw_round(self, rng, r, config_dir):
        seeds = rng.integers(0, 2**31, size=3)
        n, rho = 2 + r % 3, float(rng.uniform(0.0, 0.8))
        fpa = {"format": "fpa", "values": _uniform_values(n),
               "utility": {"family": "crra", "rho": rho}, "grid": REPLAY_GRID}
        m = 4 - r % 3  # n + m = 6 in every round, so rounds cost the same
        spa = {"format": "spa", "values": _uniform_values(m), "utility": {"family": "linear"},
               "win_payoff": {"form": "additive_noise", "scale": float(rng.uniform(0.1, 0.3)),
                              "noise": REPLAY_NOISES[r % 3]},
               "grid": REPLAY_GRID}
        k = 2 + r % 3
        uniform = {"format": "uniform", "values": _uniform_values(5),
                   "utility": _replay_utility(rng, ("linear", "crra", "crra_log", "cara")[r % 4]),
                   "K": k, "grid": REPLAY_GRID}
        return [
            self._pipeline("fpa", fpa, os.path.join(config_dir, f"{r}-fpa.json"), int(seeds[0]),
                           oracles.fpa_revenue_crra_uniform(n, rho), 1.0 / n),
            self._pipeline("spa", spa, os.path.join(config_dir, f"{r}-spa.json"), int(seeds[1]),
                           oracles.spa_revenue_truthful_uniform(m), 1.0 / m),
            self._pipeline("uniform", uniform, os.path.join(config_dir, f"{r}-uniform.json"),
                           int(seeds[2]), oracles.uniform_price_revenue_truthful(5, k), k / 5.0),
        ]

    def warm_up(self, tr):
        path = os.path.join(self.out_dir, "configs", "warm-up.json")
        doc = {"format": "fpa", "values": _uniform_values(2), "grid": 64}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        work = os.path.join(self.out_dir, "warm-up")
        for argv in (["solve", "--config", path, "--out", work],
                     ["audit", "--config", path, "--out", work],
                     ["simulate", "--config", path, "--out", work, "--rounds", "10000"]):
            _cli(argv)

    def round(self, r):
        return [("replay", functools.partial(_replay_formats, pipelines=self.pool[r % POOL]))]


WORKLOADS = {
    "fpa-statics": FpaStatics,
    "spa-statics": SpaStatics,
    "safety-batch": SafetyBatch,
    "replay": Replay,
}
