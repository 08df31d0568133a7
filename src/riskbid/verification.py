"""Ex-post checks of solved bid functions.

Solving produces a candidate equilibrium; this module confirms it.  A
bidder of type v who reports t wins whenever t beats the pivotal rival
order statistic, so expected utility as a function of the report can be
evaluated directly from the solved bid schedule.  If the schedule is an
equilibrium, the truthful report t = v must be (numerically) optimal —
the best-response audit sweeps a deviation grid and measures the best
achievable gain.  Monte Carlo simulation independently replays the
auction mechanics on sampled value profiles.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import FORMATS
from .errors import ConfigError

_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
#: audit gains at most this many relative ulps of the truthful utility
#: are floating-point noise, not profitable deviations
_ROUNDING_GAIN = 4.0 * np.finfo(float).eps


def _normalize_format(fmt):
    name = str(fmt).lower()
    if name not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    return name


def fpa_report_utility(scenario, solution, v, t):
    """Expected utility of type v reporting t against the solved schedule.

    Winning pays the own bid at the report; losing pays nothing and
    yields the outside option.  ``t`` may be a scalar (returns a float)
    or an array.  A report whose winning surplus leaves the utility's
    domain is worth -inf.
    """
    u = scenario.effective_utility()
    u_s = float(u.value(scenario.outside.value(v)))
    t = np.asarray(t, dtype=float)
    q = np.asarray(scenario.values.win_prob(v, t), dtype=float)
    vals = u.masked_value(v - np.asarray(solution.bid_at(t), dtype=float))
    with np.errstate(invalid="ignore"):
        psi = np.where(q > 0.0, q * vals + (1.0 - q) * u_s, u_s)
    return float(psi) if psi.ndim == 0 else psi


def spa_report_utility(scenario, solution, v, t):
    """Expected utility of type v reporting t when winners pay a rival bid.

    Integrates the win branch over the pivotal rival's density up to the
    report and adds the outside option weighted by the losing
    probability; covers the multi-unit case through the scenario's
    ``units``.  ``t`` may be a scalar (returns a float) or an array, and
    is clamped to the support.  The reports, plus the bottom of the
    support, split the integral into fixed Gauss-Legendre panels summed
    cumulatively, so a whole deviation sweep costs one pass.  A domain
    breach anywhere in a report's win branch makes that report and all
    larger ones -inf.
    """
    u = scenario.effective_utility()
    vm = scenario.values
    units = scenario.units
    lo, hi = vm.support
    offsets, wts = scenario.win_payoff.offsets()
    u_s = float(u.value(scenario.outside.value(v)))

    t = np.clip(np.asarray(t, dtype=float), lo, hi)
    ts, where = np.unique(np.concatenate([[lo], t.ravel()]), return_inverse=True)
    q = np.asarray(vm.kth_win_prob(units, v, ts), dtype=float)
    a, b = ts[:-1], ts[1:]
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b)[:, None] + half[:, None] * _GL8_NODES[None, :]
    node_w = half[:, None] * _GL8_WEIGHTS[None, :]

    bids = np.asarray(solution.bid_at(nodes), dtype=float)
    surplus = v + offsets[None, None, :] - bids[:, :, None]
    vals = u.masked_value(surplus)
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


@dataclass
class AuditReport:
    """Per-type best-response sweep results for one solved scenario."""

    format: str
    types: np.ndarray
    best_reports: np.ndarray
    gains: np.ndarray
    max_gain: float
    passed: bool
    audit_tol: float
    deviation_grid_size: int

    def to_json(self):
        return {
            "format": self.format,
            "passed": bool(self.passed),
            "max_gain": float(self.max_gain),
            "audit_tol": float(self.audit_tol),
            "deviation_grid_size": int(self.deviation_grid_size),
            "types": [float(x) for x in self.types],
            "best_reports": [float(x) for x in self.best_reports],
            "gains": [float(x) for x in self.gains],
        }


def best_response_audit(
    fmt,
    scenario,
    solution,
    type_grid_size=33,
    deviation_grid_size=512,
    audit_tol=1e-6,
):
    """Sweep report deviations for a grid of types; measure the best gain.

    For each audited type, expected utility is evaluated on a uniform
    report grid over the support plus the truthful report itself; the
    audit passes when no type gains more than ``audit_tol`` and every
    argmax lies within one deviation-grid cell of the truthful report.
    First-price audits additionally probe bids above the top of the
    solved schedule, which win with certainty.
    """
    fmt = _normalize_format(fmt)
    lo, hi = scenario.values.support
    types = np.linspace(lo, hi, int(type_grid_size))
    base_ts = np.linspace(lo, hi, int(deviation_grid_size))
    cell = (hi - lo) / (int(deviation_grid_size) - 1)

    if fmt == "fpa":
        u = scenario.effective_utility()
        b_top = float(solution.bids[-1])
        room = hi - b_top
        if room <= 0:
            room = 0.1 * (hi - lo)
        probe_bids = b_top + room * np.array([0.01, 0.05, 0.2, 0.5, 1.0])

    best_reports = np.empty_like(types)
    gains = np.empty_like(types)
    loc_ok = np.ones(types.shape, dtype=bool)
    for i, v in enumerate(types):
        ts = np.unique(np.concatenate([base_ts, [v]]))
        if fmt == "fpa":
            psi = fpa_report_utility(scenario, solution, v, ts)
        else:
            psi = spa_report_utility(scenario, solution, v, ts)
        i_v = int(np.searchsorted(ts, v))
        psi_self = psi[i_v]
        j = int(np.argmax(psi))
        best, t_star = psi[j], ts[j]

        if fmt == "fpa":
            # out-of-range bids win with certainty at their own price
            probe_psi = u.masked_value(v - probe_bids)
            k = int(np.argmax(probe_psi))
            if probe_psi[k] > best:
                best, t_star = probe_psi[k], np.nan
        gain = best - psi_self
        floor = _ROUNDING_GAIN * max(1.0, abs(psi_self)) if np.isfinite(psi_self) else 0.0
        if gain <= floor:
            # no better report, or one within rounding of a finite psi_self
            gain, t_star = 0.0, v
        best_reports[i] = t_star
        gains[i] = gain
        loc_ok[i] = np.isfinite(t_star) and abs(t_star - v) <= cell * (1 + 1e-9)

    max_gain = float(np.max(gains))
    passed = bool(max_gain <= audit_tol and np.all(loc_ok))
    return AuditReport(
        format=fmt,
        types=types,
        best_reports=best_reports,
        gains=gains,
        max_gain=max_gain,
        passed=passed,
        audit_tol=float(audit_tol),
        deviation_grid_size=int(deviation_grid_size),
    )


@dataclass
class StatsReport:
    """Monte Carlo summary of simulated auction rounds."""

    format: str
    rounds: int
    seed: int
    mean_revenue: float = None
    se_revenue: float = None
    mean_utility: float = None
    se_utility: float = None
    win_freq: list = field(default_factory=list)
    efficiency: float = None

    def to_json(self):
        return {
            "format": self.format,
            "rounds": int(self.rounds),
            "seed": int(self.seed),
            "mean_revenue": self.mean_revenue,
            "se_revenue": self.se_revenue,
            "mean_utility": self.mean_utility,
            "se_utility": self.se_utility,
            "win_freq": [float(x) for x in self.win_freq],
            "efficiency": self.efficiency,
        }


def _merge_moments(acc, x):
    """Fold a chunk into running (count, sum, sum of squared deviations).

    Uses the pairwise update of Chan, Golub & LeVeque (1979): each chunk
    is centred on its own mean, so the variance stays accurate however
    far the data sit from zero.
    """
    n_a, sum_a, m2_a = acc
    n_b, sum_b = x.size, float(np.sum(x))
    m2_b = float(np.sum((x - sum_b / n_b) ** 2))
    if n_a:
        delta = sum_b / n_b - sum_a / n_a
        m2_b += delta * delta * n_a * n_b / (n_a + n_b)
    return n_a + n_b, sum_a + sum_b, m2_a + m2_b


def monte_carlo_auction(fmt, scenario, solution, rounds, seed=0, chunk_size=250_000):
    """Replay the auction on sampled profiles; accumulate revenue stats.

    All bidders follow the solved schedule; ties are broken uniformly at
    random.  Reproducible for a given seed.
    """
    fmt = _normalize_format(fmt)
    rounds = int(rounds)
    if rounds < 0:
        raise ConfigError(f"rounds must be nonnegative, got {rounds}")
    seed = int(seed)
    if rounds == 0:
        return StatsReport(format=fmt, rounds=0, seed=seed)

    u = scenario.effective_utility()
    vm = scenario.values
    n = vm.n
    units = scenario.units if fmt == "uniform" else 1
    win_payoff = getattr(scenario, "win_payoff", None)
    rng = np.random.default_rng(seed)

    rev_acc = util_acc = (0, 0.0, 0.0)
    eff_count = 0
    seat_wins = np.zeros(n)

    done = 0
    while done < rounds:
        m = min(chunk_size, rounds - done)
        vals = vm.sample(rng, m)
        bids = np.asarray(solution.bid_at(vals), dtype=float)

        # random column relabeling before a stable sort breaks ties uniformly
        perm = rng.permutation(n)
        order_p = np.argsort(-bids[:, perm], axis=1, kind="stable")
        order = perm[order_p]
        rows = np.arange(m)[:, None]
        ranked_bids = np.take_along_axis(bids, order, axis=1)

        winners = order[:, :units]
        win_vals = np.take_along_axis(vals, winners, axis=1)
        if fmt == "fpa":
            price = ranked_bids[:, 0]
            win_surplus = win_vals[:, 0] - price
            revenue = price
        elif fmt == "spa":
            price = ranked_bids[:, 1]
            w = win_payoff.sample(rng, win_vals[:, 0])
            win_surplus = w - price
            revenue = price
        else:
            price = ranked_bids[:, units]
            w = win_payoff.sample(rng, win_vals)
            win_surplus = w - price[:, None]
            revenue = units * price

        util = np.broadcast_to(u.value(scenario.outside.value(vals)), vals.shape).copy()
        if fmt == "uniform":
            np.put_along_axis(util, winners, np.asarray(u.value(win_surplus)), axis=1)
        else:
            util[rows[:, 0], winners[:, 0]] = np.asarray(u.value(win_surplus))
        round_util = util.mean(axis=1)

        np.add.at(seat_wins, winners.ravel(), 1.0)
        top_vals = -np.sort(-vals, axis=1)
        eff_count += int(np.sum(win_vals.min(axis=1) >= top_vals[:, units - 1] - 1e-12))

        rev_acc = _merge_moments(rev_acc, revenue)
        util_acc = _merge_moments(util_acc, round_util)
        done += m

    _, sum_rev, m2_rev = rev_acc
    _, sum_util, m2_util = util_acc
    return StatsReport(
        format=fmt,
        rounds=rounds,
        seed=seed,
        mean_revenue=sum_rev / rounds,
        se_revenue=float(np.sqrt(m2_rev / rounds / rounds)),
        mean_utility=sum_util / rounds,
        se_utility=float(np.sqrt(m2_util / rounds / rounds)),
        win_freq=list(seat_wins / rounds),
        efficiency=eff_count / rounds,
    )
