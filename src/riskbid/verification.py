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
from .errors import ConfigError, finite_number, integer_count
from .fpa import FPAScenario
from .spa import SPAScenario, pivotal_expectation

_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
#: audit gains at most this many relative ulps of the truthful utility
#: are floating-point noise, not profitable deviations
_ROUNDING_GAIN = 4.0 * np.finfo(float).eps


def _check_format(fmt, scenario):
    """``ConfigError`` unless fmt is one of ``FORMATS`` and fits the scenario."""
    if fmt not in FORMATS:
        raise ConfigError(f"format must be one of {FORMATS}, got {fmt!r}")
    kind = FPAScenario if fmt == "fpa" else SPAScenario
    if not isinstance(scenario, kind):
        raise ConfigError(
            f"format {fmt!r} needs an {kind.__name__}, got {type(scenario).__name__}"
        )


def fpa_report_utility(scenario, solution, v, t):
    """Expected utility of type v reporting t against the solved schedule.

    Winning pays the own bid at the report; losing pays nothing and
    yields the outside option.  ``v`` and ``t`` may be scalars (returns
    a float) or arrays that broadcast together: a column of types
    against a row of reports gives the (types x reports) table.  A report
    whose winning surplus leaves the utility's domain is worth -inf.
    """
    u = scenario.effective_utility()
    u_s = u.value(scenario.outside.value(v))
    t = np.asarray(t, dtype=float)
    q = np.asarray(scenario.values.win_prob(v, t), dtype=float)
    vals = u.masked_value(v - np.asarray(solution.bid_at(t), dtype=float))
    with np.errstate(invalid="ignore"):
        psi = np.where(q > 0.0, q * vals + (1.0 - q) * u_s, u_s)
    return float(psi) if psi.ndim == 0 else psi


def _inserted(a, i, x):
    """a with x inserted before index i, by one concatenation."""
    return np.concatenate([a[:i], [x], a[i:]])


def _panels(ts):
    """Gauss-Legendre nodes and weights of the panels between consecutive
    points along the last axis of ts: shape ts.shape[:-1] + (panels, 8)."""
    a, b = ts[..., :-1], ts[..., 1:]
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b)[..., None] + half[..., None] * _GL8_NODES
    return nodes, half[..., None] * _GL8_WEIGHTS


def _spa_sweep(scenario, u, v, u_s, q, dens, bids, node_w):
    """psi of type v at each report point of a panel sweep.

    ``q`` is the win probability at the report points; ``dens``, ``bids``
    and ``node_w`` are the rival density, the bid and the weight at each
    panel node (panels x 8).  The win branch is integrated panel by panel
    and summed cumulatively; a domain breach anywhere in a panel makes
    every report from its right end on -inf.
    """
    m = pivotal_expectation(scenario, v, bids, utility=u)
    with np.errstate(invalid="ignore"):
        g = m * dens
        panel = np.sum(g * node_w, axis=1)
    panel[~np.isfinite(g).all(axis=1)] = -np.inf
    win_term = np.concatenate([[0.0], np.cumsum(panel)])
    psi = win_term + u_s * (1.0 - q)
    psi[0] = u_s
    return psi


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
    u_s = float(u.value(scenario.outside.value(v)))

    t = np.clip(np.asarray(t, dtype=float), lo, hi)
    ts, where = np.unique(np.concatenate([[lo], t.ravel()]), return_inverse=True)
    nodes, node_w = _panels(ts)
    psi = _spa_sweep(
        scenario, u, v, u_s,
        np.asarray(vm.kth_win_prob(units, v, ts), dtype=float),
        np.asarray(vm.kth_rival_density(units, v, nodes), dtype=float),
        np.asarray(solution.bid_at(nodes), dtype=float),
        node_w,
    )
    out = psi[where[1:]].reshape(t.shape)
    return float(out) if out.ndim == 0 else out


def _fpa_audit_rows(scenario, solution, types, reports, at, own):
    """psi of each type over the reports plus its own truthful report,
    from one (types x reports) table and the truthful diagonal."""
    table = fpa_report_utility(scenario, solution, types[:, None], reports)
    truthful = fpa_report_utility(scenario, solution, types, types)
    for row, i, is_report, psi_self in zip(table, at, own, truthful):
        yield row if is_report else _inserted(row, i, psi_self)


def _spa_audit_rows(scenario, solution, types, reports, at, own):
    """psi of each type over the reports plus its own truthful report,
    sharing what depends only on the reports (see
    :func:`best_response_audit`); the panels split by the types that are
    no report point are evaluated for all of them at once."""
    u = scenario.effective_utility()
    vm = scenario.values
    units = scenario.units
    post = vm.posterior(types)

    nodes, node_w = _panels(reports)
    bids = solution.bid_at(nodes)
    tails = vm._tail_factors(units, vm._cdfs(reports))
    factors = vm._density_factors(units, vm._cdfs(nodes), vm._pdfs(nodes))

    split = ~own
    s_at = at[split]
    s_nodes, s_w = _panels(np.stack([reports[s_at - 1], types[split], reports[s_at]], axis=1))
    s_bids = solution.bid_at(s_nodes)
    s_post = post[:, split]
    s_q = vm._mix_tail(s_post, vm._tail_factors(units, vm._cdfs(types[split])))
    s_factors = vm._density_factors(units, vm._cdfs(s_nodes), vm._pdfs(s_nodes))
    s_dens = vm._mix_density(s_post[..., None, None], units, s_factors)
    slot = np.cumsum(split) - 1  # each splitting type's row in the s_ arrays

    for i, v in enumerate(types):
        u_s = float(u.value(scenario.outside.value(v)))
        q = vm._mix_tail(post[:, i], tails)
        dens = vm._mix_density(post[:, i], units, factors)
        if own[i]:
            yield _spa_sweep(scenario, u, v, u_s, q, dens, bids, node_w)
            continue
        j, k = at[i] - 1, slot[i]  # v splits panel j in two
        halves = ((dens, s_dens), (bids, s_bids), (node_w, s_w))
        yield _spa_sweep(
            scenario, u, v, u_s, _inserted(q, j + 1, s_q[k]),
            *(np.concatenate([a[:j], s[k], a[j + 1:]]) for a, s in halves),
        )


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
    No bid above the top of the solved schedule needs a probe: the report
    grid ends at the top of the support, whose bid already wins with
    certainty, at a price no higher than any larger bid.

    What depends only on the report grid is computed once per audit and
    shared by every type: the bids there (and, second price, at the
    panel nodes with each component's order-statistic factors).  First
    price evaluates one (types x reports) table plus the truthful
    diagonal.  Second price keeps per type only the posterior weighting,
    the split of the one panel holding the type, the noise expectation
    and the cumulative sum, so no (types x panels x 8) array is built.

    ``fmt`` must name the scenario's own format, ``type_grid_size`` an
    integer >= 1, ``deviation_grid_size`` one >= 2 and ``audit_tol`` a
    finite number >= 0, else ``ConfigError``.
    """
    _check_format(fmt, scenario)
    n_types = integer_count(type_grid_size, "type_grid_size", 1)
    n_reports = integer_count(deviation_grid_size, "deviation_grid_size", 2)
    audit_tol = finite_number(audit_tol, "audit_tol")
    if audit_tol < 0:  # 0 is exact: gains within rounding already read 0
        raise ConfigError(f"audit_tol must be >= 0, got {audit_tol}")
    lo, hi = scenario.values.support
    types = np.linspace(lo, hi, n_types)
    reports = np.linspace(lo, hi, n_reports)
    cell = (hi - lo) / (n_reports - 1)
    # each type's place among the reports, where its own report goes
    # unless it is one of them
    at = np.searchsorted(reports, types)
    own = np.isin(types, reports)

    audit_rows = _fpa_audit_rows if fmt == "fpa" else _spa_audit_rows
    rows = audit_rows(scenario, solution, types, reports, at, own)
    best_reports = np.empty_like(types)
    gains = np.empty_like(types)
    for i, (v, psi) in enumerate(zip(types, rows)):
        ts = reports if own[i] else _inserted(reports, at[i], v)
        psi_self = psi[at[i]]
        j = int(np.argmax(psi))
        gain, t_star = psi[j] - psi_self, ts[j]
        floor = _ROUNDING_GAIN * max(1.0, abs(psi_self)) if np.isfinite(psi_self) else 0.0
        if gain <= floor:
            # no better report, or one within rounding of a finite psi_self
            gain, t_star = 0.0, v
        best_reports[i], gains[i] = t_star, gain

    max_gain = float(np.max(gains))
    loc_ok = np.abs(best_reports - types) <= cell * (1 + 1e-9)
    passed = bool(max_gain <= audit_tol and np.all(loc_ok))
    return AuditReport(
        format=fmt,
        types=types,
        best_reports=best_reports,
        gains=gains,
        max_gain=max_gain,
        passed=passed,
        audit_tol=audit_tol,
        deviation_grid_size=n_reports,
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
    random.  The scenario's ``units`` go to the highest bids (first price
    sells one), and ``fmt`` must name the scenario's own format, else
    ``ConfigError``.  Reproducible for a given seed and ``chunk_size``, the
    number of rounds drawn at a time.  ``rounds`` and ``seed`` must be
    integers >= 0 and ``chunk_size`` one >= 1, else ``ConfigError``.
    """
    _check_format(fmt, scenario)
    rounds = integer_count(rounds, "rounds", 0)
    seed = integer_count(seed, "seed", 0)
    chunk_size = integer_count(chunk_size, "chunk_size", 1)
    if rounds == 0:
        return StatsReport(format=fmt, rounds=0, seed=seed)

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
        m = min(chunk_size, rounds - done)
        vals = vm.sample(rng, m)
        bids = np.asarray(solution.bid_at(vals), dtype=float)

        # random column relabeling before a stable sort breaks ties uniformly
        perm = rng.permutation(n)
        order_p = np.argsort(-bids[:, perm], axis=1, kind="stable")
        order = perm[order_p]
        ranked_bids = np.take_along_axis(bids, order, axis=1)

        winners = order[:, :units]
        win_vals = np.take_along_axis(vals, winners, axis=1)
        # first price: the winner pays its own bid; otherwise the winners
        # pay the highest losing bid
        col = 0 if fmt == "fpa" else units
        price = ranked_bids[:, col:col + 1]
        w = win_vals if win_payoff is None else win_payoff.sample(rng, win_vals)
        revenue = units * price[:, 0]

        util = np.broadcast_to(u.value(scenario.outside.value(vals)), vals.shape).copy()
        np.put_along_axis(util, winners, np.asarray(u.value(w - price)), axis=1)
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
