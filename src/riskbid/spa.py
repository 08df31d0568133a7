"""Second-price and uniform-price equilibria via pivotal indifference.

With single-unit demand, a bidder only changes their outcome when their
bid is pivotal: tied with the price-setting rival bid.  Conditional on
that event the auction price equals the bidder's own bid, so the
equilibrium bid of type v makes them exactly indifferent between
winning at their own bid and the outside option:

    E[ u(W - b) | pivotal ] = u(s(v)),

where W = v + o is the payoff of winning, o an additive noise offset.
The left side depends on v and b only through x = v - b, so the
condition is one scalar equation per outside-option level s,

    M(x) = sum_k w_k u(x + o_k) = u(s),

with M the derived utility of winning at surplus x (Kihlstrom, Romer and
Williams, 1981), evaluated by ``_noise_mean``, and b(v) = v - x(s(v)).  M is
increasing, and u(x + min o) <= M(x) <= u(x + max o), so the root lies in
[s - max o, s - min o]; one array bisection over the distinct levels solves
them all.  Under CARA, x is s less the noise's certainty equivalent (Pratt).
The same logic covers the uniform-price auction selling several
identical units at the highest losing bid: the pivotal event is again a
tie at the bidder's own bid, so the bid function coincides with the
single-unit one.
"""

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, OrderingViolation, SolverWarning, integer_count, positive_number
from .fpa import (_SLAB, ComparisonReport, EquilibriumSolution, _check_outside, _in_slabs,
                  _Scenario, check_monotone)
from .outcomes import DeterministicWin, WinPayoff

_MAX_BISECT = 200
#: a rule with fewer nodes stays within this many eps * max(1, |M|) of the default mean M;
#: _PROBES surpluses check it at half that, leaving room for rounding between them
_RULE_ULPS, _PROBES = 8.0, 513
#: even cells of ``_noise_table``: over the 64 truncated-normal spa-statics audits of
#: seeds 1 and 2, 2^12, 2^13, 2^14 cells pass 41, 59, 64 tables, built in 2.7, 5.6, 11.3 ms
_CELLS = 1 << 13


@dataclass(frozen=True)
class SPAScenario(_Scenario):
    """A second-price (or uniform-price) environment plus solver knobs.

    ``units`` is the number of identical units sold at the highest
    losing bid; one unit is the ordinary second-price auction.
    """

    win_payoff: WinPayoff = field(default_factory=DeterministicWin)
    units: int = 1
    grid: int = 257
    root_tol: float = 1e-10

    def __post_init__(self):
        integer_count(self.units, "units", 1)
        if self.units > self.values.n - 1:
            raise ConfigError(
                f"cannot sell {self.units} units to {self.values.n} bidders at the "
                "highest losing bid; need units <= bidders - 1"
            )
        super().__post_init__()
        positive_number(self.root_tol, "root_tol")

    def report_grid(self):
        lo, hi = self.values.support
        return np.linspace(lo, hi, self.grid)

    @functools.cached_property
    def _noise_rule(self):
        return _choose_rule(self)  # (offsets, weights) of every noise mean, chosen on first use


def _noise_mean(u, x, rule):
    """M(x) = sum_k w_k u(x + o_k) over the rule's (offsets, weights), for each
    entry of the float surplus array x; -inf where any atom leaves u's domain,
    even at weight 0.  A type v bidding b has x = v - b, rounded before each
    offset is added.  The (..., atoms) utilities are built in slabs of about
    ``_SLAB`` elements along x's leading axis; all but the last, which takes the
    rest, hold a multiple of 8 rows, as a matrix-vector kernel blocks its rows,
    so slabs change no bits unless some rows left the domain.  Only the second-
    price audit's sweep may read M elsewhere, from a checked ``_noise_table``."""
    offsets, weights = rule

    def mean(x):
        vals = u.masked_value(x[..., None] + offsets)
        # stacked rows take one matrix-vector product, a single row a dot product
        flat = vals.reshape(-1, offsets.size) if vals.ndim > 2 else vals
        with np.errstate(invalid="ignore"):  # -inf times a zero weight is nan
            out = np.asarray(flat @ weights).reshape(vals.shape[:-1])
        out[np.isnan(out)] = -np.inf
        return out

    rows = _SLAB // max(1, math.prod(x.shape[1:]) * offsets.size) // 8 * 8
    return _in_slabs(mean, x, max(1, rows))


def _noise_table(u, lo, hi, rule):
    """M on [lo, hi] from a cubic Hermite table of M and M' = sum_k w_k u'(x + o_k) on
    ``_CELLS`` even cells, read by index arithmetic and Horner's rule; or None unless
    lo < hi, M and M' at every node and M at every cell midpoint are finite (so
    ``_value_deriv`` stays in the domain) and, at every midpoint, where the Hermite error
    peaks, the table is within half of ``_RULE_ULPS`` * eps * max(1, |M|) of
    ``_noise_mean``, leaving half for rounding between midpoints.  Takes z in [lo, hi]."""
    if not hi > lo:
        return None
    offsets, weights = rule
    x = np.linspace(lo, hi, _CELLS + 1)
    mid = 0.5 * (x[:-1] + x[1:])
    m, m_mid = _noise_mean(u, x, rule), _noise_mean(u, mid, rule)
    if not (np.isfinite(m).all() and np.isfinite(m_mid).all()):
        return None
    # half slabs, as u and u' take twice masked_value's temporaries; an overflowing u' fails
    with np.errstate(all="ignore"):
        dm = _in_slabs(lambda z: u._value_deriv(z[:, None] + offsets)[1] @ weights, x,
                       max(1, _SLAB // offsets.size // 16 * 8))
        h = np.diff(x)
        d = np.diff(m) / h
        c0, c1 = m[:-1], dm[:-1]
        c2, c3 = (3 * d - 2 * c1 - dm[1:]) / h, (c1 + dm[1:] - 2 * d) / h**2
        del h, d  # the check's temporaries take their place, so no audit peak grows

        def table(z):
            j = np.minimum((z - lo) * (_CELLS / (hi - lo)), _CELLS - 1).astype(np.intp)
            s = z - x[j]
            return c0[j] + s * (c1[j] + s * (c2[j] + s * c3[j]))

        ok = np.all(np.abs(_in_slabs(table, mid, _SLAB // 8) - m_mid)
                    <= 0.5 * _RULE_ULPS * np.finfo(float).eps * np.maximum(1.0, np.abs(m_mid)))
    return table if ok and np.isfinite(dm).all() else None


def _choose_rule(scenario):
    """The first of the win payoff's ``rules`` within ``_RULE_ULPS`` of the
    last, the default, under the base and the effective utility on [min s -
    max o - (hi - lo), max s - min o + (hi - lo)], which holds every bisection
    bracket, the slack and every audit surplus; the default where it is not finite."""
    *low, full = scenario.win_payoff.rules
    if not low:
        return full
    span = np.ptp(scenario.values.support)
    s = scenario.outside.value(scenario.report_grid())
    x = np.linspace(np.min(s) - np.max(full[0]) - span, np.max(s) - np.min(full[0]) + span,
                    _PROBES)
    us = {scenario.utility, scenario.effective_utility()}  # one without a transform
    ref = [_noise_mean(u, x, full) for u in us]
    if not all(np.all(np.isfinite(m)) for m in ref):
        return full
    tol = [0.5 * _RULE_ULPS * np.finfo(float).eps * np.maximum(1.0, np.abs(m)) for m in ref]
    for rule in low:
        if all(np.all(np.abs(_noise_mean(u, x, rule) - m) <= t)
               for u, m, t in zip(us, ref, tol)):
            return rule
    return full


def pivotal_expectation(scenario, v, b, utility=None):
    """Expected utility of winning at price b, conditional on being pivotal:
    M(v - b) over the scenario's noise rule (see ``_noise_mean``).

    One value per entry of v and b broadcast together (a float when both
    are scalars); ``-inf`` where any atom leaves the domain (even at
    weight 0), as that bid is certainly too high.
    """
    u = scenario.effective_utility() if utility is None else utility
    out = _noise_mean(u, np.subtract(v, b, dtype=float), scenario._noise_rule)
    return out if out.ndim else float(out)


def solve_spa(scenario):
    """Solve the pivotal-indifference condition on the reporting grid.

    One array bisection finds, for each distinct outside-option level s,
    the surplus x with M(x) = u(s) inside [s - max o, s - min o] (every
    atom of the scenario's noise rule counts, weight 0 included); a type
    bids v - x(s(v)).  A level whose root lies past the utility's domain
    edge is pinned at the smallest finite x.  Returns an
    :class:`EquilibriumSolution` whose ``residuals`` column holds the
    absolute indifference gap at each solved bid, from one pass of M(v - b)
    over the grid; a type whose bid leaves the domain by a rounding reports
    the gap at its level's x instead.
    Raises ``DomainError`` where u is not finite at an outside level.
    """
    return _solve(scenario, scenario.effective_utility())


def _solve(scenario, u):  # its warnings name the caller of solve_spa or compare_risk_aversion_spa
    grid = scenario.report_grid()
    levels, inverse = np.unique(scenario.outside.value(grid), return_inverse=True)
    _check_outside(u, levels)
    target = u.value(levels)
    rule = scenario._noise_rule
    offsets = rule[0]
    tol = scenario.root_tol
    resid_tol = tol * (1.0 + np.abs(target))

    def gap(rows, x):
        return _noise_mean(u, x, rule) - target[rows]

    x, x_gap = np.empty_like(levels), np.empty_like(levels)
    rows = np.arange(levels.size)
    lo, hi = levels - np.max(offsets), levels - np.min(offsets)
    f_hi = gap(rows, hi)  # M(hi) >= u(s): finite, and the pin's gap
    for _ in range(_MAX_BISECT):
        if rows.size == 0:
            break
        mid = 0.5 * (lo + hi)
        f_mid = gap(rows, mid)
        width_ok = (hi - lo) <= tol * np.maximum(1.0, np.abs(mid))
        finite = np.isfinite(f_mid)
        hit = width_ok & finite & (np.abs(f_mid) <= resid_tol[rows])
        pin = width_ok & ~finite  # root pinned against the utility's domain edge
        x[rows[hit]], x_gap[rows[hit]] = mid[hit], f_mid[hit]
        x[rows[pin]], x_gap[rows[pin]] = hi[pin], f_hi[pin]
        up = f_mid > 0.0
        lo, hi, f_hi = np.where(up, lo, mid), np.where(up, mid, hi), np.where(up, f_mid, f_hi)
        keep = ~(hit | pin)
        rows, lo, hi, f_hi, mid, f_mid = (a[keep] for a in (rows, lo, hi, f_hi, mid, f_mid))
    if rows.size:
        finite = np.isfinite(f_mid)
        x[rows], x_gap[rows] = np.where(finite, mid, hi), np.where(finite, f_mid, f_hi)

    bids = grid - x[inverse]
    gaps = _noise_mean(u, grid - bids, rule) - target[inverse]
    residuals = np.abs(np.where(np.isfinite(gaps), gaps, x_gap[inverse]))
    if rows.size:
        types = np.flatnonzero(np.isin(inverse, rows))
        warnings.warn(
            f"indifference residual above tolerance after {_MAX_BISECT} bisection "
            f"steps at {types.size} of {grid.size} types (worst "
            f"{np.max(residuals[types]):.3e}, first at type {grid[types[0]]:g})",
            SolverWarning,
            stacklevel=3,
        )

    return EquilibriumSolution(
        grid=grid,
        bids=bids,
        residuals=residuals,
        derivative_check=float(np.max(residuals / (1.0 + np.abs(target[inverse])))),
        monotone=check_monotone(bids, _stacklevel=4),
        v_floor=float(grid[0]),
        boundary_bid=float(bids[0]),
    )


#: Uniform-price bids with single-unit demand.  The pivotal event is a
#: tie at the bidder's own bid regardless of how many units are sold, so
#: the bid function is the single-unit one evaluated on the same scenario
#: (``SPAScenario`` validates ``units``).
solve_uniform_price = solve_spa


def compare_risk_aversion_spa(scenario):
    """Solve with and without the transform; more risk aversion bids lower.

    Also checks, type by type, that the transformed utility weakly
    prefers the outside option to winning at the baseline bid — the
    one-sided condition behind the ordering.  Both solves and the check
    run on this one scenario, so they share its noise rule.  Raises
    :class:`OrderingViolation` (report attached) on failure.
    """
    uh = scenario._bent_utility()
    base, bent = _solve(scenario, scenario.utility), _solve(scenario, uh)
    grid = base.grid
    won = pivotal_expectation(scenario, grid, base.bids, utility=uh)
    slack = uh.value(scenario.outside.value(grid)) - won

    report = ComparisonReport(
        grid=grid,
        beta=base.bids,
        beta_hat=bent.bids,
        diagnostics={"pivotal_slack": slack},
        extremum="max_d",
        tolerance=10.0 * scenario.root_tol,
    )
    if report.max_d > report.tolerance:
        raise OrderingViolation(
            f"transformed bids rise {report.max_d:.3e} above the baseline",
            report=report,
        )
    if np.min(slack) < -report.tolerance:
        raise OrderingViolation(
            f"transformed utility strictly prefers winning at the baseline bid "
            f"for some type (slack {np.min(slack):.3e})",
            report=report,
        )
    return report
