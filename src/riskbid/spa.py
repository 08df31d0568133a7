"""Second-price and uniform-price equilibria via pivotal indifference.

With single-unit demand, a bidder only changes their outcome when their
bid is pivotal: tied with the price-setting rival bid.  Conditional on
that event the auction price equals the bidder's own bid, so the
equilibrium bid of type v makes them exactly indifferent between
winning at their own bid and the outside option:

    E[ u(W - b) | pivotal ] = u(s(v)),

where W is the (possibly noisy) payoff of winning.  The left side is
strictly decreasing in b, so the bids are found by bisection: one array
bisection over all grid types, each narrowing its own bracket, with a
(types x noise atoms) surplus matrix evaluated at every step.
The same logic covers the uniform-price auction selling several
identical units at the highest losing bid: the pivotal event is again a
tie at the bidder's own bid, so the bid function coincides with the
single-unit one.
"""

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    BracketError,
    ConfigError,
    OrderingViolation,
    SolverWarning,
)
from .fpa import ComparisonReport, EquilibriumSolution, check_monotone
from .outcomes import ConstantOutside, DeterministicWin, OutsideOption, WinPayoff
from .utility import LinearUtility, Utility, effective_utility
from .values import ValueModel

_MAX_BISECT = 200
_MAX_WIDEN = 4


@dataclass
class SPAScenario:
    """A second-price (or uniform-price) environment plus solver knobs.

    ``units`` is the number of identical units sold at the highest
    losing bid; one unit is the ordinary second-price auction.
    ``bracket`` optionally overrides the automatic root bracket.
    """

    values: ValueModel
    outside: OutsideOption = field(default_factory=ConstantOutside)
    utility: Utility = field(default_factory=LinearUtility)
    transform: Optional[Utility] = None
    win_payoff: WinPayoff = field(default_factory=DeterministicWin)
    units: int = 1
    grid: int = 257
    root_tol: float = 1e-10
    bracket: Optional[tuple] = None

    def __post_init__(self):
        if not isinstance(self.units, (int, np.integer)) or self.units < 1:
            raise ConfigError(f"units must be a positive integer, got {self.units}")
        if self.units >= 2:
            n = self.values.n
            if n < 3:
                raise ConfigError(
                    f"selling {self.units} units needs at least 3 bidders, got {n}"
                )
            if self.units > n - 1:
                raise ConfigError(
                    f"cannot sell {self.units} units to {n} bidders at the "
                    "highest losing bid; need units <= bidders - 1"
                )
        if not isinstance(self.grid, (int, np.integer)) or self.grid < 64:
            raise ConfigError(f"grid must be an integer >= 64, got {self.grid}")
        if not self.root_tol > 0:
            raise ConfigError(f"root_tol must be > 0, got {self.root_tol}")
        if self.bracket is not None:
            lo, hi = self.bracket
            if not lo < hi:
                raise ConfigError(f"bracket must satisfy lo < hi, got {self.bracket}")
            self.bracket = (float(lo), float(hi))

    def effective_utility(self):
        return effective_utility(self.utility, self.transform)

    def report_grid(self):
        lo, hi = self.values.support
        return np.linspace(lo, hi, self.grid)

    def default_bracket(self):
        lo, hi = self.values.support
        probe = np.linspace(lo, hi, 257)
        s_abs = float(np.max(np.abs(np.asarray(self.outside.value(probe)))))
        pad = (
            s_abs
            + abs(self.win_payoff.mean_offset())
            + 1.5 * self.win_payoff.noise_span()
            + 1e-9 * max(1.0, hi - lo)
        )
        return (lo - pad, hi + pad)


def pivotal_expectation(scenario, v, b, utility=None):
    """Expected utility of winning at price b, conditional on being pivotal.

    Averages u(W - b) over the win-payoff noise at type v.  A scalar v
    raises ``DomainError`` when W - b leaves the domain.  An array v gives
    one value per type from a single ``masked_value`` pass over the
    (types x noise atoms) surplus: ``-inf`` for a type with any noise atom
    outside the domain (even at weight 0), as that bid is certainly too
    high.
    """
    u = scenario.effective_utility() if utility is None else utility
    offsets, weights = scenario.win_payoff.offsets()
    if not isinstance(v, np.ndarray):
        out = u.value(v + offsets - b) @ weights
        return out if out.ndim else float(out)
    vals = u.masked_value(v[..., None] + offsets - np.asarray(b)[..., None])
    inside = np.all(vals > -np.inf, axis=-1)
    out = np.full(inside.shape, -np.inf)
    out[inside] = vals[inside] @ weights
    return out if out.ndim else float(out)


def solve_spa(scenario):
    """Solve the pivotal-indifference condition on the reporting grid.

    All grid types are bisected together, each inside its own bracket:
    a type whose bracket end fails its sign check has that end widened
    (up to ``_MAX_WIDEN`` times), and every step evaluates the still
    active types in one ``pivotal_expectation`` call.  Returns an
    :class:`EquilibriumSolution` whose ``residuals`` column holds the
    absolute indifference gap at each solved bid.
    """
    u = scenario.effective_utility()
    grid = scenario.report_grid()
    target = u.value(np.broadcast_to(scenario.outside.value(grid), grid.shape))
    tol = scenario.root_tol
    resid_tol = tol * (1.0 + np.abs(target))

    def gap(rows, b):
        return pivotal_expectation(scenario, grid[rows], b, utility=u) - target[rows]

    lo0, hi0 = scenario.bracket if scenario.bracket is not None else scenario.default_bracket()
    lo, hi = np.full_like(grid, lo0), np.full_like(grid, hi0)
    f_lo, bids, residuals = np.empty_like(grid), np.empty_like(grid), np.empty_like(grid)
    todo, inner = np.arange(grid.size), []
    for attempt in range(_MAX_WIDEN + 1):
        fl = f_lo[todo] = gap(todo, lo[todo])
        neg = fl < 0.0
        fh = np.full_like(fl, np.nan)  # the hi end is only tried when lo passes
        fh[~neg] = gap(todo[~neg], hi[todo[~neg]])
        pos = fh > 0.0
        # the scalar checks in order: a failing end is widened, a small or
        # exactly zero gap at an end is the bid, the rest are bisected
        bad_lo = neg & ~(np.abs(fl) <= resid_tol[todo])
        bad_hi = pos & ~(fh <= resid_tol[todo])
        at_lo = (neg & ~bad_lo) | (~pos & (fl == 0.0))
        at_hi = (pos & ~bad_hi) | ((fh == 0.0) & (fl != 0.0))
        for end, f, at in ((lo, fl, at_lo), (hi, fh, at_hi)):
            bids[todo[at]], residuals[todo[at]] = end[todo[at]], np.abs(f[at])
        fail = bad_lo | bad_hi
        inner.append(todo[~(fail | at_lo | at_hi)])
        if not np.any(fail):
            break
        if attempt == _MAX_WIDEN:
            i = todo[fail][0]
            raise BracketError(
                f"could not bracket the indifference root for type {grid[i]:g} "
                f"after widening to [{lo[i]:g}, {hi[i]:g}]"
            )
        width = hi - lo
        lo[todo[bad_lo]] -= width[todo[bad_lo]]
        hi[todo[bad_hi]] += width[todo[bad_hi]]
        todo = todo[fail]

    rows = np.sort(np.concatenate(inner))
    a, fa, c = lo[rows], f_lo[rows], hi[rows]
    for _ in range(_MAX_BISECT):
        if rows.size == 0:
            break
        mid = 0.5 * (a + c)
        f_mid = gap(rows, mid)
        width_ok = (c - a) <= tol * np.maximum(1.0, np.abs(mid))
        finite = np.isfinite(f_mid)
        hit = width_ok & finite & (np.abs(f_mid) <= resid_tol[rows])
        pin = width_ok & ~finite  # root pinned against the utility's domain edge
        bids[rows[hit]], residuals[rows[hit]] = mid[hit], np.abs(f_mid[hit])
        bids[rows[pin]], residuals[rows[pin]] = a[pin], np.abs(fa[pin])
        up = f_mid > 0.0
        a, fa, c = np.where(up, mid, a), np.where(up, f_mid, fa), np.where(up, c, mid)
        keep = ~(hit | pin)
        rows, a, fa, c, mid, f_mid = rows[keep], a[keep], fa[keep], c[keep], mid[keep], f_mid[keep]
    if rows.size:
        bids[rows] = mid
        residuals[rows] = np.where(np.isfinite(f_mid), np.abs(f_mid), np.abs(fa))
        warnings.warn(
            f"indifference residual above tolerance after {_MAX_BISECT} bisection "
            f"steps at {rows.size} of {grid.size} types (worst "
            f"{np.max(residuals[rows]):.3e}, first at type {grid[rows[0]]:g})",
            SolverWarning,
            stacklevel=2,
        )

    return EquilibriumSolution(
        grid=grid,
        bids=bids,
        residuals=residuals,
        derivative_check=float(np.max(residuals / (1.0 + np.abs(target)))),
        monotone=check_monotone(bids),
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
    one-sided condition behind the ordering.  Raises
    :class:`OrderingViolation` (report attached) on failure.
    """
    if scenario.transform is None:
        raise ConfigError("comparison needs a transform on the scenario")
    base = solve_spa(replace(scenario, transform=None))
    bent = solve_spa(scenario)
    grid = base.grid
    uh = scenario.effective_utility()
    won = pivotal_expectation(scenario, grid, base.bids, utility=uh)
    slack = uh.value(scenario.outside.value(grid)) - won

    report = ComparisonReport(
        grid=grid,
        beta=base.bids,
        beta_hat=bent.bids,
        diagnostics={"pivotal_slack": slack},
    )
    tol = 10.0 * scenario.root_tol
    if report.max_d > tol:
        raise OrderingViolation(
            f"transformed bids rise {report.max_d:.3e} above the baseline",
            report=report,
        )
    if np.min(slack) < -tol:
        raise OrderingViolation(
            f"transformed utility strictly prefers winning at the baseline bid "
            f"for some type (slack {np.min(slack):.3e})",
            report=report,
        )
    return report
