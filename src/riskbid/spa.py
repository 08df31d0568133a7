"""Second-price and uniform-price equilibria via pivotal indifference.

With single-unit demand, a bidder only changes their outcome when their
bid is pivotal: tied with the price-setting rival bid.  Conditional on
that event the auction price equals the bidder's own bid, so the
equilibrium bid of type v makes them exactly indifferent between
winning at their own bid and the outside option:

    E[ u(W - b) | pivotal ] = u(s(v)),

where W is the (possibly noisy) payoff of winning.  The left side is
strictly decreasing in b, so each type's bid is found by bisection.
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
    DomainError,
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

    Averages u(W - b) over the win-payoff noise at type v; an array v gives
    one value per type.  Raises ``DomainError`` when W - b leaves the domain.
    """
    u = scenario.effective_utility() if utility is None else utility
    offsets, weights = scenario.win_payoff.offsets()
    if isinstance(v, np.ndarray):  # one row of noise atoms per type
        v, b = v[..., None], np.asarray(b)[..., None]
    out = u.value(v + offsets - b) @ weights
    return out if out.ndim else float(out)


def _root_for_type(scenario, u, v, lo, hi, target):
    """Bisect the indifference condition for one type.

    Returns ("ok", bid, residual) on success or ("lo"/"hi", None, None)
    when the bracket end on that side fails its sign check.
    """
    tol = scenario.root_tol
    resid_tol = tol * (1.0 + abs(target))

    def gap(b):
        try:
            return pivotal_expectation(scenario, v, b, utility=u) - target
        except DomainError:
            # the winning surplus fell out of the utility's domain:
            # the bid is certainly too high
            return -np.inf

    f_lo = gap(lo)
    if f_lo < 0.0:
        if abs(f_lo) <= resid_tol:
            return "ok", lo, abs(f_lo)
        return "lo", None, None
    f_hi = gap(hi)
    if f_hi > 0.0:
        if f_hi <= resid_tol:
            return "ok", hi, f_hi
        return "hi", None, None
    if f_lo == 0.0:
        return "ok", lo, 0.0
    if f_hi == 0.0:
        return "ok", hi, 0.0

    a, fa, c = lo, f_lo, hi
    mid, f_mid = a, fa
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (a + c)
        f_mid = gap(mid)
        width_ok = (c - a) <= tol * max(1.0, abs(mid))
        if width_ok and (np.isfinite(f_mid) and abs(f_mid) <= resid_tol):
            return "ok", mid, abs(f_mid)
        if width_ok and not np.isfinite(f_mid):
            # root pinned against the utility's domain edge
            return "ok", a, abs(fa)
        if f_mid > 0.0:
            a, fa = mid, f_mid
        else:
            c = mid
    warnings.warn(
        f"indifference residual {abs(f_mid):.3e} above tolerance at type {v:g}",
        SolverWarning,
        stacklevel=2,
    )
    return "ok", mid, abs(f_mid) if np.isfinite(f_mid) else abs(fa)


def solve_spa(scenario):
    """Solve the pivotal-indifference condition on the reporting grid.

    Returns an :class:`EquilibriumSolution` whose ``residuals`` column
    holds the absolute indifference gap at each solved bid.
    """
    u = scenario.effective_utility()
    grid = scenario.report_grid()
    s_grid = np.asarray(scenario.outside.value(grid), dtype=float)
    if s_grid.ndim == 0:
        s_grid = np.full_like(grid, float(s_grid))

    lo0, hi0 = scenario.bracket if scenario.bracket is not None else scenario.default_bracket()

    bids = np.empty_like(grid)
    residuals = np.empty_like(grid)
    scaled = np.empty_like(grid)
    for i, v in enumerate(grid):
        target = float(u.value(s_grid[i]))
        lo, hi = lo0, hi0
        for attempt in range(_MAX_WIDEN + 1):
            status, bid, resid = _root_for_type(scenario, u, v, lo, hi, target)
            if status == "ok":
                break
            if attempt == _MAX_WIDEN:
                raise BracketError(
                    f"could not bracket the indifference root for type {v:g} "
                    f"after widening to [{lo:g}, {hi:g}]"
                )
            width = hi - lo
            if status == "lo":
                lo -= width
            else:
                hi += width
        bids[i] = bid
        residuals[i] = resid
        scaled[i] = resid / (1.0 + abs(target))

    return EquilibriumSolution(
        grid=grid,
        bids=bids,
        residuals=residuals,
        derivative_check=float(np.max(scaled)),
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
    # a type with any noise atom outside the domain wins at -inf, even
    # when that atom's weight is 0
    offsets, _ = scenario.win_payoff.offsets()
    surplus = grid[:, None] + offsets - base.bids[:, None]
    inside = np.all(uh.domain_mask(surplus), axis=1)
    won = np.full(grid.shape, -np.inf)
    won[inside] = pivotal_expectation(scenario, grid[inside], base.bids[inside], utility=uh)
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
