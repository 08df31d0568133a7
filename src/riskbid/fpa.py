"""First-price equilibrium bids via the hazard-scaled tradeoff ODE.

In a symmetric increasing equilibrium a bidder of type v bids so that
the marginal cost of bidding higher (paying more when winning) exactly
offsets the marginal gain (winning more often).  That balance is the
initial value problem

    beta'(v) = hazard(v) * tradeoff(v - beta(v); v),

where ``hazard`` is the log-derivative of the win probability in the
report at the truthful point and ``tradeoff`` converts the jump from
the outside option to the winning surplus into money units through the
bidder's marginal utility.

The win probability vanishes at the bottom type, so the equation is
singular there.  Integration therefore starts a small offset above the
bottom, with the initial bid obtained from an implicit micro-step: the
starting slope solves slope = hazard * tradeoff evaluated at the bid
the slope itself implies (a root found by ``_numerics.brentq``, scipy's
``brentq`` step for step), clipped so the starting bid keeps strictly
positive surplus.  The attracting character of the singular point makes
the solution insensitive to the exact offset.

The integrator is a private DOP853 stepper that takes the same steps as
scipy's DOP853 method.  Each step attempt evaluates the hazard and the
outside option, which depend on v alone, in one array call at all of
its stage and dense-output abscissae; each stage then evaluates the
utilities' tradeoffs on Python floats.

One integration also solves the equation for several utilities at once
as one ODE system: each utility keeps its own tradeoff, start bid and
checks.  ``solve_fpa`` is the one-utility case;
``compare_risk_aversion_fpa`` integrates the baseline and transformed
schedules together.
"""

import functools
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _dop853, _numerics
from .errors import (
    ConfigError,
    DomainError,
    NonmonotoneSolution,
    NonpositiveSurplus,
    OrderingViolation,
    SingularHazard,
    SolverWarning,
    _float_array,
    finite_number,
    integer_count,
    positive_number,
)
from .outcomes import ConstantOutside, OutsideOption
from .utility import LinearUtility, Utility, effective_utility
from .values import ValueModel

#: default relative start offset above the bottom type
START_OFFSET_FACTOR = 1e-6
#: boundary-bid tolerance when validating configurations
_BOUNDARY_TOL = 1e-9


def marginal_tradeoff(utility, x, s_v):
    """(u(x) - u(s)) / u'(x): money value of winning at surplus x.

    ``x`` and ``s_v`` may be scalars (returns a float) or arrays that
    broadcast together (returns an array).  Requires strictly positive
    surplus over the outside option s_v everywhere; ``NonpositiveSurplus``
    names the first entry without it.
    """
    xs, ss = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(s_v, dtype=float))
    bad = ~(xs > ss)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NonpositiveSurplus(
            f"{f'entry {k}: ' if xs.ndim else ''}winning surplus {xs.flat[k]:g} "
            f"does not exceed the outside option {ss.flat[k]:g}"
        )
    return _tradeoff_raw(utility, x, s_v)


def _tradeoff_raw(utility, x, s_v, value_s=None):
    """The tradeoff without the surplus check; ``value_s`` evaluates u at
    s_v in place of ``utility.value`` (the ODE right-hand side memoizes it).
    u(x) and u'(x) come from one evaluation of each layer of a composition.
    """
    ux, dux = utility._value_deriv(x)
    return (ux - (value_s or utility.value)(s_v)) / dux


def closed_form_crra_uniform(n, rho):
    """Linear-bid coefficient for IID uniform values, zero outside option.

    With constant relative risk aversion rho < 1 the equilibrium bid is
    beta(v) = (n - 1) / (n - rho) * v.
    """
    if n < 2:
        raise ConfigError(f"need at least two bidders, got {n}")
    if not 0 <= rho < 1:
        raise ConfigError(f"closed form needs 0 <= rho < 1, got {rho}")
    return (n - 1) / (n - rho)


@dataclass(frozen=True)
class _Scenario:
    """What both formats share: the environment, a utility with an optional
    concave ``transform`` on top (solvers optimize the composition) and the
    grid check.  Each subclass declares ``grid`` among its own knobs.
    """

    values: ValueModel
    outside: OutsideOption = field(default_factory=ConstantOutside)
    utility: Utility = field(default_factory=LinearUtility)
    transform: Optional[Utility] = None

    def __post_init__(self):
        integer_count(self.grid, "grid", 64)

    def effective_utility(self):
        return effective_utility(self.utility, self.transform)

    def _bent_utility(self):
        """The effective utility of a comparison, which needs a transform."""
        if self.transform is None:
            raise ConfigError("comparison needs a transform on the scenario")
        return self.effective_utility()


@dataclass(frozen=True)
class FPAScenario(_Scenario):
    """A first-price environment plus solver knobs.

    ``boundary_bid`` defaults to zero surplus at the bottom type.
    """

    boundary_bid: Optional[float] = None
    grid: int = 257
    ode_tol: float = 1e-8
    start_offset: Optional[float] = None

    def __post_init__(self):
        super().__post_init__()
        positive_number(self.ode_tol, "ode_tol")
        lo, hi = self.values.support
        span = hi - lo
        if self.start_offset is None:
            object.__setattr__(self, "start_offset", START_OFFSET_FACTOR * span)
        if not 0 < self.start_offset < span / 2:
            raise ConfigError(
                f"start offset must be in (0, {span / 2:g}), got {self.start_offset}"
            )
        zero_surplus = lo - float(self.outside.value(lo))
        if self.boundary_bid is None:
            object.__setattr__(self, "boundary_bid", zero_surplus)
        finite_number(self.boundary_bid, "boundary_bid")
        if self.boundary_bid > zero_surplus + _BOUNDARY_TOL:
            raise ConfigError(
                f"boundary bid {self.boundary_bid:g} exceeds the zero-surplus "
                f"bid {zero_surplus:g} at the bottom type"
            )
        interior = self.report_grid()[1:]
        room = interior - np.asarray(self.outside.value(interior)) - self.boundary_bid
        if np.any(room <= 0):
            raise ConfigError(
                "no undominated bids above the boundary bid for some types; "
                "lower the boundary bid or the outside option"
            )

    @property
    def span(self):
        return self.values.span

    @property
    def start(self):
        return self.values.lo + self.start_offset

    def report_grid(self):
        return np.linspace(self.start, self.values.hi, self.grid)


@dataclass
class EquilibriumSolution:
    """A solved bid function on a reporting grid.

    ``residuals`` holds the per-point consistency check (ODE defect for
    first price, indifference residual for second price) and
    ``derivative_check`` its normalized maximum.

    Every schedule, fresh or rebuilt by :meth:`from_grid`, evaluates
    scipy's not-a-knot ``CubicSpline`` of its grid bit for bit (fitted on
    first use by ``_numerics.not_a_knot``; two points give a line, three
    a parabola), with each point's piece located by index arithmetic on
    an evenly spaced grid and by ``searchsorted`` on any other.
    """

    grid: np.ndarray
    bids: np.ndarray
    residuals: np.ndarray
    derivative_check: float
    monotone: bool
    v_floor: float
    boundary_bid: float

    @functools.cached_property
    def _spline(self):
        return _IndexedCubic(self.grid, self.bids)

    def bid_at(self, t):
        """Bid of a type reporting t, interpolating between grid points.

        Between the first and last grid points the bid is the solution's
        spline (see the class docstring).  Below the first grid point the
        bid ramps linearly down to the boundary bid at ``v_floor``; above
        the last it stays flat.
        """
        t = np.asarray(t, dtype=float)
        x = t.ravel()
        if not x.size:
            return np.empty_like(t)
        g0, g1 = self.grid[0], self.grid[-1]
        # the spline acts pointwise, so clipping leaves in-range points
        # as they are; the points clipped are overwritten below
        out = self._spline(np.minimum(np.maximum(x, g0), g1))
        below = x < g0
        if below.any():
            if g0 > self.v_floor:
                # x < g0 keeps frac <= 1 after rounding too
                frac = np.maximum((x[below] - self.v_floor) / (g0 - self.v_floor), 0.0)
                out[below] = self.boundary_bid + frac * (self.bids[0] - self.boundary_bid)
            else:
                out[below] = self.bids[0]
        above = x > g1
        if above.any():
            out[above] = self.bids[-1]
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    @classmethod
    def from_grid(cls, grid, bids, residuals=None, v_floor=None, boundary_bid=None):
        """Rebuild a solution from tabulated values (e.g. a CSV round trip).

        Raises ``ConfigError``, naming a column that holds bools, strings
        or objects, or else the first offending row (counted from 0), unless
        the columns have equal lengths of at least two rows, every entry is
        finite and the grid strictly increases by steps whose cubes are
        finite.
        ``derivative_check`` is the unscaled maximum |residual| over all
        points, not the solver's scaled maximum over interior points.
        """
        grid = _float_array(grid, "solution column v")
        bids = _float_array(bids, "solution column beta")
        residuals = (np.zeros_like(grid) if residuals is None
                     else _float_array(residuals, "solution column residual"))
        _check_table(grid, bids, residuals)
        diffs = np.diff(bids)
        return cls(
            grid=grid,
            bids=bids,
            residuals=residuals,
            derivative_check=float(np.max(np.abs(residuals))),
            monotone=bool(np.all(diffs > 0)),
            v_floor=float(grid[0]) if v_floor is None else finite_number(v_floor, "v_floor"),
            boundary_bid=(float(bids[0]) if boundary_bid is None
                          else finite_number(boundary_bid, "boundary_bid")),
        )


def _check_table(grid, bids, residuals):
    """Reject a solution table that no interpolant can be built on."""
    if not (grid.ndim == 1 and bids.shape == grid.shape == residuals.shape):
        raise ConfigError(
            f"solution columns differ in shape: v {grid.shape}, "
            f"beta {bids.shape}, residual {residuals.shape}"
        )
    if len(grid) < 2:
        raise ConfigError(f"a solution table needs at least 2 rows, got {len(grid)}")
    for name, col in (("v", grid), ("beta", bids), ("residual", residuals)):
        bad = np.flatnonzero(~np.isfinite(col))
        if bad.size:
            raise ConfigError(f"solution row {bad[0]}: {name} = {col[bad[0]]} is not finite")
    with np.errstate(over="ignore"):  # the spline's cubic term cubes each step
        steps = np.diff(grid)
        bad = np.flatnonzero(~((steps > 0) & np.isfinite(steps ** 3)))
    if bad.size:
        i = bad[0] + 1
        why = (f"does not exceed v = {float(grid[i - 1])!r} of row {i - 1}; the grid must "
               "strictly increase" if steps[i - 1] <= 0 else f"lies {steps[i - 1]:g} above "
               f"row {i - 1}; the spline cubes that spacing, so rows must lie under 5.6e+102 apart")
        raise ConfigError(f"solution row {i}: v = {float(grid[i])!r} {why}")


#: points per evaluation block of ``_IndexedCubic``; a block's temporaries
#: stay in cache
_BLOCK = 1 << 15


def _in_slabs(f, x, step):
    """f(x) for an f that maps each row of x's leading axis to one row, in slabs
    of ``step`` rows, the last taking the rest; x under two slabs, or 0-d, goes
    to f whole."""
    k = len(x) // step if x.ndim else 0
    if k < 2:
        return f(x)
    out = np.empty_like(x)
    for i in range(k):
        s = slice(i * step, None if i == k - 1 else (i + 1) * step)
        out[s] = f(x[s])
    return out


class _IndexedCubic:
    """scipy's ``CubicSpline(grid, bids)``, evaluated without its binary search.

    ``_numerics.not_a_knot`` fits scipy's not-a-knot coefficients in the
    package (a 3-row grid alone imports scipy).  A point t in [grid[0],
    grid[-1]] lies on piece j with grid[j] <= t < grid[j+1], the last
    piece closed, as scipy locates it.  When every knot lies within h/4
    of an even spacing h (any ``linspace``), j is the truncated index
    (t - grid[0]) / h, off by at most one, and one fix-up step each way
    makes it exact (de Boor, *A Practical Guide to Splines*, ch. VII);
    any other grid takes ``searchsorted``.  The value is summed in
    scipy's order, c3 + c2*s + c1*s^2 + c0*s^3 with the powers built by
    repeated products (not Horner's rule), so it equals scipy's bit for
    bit.  Points must lie in [grid[0], grid[-1]] (``bid_at`` handles the
    rest); a nan stays nan.
    """

    def __init__(self, grid, bids):
        c = _numerics.not_a_knot(grid, bids)
        # scipy starts its sum at 0.0, which turns a -0.0 constant term into 0.0
        self.c0, self.c1, self.c2, self.c3 = c[0], c[1], c[2], c[3] + 0.0
        n = len(grid)
        self.grid = grid
        self.last = n - 2
        # upper knot of each piece; inf closes the last one
        self.upper = np.append(grid[1:-1], np.inf)
        self.scale = (n - 1) / (grid[-1] - grid[0])
        even = np.linspace(grid[0], grid[-1], n)
        self.indexed = bool(np.max(np.abs(grid - even)) * self.scale <= 0.25)

    def _piece(self, t):
        if not self.indexed:
            return np.minimum(np.searchsorted(self.grid, t, side="right") - 1, self.last)
        # t >= grid[0] keeps q >= 0; fmin sends a nan to the last piece
        j = np.fmin((t - self.grid[0]) * self.scale, self.last).astype(np.intp)
        j -= t < self.grid[j]
        j += t >= self.upper[j]
        return j

    def _block(self, t):
        j = self._piece(t)
        s = t - self.grid[j]
        z = s * s
        return self.c3[j] + self.c2[j] * s + self.c1[j] * z + self.c0[j] * (z * s)

    def __call__(self, t):
        return _in_slabs(self._block, t, _BLOCK)


def _interpolant_slope(dense, t, span):
    """Derivative of each component of the integrator's dense output at
    each point of t, shape (components, len(t)).

    The dense output is piecewise polynomial between accepted steps;
    one ``searchsorted`` picks each point's piece, and a central
    difference kept inside that piece avoids both interpolation seams
    and any circular use of the vector field.
    """
    ts = dense.ts
    j = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2)
    lo, hi = ts[j], ts[j + 1]
    h = np.minimum(1e-5 * span, (hi - lo) / 8.0)
    c = np.minimum(np.maximum(t, lo + h), hi - h)
    return (dense(c + h) - dense(c - h)) / (2.0 * h)


def check_monotone(bids, _stacklevel=3):
    """Whether solved bids strictly increase along the grid.

    Raises ``NonmonotoneSolution`` when the bids fail to increase over
    more than two consecutive grid cells; a shorter wobble only warns
    with a ``SolverWarning`` attributed to the caller of the solver
    (``_stacklevel`` frames up from the warning call).
    """
    diffs = np.diff(bids)
    monotone = bool(np.all(diffs > 0))
    if not monotone:
        run = longest = 0
        for d in diffs:
            run = run + 1 if d <= 0 else 0
            longest = max(longest, run)
        if longest > 2:
            raise NonmonotoneSolution(
                f"bids decrease over {longest} consecutive grid cells"
            )
        warnings.warn(
            "solved bids are not strictly increasing everywhere",
            SolverWarning,
            stacklevel=_stacklevel,
        )
    return monotone


def _check_outside(u, s):
    """Raise ``DomainError``, before any warning, naming u and the top level in s
    where u is not finite inside its domain, as where an outer CARA overflows.  u
    rises on a half-line, so that level tells an overflow from a domain breach,
    which is left to raise where a solver meets it."""
    with np.errstate(over="ignore"):
        bad = s[~np.isfinite(u.masked_value(s))]
        try:
            finite = bad.size == 0 or np.isfinite(u.value(bad.max()))
        except DomainError:
            finite = True
    if not finite:
        raise DomainError(f"{u!r} is not finite at the outside option s = {bad.max():g}")


def _start_bid(u, lam0, v0, s0, b0, eps, cap):
    """The bid at the regularized start from the implicit micro-step."""

    def slope_gap(slope):
        x = v0 - (b0 + eps * slope)
        return slope - lam0 * _tradeoff_raw(u, x, s0)

    slope_hi = cap * (1.0 - 1e-3) / eps
    if slope_gap(slope_hi) <= 0.0:
        # hazard too strong for the implicit step: clip to the surplus cap
        return b0 + eps * slope_hi
    return b0 + eps * _numerics.brentq(slope_gap, 0.0, slope_hi, 200)


def _solve_joint(scenario, utilities):
    """One equilibrium per utility, all integrated as one ODE system.

    Component i solves beta_i' = hazard(v) * tradeoff_i(v - beta_i(v))
    from its own start bid.  Each step attempt calls ``hazard`` and the
    outside option once, on the 15 abscissae of its stages and dense
    output; each stage then evaluates every component's tradeoff on
    floats.  Each component keeps its own clamp, start, zero-surplus
    check, ``check_monotone`` and residuals; one array ``hazard`` call
    on the grid serves every residual check.  The DOP853 error norm is
    an RMS over the components, so with several utilities a component's
    steps can be up to 2^(1/16) times longer than in its own solve; with
    one utility this is exactly the one-component solve.
    """
    vm = scenario.values
    outside = scenario.outside
    lo, hi = vm.support
    span = vm.span
    eps = scenario.start_offset
    v0 = scenario.start
    b0 = scenario.boundary_bid

    grid = scenario.report_grid()
    s_grid = np.asarray(outside.value(grid))
    for u in utilities:
        _check_outside(u, s_grid)
    s0 = float(outside.value(v0))
    cap = v0 - s0 - b0
    if cap <= 0:
        raise SingularHazard(
            "no room for an undominated bid at the regularized start"
        )
    lam0 = vm.hazard(v0)
    y0 = [_start_bid(u, lam0, v0, s0, b0, eps, cap) for u in utilities]

    # a constant outside option repeats s_v at every stage: one-entry memos
    memos = [(u, functools.lru_cache(maxsize=1)(u.value)) for u in utilities]

    def rhs(v, lam, s_v, y):
        # only transient trial stages reach a clamp (x <= s_v); a flat
        # field pushes them back toward positive surplus
        return [0.0 if (x := v - b) <= s_v else lam * _tradeoff_raw(u, x, s_v, value_s)
                for (u, value_s), b in zip(memos, y.tolist())]

    def stages(vs):
        lams, s_vs = vm.hazard(vs).tolist(), np.asarray(outside.value(vs), dtype=float).tolist()
        vs = vs.tolist()
        return lambda i, y: rhs(vs[i], lams[i], s_vs[i], y)

    tol_int = max(5e-14, min(scenario.ode_tol, 1.0) * 1e-3)
    dense = _dop853.integrate(
        stages, v0, y0, rhs(v0, lam0, s0, np.asarray(y0)), hi,
        first_step=min(eps / 4.0, span / 1000.0), tol=tol_int,
    )

    all_bids = dense(grid)
    if np.any(grid - s_grid - all_bids <= 0):
        raise SingularHazard("bid function reached the zero-surplus frontier")

    # a warning names the caller of solve_fpa or compare_risk_aversion_fpa;
    # a plain loop, since a comprehension is a frame of its own before 3.12
    monotone = []
    for bids in all_bids:
        monotone.append(check_monotone(bids, _stacklevel=4))

    lam = vm.hazard(grid)
    slopes = _interpolant_slope(dense, grid, span)
    out = []
    for u, bids, slope, mono in zip(utilities, all_bids, slopes, monotone):
        field_val = lam * _tradeoff_raw(u, grid - bids, s_grid)
        residuals = np.abs(slope - field_val)
        scaled = residuals / (1.0 + np.abs(field_val))
        interior = scaled[1:-1] if len(grid) > 2 else scaled
        out.append(EquilibriumSolution(
            grid=grid,
            bids=bids,
            residuals=residuals,
            derivative_check=float(np.max(interior)),
            monotone=mono,
            v_floor=lo,
            boundary_bid=b0,
        ))
    return out


def solve_fpa(scenario):
    """Solve the first-price ODE for the scenario's effective utility.

    Returns an :class:`EquilibriumSolution` on the scenario's reporting
    grid.  Raises ``SingularHazard`` when the boundary cannot be resolved,
    ``DomainError`` when the utility domain is breached during integration
    or u is not finite at an outside-option level of the grid, and
    ``NonmonotoneSolution`` when the bids decrease over more than two cells.

    Each step attempt of the integrator evaluates the hazard and the
    outside option in one array call; each stage checks the utility
    domain and the surplus on floats, and u at the outside option is
    memoized for a repeated s(v).  The residual check is one array pass
    over the grid: the vector field at the solved bids (one ``hazard``
    call on the whole grid) against the slope of the dense output.
    ``derivative_check`` is the largest interior residual scaled by
    1 + |field|.
    """
    return _solve_joint(scenario, [scenario.effective_utility()])[0]


@dataclass
class ComparisonReport:
    """Bid functions before and after a concave bend of the utility, with
    the extremum of d the ordering was judged on and its tolerance."""

    grid: np.ndarray
    beta: np.ndarray
    beta_hat: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    extremum: Optional[str] = None
    tolerance: Optional[float] = None

    @property
    def d(self):
        return self.beta_hat - self.beta

    @property
    def min_d(self):
        return float(np.min(self.d))

    @property
    def max_d(self):
        return float(np.max(self.d))


def compare_risk_aversion_fpa(scenario):
    """Solve with and without the transform; more risk aversion bids higher.

    Both schedules come from one joint integration, so each step
    attempt evaluates the hazard once for both.  They agree with two separate
    :func:`solve_fpa` calls to the ODE tolerance, not bit for bit: the
    shared step sizes follow both components' errors.

    Raises :class:`OrderingViolation` (with the report attached) when
    the transformed bids fall below the baseline beyond 10x the ODE
    tolerance.
    """
    u = scenario.utility
    uh = scenario._bent_utility()
    base, bent = _solve_joint(scenario, [u, uh])
    grid = base.grid
    s_grid = np.asarray(scenario.outside.value(grid))
    m_base = _tradeoff_raw(u, grid - base.bids, s_grid)
    m_bent = _tradeoff_raw(uh, grid - bent.bids, s_grid)
    report = ComparisonReport(
        grid=grid,
        beta=base.bids,
        beta_hat=bent.bids,
        diagnostics={
            "tradeoff_base": m_base,
            "tradeoff_bent": m_bent,
            "tradeoff_gap": m_bent - m_base,
        },
        extremum="min_d",
        tolerance=10.0 * scenario.ode_tol,
    )
    if report.min_d < -report.tolerance:
        raise OrderingViolation(
            f"transformed bids fall {-report.min_d:.3e} below the baseline",
            report=report,
        )
    return report
