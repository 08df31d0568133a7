"""Comparing two actions by robustness to increasing risk aversion.

Fix two actions a and b with state-contingent payoffs.  Say a is
*safer* than b when every expected-utility maximizer who weakly prefers
a keeps preferring a after any concave transform of her utility, i.e.
under any increase in risk aversion.  With finitely many states this
has a sharp characterization: split the states into those where a pays
strictly more (call it A), strictly less (B), and the same (C); then a
is safer than b if and only if for every pair (up, dn) in A x B

    b[dn] >= a[up]   and   a[dn] >= b[up],

meaning all of a's payoffs on A u B sit inside the interval spanned by
b's payoffs there.  The comparison is only meaningful when neither
action dominates the other.

The second half of the module specializes the payoffs to auctions: a
pair of ordered bids facing a per-state clearing threshold, with the
winner paying her own bid (first price) or the threshold (second
price).  For first price, two simple payoff conditions are sufficient
for the higher bid to be safer; for second price with a known outside
option the lower bid is always safer.
"""

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple, Optional

import numpy as np

from .config import _check_keys
from .errors import (
    BidOrderError,
    ConfigError,
    DominancePrecondition,
    IdenticalActions,
    InvariantViolation,
    OutsideOptionNotConstant,
    PreconditionError,
    finite_number,
    finite_numbers,
)
from .utility import PiecewiseLinearUtility

#: payoffs closer than this are treated as equal
TAU_EQ = 1e-9
#: slack when verifying preserved preference in probes
PROBE_SLACK = 1e-12
#: slope of a witness transform below its kink (slope 1 above it)
WITNESS_RATIO = 100.0
#: witness beliefs sit this far past the indifference belief
_WITNESS_OFFSETS = np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25])


class Dominance(enum.Enum):
    NONE = "none"
    A_DOMINATES_B = "a_dominates_b"
    B_DOMINATES_A = "b_dominates_a"


@dataclass(frozen=True)
class StateRecord:
    """One auction state: clearing threshold, good's value, outside option.

    ``tie_high`` / ``tie_low`` say whether the high (resp. low) bid gets
    the good when it exactly ties the threshold.
    """

    gamma: float
    value: float
    outside: float
    tie_high: bool = False
    tie_low: bool = False


class FiniteDecisionProblem:
    """Two payoff vectors over a common finite state space."""

    def __init__(self, a, b):
        self.a = finite_numbers(a, "payoffs a")
        self.b = finite_numbers(b, "payoffs b")
        if self.a.shape != self.b.shape:
            raise ConfigError("payoff vectors must have equal length")

    @property
    def n_states(self):
        return self.a.size

    def __repr__(self):
        return f"FiniteDecisionProblem(a={self.a!r}, b={self.b!r})"


@dataclass(frozen=True)
class PartitionABC:
    """State indices where a pays strictly more / strictly less / the same."""

    a_better: np.ndarray
    b_better: np.ndarray
    equal: np.ndarray


@dataclass(frozen=True)
class AuctionPartition:
    """States split by what a high/low bid pair wins: both, only high, neither."""

    both: np.ndarray
    pivotal: np.ndarray
    neither: np.ndarray


@dataclass(frozen=True)
class SafetyVerdict:
    safer: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class ProbeReport:
    holds: bool
    counterexample: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FpaSafetyReport:
    verdict: SafetyVerdict
    winning_cannot_hurt: bool
    low_bids_better_winners: bool
    partition: PartitionABC
    auction_partition: AuctionPartition
    problem: FiniteDecisionProblem = field(repr=False)


@dataclass(frozen=True)
class SpaSafetyReport:
    verdict: SafetyVerdict
    auction_partition: AuctionPartition
    outside_constant: bool
    problem: FiniteDecisionProblem = field(repr=False)


# ---------------------------------------------------------------------------
# generic finite-state safety


def partition_abc(problem):
    diff = problem.a - problem.b
    idx = np.arange(problem.n_states)
    return PartitionABC(
        a_better=idx[diff > TAU_EQ],
        b_better=idx[diff < -TAU_EQ],
        equal=idx[np.abs(diff) <= TAU_EQ],
    )


def _dominance(part):
    has_a = part.a_better.size > 0
    has_b = part.b_better.size > 0
    if not has_a and not has_b:
        raise IdenticalActions("the two actions pay the same in every state")
    if has_a and not has_b:
        return Dominance.A_DOMINATES_B
    if has_b and not has_a:
        return Dominance.B_DOMINATES_A
    return Dominance.NONE


def check_dominance(problem):
    """Classify the pair; raises IdenticalActions when the two coincide."""
    return _dominance(partition_abc(problem))


def _cross_margins(problem):
    # margins[i, j] > TAU_EQ: the cross pair (up[i], dn[j]) breaks one of
    # b[dn] >= a[up], a[dn] >= b[up]; both index lists ascend
    part = partition_abc(problem)
    a, b = problem.a, problem.b
    up, dn = part.a_better[:, None], part.b_better[None, :]
    return part, np.maximum(a[up] - b[dn], b[up] - a[dn])


def _nondominated_margins(problem):
    part, margins = _cross_margins(problem)
    if _dominance(part) is not Dominance.NONE:
        raise DominancePrecondition("safety is undefined for dominated pairs")
    return part, margins


def is_safer(problem):
    """Is action a safer than action b?  Requires a non-dominated pair.

    Returns a verdict; when the answer is no, ``witness`` is the
    lexicographically first pair (state where a wins, state where b
    wins) whose cross comparison fails.
    """
    part, margins = _nondominated_margins(problem)
    fails = margins > TAU_EQ
    if not np.any(fails):
        return SafetyVerdict(safer=True)
    i, j = np.unravel_index(np.argmax(fails), fails.shape)
    return SafetyVerdict(
        safer=False, witness=(int(part.a_better[i]), int(part.b_better[j]))
    )


def violation_margin(problem):
    """How badly the worst cross-pair inequality fails (<= 0 when safer)."""
    margins = _cross_margins(problem)[1]
    return float(np.max(margins)) if margins.size else 0.0


def belief_inclusion_probe(problem, base_utility, transform, beliefs):
    """Check preference preservation on explicit beliefs.

    For every belief that weakly prefers a under ``base_utility``, the
    transformed utility must still weakly prefer a (up to ``PROBE_SLACK``
    of floating-point room).  Returns the first offending belief if any.
    """
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    if beliefs.shape[1] != problem.n_states:
        raise ConfigError("belief dimension does not match the state space")
    # written so that a NaN or an inf fails them
    if not np.all(beliefs >= -1e-12):
        raise ConfigError("beliefs must be finite and nonnegative")
    if not np.all(np.abs(beliefs.sum(axis=1) - 1.0) <= 1e-9):
        raise ConfigError("beliefs must be finite and sum to one")

    ua, ub = base_utility.value(problem.a), base_utility.value(problem.b)
    ta, tb = transform.value(ua), transform.value(ub)
    prefers_a = beliefs @ (ua - ub) >= 0.0
    keeps_a = beliefs @ (ta - tb) >= -PROBE_SLACK
    bad = prefers_a & ~keeps_a
    if not np.any(bad):
        return ProbeReport(holds=True)
    return ProbeReport(holds=False, counterexample=beliefs[int(np.argmax(bad))])


def sample_beliefs(n_states, count, rng):
    """Simplex vertices, edge midpoints, then Dirichlet(1,..,1) samples."""
    i, j = np.triu_indices(n_states, 1)
    mids = np.zeros((i.size, n_states))
    rows = np.arange(i.size)
    mids[rows, i] = mids[rows, j] = 0.5
    fixed = np.vstack([np.eye(n_states), mids])
    if count <= fixed.shape[0]:
        return fixed[:count]
    extra = rng.dirichlet(np.ones(n_states), size=count - fixed.shape[0])
    return np.vstack([fixed, extra])


def find_violation_witness(problem, base_utility):
    """Exhibit a belief and concave transform that reverse the preference.

    Only meaningful when :func:`is_safer` said no.  Failing cross pairs
    (i, j) are tried worst margin first.  The gain intervals
    [u(b_i), u(a_i)] and [u(a_j), u(b_j)] fail to nest, so one kink
    separates them: at u(b_i) when it lies above u(a_j), else at u(b_j).
    The transform has slope ``WITNESS_RATIO`` below the kink and 1 above
    it; two-point beliefs on (i, j) just past indifference under u are
    certified by :func:`belief_inclusion_probe`.  Returns
    ``(belief, transform)`` or ``None`` if no pair gives a reversal.

    ``None`` does not always mean the search missed a witness.  When the
    problem's violation margin is within a few 1e-8 of ``TAU_EQ``, the
    preference reversal a witness can produce may be smaller than
    ``PROBE_SLACK``, so no belief certifies although the verdict stands.
    """
    part, margins = _nondominated_margins(problem)
    fails = np.flatnonzero(margins > TAU_EQ)
    if fails.size == 0:
        raise PreconditionError("witness search requires a non-safer verdict")
    # row-major order is lexicographic; the stable sort keeps it among ties
    fails = fails[np.argsort(-margins.flat[fails], kind="stable")]
    up, dn = np.unravel_index(fails, margins.shape)
    ua = base_utility.value(problem.a)
    ub = base_utility.value(problem.b)
    for i, j in zip(part.a_better[up], part.b_better[dn]):
        d_i = float(ua[i] - ub[i])   # > 0: state where a wins
        d_j = float(ua[j] - ub[j])   # < 0: state where b wins
        kink = float(ub[i] if ub[i] > ua[j] else ub[j])
        phi = PiecewiseLinearUtility([(kink - 1.0, WITNESS_RATIO), (kink, 1.0)])
        # certify one belief at a time: right at indifference a stacked
        # probe can round the other way from the single-belief one
        for p in -d_j / (d_i - d_j) + _WITNESS_OFFSETS:
            if p > 1.0:
                break
            belief = np.zeros(problem.n_states)
            belief[i], belief[j] = p, 1.0 - p
            report = belief_inclusion_probe(problem, base_utility, phi, belief[None, :])
            if not report.holds:
                return belief, phi
    return None


# ---------------------------------------------------------------------------
# auction payoffs


_FIELDS = attrgetter("gamma", "value", "outside", "tie_high", "tie_low")


class _Columns(NamedTuple):
    """State records as arrays."""

    gamma: np.ndarray
    value: np.ndarray
    outside: np.ndarray
    tie_high: np.ndarray
    tie_low: np.ndarray

    @classmethod
    def of(cls, states):
        # columns pass through, so a report converts its states only once
        if isinstance(states, cls):
            return states
        rows = np.array([_FIELDS(st) for st in states], dtype=float).reshape(-1, 5)
        g, v, s, th, tl = rows.T
        return cls(g, v, s, th != 0.0, tl != 0.0)


def _wins(bid, gamma, tie):
    return (bid > gamma + TAU_EQ) | ((np.abs(bid - gamma) <= TAU_EQ) & tie)


def auction_partition(bid_a, bid_b, states):
    """Split states by allocation outcome for an ordered bid pair a > b."""
    if not bid_a > bid_b:
        raise BidOrderError(f"need bid_a > bid_b, got {bid_a} <= {bid_b}")
    cols = _Columns.of(states)
    low = _wins(bid_b, cols.gamma, cols.tie_low)
    high = _wins(bid_a, cols.gamma, cols.tie_high)
    return AuctionPartition(
        both=np.flatnonzero(low),
        pivotal=np.flatnonzero(~low & high),
        neither=np.flatnonzero(~low & ~high),
    )


def _payoffs(bid, cols, role, pays_bid):
    # winners pay their own bid (first price) or the threshold (second)
    if role not in ("high", "low"):
        raise ConfigError(f"role must be 'high' or 'low', got {role!r}")
    tie = cols.tie_high if role == "high" else cols.tie_low
    price = bid if pays_bid else cols.gamma
    return np.where(_wins(bid, cols.gamma, tie), cols.value - price, cols.outside)


def fpa_payoffs(bid, states, role="high"):
    """First-price payoffs of one bid: value - bid if it wins, else outside.

    ``role`` selects which tie flag applies when the bid exactly equals
    a state's threshold ("high" or "low" member of the pair).
    """
    return _payoffs(bid, _Columns.of(states), role, pays_bid=True)


def spa_payoffs(bid, states, role="high"):
    """Second-price payoffs: value - threshold if the bid wins, else outside."""
    return _payoffs(bid, _Columns.of(states), role, pays_bid=False)


def _check_invariant(holds, message):
    # unlike ``assert``, survives ``python -O``
    if not holds:
        raise InvariantViolation(message)


def check_winning_cannot_hurt(bid, states):
    """Worst winning surplus at this bid at least the best outside option."""
    cols = _Columns.of(states)
    return bool(np.min(cols.value - bid) >= np.max(cols.outside) - TAU_EQ)


def check_low_bids_better_winners(bid_a, bid_b, states, partition):
    """On the first-price payoffs, b's winning surpluses dominate a's.

    ``partition`` is the strict payoff partition of (high, low) first
    price payoffs.  Vacuously true when either side is empty.
    """
    up, dn = partition.a_better, partition.b_better
    if up.size == 0 or dn.size == 0:
        return True
    v = _Columns.of(states).value
    return bool(np.min(v[dn] - bid_b) >= np.max(v[up] - bid_a) - TAU_EQ)


def _check_separated(bid_a, bid_b):
    if not bid_a > bid_b + TAU_EQ:
        raise BidOrderError(
            f"need bid_a > bid_b separated by more than {TAU_EQ:g}"
        )


def fpa_higher_bid_safer(bid_a, bid_b, states):
    """Safety verdict for the higher of two first-price bids.

    Builds both payoff vectors, evaluates :func:`is_safer` for the high
    bid, and reports the two sufficient payoff conditions alongside.
    Requires strictly separated bids and a non-dominated pair.
    """
    _check_separated(bid_a, bid_b)
    cols = _Columns.of(states)
    pay_a = _payoffs(bid_a, cols, "high", pays_bid=True)
    pay_b = _payoffs(bid_b, cols, "low", pays_bid=True)
    problem = FiniteDecisionProblem(pay_a, pay_b)
    part = partition_abc(problem)
    apart = auction_partition(bid_a, bid_b, cols)

    # structural facts for first price: winning twice at a higher price is
    # strictly worse, never winning is identical, strict gains need a win
    _check_invariant(set(apart.both) <= set(part.b_better),
                     "winning with both bids must favour the low bid")
    _check_invariant(set(apart.neither) <= set(part.equal),
                     "losing with both bids must pay the same")
    _check_invariant(set(part.a_better) <= set(apart.pivotal),
                     "the high bid can only gain where it alone wins")

    cond_hurt = check_winning_cannot_hurt(bid_a, cols)
    cond_low = check_low_bids_better_winners(bid_a, bid_b, cols, part)
    verdict = is_safer(problem)
    _check_invariant(verdict.safer or not (cond_hurt and cond_low),
                     "sufficient conditions held but safety failed")
    return FpaSafetyReport(
        verdict=verdict,
        winning_cannot_hurt=cond_hurt,
        low_bids_better_winners=cond_low,
        partition=part,
        auction_partition=apart,
        problem=problem,
    )


def spa_lower_bid_safer(bid_a, bid_b, states, require_constant_outside=True):
    """Safety verdict for the lower of two second-price bids.

    The comparison puts the *low* bid in the candidate-safer role.  With
    a state-independent outside option the low bid is always safer
    (winner pays the threshold, so the bids only matter through the
    allocation); pass ``require_constant_outside=False`` to evaluate the
    relation without that guarantee.
    """
    _check_separated(bid_a, bid_b)
    cols = _Columns.of(states)
    constant = bool(np.max(cols.outside) - np.min(cols.outside) <= TAU_EQ)
    if require_constant_outside and not constant:
        raise OutsideOptionNotConstant(
            "the lower-bid guarantee needs a state-independent outside option"
        )
    pay_hi = _payoffs(bid_a, cols, "high", pays_bid=False)
    pay_lo = _payoffs(bid_b, cols, "low", pays_bid=False)
    problem = FiniteDecisionProblem(pay_lo, pay_hi)
    apart = auction_partition(bid_a, bid_b, cols)

    # both bids pay the same price when both (or neither) win
    part = partition_abc(problem)
    _check_invariant(set(apart.both) | set(apart.neither) <= set(part.equal),
                     "both bids must pay the same where both or neither win")

    verdict = is_safer(problem)
    _check_invariant(verdict.safer or not constant,
                     "known outside option must make the low bid safer")
    return SpaSafetyReport(
        verdict=verdict,
        auction_partition=apart,
        outside_constant=constant,
        problem=problem,
    )


# ---------------------------------------------------------------------------
# problem (de)serialization

_PROBLEM_KEYS = {"states", "bid_a", "bid_b"}
_STATE_KEYS = {"gamma", "value", "outside", "tie_high", "tie_low"}


def problem_from_dict(doc):
    """Parse {"states": [...], "bid_a": .., "bid_b": ..} into components."""
    _check_keys(doc, _PROBLEM_KEYS, _PROBLEM_KEYS, "problem")
    states = []
    if not isinstance(doc["states"], list) or not doc["states"]:
        raise ConfigError("'states' must be a nonempty list")
    for k, raw in enumerate(doc["states"]):
        _check_keys(raw, _STATE_KEYS, {"gamma", "value", "outside"}, f"state {k}")
        for key in ("tie_high", "tie_low"):
            if not isinstance(raw.get(key, False), bool):
                raise ConfigError(f"state {k}.{key} must be a boolean, got {raw[key]!r}")
        states.append(
            StateRecord(
                gamma=finite_number(raw["gamma"], f"state {k}.gamma"),
                value=finite_number(raw["value"], f"state {k}.value"),
                outside=finite_number(raw["outside"], f"state {k}.outside"),
                tie_high=raw.get("tie_high", False),
                tie_low=raw.get("tie_low", False),
            )
        )
    bid_a, bid_b = (finite_number(doc[key], key) for key in ("bid_a", "bid_b"))
    return states, bid_a, bid_b


def problem_to_dict(states, bid_a, bid_b):
    return {
        "states": [
            {
                "gamma": st.gamma,
                "value": st.value,
                "outside": st.outside,
                "tie_high": st.tie_high,
                "tie_low": st.tie_low,
            }
            for st in states
        ],
        "bid_a": bid_a,
        "bid_b": bid_b,
    }
