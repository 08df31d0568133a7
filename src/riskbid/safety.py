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
from typing import Optional

import numpy as np

from .errors import (
    BidOrderError,
    ConfigError,
    DominancePrecondition,
    IdenticalActions,
    InvariantViolation,
    OutsideOptionNotConstant,
    PreconditionError,
)
from .utility import PiecewiseLinearUtility

#: payoffs closer than this are treated as equal
TAU_EQ = 1e-9
#: slack when verifying preserved preference in probes
PROBE_SLACK = 1e-12


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

    def __init__(self, a, b, states=None):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 1 or a.size == 0 or a.shape != b.shape:
            raise ConfigError("payoff vectors must be 1-d, nonempty, equal length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ConfigError("payoffs must be finite")
        self.a = a
        self.b = b
        self.states = tuple(states) if states is not None else None

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
    dominance: Dominance = Dominance.NONE


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


def partition_abc(problem, tol=TAU_EQ):
    diff = problem.a - problem.b
    idx = np.arange(problem.n_states)
    return PartitionABC(
        a_better=idx[diff > tol],
        b_better=idx[diff < -tol],
        equal=idx[np.abs(diff) <= tol],
    )


def check_dominance(problem, tol=TAU_EQ):
    """Classify the pair; raises IdenticalActions when the two coincide."""
    part = partition_abc(problem, tol)
    has_a = part.a_better.size > 0
    has_b = part.b_better.size > 0
    if not has_a and not has_b:
        raise IdenticalActions("the two actions pay the same in every state")
    if has_a and not has_b:
        return Dominance.A_DOMINATES_B
    if has_b and not has_a:
        return Dominance.B_DOMINATES_A
    return Dominance.NONE


def is_safer(problem, tol=TAU_EQ):
    """Is action a safer than action b?  Requires a non-dominated pair.

    Returns a verdict; when the answer is no, ``witness`` is the
    lexicographically first pair (state where a wins, state where b
    wins) whose cross comparison fails.
    """
    if check_dominance(problem, tol) is not Dominance.NONE:
        raise DominancePrecondition("safety is undefined for dominated pairs")
    part = partition_abc(problem, tol)
    up, dn = part.a_better, part.b_better
    a, b = problem.a, problem.b
    # fails[i, j]: the cross comparison of (up[i], dn[j]) breaks; both
    # index lists ascend, so the first hit is the lexicographic first
    fails = (b[dn][None, :] < a[up][:, None] - tol) | (
        a[dn][None, :] < b[up][:, None] - tol
    )
    if not np.any(fails):
        return SafetyVerdict(safer=True)
    i, j = np.unravel_index(np.argmax(fails), fails.shape)
    return SafetyVerdict(safer=False, witness=(int(up[i]), int(dn[j])))


def violation_margin(problem, tol=TAU_EQ):
    """How badly the worst cross-pair inequality fails (<= 0 when safer)."""
    part = partition_abc(problem, tol)
    up, dn = part.a_better, part.b_better
    if up.size == 0 or dn.size == 0:
        return 0.0
    a, b = problem.a, problem.b
    return float(
        max(np.max(a[up]) - np.min(b[dn]), np.max(b[up]) - np.min(a[dn]))
    )


def belief_inclusion_probe(problem, base_utility, transform, beliefs,
                           slack=PROBE_SLACK):
    """Check preference preservation on explicit beliefs.

    For every belief that weakly prefers a under ``base_utility``, the
    transformed utility must still weakly prefer a (up to ``slack`` of
    floating-point room).  Returns the first offending belief if any.
    """
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    if beliefs.shape[1] != problem.n_states:
        raise ConfigError("belief dimension does not match the state space")
    if np.any(beliefs < -1e-12):
        raise ConfigError("beliefs must be nonnegative")
    sums = beliefs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ConfigError("beliefs must sum to one")

    ua, ub = base_utility.value(problem.a), base_utility.value(problem.b)
    ta, tb = transform.value(ua), transform.value(ub)
    prefers_a = beliefs @ (ua - ub) >= 0.0
    keeps_a = beliefs @ (ta - tb) >= -slack
    bad = prefers_a & ~keeps_a
    if not np.any(bad):
        return ProbeReport(holds=True)
    return ProbeReport(holds=False, counterexample=beliefs[int(np.argmax(bad))])


def sample_beliefs(n_states, count, rng):
    """Simplex vertices, edge midpoints, then Dirichlet(1,..,1) samples."""
    rows = [np.eye(n_states)]
    mids = []
    for i in range(n_states):
        for j in range(i + 1, n_states):
            m = np.zeros(n_states)
            m[i] = m[j] = 0.5
            mids.append(m)
    if mids:
        rows.append(np.array(mids))
    fixed = np.vstack(rows)
    if count <= fixed.shape[0]:
        return fixed[:count]
    extra = rng.dirichlet(np.ones(n_states), size=count - fixed.shape[0])
    return np.vstack([fixed, extra])


def _kinked_transform(kink, ratio):
    # slope `ratio` strictly below the kink, slope 1 above it
    return PiecewiseLinearUtility([(kink - 1.0, ratio), (kink, 1.0)])


def find_violation_witness(problem, base_utility, ratios=(2.0, 5.0, 10.0, 100.0),
                           tol=TAU_EQ):
    """Exhibit a belief and concave transform that reverse the preference.

    Only meaningful when :func:`is_safer` said no.  Searches two-point
    beliefs on the failing state pair crossed with single-kink
    piecewise-linear transforms, the kink swept across the four relevant
    payoff levels and the slope ratio over ``ratios``.  Returns
    ``(belief, transform)`` or ``None`` if the sweep finds nothing.
    """
    verdict = is_safer(problem, tol)
    if verdict.safer:
        raise PreconditionError("witness search requires a non-safer verdict")
    part = partition_abc(problem, tol)
    a, b = problem.a, problem.b

    # all cross pairs whose inequality fails, worst margin first
    pairs = []
    for i in part.a_better:
        for j in part.b_better:
            margin = max(a[i] - b[j], b[i] - a[j])
            if margin > tol:
                pairs.append((float(margin), int(i), int(j)))
    pairs.sort(key=lambda t: -t[0])

    u = base_utility
    offsets = (0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25)
    for _, i, j in pairs:
        ua_i, ub_i = float(u.value(a[i])), float(u.value(b[i]))
        ua_j, ub_j = float(u.value(a[j])), float(u.value(b[j]))
        d_i = ua_i - ub_i   # > 0: state where a wins
        d_j = ua_j - ub_j   # < 0: state where b wins
        p_star = -d_j / (d_i - d_j)
        kinks = sorted({ua_i, ub_i, ua_j, ub_j})
        for kink in kinks:
            for ratio in ratios:
                phi = _kinked_transform(kink, ratio)
                td_i = float(phi.value(ua_i)) - float(phi.value(ub_i))
                td_j = float(phi.value(ua_j)) - float(phi.value(ub_j))
                for off in offsets:
                    p = p_star + off
                    if not 0.0 <= p <= 1.0:
                        continue
                    if p * d_i + (1.0 - p) * d_j < 0.0:
                        continue  # belief no longer prefers a under u
                    if p * td_i + (1.0 - p) * td_j < -PROBE_SLACK:
                        belief = np.zeros(problem.n_states)
                        belief[i] = p
                        belief[j] = 1.0 - p
                        # certify with the probe itself; right at the
                        # indifference belief the probe's dot product can
                        # round the other way, so keep sweeping if it does
                        report = belief_inclusion_probe(
                            problem, base_utility, phi, belief[None, :]
                        )
                        if not report.holds:
                            return belief, phi
    return None


# ---------------------------------------------------------------------------
# auction payoffs


def _wins(bid, gamma, tie_flag, tol):
    if bid > gamma + tol:
        return True
    if abs(bid - gamma) <= tol:
        return tie_flag
    return False


def auction_partition(bid_a, bid_b, states, tol=TAU_EQ):
    """Split states by allocation outcome for an ordered bid pair a > b."""
    if not bid_a > bid_b:
        raise BidOrderError(f"need bid_a > bid_b, got {bid_a} <= {bid_b}")
    both, pivotal, neither = [], [], []
    for idx, st in enumerate(states):
        if _wins(bid_b, st.gamma, st.tie_low, tol):
            both.append(idx)
        elif not _wins(bid_a, st.gamma, st.tie_high, tol):
            neither.append(idx)
        else:
            pivotal.append(idx)
    return AuctionPartition(
        both=np.array(both, dtype=int),
        pivotal=np.array(pivotal, dtype=int),
        neither=np.array(neither, dtype=int),
    )


def _payoffs(bid, states, role, tol, pays_bid):
    # winners pay their own bid (first price) or the threshold (second)
    if role not in ("high", "low"):
        raise ConfigError(f"role must be 'high' or 'low', got {role!r}")
    out = np.empty(len(states))
    for idx, st in enumerate(states):
        flag = st.tie_high if role == "high" else st.tie_low
        price = bid if pays_bid else st.gamma
        out[idx] = st.value - price if _wins(bid, st.gamma, flag, tol) else st.outside
    return out


def fpa_payoffs(bid, states, role="high", tol=TAU_EQ):
    """First-price payoffs of one bid: value - bid if it wins, else outside.

    ``role`` selects which tie flag applies when the bid exactly equals
    a state's threshold ("high" or "low" member of the pair).
    """
    return _payoffs(bid, states, role, tol, pays_bid=True)


def spa_payoffs(bid, states, role="high", tol=TAU_EQ):
    """Second-price payoffs: value - threshold if the bid wins, else outside."""
    return _payoffs(bid, states, role, tol, pays_bid=False)


def _check_invariant(holds, message):
    # unlike ``assert``, survives ``python -O``
    if not holds:
        raise InvariantViolation(message)


def check_winning_cannot_hurt(bid, states, tol=TAU_EQ):
    """Worst winning surplus at this bid at least the best outside option."""
    values = np.array([st.value for st in states])
    outs = np.array([st.outside for st in states])
    return bool(np.min(values - bid) >= np.max(outs) - tol)


def check_low_bids_better_winners(bid_a, bid_b, states, partition, tol=TAU_EQ):
    """On the first-price payoffs, b's winning surpluses dominate a's.

    ``partition`` is the strict payoff partition of (high, low) first
    price payoffs.  Vacuously true when either side is empty.
    """
    up, dn = partition.a_better, partition.b_better
    if up.size == 0 or dn.size == 0:
        return True
    values = np.array([st.value for st in states])
    return bool(np.min(values[dn] - bid_b) >= np.max(values[up] - bid_a) - tol)


def fpa_higher_bid_safer(bid_a, bid_b, states, tol=TAU_EQ):
    """Safety verdict for the higher of two first-price bids.

    Builds both payoff vectors, evaluates :func:`is_safer` for the high
    bid, and reports the two sufficient payoff conditions alongside.
    Requires strictly separated bids and a non-dominated pair.
    """
    if not bid_a > bid_b + tol:
        raise BidOrderError(
            f"need bid_a > bid_b separated by more than {tol:g}"
        )
    pay_a = fpa_payoffs(bid_a, states, "high", tol)
    pay_b = fpa_payoffs(bid_b, states, "low", tol)
    problem = FiniteDecisionProblem(pay_a, pay_b, states)
    part = partition_abc(problem, tol)
    apart = auction_partition(bid_a, bid_b, states, tol)

    # structural facts for first price: winning twice at a higher price is
    # strictly worse, never winning is identical, strict gains need a win
    _check_invariant(set(apart.both) <= set(part.b_better),
                     "winning with both bids must favour the low bid")
    _check_invariant(set(apart.neither) <= set(part.equal),
                     "losing with both bids must pay the same")
    _check_invariant(set(part.a_better) <= set(apart.pivotal),
                     "the high bid can only gain where it alone wins")

    cond_hurt = check_winning_cannot_hurt(bid_a, states, tol)
    cond_low = check_low_bids_better_winners(bid_a, bid_b, states, part, tol)
    verdict = is_safer(problem, tol)
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


def spa_lower_bid_safer(bid_a, bid_b, states, require_constant_outside=True,
                        tol=TAU_EQ):
    """Safety verdict for the lower of two second-price bids.

    The comparison puts the *low* bid in the candidate-safer role.  With
    a state-independent outside option the low bid is always safer
    (winner pays the threshold, so the bids only matter through the
    allocation); pass ``require_constant_outside=False`` to evaluate the
    relation without that guarantee.
    """
    if not bid_a > bid_b + tol:
        raise BidOrderError(
            f"need bid_a > bid_b separated by more than {tol:g}"
        )
    outs = np.array([st.outside for st in states])
    constant = bool(np.max(outs) - np.min(outs) <= tol)
    if require_constant_outside and not constant:
        raise OutsideOptionNotConstant(
            "the lower-bid guarantee needs a state-independent outside option"
        )
    pay_hi = spa_payoffs(bid_a, states, "high", tol)
    pay_lo = spa_payoffs(bid_b, states, "low", tol)
    problem = FiniteDecisionProblem(pay_lo, pay_hi, states)
    apart = auction_partition(bid_a, bid_b, states, tol)

    # both bids pay the same price when both (or neither) win
    part = partition_abc(problem, tol)
    _check_invariant(set(apart.both) | set(apart.neither) <= set(part.equal),
                     "both bids must pay the same where both or neither win")

    verdict = is_safer(problem, tol)
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

_STATE_KEYS = {"gamma", "value", "outside", "tie_high", "tie_low"}


def problem_from_dict(doc):
    """Parse {"states": [...], "bid_a": .., "bid_b": ..} into components."""
    if not isinstance(doc, dict):
        raise ConfigError("problem document must be a JSON object")
    unknown = set(doc) - {"states", "bid_a", "bid_b"}
    if unknown:
        raise ConfigError(f"unknown problem keys: {sorted(unknown)}")
    for key in ("states", "bid_a", "bid_b"):
        if key not in doc:
            raise ConfigError(f"problem is missing {key!r}")
    states = []
    if not isinstance(doc["states"], list) or not doc["states"]:
        raise ConfigError("'states' must be a nonempty list")
    for k, raw in enumerate(doc["states"]):
        if not isinstance(raw, dict):
            raise ConfigError(f"state {k} must be an object")
        unknown = set(raw) - _STATE_KEYS
        if unknown:
            raise ConfigError(f"state {k} has unknown keys: {sorted(unknown)}")
        for key in ("gamma", "value", "outside"):
            if key not in raw:
                raise ConfigError(f"state {k} is missing {key!r}")
        states.append(
            StateRecord(
                gamma=float(raw["gamma"]),
                value=float(raw["value"]),
                outside=float(raw["outside"]),
                tie_high=bool(raw.get("tie_high", False)),
                tie_low=bool(raw.get("tie_low", False)),
            )
        )
    return states, float(doc["bid_a"]), float(doc["bid_b"])


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
