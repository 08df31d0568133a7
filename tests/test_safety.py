"""Unit tests for the finite-state safety relation and auction reports."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbid import (
    CARAUtility,
    CRRAUtility,
    BidOrderError,
    ConfigError,
    Dominance,
    DominancePrecondition,
    FiniteDecisionProblem,
    IdenticalActions,
    InvariantViolation,
    LinearUtility,
    LogUtility,
    PiecewiseLinearUtility,
    PreconditionError,
    StateRecord,
    auction_partition,
    belief_inclusion_probe,
    check_dominance,
    check_low_bids_better_winners,
    check_winning_cannot_hurt,
    find_violation_witness,
    fpa_higher_bid_safer,
    fpa_payoffs,
    is_safer,
    partition_abc,
    problem_from_dict,
    problem_to_dict,
    sample_beliefs,
    spa_lower_bid_safer,
    spa_payoffs,
    violation_margin,
)
from riskbid.safety import PROBE_SLACK, TAU_EQ
from conftest import (
    constructed_safe_problem,
    known_outside_states,
    random_concave_transform,
    random_problem,
)


# ---------------------------------------------------------------------------
# partition and dominance
# ---------------------------------------------------------------------------

def test_partition_splits_states():
    p = FiniteDecisionProblem([5.0, 1.0, 3.0], [4.0, 2.0, 3.0])
    part = partition_abc(p)
    assert list(part.a_better) == [0]
    assert list(part.b_better) == [1]
    assert list(part.equal) == [2]


def test_partition_equality_tolerance():
    p = FiniteDecisionProblem([1.0, 1.0], [1.0 + 1e-10, 0.0])
    part = partition_abc(p)
    assert list(part.equal) == [0]
    assert list(part.a_better) == [1]


def test_dominance_detection():
    assert check_dominance(FiniteDecisionProblem([2.0, 3.0], [1.0, 3.0])) is Dominance.A_DOMINATES_B
    assert check_dominance(FiniteDecisionProblem([1.0, 3.0], [2.0, 3.0])) is Dominance.B_DOMINATES_A
    assert check_dominance(FiniteDecisionProblem([2.0, 1.0], [1.0, 2.0])) is Dominance.NONE


def test_is_safer_raises_on_degenerate_problems():
    with pytest.raises(IdenticalActions):
        is_safer(FiniteDecisionProblem([1.0, 2.0], [1.0, 2.0]))
    with pytest.raises(DominancePrecondition):
        is_safer(FiniteDecisionProblem([2.0, 3.0], [1.0, 3.0]))


# ---------------------------------------------------------------------------
# the safety relation itself
# ---------------------------------------------------------------------------

def test_is_safer_positive_example():
    # a's wins pay less than b's wins: spread-reducing, hence safer
    p = FiniteDecisionProblem([2.0, 5.0], [1.0, 6.0])
    verdict = is_safer(p)
    assert verdict.safer
    assert verdict.witness is None


def test_is_safer_negative_example_with_witness():
    p = FiniteDecisionProblem([5.0, 1.0, 3.0], [4.0, 2.0, 3.0])
    verdict = is_safer(p)
    assert not verdict.safer
    assert verdict.witness == (0, 1)


def test_violation_margin_values():
    p = FiniteDecisionProblem([2.0, 0.0], [1.0, 1.0])
    assert violation_margin(p) == pytest.approx(1.0)
    safe = FiniteDecisionProblem([2.0, 5.0], [1.0, 6.0])
    assert violation_margin(safe) <= 0.0


def test_is_safer_is_antisymmetric_outside_ties():
    p = FiniteDecisionProblem([2.0, 5.0], [1.0, 6.0])
    swapped = FiniteDecisionProblem(p.b, p.a)
    assert is_safer(p).safer
    assert not is_safer(swapped).safer


# ---------------------------------------------------------------------------
# probes and witnesses
# ---------------------------------------------------------------------------

def test_probe_passes_on_safe_problem():
    p = FiniteDecisionProblem([2.0, 5.0], [1.0, 6.0])
    rng = np.random.default_rng(3)
    beliefs = sample_beliefs(p.n_states, 64, rng)
    for phi in (CARAUtility(1.0), CARAUtility(5.0, shift=3.0)):
        rep = belief_inclusion_probe(p, LinearUtility(), phi, beliefs)
        assert rep.holds
        assert rep.counterexample is None


def test_probe_finds_counterexample():
    # a = (2, 0) vs b = (1, 1): the belief 0.55/0.45 prefers a on average
    # but a sharp enough concave bend flips the ranking
    p = FiniteDecisionProblem([2.0, 0.0], [1.0, 1.0])
    mu = np.array([[0.55, 0.45]])
    phi = CARAUtility(5.0, shift=3.0)
    rep = belief_inclusion_probe(p, LinearUtility(), phi, mu)
    assert not rep.holds
    np.testing.assert_allclose(rep.counterexample, mu[0])


def test_probe_validates_beliefs():
    p = FiniteDecisionProblem([2.0, 0.0], [1.0, 1.0])
    with pytest.raises(Exception):
        belief_inclusion_probe(p, LinearUtility(), CARAUtility(1.0), [[0.7, 0.7]])
    with pytest.raises(Exception):
        belief_inclusion_probe(p, LinearUtility(), CARAUtility(1.0), [[0.5, 0.5, 0.0]])


@pytest.mark.parametrize("beliefs, dtype", [
    ([["a", "b"]], "<U1"),
    ([[True, False]], "bool"),
    (np.array([[0.5, 0.5]], dtype=object), "object"),
])
def test_probe_refuses_beliefs_that_are_not_numbers(beliefs, dtype):
    # the input's dtype is checked once, before conversion: a string is no raw
    # numpy error, and True is not taken as the belief 1
    p = FiniteDecisionProblem([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ConfigError, match=f"^beliefs must hold numbers, got {dtype} entries$"):
        belief_inclusion_probe(p, LinearUtility(), CRRAUtility(0.5, shift=1), beliefs)


def test_probe_refuses_ragged_beliefs():
    p = FiniteDecisionProblem([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ConfigError, match="^beliefs must hold numbers in rows of equal length$"):
        belief_inclusion_probe(p, LinearUtility(), CRRAUtility(0.5, shift=1),
                               [[0.5, 0.5], [1.0]])


@pytest.mark.parametrize("belief", [
    [np.nan, np.nan], [np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [-np.inf, np.inf],
], ids=repr)
def test_probe_refuses_non_finite_beliefs(belief):
    # a comparison with NaN is False, so a check written as "any entry too
    # small" lets a NaN belief through as one that holds
    p = FiniteDecisionProblem([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ConfigError, match="^beliefs must be finite and "):
        belief_inclusion_probe(p, LinearUtility(), CRRAUtility(0.5, shift=1), [belief])


def test_witness_search_finds_flip():
    p = FiniteDecisionProblem([2.0, 0.0], [1.0, 1.0])
    found = find_violation_witness(p, LinearUtility())
    assert found is not None
    belief, phi = found
    rep = belief_inclusion_probe(p, LinearUtility(), phi, belief[None, :])
    assert not rep.holds


def test_witness_search_requires_nonsafer():
    p = FiniteDecisionProblem([2.0, 5.0], [1.0, 6.0])
    with pytest.raises(PreconditionError):
        find_violation_witness(p, LinearUtility())


def test_witness_search_on_random_violations():
    rng = np.random.default_rng(11)
    tried = 0
    for _ in range(200):
        p = random_problem(rng)
        try:
            verdict = is_safer(p)
        except (DominancePrecondition, IdenticalActions):
            continue
        if verdict.safer or violation_margin(p) <= 0.05:
            continue
        tried += 1
        found = find_violation_witness(p, LinearUtility())
        assert found is not None, f"no witness for a={p.a}, b={p.b}"
        belief, phi = found
        assert not belief_inclusion_probe(p, LinearUtility(), phi, belief[None, :]).holds
    assert tried > 20


def reference_witness_sweep(problem, base_utility):
    # the former search: failing pairs worst first, each crossed with a
    # kink at every payoff level, every slope ratio and every offset
    part = partition_abc(problem)
    a, b = problem.a, problem.b
    pairs = []
    for i in part.a_better:
        for j in part.b_better:
            margin = max(a[i] - b[j], b[i] - a[j])
            if margin > TAU_EQ:
                pairs.append((float(margin), int(i), int(j)))
    pairs.sort(key=lambda t: -t[0])
    u = base_utility
    offsets = (0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25)
    for _, i, j in pairs:
        ua_i, ub_i = float(u.value(a[i])), float(u.value(b[i]))
        ua_j, ub_j = float(u.value(a[j])), float(u.value(b[j]))
        d_i, d_j = ua_i - ub_i, ua_j - ub_j
        p_star = -d_j / (d_i - d_j)
        for kink in sorted({ua_i, ub_i, ua_j, ub_j}):
            for ratio in (2.0, 5.0, 10.0, 100.0):
                phi = PiecewiseLinearUtility([(kink - 1.0, ratio), (kink, 1.0)])
                td_i = float(phi.value(ua_i)) - float(phi.value(ub_i))
                td_j = float(phi.value(ua_j)) - float(phi.value(ub_j))
                for off in offsets:
                    p = p_star + off
                    if not 0.0 <= p <= 1.0:
                        continue
                    if p * d_i + (1.0 - p) * d_j < 0.0:
                        continue
                    if p * td_i + (1.0 - p) * td_j < -PROBE_SLACK:
                        belief = np.zeros(problem.n_states)
                        belief[i], belief[j] = p, 1.0 - p
                        if not belief_inclusion_probe(problem, u, phi, belief[None, :]).holds:
                            return belief, phi
    return None


def _near_tolerance_problem(rng):
    # a safe problem pushed just past one cross inequality, by 1e-9 to 1e-3
    p = constructed_safe_problem(rng)
    a, b = p.a.copy(), p.b.copy()
    part = partition_abc(p)
    i, j = rng.choice(part.a_better), rng.choice(part.b_better)
    eps = 10.0 ** rng.uniform(-9.0, -3.0)
    if rng.random() < 0.5:
        a[i] = b[j] + eps
    else:
        a[j] = b[i] - eps
    return FiniteDecisionProblem(a, b)


def test_witness_rule_finds_exactly_where_the_sweep_does():
    rng = np.random.default_rng(17)
    # not safer by 6e-8, but the reversal stays below PROBE_SLACK
    missed = FiniteDecisionProblem(
        [10.51804797556997, 10.518047912418757, 7.673382786082209],
        [10.490578053335557, 10.518047915007589, 7.673382786082209],
    )
    assert find_violation_witness(missed, LinearUtility()) is None
    assert reference_witness_sweep(missed, LinearUtility()) is None
    bases = (LinearUtility(), CRRAUtility(0.5, shift=0.5), CARAUtility(0.3),
             LogUtility(shift=1.0))
    checked = 0
    for base in bases:
        for k in range(120):
            p = _near_tolerance_problem(rng) if k % 2 else random_problem(rng)
            try:
                if is_safer(p).safer:
                    continue
            except (DominancePrecondition, IdenticalActions):
                continue
            found = find_violation_witness(p, base)
            assert (found is None) == (reference_witness_sweep(p, base) is None), (p, base)
            if found is not None:
                belief, phi = found
                assert not belief_inclusion_probe(p, base, phi, belief[None, :]).holds
            checked += 1
    assert checked > 300


def test_sample_beliefs_structure():
    rng = np.random.default_rng(0)
    beliefs = sample_beliefs(3, 40, rng)
    assert beliefs.shape[1] == 3
    np.testing.assert_allclose(beliefs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(beliefs >= 0)
    # vertices come first
    np.testing.assert_allclose(beliefs[:3], np.eye(3))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_safe_verdicts_survive_random_probes(seed):
    rng = np.random.default_rng(seed)
    p = constructed_safe_problem(rng)
    try:
        verdict = is_safer(p)
    except (DominancePrecondition, IdenticalActions):
        return
    if not verdict.safer:
        return
    beliefs = sample_beliefs(p.n_states, 32, rng)
    phi = random_concave_transform(rng, float(min(p.a.min(), p.b.min())),
                                   float(max(p.a.max(), p.b.max())))
    assert belief_inclusion_probe(p, LinearUtility(), phi, beliefs).holds


# ---------------------------------------------------------------------------
# auction states, payoffs, and format reports
# ---------------------------------------------------------------------------

def _mk_states():
    return [
        StateRecord(gamma=0.2, value=1.0, outside=0.2),   # both bids win
        StateRecord(gamma=0.6, value=1.3, outside=0.2),   # pivotal, wins at a gain
        StateRecord(gamma=0.7, value=0.6, outside=0.2),   # pivotal, wins at a loss
        StateRecord(gamma=0.9, value=1.0, outside=0.2),   # neither bid wins
    ]


def test_auction_partition_classifies():
    part = auction_partition(0.8, 0.4, _mk_states())
    assert list(part.both) == [0]
    assert list(part.pivotal) == [1, 2]
    assert list(part.neither) == [3]


def test_auction_partition_tie_flags():
    states = [
        StateRecord(gamma=0.4, value=1.0, outside=0.0, tie_low=True),
        StateRecord(gamma=0.4, value=1.0, outside=0.0, tie_low=False),
        StateRecord(gamma=0.8, value=1.0, outside=0.0, tie_high=True),
        StateRecord(gamma=0.8, value=1.0, outside=0.0, tie_high=False),
    ]
    part = auction_partition(0.8, 0.4, states)
    assert list(part.both) == [0]        # low bid wins its tie
    assert list(part.pivotal) == [1, 2]  # high bid wins its tie only when flagged
    assert list(part.neither) == [3]


def test_auction_partition_requires_bid_order():
    with pytest.raises(BidOrderError):
        auction_partition(0.4, 0.8, _mk_states())


def test_fpa_payoffs():
    states = _mk_states()
    pay_hi = fpa_payoffs(0.8, states, role="high")
    pay_lo = fpa_payoffs(0.4, states, role="low")
    # high bid wins states 0-2 at price 0.8
    np.testing.assert_allclose(pay_hi, [0.2, 0.5, -0.2, 0.2])
    # low bid wins only state 0 at price 0.4
    np.testing.assert_allclose(pay_lo, [0.6, 0.2, 0.2, 0.2])


def test_spa_payoffs():
    states = _mk_states()
    pay_hi = spa_payoffs(0.8, states, role="high")
    pay_lo = spa_payoffs(0.4, states, role="low")
    # winner pays the rival bid, not his own
    np.testing.assert_allclose(pay_hi, [0.8, 0.7, -0.1, 0.2])
    np.testing.assert_allclose(pay_lo, [0.8, 0.2, 0.2, 0.2])


def reference_wins(bid, gamma, tie_flag):
    if bid > gamma + TAU_EQ:
        return True
    if abs(bid - gamma) <= TAU_EQ:
        return tie_flag
    return False


def reference_auction_partition(bid_a, bid_b, states):
    both, pivotal, neither = [], [], []
    for idx, s in enumerate(states):
        if reference_wins(bid_b, s.gamma, s.tie_low):
            both.append(idx)
        elif not reference_wins(bid_a, s.gamma, s.tie_high):
            neither.append(idx)
        else:
            pivotal.append(idx)
    return [np.array(x, dtype=int) for x in (both, pivotal, neither)]


def reference_payoffs(bid, states, role, pays_bid):
    out = np.empty(len(states))
    for idx, s in enumerate(states):
        flag = s.tie_high if role == "high" else s.tie_low
        price = bid if pays_bid else s.gamma
        out[idx] = s.value - price if reference_wins(bid, s.gamma, flag) else s.outside
    return out


@st.composite
def _bids_and_states(draw):
    # near 1e-9, bid - (bid - TAU_EQ) is exactly TAU_EQ; at larger bids
    # rounding puts it just off the tie boundary
    bid_b = draw(st.one_of(st.floats(0.1, 1.0), st.sampled_from([TAU_EQ, 2.0 * TAU_EQ])))
    bid_a = bid_b + draw(st.sampled_from([2e-9, 1e-6, 0.3]))
    edges = [bid + k * TAU_EQ for bid in (bid_a, bid_b) for k in (-1.0, 0.0, 1.0)]
    gamma = st.one_of(st.floats(0.0, 1.5), st.sampled_from(edges))
    states = draw(st.lists(
        st.builds(StateRecord, gamma, st.floats(-1.0, 3.0), st.floats(-1.0, 1.0),
                  st.booleans(), st.booleans()),
        min_size=1, max_size=8,
    ))
    return bid_a, bid_b, states


@settings(max_examples=200, deadline=None)
@given(case=_bids_and_states())
def test_array_payoffs_match_scalar_reference(case):
    bid_a, bid_b, states = case
    part = auction_partition(bid_a, bid_b, states)
    for got, ref in zip((part.both, part.pivotal, part.neither),
                        reference_auction_partition(bid_a, bid_b, states)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    for bid, role in ((bid_a, "high"), (bid_b, "low"), (bid_a, "low"), (bid_b, "high")):
        for payoffs, pays_bid in ((fpa_payoffs, True), (spa_payoffs, False)):
            got = payoffs(bid, states, role=role)
            assert got.tobytes() == reference_payoffs(bid, states, role, pays_bid).tobytes()


def test_fpa_report_on_known_values_environment():
    # constant value, constant outside option, winning is always profitable
    states = [
        StateRecord(gamma=0.3, value=2.0, outside=0.1),
        StateRecord(gamma=0.55, value=2.0, outside=0.1),
        StateRecord(gamma=0.9, value=2.0, outside=0.1),
    ]
    rep = fpa_higher_bid_safer(0.7, 0.4, states)
    assert rep.winning_cannot_hurt
    assert rep.low_bids_better_winners
    assert rep.verdict.safer


def test_fpa_report_violation_when_winning_hurts():
    # a pivotal state where the high bid wins at a loss breaks safety
    states = [
        StateRecord(gamma=0.5, value=2.0, outside=0.1),   # pivotal, gain
        StateRecord(gamma=0.6, value=0.2, outside=0.3),   # pivotal, loss
        StateRecord(gamma=0.2, value=2.0, outside=0.1),   # both win
    ]
    rep = fpa_higher_bid_safer(0.7, 0.4, states)
    assert not rep.winning_cannot_hurt
    assert not rep.verdict.safer
    assert rep.verdict.witness is not None


def test_fpa_report_checks_bid_order():
    with pytest.raises(BidOrderError):
        fpa_higher_bid_safer(0.4, 0.7, _mk_states())


def test_helper_conditions():
    states = _mk_states()
    # state 2 wins at 0.8 with value 0.6: a losing win
    assert not check_winning_cannot_hurt(0.8, states)
    good = [StateRecord(gamma=0.5, value=2.0, outside=0.0)]
    assert check_winning_cannot_hurt(0.8, good)
    prob = FiniteDecisionProblem(fpa_payoffs(0.8, good, role="high"),
                                 fpa_payoffs(0.4, good, role="low"))
    assert check_low_bids_better_winners(0.8, 0.4, good, partition_abc(prob))


def test_spa_report_lower_bid_safer():
    # pivotal surpluses straddle the outside option, so neither dominates
    states = [
        StateRecord(gamma=0.5, value=1.2, outside=0.2),   # pivotal, v - price > s
        StateRecord(gamma=0.6, value=0.5, outside=0.2),   # pivotal, v - price < s
        StateRecord(gamma=0.1, value=1.0, outside=0.2),   # both win
        StateRecord(gamma=0.9, value=1.0, outside=0.2),   # neither
    ]
    rep = spa_lower_bid_safer(0.8, 0.4, states)
    assert rep.outside_constant
    assert rep.verdict.safer


def _first_failing_pair(problem, tol=1e-9):
    # reference: scan the cross pairs in lexicographic order
    part = partition_abc(problem)
    a, b = problem.a, problem.b
    for i in part.a_better:
        for j in part.b_better:
            if b[j] < a[i] - tol or a[j] < b[i] - tol:
                return int(i), int(j)
    return None


def test_is_safer_witness_is_lexicographically_first():
    # a wins in states 1 and 3, b in 0 and 2; the pairs (1, 0), (1, 2)
    # pass and (3, 0) is the first that fails
    prob = FiniteDecisionProblem([1.5, 2.0, 1.2, 9.0], [3.0, 1.0, 2.5, 0.5])
    assert is_safer(prob).witness == (3, 0)
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(300):
        prob = random_problem(rng, max_states=7)
        if check_dominance(prob) is not Dominance.NONE:
            continue
        verdict = is_safer(prob)
        ref = _first_failing_pair(prob)
        assert verdict.safer == (ref is None)
        assert verdict.witness == ref
        checked += 1
    assert checked > 100


_SPA_SAFE_STATES = [
    StateRecord(gamma=0.5, value=1.2, outside=0.2),
    StateRecord(gamma=0.6, value=0.5, outside=0.2),
    StateRecord(gamma=0.1, value=1.0, outside=0.2),
    StateRecord(gamma=0.9, value=1.0, outside=0.2),
]


def test_spa_report_broken_guarantee_raises_invariant_violation(monkeypatch):
    # a constant outside option guarantees the low bid is safer; a
    # verdict that says otherwise is a library bug, not a user error
    import riskbid.safety

    monkeypatch.setattr(riskbid.safety, "is_safer",
                        lambda problem, tol=None: riskbid.safety.SafetyVerdict(safer=False))
    with pytest.raises(InvariantViolation, match="low bid safer"):
        spa_lower_bid_safer(0.8, 0.4, _SPA_SAFE_STATES)


def test_invariant_check_survives_optimize_flag():
    script = textwrap.dedent("""
        import riskbid.safety as s
        from riskbid import InvariantViolation, StateRecord

        s.is_safer = lambda problem, tol=None: s.SafetyVerdict(safer=False)
        states = [StateRecord(*row) for row in %r]
        try:
            s.spa_lower_bid_safer(0.8, 0.4, states)
        except InvariantViolation:
            raise SystemExit(0)
        raise SystemExit(1)
    """ % [(st.gamma, st.value, st.outside) for st in _SPA_SAFE_STATES])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_spa_report_dominance_when_all_pivotal_wins_gain():
    states = [
        StateRecord(gamma=0.5, value=1.5, outside=0.0),
        StateRecord(gamma=0.6, value=1.5, outside=0.0),
    ]
    with pytest.raises(DominancePrecondition):
        spa_lower_bid_safer(0.8, 0.4, states)


def test_spa_report_nonconstant_outside():
    states = [
        StateRecord(gamma=0.5, value=1.2, outside=0.1),
        StateRecord(gamma=0.6, value=0.5, outside=0.4),
    ]
    from riskbid import OutsideOptionNotConstant

    with pytest.raises(OutsideOptionNotConstant):
        spa_lower_bid_safer(0.8, 0.4, states)
    rep = spa_lower_bid_safer(0.8, 0.4, states, require_constant_outside=False)
    assert not rep.outside_constant


def test_spa_random_known_outside_always_safer():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(100):
        states, bid_a, bid_b = known_outside_states(rng)
        try:
            rep = spa_lower_bid_safer(bid_a, bid_b, states)
        except DominancePrecondition:
            continue
        assert rep.verdict.safer
        checked += 1
    assert checked > 60


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_problem_dict_round_trip():
    states = _mk_states()
    doc = problem_to_dict(states, 0.8, 0.4)
    states2, bid_a, bid_b = problem_from_dict(doc)
    assert bid_a == 0.8 and bid_b == 0.4
    assert len(states2) == len(states)
    for s1, s2 in zip(states, states2):
        assert s1.gamma == s2.gamma
        assert s1.value == s2.value
        assert s1.outside == s2.outside


_DROP = object()


@pytest.mark.parametrize("path, val, match", [
    (("bid_b",), _DROP, "^missing keys in problem: bid_b$"),
    (("states",), [], "^'states' must be a nonempty list$"),
    (("states", 1), [0.6, 1.3, 0.2], "^state 1 must be a JSON object, got list$"),
    (("states", 1, "tie"), True, "^unknown keys in state 1: tie$"),
    (("states", 1, "outside"), _DROP, "^missing keys in state 1: outside$"),
    (("states", 1, "tie_low"), 1, "^state 1.tie_low must be a boolean, got 1$"),
    (("states", 1, "gamma"), "0.6", "^state 1.gamma must be a finite number"),
])
def test_problem_from_dict_rejects_malformed_documents(path, val, match):
    doc = problem_to_dict(_mk_states(), 0.8, 0.4)
    *outer, key = path
    node = doc
    for k in outer:
        node = node[k]
    if val is _DROP:
        del node[key]
    else:
        node[key] = val
    with pytest.raises(ConfigError, match=match):
        problem_from_dict(doc)


def test_problem_from_dict_rejects_unknown_keys():
    doc = problem_to_dict(_mk_states(), 0.8, 0.4)
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="^unknown keys in problem: extra$"):
        problem_from_dict(doc)


@pytest.mark.parametrize("doc", [[], "states", None, 1.0])
def test_problem_from_dict_rejects_a_non_object(doc):
    with pytest.raises(ConfigError, match="^problem must be a JSON object"):
        problem_from_dict(doc)
