"""Hand-worked cases for the benchmark's oracles.

    python3 -m pytest bench/test_oracles.py

Every expected number below is worked out by hand in the comment next
to it, not taken from riskbid.
"""

import pytest

import oracles


def test_fpa_crra_coefficient():
    # risk neutral, two bidders: bid half the value
    assert oracles.fpa_crra_coefficient(2, 0.0) == pytest.approx(0.5)
    # n = 3, rho = 0.5: (3 - 1) / (3 - 0.5) = 2 / 2.5
    assert oracles.fpa_crra_coefficient(3, 0.5) == pytest.approx(0.8)


def test_order_statistic_revenues():
    # E[max of 2 uniforms] = 2/3, bid 1/2 of it: 1/3 = (n-1)/(n+1)
    assert oracles.fpa_revenue_crra_uniform(2, 0.0) == pytest.approx(1.0 / 3.0)
    # n = 3, rho = 0.5: 0.8 * E[max of 3] = 0.8 * 3/4
    assert oracles.fpa_revenue_crra_uniform(3, 0.5) == pytest.approx(0.6)
    # E[min of 2 uniforms] = 1/3; E[second of 4] = 3/5
    assert oracles.spa_revenue_truthful_uniform(2) == pytest.approx(1.0 / 3.0)
    assert oracles.spa_revenue_truthful_uniform(4) == pytest.approx(0.6)
    # 2 units of 5: price is the third-highest value, E = 3/6; revenue 2 * 1/2
    assert oracles.uniform_price_revenue_truthful(5, 2) == pytest.approx(1.0)
    # 2 units of 4: K (n - K) / (n + 1) = 2 * 2 / 5
    assert oracles.uniform_price_revenue_truthful(4, 2) == pytest.approx(0.8)


def test_frequency_z():
    # p = 1/2 over 100 rounds: SE = 0.05, so 0.6 is two SE away
    assert oracles.frequency_z(0.6, 0.5, 100) == pytest.approx(2.0)


def test_cross_pair_safe_by_hand():
    # a better in state 0 (3 > 1), b better in state 1 (5 > 4):
    # b[1] = 5 >= a[0] = 3 and a[1] = 4 >= b[0] = 1, so a is safer
    assert oracles.cross_pair_safe([3.0, 4.0], [1.0, 5.0])
    assert oracles.cross_pair_margin([3.0, 4.0], [1.0, 5.0]) == 0.0
    # a's gain sits above b's payoff where b wins: b[1] = 5 < a[0] = 6
    assert not oracles.cross_pair_safe([6.0, 4.0], [1.0, 5.0])
    # worst failure: max(a[0] - b[1], b[0] - a[1]) = max(1, -3)
    assert oracles.cross_pair_margin([6.0, 4.0], [1.0, 5.0]) == pytest.approx(1.0)
    # equal state 2 is ignored
    assert oracles.cross_pair_safe([3.0, 4.0, 7.0], [1.0, 5.0, 7.0])


def test_dominance():
    assert oracles.is_dominated([2.0, 3.0], [1.0, 3.0])
    assert not oracles.is_dominated([2.0, 3.0], [1.0, 4.0])


def test_piecewise_linear_value():
    knots = [(0.0, 2.0), (1.0, 1.0)]
    # left of the first knot: slope 2 anchored at u(0) = 0
    assert oracles.piecewise_linear_value(knots, 0.0, -1.0) == pytest.approx(-2.0)
    # at the kink: 2 * 1
    assert oracles.piecewise_linear_value(knots, 0.0, 1.0) == pytest.approx(2.0)
    # beyond it: 2 + 1 * 2
    assert oracles.piecewise_linear_value(knots, 0.0, 3.0) == pytest.approx(4.0)
    # a shift moves the argument: u(2 + 1) = 4
    assert oracles.piecewise_linear_value(knots, 1.0, 2.0) == pytest.approx(4.0)


def test_witness_reverses_by_hand():
    # a = (6, 4), b = (1, 5): linear gap (5, -1); belief (0.2, 0.8)
    # prefers a: 0.2 * 5 - 0.8 * 1 = 0.2 >= 0.
    # transform: slope 10 below 4.5, slope 1 above.  phi(6) - phi(1) =
    # 1.5 + 35 = 36.5 and phi(4) - phi(5) = -(5 + 0.5) = -5.5, so the
    # bent gap 0.2 * 36.5 - 0.8 * 5.5 = 2.9 keeps a: not a witness
    knots = [(3.5, 10.0), (4.5, 1.0)]
    assert not oracles.witness_reverses([0.2, 0.8], [6.0, 4.0], [1.0, 5.0], knots, 0.0)
    # slope 10 below 5.5 instead: phi(6) - phi(1) = 0.5 + 45 = 45.5 and
    # phi(4) - phi(5) = -10; belief (1/6, 5/6) is indifferent under the
    # linear gap (5/6 - 5/6 = 0) and bent 45.5/6 - 50/6 < 0: a witness
    knots = [(4.5, 10.0), (5.5, 1.0)]
    assert oracles.witness_reverses([1 / 6, 5 / 6], [6.0, 4.0], [1.0, 5.0], knots, 0.0)
    # a belief that strictly prefers b under the base utility is no witness
    assert not oracles.witness_reverses([0.1, 0.9], [6.0, 4.0], [1.0, 5.0], knots, 0.0)


def test_auction_payoffs_by_hand():
    # thresholds 0.5 (both bids clear), 1.5 (only the high bid), 3 (neither)
    states = [(0.5, 4.0, 0.2, False, False), (1.5, 4.0, 0.2, False, False),
              (3.0, 4.0, 0.2, False, False)]
    assert oracles.fpa_state_payoffs(2.0, states, high=True) == [2.0, 2.0, 0.2]
    assert oracles.fpa_state_payoffs(1.0, states, high=False) == [3.0, 0.2, 0.2]
    assert oracles.spa_state_payoffs(2.0, states, high=True) == [3.5, 2.5, 0.2]
    # a tie clears only with the tie flag
    tie = [(1.0, 4.0, 0.2, False, True)]
    assert oracles.fpa_state_payoffs(1.0, tie, high=True) == [0.2]
    assert oracles.fpa_state_payoffs(1.0, tie, high=False) == [3.0]
    # high bid a = (2, 2, 0.2), low bid b = (3, 0.2, 0.2): a is better
    # in state 1, b in state 0, and b[0] = 3 >= a[1] = 2, a[0] = 2 >= b[1]
    hi = oracles.fpa_state_payoffs(2.0, states, high=True)
    lo = oracles.fpa_state_payoffs(1.0, states, high=False)
    assert oracles.cross_pair_safe(hi, lo)
