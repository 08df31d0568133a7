"""Independent references the benchmark checks riskbid's outputs against.

Nothing here imports riskbid: every quantity is computed from its
definition, so a fault in the library cannot also hide in its check.
Payoff vectors and states are plain Python sequences; a state is a tuple
``(gamma, value, outside, tie_high, tie_low)``.
"""

import math

#: payoffs closer than this count as equal, as in the safety relation
TAU_EQ = 1e-9


# ---------------------------------------------------------------------------
# first-price and order-statistic closed forms


def fpa_crra_coefficient(n, rho):
    """Slope c of the first-price bid c * v for n IID U[0, 1] bidders.

    With CRRA utility x^(1-rho) / (1-rho) and no outside option the
    first-order condition beta' = (v - beta) * (n - 1) / ((1 - rho) v)
    has the linear solution c = (n - 1) / (n - rho).
    """
    return (n - 1) / (n - rho)


def expected_kth_highest_uniform(n, k):
    """E[k-th highest of n IID U[0, 1] draws] = (n + 1 - k) / (n + 1)."""
    return (n + 1 - k) / (n + 1)


def fpa_revenue_crra_uniform(n, rho):
    """First-price revenue: the winner bids c times the highest value."""
    return fpa_crra_coefficient(n, rho) * expected_kth_highest_uniform(n, 1)


def spa_revenue_truthful_uniform(n):
    """Second-price revenue with truthful bids: the second-highest value."""
    return expected_kth_highest_uniform(n, 2)


def uniform_price_revenue_truthful(n, units):
    """K units at the highest losing bid: K times the (K+1)-th highest value."""
    return units * expected_kth_highest_uniform(n, units + 1)


def frequency_z(freq, p, rounds):
    """Standard score of an observed frequency against probability p."""
    return abs(freq - p) / math.sqrt(p * (1.0 - p) / rounds)


# ---------------------------------------------------------------------------
# finite-state safety by brute force


def partition(a, b, tol=TAU_EQ):
    """State indices where a pays strictly more, and strictly less, than b."""
    up = [i for i in range(len(a)) if a[i] - b[i] > tol]
    dn = [i for i in range(len(a)) if a[i] - b[i] < -tol]
    return up, dn


def is_dominated(a, b, tol=TAU_EQ):
    """True when one action is weakly better in every state."""
    up, dn = partition(a, b, tol)
    return not up or not dn


def cross_pair_safe(a, b, tol=TAU_EQ):
    """Is a safer than b?  Checks every (up, dn) pair one at a time.

    a is safer than b iff for every state `up` where a pays more and
    every state `dn` where b pays more, b[dn] >= a[up] and a[dn] >= b[up].
    """
    up, dn = partition(a, b, tol)
    for i in up:
        for j in dn:
            if b[j] < a[i] - tol or a[j] < b[i] - tol:
                return False
    return True


def cross_pair_margin(a, b, tol=TAU_EQ):
    """Largest amount by which any cross-pair inequality fails (<= 0 if none)."""
    up, dn = partition(a, b, tol)
    worst = 0.0
    for i in up:
        for j in dn:
            worst = max(worst, a[i] - b[j], b[i] - a[j])
    return worst


def piecewise_linear_value(knots, shift, x):
    """Concave piecewise-linear utility from (knot, slope) pairs, u(x_0) = 0.

    Slope m_i applies on [x_i, x_{i+1}); the first slope extends to the
    left of x_0 and the last to the right of the final knot.
    """
    z = x + shift
    x0, m0 = knots[0]
    if z <= x0:
        return m0 * (z - x0)
    total = 0.0
    for i, (xi, mi) in enumerate(knots):
        right = knots[i + 1][0] if i + 1 < len(knots) else math.inf
        total += mi * (min(z, right) - xi)
        if z <= right:
            break
    return total


def witness_reverses(belief, a, b, knots, shift, slack=1e-9):
    """Does the belief prefer a under linear utility and b after the bend?

    The preference for a is weak and allowed ``slack`` of rounding room,
    since a witness sits right at the indifference belief; the reversed
    preference under the transform must be strict.
    """
    base_gap = sum(p * (x - y) for p, x, y in zip(belief, a, b))
    bent_gap = sum(
        p * (piecewise_linear_value(knots, shift, x) - piecewise_linear_value(knots, shift, y))
        for p, x, y in zip(belief, a, b)
    )
    return base_gap >= -slack and bent_gap < 0.0


# ---------------------------------------------------------------------------
# auction-state payoffs


def _wins(bid, gamma, tie_flag, tol=TAU_EQ):
    if bid > gamma + tol:
        return True
    return abs(bid - gamma) <= tol and tie_flag


def fpa_state_payoffs(bid, states, high):
    """First price: value minus own bid when the bid clears, else outside."""
    out = []
    for gamma, value, outside, tie_high, tie_low in states:
        flag = tie_high if high else tie_low
        out.append(value - bid if _wins(bid, gamma, flag) else outside)
    return out


def spa_state_payoffs(bid, states, high):
    """Second price: value minus the threshold when the bid clears, else outside."""
    out = []
    for gamma, value, outside, tie_high, tie_low in states:
        flag = tie_high if high else tie_low
        out.append(value - gamma if _wins(bid, gamma, flag) else outside)
    return out
