"""riskbid: auction equilibrium solvers and a bid-safety calculus.

Three pieces:

* a finite-state safety relation comparing two bids as risk aversion
  increases (``safety``),
* symmetric equilibrium solvers for first-price (ODE integration) and
  second-/uniform-price (pivotal indifference) auctions under
  configurable utility, value, outside-option, and win-payoff models
  (``fpa``, ``spa``),
* ex-post verification: best-response audits and Monte Carlo replay
  (``verification``), plus a JSON/CSV command-line front end (``cli``).
"""

from .errors import (
    BidOrderError,
    ConfigError,
    DomainError,
    DominancePrecondition,
    IdenticalActions,
    InvariantViolation,
    NonmonotoneSolution,
    NonpositiveSurplus,
    OrderingViolation,
    OutsideOptionNotConstant,
    PreconditionError,
    RiskbidError,
    SingularHazard,
    SolverWarning,
)
from .fpa import (
    ComparisonReport,
    EquilibriumSolution,
    FPAScenario,
    closed_form_crra_uniform,
    compare_risk_aversion_fpa,
    marginal_tradeoff,
    solve_fpa,
)
from .outcomes import (
    AffineOutside,
    ConstantOutside,
    DeterministicWin,
    DiscreteNoise,
    NoisyWin,
    TableOutside,
    TruncatedNormalNoise,
    UniformNoise,
)
from .safety import (
    AuctionPartition,
    Dominance,
    FiniteDecisionProblem,
    FpaSafetyReport,
    PartitionABC,
    ProbeReport,
    SafetyVerdict,
    SpaSafetyReport,
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
from .spa import (
    SPAScenario,
    compare_risk_aversion_spa,
    pivotal_expectation,
    solve_spa,
    solve_uniform_price,
)
from .utility import (
    CARAUtility,
    ComposedUtility,
    CRRAUtility,
    LinearUtility,
    LogUtility,
    PiecewiseLinearUtility,
    Utility,
    compose,
    crra,
    effective_utility,
)
from .values import (
    PowerDist,
    TruncatedNormalDist,
    UniformDist,
    ValueModel,
)
from .verification import (
    AuditReport,
    StatsReport,
    best_response_audit,
    fpa_report_utility,
    monte_carlo_auction,
    spa_report_utility,
)

__version__ = "0.1.0"
