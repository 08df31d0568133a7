"""Exception and warning types shared across the library."""


class RiskbidError(Exception):
    """Base class for all library-specific errors."""


class DomainError(RiskbidError):
    """An input lies outside the domain of a utility or a distribution."""


class ConfigError(RiskbidError):
    """A scenario, problem, or config document is invalid."""


class IdenticalActions(RiskbidError):
    """Both actions pay the same in every state; nothing to compare."""


class DominancePrecondition(RiskbidError):
    """One action dominates the other, so the safety comparison is undefined."""


class PreconditionError(RiskbidError):
    """An operation was called outside its stated precondition."""


class BidOrderError(RiskbidError):
    """The pair of bids is not strictly ordered the way the caller claims."""


class OutsideOptionNotConstant(RiskbidError):
    """A check that requires a state-independent outside option got a varying one."""


class SingularHazard(RiskbidError):
    """The win probability vanishes where the hazard rate is needed."""


class NonpositiveSurplus(RiskbidError):
    """The winning surplus does not exceed the outside option."""


class NonmonotoneSolution(RiskbidError):
    """A solved bid function decreases over a region too wide to be noise."""


class OrderingViolation(RiskbidError):
    """A comparative-statics ordering failed beyond numerical tolerance.

    Carries the offending comparison report in ``report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvariantViolation(RiskbidError):
    """A result contradicts a fact the theory guarantees (a library bug)."""


class SolverWarning(UserWarning):
    """Non-fatal solver diagnostics (e.g. isolated monotonicity wobbles)."""
