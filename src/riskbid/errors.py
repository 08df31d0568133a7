"""Exception and warning types shared across the library, and the checks
every numeric parameter passes on its way in."""

import math
import numbers


class RiskbidError(Exception):
    """Base class for all library-specific errors."""


class DomainError(RiskbidError):
    """An input lies outside the domain of a utility or a distribution."""


class ConfigError(RiskbidError):
    """A scenario, problem, or config document is invalid."""


def finite_number(val, where):
    """``val`` as a float; ConfigError unless a finite real number (not a bool)."""
    try:  # math.isfinite, unlike a comparison, takes a numpy scalar without a warning
        ok = isinstance(val, numbers.Real) and not isinstance(val, bool) and math.isfinite(val)
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        raise ConfigError(f"{where} must be a finite number, got {val!r}")
    return float(val)


def positive_number(val, where):
    """``val`` as a float; ConfigError unless a finite number > 0 (a tolerance)."""
    val = finite_number(val, where)
    if not val > 0:
        raise ConfigError(f"{where} must be > 0, got {val}")
    return val


def integer_count(val, where, least):
    """``val`` as an int; ConfigError unless an integer >= least (not a bool)."""
    # bool is an int subclass, but True would pass as 1 (one round, one type)
    if isinstance(val, bool) or not isinstance(val, numbers.Integral) or val < least:
        raise ConfigError(f"{where} must be an integer >= {least}, got {val!r}")
    return int(val)


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
