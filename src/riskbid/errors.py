"""Exception and warning types shared across the library, and the checks every
numeric parameter passes on its way in: a finite number, a count, or a list, tuple,
iterable or array of finite numbers or number pairs, none a bool, naming a bad entry."""

import math
import numbers
from collections.abc import Iterable, Mapping

import numpy as np


class RiskbidError(Exception):
    """Base class for all library-specific errors."""


class DomainError(RiskbidError):
    """An input lies outside the domain of a utility or a distribution."""


class ConfigError(RiskbidError):
    """A scenario, problem, or config document is invalid."""


def finite_number(val, where):
    """``val`` as a float; ConfigError unless a finite real number (not a bool)."""
    if type(val) is float and math.isfinite(val):  # taken as it is
        return val
    try:  # math.isfinite, unlike a comparison, takes a numpy scalar without a warning
        ok = isinstance(val, numbers.Real) and not isinstance(val, bool) and math.isfinite(val)
    except OverflowError:  # an int past the float range
        ok = False
    if not ok:
        raise ConfigError(f"{where} must be a finite number, got {val!r}")
    return float(val)


def _entries(val, ndim):  # an iterable's entries as a tuple, an ndim-d array as is; else ()
    if isinstance(val, np.ndarray):
        return val if val.ndim == ndim else ()
    if isinstance(val, Iterable) and not isinstance(val, (str, bytes, Mapping)):
        return tuple(val)
    return ()


def _floats(val, where, length=None, i=None):  # finite_numbers as a list; i: entry i of where
    if not len(entries := _entries(val, 1)) or (length and len(entries) != length):
        size = f"{length} numbers" if length else "a nonempty list of numbers"
        raise ConfigError(f"{where if i is None else f'{where}[{i}]'} must be {size}, got {val!r}")
    try:  # an entry's label is built only to name a bad entry, on a second pass
        return [finite_number(x, where) for x in entries]
    except ConfigError:
        where = where if i is None else f"{where}[{i}]"
        return [finite_number(x, f"{where}[{j}]") for j, x in enumerate(entries)]


def finite_numbers(val, where, length=None):
    """``val`` as a 1-d float array; ConfigError unless a nonempty list, tuple,
    iterable or 1-d array of finite numbers, of exactly ``length`` if given."""
    return np.array(_floats(val, where, length))


def finite_pairs(val, where):
    """``val`` as an (n, 2) float array; ConfigError unless a nonempty list,
    tuple, iterable or (n, 2) array of [x, y] pairs of finite numbers."""
    if not len(entries := _entries(val, 2)):
        raise ConfigError(f"{where} must be a nonempty list of [x, y] pairs, got {val!r}")
    return np.array([_floats(p, where, 2, i) for i, p in enumerate(entries)])


def _float_array(val, where):
    """``val`` as a float array, its dtype checked before it is converted; ConfigError
    naming ``where`` unless it holds integers or floats in rows of equal length."""
    try:
        arr = np.asarray(val)
    except ValueError:  # numpy refuses a ragged nested list
        raise ConfigError(f"{where} must hold numbers in rows of equal length") from None
    if arr.dtype.kind not in "iuf":  # no bools, strings or objects
        raise ConfigError(f"{where} must hold numbers, got {arr.dtype} entries")
    return arr.astype(float, copy=False)


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
