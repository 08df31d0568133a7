"""Utility families and concave transforms.

Four closed-form families: linear, constant relative risk aversion
(power, with the log special case), constant absolute risk aversion
(exponential), and concave piecewise linear.  Every family evaluates
u(x) and u'(x) in closed form and accepts scalars or numpy arrays.

Each family carries a ``shift``: the payoff is offset before the base
formula is applied, u(x) = base(x + shift).  Shifting is how payoffs
that can go negative are kept inside a bounded domain (e.g. power
utility needs positive arguments).

A transform is just another weakly concave member of the same menu,
applied to the *output* of a utility; ``compose`` builds the combined
function.  Composing with a strictly concave transform produces a more
risk-averse preference over the same payoffs.
"""

import numpy as np

from .errors import ConfigError, DomainError


def _prep(x):
    arr = np.asarray(x, dtype=float)
    return arr, (arr.ndim == 0)


def _ret(arr, scalar):
    return float(arr) if scalar else arr


class Utility:
    """Base class: increasing payoff evaluation with a closed-form derivative."""

    #: Lower end of the domain in *shifted* coordinates; subclasses override.
    domain_lo = -np.inf
    #: Whether the lower end is excluded.
    domain_open = False

    def _shifted(self, x):
        arr, scalar = _prep(x)
        z = arr + self.shift
        bad = (z < self.domain_lo) | (self.domain_open & (z <= self.domain_lo))
        if np.any(bad):
            worst = float(np.min(z))
            raise DomainError(
                f"{type(self).__name__}: argument + shift = {worst:g} outside "
                f"domain ({'(' if self.domain_open else '['}{self.domain_lo:g}, inf)"
            )
        return z, scalar

    def value(self, x):
        raise NotImplementedError

    def deriv(self, x):
        raise NotImplementedError

    def in_domain(self, x):
        """True when every entry of x (+shift) is inside the domain."""
        return bool(np.all(self.domain_mask(x)))

    def domain_mask(self, x):
        """Elementwise in-domain indicator, same shape as x."""
        z = np.asarray(x, dtype=float) + self.shift
        if self.domain_open:
            return z > self.domain_lo
        return z >= self.domain_lo

    def to_config(self):
        raise NotImplementedError


class LinearUtility(Utility):
    """Risk-neutral benchmark, u(x) = x + shift."""

    def __init__(self, shift=0.0):
        self.shift = float(shift)

    def value(self, x):
        z, scalar = self._shifted(x)
        return _ret(z, scalar)

    def deriv(self, x):
        arr, scalar = _prep(x)
        return _ret(np.ones_like(arr), scalar)

    def to_config(self):
        return {"family": "linear", "shift": self.shift}

    def __repr__(self):
        return f"LinearUtility(shift={self.shift})"


class CRRAUtility(Utility):
    """Power utility u(x) = (x+shift)^(1-rho) / (1-rho), rho >= 0, rho != 1.

    For rho < 1 the domain is x + shift >= 0; for rho > 1 the boundary
    point is excluded (x + shift > 0).  Use :class:`LogUtility` for the
    rho = 1 member.
    """

    def __init__(self, rho, shift=0.0):
        rho = float(rho)
        if rho < 0:
            raise ConfigError(f"relative risk aversion must be >= 0, got {rho}")
        if rho == 1.0:
            raise ConfigError("rho = 1 is the log member; use LogUtility")
        self.rho = rho
        self.shift = float(shift)
        self.domain_lo = 0.0
        self.domain_open = rho > 1.0

    def value(self, x):
        z, scalar = self._shifted(x)
        r = 1.0 - self.rho
        return _ret(np.power(z, r) / r, scalar)

    def deriv(self, x):
        z, scalar = self._shifted(x)
        with np.errstate(divide="ignore"):
            out = np.power(z, -self.rho)
        return _ret(out, scalar)

    def to_config(self):
        return {"family": "crra", "rho": self.rho, "shift": self.shift}

    def __repr__(self):
        return f"CRRAUtility(rho={self.rho}, shift={self.shift})"


class LogUtility(Utility):
    """Log utility, the unit-relative-risk-aversion member: u(x) = ln(x+shift)."""

    domain_lo = 0.0
    domain_open = True

    def __init__(self, shift=0.0):
        self.shift = float(shift)

    def value(self, x):
        z, scalar = self._shifted(x)
        return _ret(np.log(z), scalar)

    def deriv(self, x):
        z, scalar = self._shifted(x)
        return _ret(1.0 / z, scalar)

    def to_config(self):
        return {"family": "crra_log", "shift": self.shift}

    def __repr__(self):
        return f"LogUtility(shift={self.shift})"


class CARAUtility(Utility):
    """Exponential utility u(x) = 1 - exp(-alpha (x+shift)), alpha > 0."""

    def __init__(self, alpha, shift=0.0):
        alpha = float(alpha)
        if alpha <= 0:
            raise ConfigError(f"absolute risk aversion must be > 0, got {alpha}")
        self.alpha = alpha
        self.shift = float(shift)

    def value(self, x):
        z, scalar = self._shifted(x)
        return _ret(1.0 - np.exp(-self.alpha * z), scalar)

    def deriv(self, x):
        z, scalar = self._shifted(x)
        return _ret(self.alpha * np.exp(-self.alpha * z), scalar)

    def to_config(self):
        return {"family": "cara", "alpha": self.alpha, "shift": self.shift}

    def __repr__(self):
        return f"CARAUtility(alpha={self.alpha}, shift={self.shift})"


class PiecewiseLinearUtility(Utility):
    """Concave piecewise-linear utility given as (knot, slope) pairs.

    ``knots[i] = (x_i, m_i)`` means slope m_i applies on [x_i, x_{i+1});
    the first slope extends left of x_0 and the last extends right.
    Knot abscissae must be strictly increasing and slopes positive and
    nonincreasing (that is what makes the function concave).  Values are
    anchored at u(x_0) = 0; only differences matter for choice.
    """

    def __init__(self, knots, shift=0.0):
        knots = [(float(x), float(m)) for x, m in knots]
        if not knots:
            raise ConfigError("piecewise-linear utility needs at least one knot")
        xs = np.array([k[0] for k in knots])
        ms = np.array([k[1] for k in knots])
        if np.any(np.diff(xs) <= 0):
            raise ConfigError("piecewise-linear knots must be strictly increasing")
        if np.any(ms <= 0):
            raise ConfigError("piecewise-linear slopes must be positive")
        if np.any(np.diff(ms) > 1e-15):
            raise ConfigError("piecewise-linear slopes must be nonincreasing")
        self.knot_x = xs
        self.knot_m = ms
        # cumulative values at knots, anchored at 0
        vals = np.zeros_like(xs)
        if len(xs) > 1:
            vals[1:] = np.cumsum(ms[:-1] * np.diff(xs))
        self.knot_v = vals
        self.shift = float(shift)

    def _segment(self, z):
        idx = np.searchsorted(self.knot_x, z, side="right") - 1
        return np.clip(idx, 0, len(self.knot_x) - 1)

    def value(self, x):
        z, scalar = self._shifted(x)
        idx = self._segment(z)
        out = self.knot_v[idx] + self.knot_m[idx] * (z - self.knot_x[idx])
        return _ret(out, scalar)

    def deriv(self, x):
        z, scalar = self._shifted(x)
        # right-hand slope convention at the kinks themselves
        return _ret(self.knot_m[self._segment(z)], scalar)

    def to_config(self):
        return {
            "family": "piecewise_linear",
            "knots": [[float(x), float(m)] for x, m in zip(self.knot_x, self.knot_m)],
            "shift": self.shift,
        }

    def __repr__(self):
        pairs = list(zip(self.knot_x, self.knot_m))
        return f"PiecewiseLinearUtility({pairs}, shift={self.shift})"


class ComposedUtility(Utility):
    """phi o u: a concave transform applied to the output of a utility."""

    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = inner
        self.shift = 0.0

    def value(self, x):
        return self.outer.value(self.inner.value(x))

    def deriv(self, x):
        return self.outer.deriv(self.inner.value(x)) * self.inner.deriv(x)

    def domain_mask(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        ok = np.atleast_1d(self.inner.domain_mask(arr))
        out = np.zeros(arr.shape, dtype=bool)
        if np.any(ok):
            out[ok] = np.atleast_1d(self.outer.domain_mask(self.inner.value(arr[ok])))
        return out.reshape(np.shape(x))

    def to_config(self):
        return {
            "family": "composed",
            "outer": self.outer.to_config(),
            "inner": self.inner.to_config(),
        }

    def __repr__(self):
        return f"ComposedUtility({self.outer!r}, {self.inner!r})"


def crra(rho, shift=0.0):
    """CRRA constructor that routes rho = 1 to the log member."""
    if float(rho) == 1.0:
        return LogUtility(shift)
    return CRRAUtility(rho, shift)


def compose(transform, base):
    """Return the utility x -> transform(base(x))."""
    return ComposedUtility(transform, base)


def effective_utility(base, transform=None):
    """The utility a solver should optimize: base, or transform o base."""
    if transform is None:
        return base
    return ComposedUtility(transform, base)
