"""Utility families and concave transforms.

Four closed-form families: linear, constant relative risk aversion
(power, with the log special case), constant absolute risk aversion
(exponential), and concave piecewise linear.

Each family carries a ``shift``: the payoff is offset before the base
formula is applied, u(x) = base(x + shift).  Shifting is how payoffs
that can go negative are kept inside a bounded domain (e.g. power
utility needs positive arguments).

A family only writes two unchecked array kernels on the shifted
argument, ``_u(z)`` and ``_du(z)``, and names its domain.  The base
class evaluates them for every family, on scalars or numpy arrays:

- ``value``/``deriv`` check the domain once and raise ``DomainError``
  if any entry leaves it; a scalar input gives a float.
- ``masked_value`` never raises: it returns an array of the input's
  shape with ``-inf`` at out-of-domain entries, and runs the kernel only
  on the rest.  A composition masks each layer in turn.

A transform is just another weakly concave member of the same menu,
applied to the *output* of a utility; ``compose`` builds the combined
function.  Composing with a strictly concave transform produces a more
risk-averse preference over the same payoffs.
"""

import numpy as np

from .errors import ConfigError, DomainError


class Utility:
    """Base class: increasing payoff evaluation with a closed-form derivative.

    A family defines the kernels ``_u`` and ``_du`` on the shifted
    argument z = x + shift, plus its domain (``domain_lo``,
    ``domain_open``); the evaluators below are shared by every family.
    """

    #: Lower end of the domain in *shifted* coordinates; subclasses override.
    domain_lo = -np.inf
    #: Whether the lower end is excluded.
    domain_open = False

    def _checked(self, kernel, x):
        z = np.asarray(x, dtype=float) + self.shift
        lo = self.domain_lo
        # nothing lies below an unbounded domain, so only bounded ones scan
        if lo > -np.inf and np.any(z <= lo if self.domain_open else z < lo):
            raise DomainError(
                f"{type(self).__name__}: argument + shift = {float(np.min(z)):g} outside "
                f"domain ({'(' if self.domain_open else '['}{lo:g}, inf)"
            )
        out = kernel(z)
        return float(out) if z.ndim == 0 else out

    def value(self, x):
        """u(x); raises ``DomainError`` if any entry leaves the domain."""
        return self._checked(self._u, x)

    def deriv(self, x):
        """u'(x); raises ``DomainError`` if any entry leaves the domain."""
        return self._checked(self._du, x)

    def masked_value(self, x):
        """u(x) as an array of x's shape, ``-inf`` where x leaves the domain.

        The kernel only sees in-domain entries, so a breach neither raises
        nor warns.
        """
        z = np.asarray(x, dtype=float) + self.shift
        ok = z > self.domain_lo if self.domain_open else z >= self.domain_lo
        if np.all(ok):
            return np.asarray(self._u(z), dtype=float)
        out = np.full(z.shape, -np.inf)
        out[ok] = self._u(z[ok])
        return out

    def to_config(self):
        raise NotImplementedError


class LinearUtility(Utility):
    """Risk-neutral benchmark, u(x) = x + shift."""

    def __init__(self, shift=0.0):
        self.shift = float(shift)

    def _u(self, z):
        return z

    def _du(self, z):
        return np.ones_like(z)

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

    def _u(self, z):
        r = 1.0 - self.rho
        return np.power(z, r) / r

    def _du(self, z):
        with np.errstate(divide="ignore"):
            return np.power(z, -self.rho)

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

    def _u(self, z):
        return np.log(z)

    def _du(self, z):
        return 1.0 / z

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

    def _u(self, z):
        return 1.0 - np.exp(-self.alpha * z)

    def _du(self, z):
        return self.alpha * np.exp(-self.alpha * z)

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

    def _u(self, z):
        idx = self._segment(z)
        return self.knot_v[idx] + self.knot_m[idx] * (z - self.knot_x[idx])

    def _du(self, z):
        # right-hand slope convention at the kinks themselves
        return self.knot_m[self._segment(z)]

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

    def masked_value(self, x):
        # an inner breach gives -inf, which every outer maps to -inf
        return self.outer.masked_value(self.inner.masked_value(x))

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
