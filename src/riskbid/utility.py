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
  if any entry leaves it; a scalar input gives a float.  A float input
  is checked by one float comparison and handed to the kernel as is.
- ``masked_value`` never raises: it returns an array of the input's
  shape with ``-inf`` at out-of-domain entries, and runs the kernel only
  on the rest.  A composition masks each layer in turn.

A transform is just another weakly concave member of the same menu,
applied to the *output* of a utility; ``compose`` builds the combined
function.  Composing with a strictly concave transform produces a more
risk-averse preference over the same payoffs.
"""

import numpy as np

from .errors import ConfigError, DomainError, finite_number, finite_pairs, positive_number


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

    def _arg(self, x):
        """x + shift after the domain check: a float for a float, else an array."""
        lo = self.domain_lo
        if isinstance(x, float):
            # a scalar (an ODE stage, say) is checked by one float comparison
            z = x + self.shift
            if z <= lo if self.domain_open else z < lo:
                self._domain_error(z)
            return z
        z = np.asarray(x, dtype=float) + self.shift
        # nothing lies below an unbounded domain, so only bounded ones scan
        if lo > -np.inf and np.any(z <= lo if self.domain_open else z < lo):
            self._domain_error(np.min(z))
        return z

    def _domain_error(self, z):
        raise DomainError(
            f"{type(self).__name__}: argument + shift = {float(z):g} outside "
            f"domain ({'(' if self.domain_open else '['}{self.domain_lo:g}, inf)"
        )

    def value(self, x):
        """u(x); raises ``DomainError`` if any entry leaves the domain."""
        z = self._arg(x)
        out = self._u(z)
        return out if isinstance(z, np.ndarray) and z.ndim else float(out)

    def deriv(self, x):
        """u'(x); raises ``DomainError`` if any entry leaves the domain."""
        return self._value_deriv(x)[1]

    def _value_deriv(self, x):
        """(u(x), u'(x)) from one domain check; a composition evaluates each
        layer once for both."""
        z = self._arg(x)
        if isinstance(z, np.ndarray) and z.ndim:
            return self._u(z), self._du(z)
        return float(self._u(z)), float(self._du(z))

    def masked_value(self, x):
        """u(x) as an array of x's shape, ``-inf`` where x leaves the domain.

        The kernel only sees in-domain entries, so a breach neither raises
        nor warns.
        """
        z = np.asarray(x, dtype=float) + self.shift
        m = z.min() if z.size else np.inf  # decides the common all-in case; a NaN fails it
        if m > self.domain_lo if self.domain_open else m >= self.domain_lo:
            return np.asarray(self._u(z), dtype=float)
        ok = z > self.domain_lo if self.domain_open else z >= self.domain_lo
        out = np.full(z.shape, -np.inf)
        out[ok] = self._u(z[ok])
        return out

    def to_config(self):
        raise NotImplementedError


class LinearUtility(Utility):
    """Risk-neutral benchmark, u(x) = x + shift."""

    def __init__(self, shift=0.0):
        self.shift = finite_number(shift, "shift")

    def _u(self, z):
        return z

    def _du(self, z):
        return 1.0 if isinstance(z, float) else np.ones_like(z)

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
        rho = finite_number(rho, "relative risk aversion")
        if rho < 0:
            raise ConfigError(f"relative risk aversion must be >= 0, got {rho}")
        if rho == 1.0:
            raise ConfigError("rho = 1 is the log member; use LogUtility")
        self.rho = rho
        self.shift = finite_number(shift, "shift")
        self.domain_lo = 0.0
        self.domain_open = rho > 1.0

    def _u(self, z):
        r = 1.0 - self.rho
        return np.power(z, r) / r

    def _du(self, z):
        if isinstance(z, float) and z > 0.0:
            # nothing to divide by zero, so no error state to enter
            return np.power(z, -self.rho)
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
        self.shift = finite_number(shift, "shift")

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
        self.alpha = positive_number(alpha, "absolute risk aversion")
        self.shift = finite_number(shift, "shift")

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
        if isinstance(knots, (list, tuple)) and not knots:
            raise ConfigError("piecewise-linear utility needs at least one knot")
        # a handful of knots: checked and summed as Python floats (rounding as numpy does)
        xs, ms = finite_pairs(knots, "piecewise-linear knots").T.tolist()
        if any(b - a <= 0 for a, b in zip(xs, xs[1:])):
            raise ConfigError("piecewise-linear knots must be strictly increasing")
        if any(m <= 0 for m in ms):
            raise ConfigError("piecewise-linear slopes must be positive")
        if any(b - a > 1e-15 for a, b in zip(ms, ms[1:])):
            raise ConfigError("piecewise-linear slopes must be nonincreasing")
        # cumulative values at knots, anchored at 0
        vals = [0.0]
        for i in range(1, len(xs)):
            vals.append(vals[-1] + ms[i - 1] * (xs[i] - xs[i - 1]))
        self.knot_x = np.array(xs)
        self.knot_m = np.array(ms)
        self.knot_v = np.array(vals)
        self.shift = finite_number(shift, "shift")

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

    def _value_deriv(self, x):
        # an inner breach raises from inner.value first, as in value(x);
        # deriv shares value's domain, so it adds no error of its own
        w, dw = self.inner._value_deriv(x)
        y, dy = self.outer._value_deriv(w)
        return y, dy * dw

    def masked_value(self, x):
        # -inf for an inner breach (every outer keeps it) or an outer CARA's overflow
        with np.errstate(over="ignore"):
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
    if finite_number(rho, "relative risk aversion") == 1.0:
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
