"""Outside options and winning-payoff models.

The outside option s(v) is what a bidder of type v consumes when she
does not get the good.  The win payoff W describes what getting the
good is worth: either exactly the type v, or v plus scaled noise that
resolves after the auction.  Noise laws and win payoffs hold quadrature
``rules``, (nodes, weights) pairs with the fewest nodes first and the
default last, so expectations reduce to dot products.  A discrete law is
its own atoms.  A continuous law is a value marginal (``values``) plus
its density on 32 and 64 Gauss-Legendre nodes of its support, built and
renormalized once, at construction, with inverse-cdf draws.
"""

import functools

import numpy as np

from .errors import ConfigError, finite_number, finite_numbers, finite_pairs
from .values import TruncatedNormalDist, UniformDist

_GL_ORDERS = (32, 64)  # a law's rules; the last is its default


@functools.cache
def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


# ---------------------------------------------------------------------------
# outside options


class OutsideOption:
    def value(self, v):
        raise NotImplementedError

    def to_config(self):
        raise NotImplementedError


class ConstantOutside(OutsideOption):
    def __init__(self, s0=0.0):
        self.s0 = finite_number(s0, "s0")

    def value(self, v):
        out = np.full_like(np.asarray(v, dtype=float), self.s0)
        return float(out) if out.ndim == 0 else out

    def to_config(self):
        return {"form": "constant", "s0": self.s0}

    def __repr__(self):
        return f"ConstantOutside({self.s0})"


class AffineOutside(OutsideOption):
    def __init__(self, c0, c1):
        self.c0, self.c1 = finite_number(c0, "c0"), finite_number(c1, "c1")

    def value(self, v):
        out = self.c0 + self.c1 * np.asarray(v, dtype=float)
        return float(out) if np.ndim(out) == 0 else out

    def to_config(self):
        return {"form": "affine", "c0": self.c0, "c1": self.c1}

    def __repr__(self):
        return f"AffineOutside({self.c0}, {self.c1})"


class TableOutside(OutsideOption):
    """Piecewise-linear interpolation through (v, s) points; flat outside."""

    def __init__(self, points):
        pts = finite_pairs(points, "table points")
        if len(pts) < 2:
            raise ConfigError("table outside option needs at least two points")
        self.vs, self.ss = pts.T.copy()
        if np.any(np.diff(self.vs) <= 0):
            raise ConfigError("table abscissae must be strictly increasing")

    def value(self, v):
        out = np.interp(np.asarray(v, dtype=float), self.vs, self.ss)
        return float(out) if out.ndim == 0 else out

    def to_config(self):
        return {
            "form": "table",
            "points": [[float(v), float(s)] for v, s in zip(self.vs, self.ss)],
        }

    def __repr__(self):
        return f"TableOutside({list(zip(self.vs, self.ss))})"


# ---------------------------------------------------------------------------
# noise laws (standardized; a separate scale multiplies them)


class NoiseDist:
    #: (nodes, weights) quadrature rules, fewest nodes first and the default
    #: last; each rule's weights sum to 1
    rules = ()

    def sample(self, rng, size):
        raise NotImplementedError

    def to_config(self):
        raise NotImplementedError


class DiscreteNoise(NoiseDist):
    def __init__(self, points, probs):
        points = finite_numbers(points, "discrete noise points")
        probs = finite_numbers(probs, "discrete noise probs")
        if points.shape != probs.shape:
            raise ConfigError("discrete noise needs matching point/prob vectors")
        if not (np.all(probs >= 0) and 0 < probs.sum() < np.inf):
            raise ConfigError("discrete noise probabilities must be finite and nonnegative")
        self.points = points
        self.probs = probs / probs.sum()
        self.support = (float(points.min()), float(points.max()))
        self.rules = ((points, self.probs),)

    def sample(self, rng, size):
        return rng.choice(self.points, size=size, p=self.probs)

    def to_config(self):
        return {
            "kind": "discrete",
            "points": [float(p) for p in self.points],
            "probs": [float(p) for p in self.probs],
        }

    def __repr__(self):
        return f"DiscreteNoise({list(self.points)}, {list(self.probs)})"


class _LawNoise(NoiseDist):
    """Noise drawn from a value marginal: inverse-cdf draws, and its density on
    32 and 64 Gauss-Legendre nodes, renormalized.  A 32-node rule without
    quadrature mass is left out."""

    def __init__(self, law):
        self.law = law
        self.support = (law.lo, law.hi)
        rules = []
        for order in _GL_ORDERS:
            x, w = _leggauss(order)
            pts = 0.5 * (law.hi + law.lo) + 0.5 * (law.hi - law.lo) * x
            pdf = law.pdf(pts)
            mass = np.dot(w, pdf)
            if mass > 0 and np.isfinite(mass):
                rules.append((pts, w * pdf / mass))  # bias renormalized away
            elif order == _GL_ORDERS[-1]:
                raise ConfigError(
                    f"{law!r} has quadrature mass {mass:g} on its {order} "
                    "Gauss-Legendre nodes; widen the law or its support"
                )
        self.rules = tuple(rules)

    def sample(self, rng, size):
        return self.law.ppf(rng.random(size))

    def to_config(self):
        cfg = self.law.to_config()
        return {"kind": cfg.pop("family"), **cfg, "lo": self.support[0], "hi": self.support[1]}

    def __repr__(self):
        law = repr(self.law)
        return type(self).__name__ + law[law.index("("):]


class UniformNoise(_LawNoise):
    def __init__(self, lo, hi):
        super().__init__(UniformDist(lo, hi))


class TruncatedNormalNoise(_LawNoise):
    """Normal(mu, sigma) truncated to [lo, hi]."""

    def __init__(self, mu, sigma, lo, hi):
        super().__init__(TruncatedNormalDist(mu, sigma, lo, hi))
        self.mu, self.sigma = self.law.mu, self.law.sigma


# ---------------------------------------------------------------------------
# win payoffs


class WinPayoff:
    """Value of getting the good for type v: W = v + scale * noise."""

    #: (offsets, weights) rules, fewest nodes first and the default last:
    #: W takes value v + offset with the given weight
    rules = ()

    def sample(self, rng, v):
        raise NotImplementedError

    def to_config(self):
        raise NotImplementedError


class DeterministicWin(WinPayoff):
    rules = ((np.array([0.0]), np.array([1.0])),)

    def sample(self, rng, v):
        return np.asarray(v, dtype=float).copy()

    def to_config(self):
        return {"form": "deterministic"}

    def __repr__(self):
        return "DeterministicWin()"


class NoisyWin(WinPayoff):
    def __init__(self, noise, scale):
        scale = finite_number(scale, "noise scale")
        if scale < 0:
            raise ConfigError(f"noise scale must be >= 0, got {scale}")
        self.noise = noise
        self.scale = scale
        self.rules = tuple((scale * pts, w) for pts, w in noise.rules)

    def sample(self, rng, v):
        v = np.asarray(v, dtype=float)
        return v + self.scale * self.noise.sample(rng, v.shape)

    def to_config(self):
        return {
            "form": "additive_noise",
            "scale": self.scale,
            "noise": self.noise.to_config(),
        }

    def __repr__(self):
        return f"NoisyWin({self.noise!r}, scale={self.scale})"
