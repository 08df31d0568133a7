"""Outside options and winning-payoff models.

The outside option s(v) is what a bidder of type v consumes when she
does not get the good.  The win payoff W describes what getting the
good is worth: either exactly the type v, or v plus scaled noise that
resolves after the auction.  Noise laws expose quadrature rules, so
expectations reduce to dot products.  A discrete law is its own atoms.
A continuous law is a value marginal (``values``) plus its density on
64 (or 32, where ``spa`` finds that enough) Gauss-Legendre nodes of its
support, renormalized, with inverse-cdf draws.
"""

import numpy as np

from .errors import ConfigError
from .values import TruncatedNormalDist, UniformDist

_GL_ORDER = 64


# ---------------------------------------------------------------------------
# outside options


class OutsideOption:
    def value(self, v):
        raise NotImplementedError

    def to_config(self):
        raise NotImplementedError


class ConstantOutside(OutsideOption):
    def __init__(self, s0=0.0):
        self.s0 = float(s0)

    def value(self, v):
        out = np.full_like(np.asarray(v, dtype=float), self.s0)
        return float(out) if out.ndim == 0 else out

    def to_config(self):
        return {"form": "constant", "s0": self.s0}

    def __repr__(self):
        return f"ConstantOutside({self.s0})"


class AffineOutside(OutsideOption):
    def __init__(self, c0, c1):
        self.c0 = float(c0)
        self.c1 = float(c1)

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
        pts = [(float(v), float(s)) for v, s in points]
        if len(pts) < 2:
            raise ConfigError("table outside option needs at least two points")
        vs = np.array([p[0] for p in pts])
        ss = np.array([p[1] for p in pts])
        if np.any(np.diff(vs) <= 0):
            raise ConfigError("table abscissae must be strictly increasing")
        if not np.all(np.isfinite(ss)):
            raise ConfigError("table values must be finite")
        self.vs = vs
        self.ss = ss

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
    lower_orders = ()  # node counts that ``atoms(order)`` offers below its default rule
    #: quadrature nodes and weights; weights sum to 1
    def atoms(self):
        raise NotImplementedError

    def sample(self, rng, size):
        raise NotImplementedError

    def to_config(self):
        raise NotImplementedError


class DiscreteNoise(NoiseDist):
    def __init__(self, points, probs):
        points = np.asarray(points, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if points.ndim != 1 or points.size == 0 or points.shape != probs.shape:
            raise ConfigError("discrete noise needs matching point/prob vectors")
        if np.any(probs < 0) or probs.sum() <= 0:
            raise ConfigError("discrete noise probabilities must be nonnegative")
        if not np.all(np.isfinite(points)):
            raise ConfigError("discrete noise points must be finite")
        self.points = points
        self.probs = probs / probs.sum()
        self.support = (float(points.min()), float(points.max()))

    def atoms(self):
        return self.points, self.probs

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
    ``order`` Gauss-Legendre nodes, renormalized (``None`` if no mass)."""

    lower_orders = (32,)

    def __init__(self, law):
        self.law = law
        self.support = (law.lo, law.hi)
        self.atoms()

    def atoms(self, order=_GL_ORDER):
        x, w = np.polynomial.legendre.leggauss(order)
        pts = 0.5 * (self.law.hi + self.law.lo) + 0.5 * (self.law.hi - self.law.lo) * x
        pdf = self.law.pdf(pts)
        mass = np.dot(w, pdf)
        ok = mass > 0 and np.isfinite(mass)
        if not ok and order == _GL_ORDER:
            raise ConfigError(
                f"{self.law!r} has quadrature mass {mass:g} on its {_GL_ORDER} "
                "Gauss-Legendre nodes; widen the law or its support"
            )
        return (pts, w * pdf / mass) if ok else None  # bias renormalized away

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

    lower_orders = ()  # node counts that ``offsets(order)`` offers below its default rule
    def offsets(self):
        """(offsets, weights): W takes value v + offset with the given weight."""
        raise NotImplementedError

    def sample(self, rng, v):
        raise NotImplementedError

    def to_config(self):
        raise NotImplementedError


class DeterministicWin(WinPayoff):
    def offsets(self):
        return np.array([0.0]), np.array([1.0])

    def sample(self, rng, v):
        return np.asarray(v, dtype=float).copy()

    def to_config(self):
        return {"form": "deterministic"}

    def __repr__(self):
        return "DeterministicWin()"


class NoisyWin(WinPayoff):
    def __init__(self, noise, scale):
        scale = float(scale)
        if scale < 0:
            raise ConfigError(f"noise scale must be >= 0, got {scale}")
        self.noise = noise
        self.scale = scale
        self.lower_orders = noise.lower_orders

    def offsets(self, order=None):
        """The noise's default rule or its ``order``-node one, scaled."""
        rule = self.noise.atoms() if order is None else self.noise.atoms(order)
        return None if rule is None else (self.scale * rule[0], rule[1])

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
