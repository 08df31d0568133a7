"""Type distributions: marginals, exchangeable value models, order statistics.

A value model describes n >= 2 symmetric bidders.  It is either IID
draws from a single marginal, or an exchangeable mixture: first a latent
component is drawn, then all n values are drawn IID from that
component's marginal.  Conditioning one bidder's value updates the
component posterior, which is what makes mixture win probabilities
value-dependent.  The marginals are the package's only continuous laws:
a continuous win-noise law (``outcomes``) is a marginal plus fixed
quadrature.  Only the truncated normal needs scipy (``scipy.special``),
imported when one is first built, so importing the package loads none.

Every evaluator takes a scalar or an array; a scalar gives a float.
"""

import math

import numpy as np

from .errors import (ConfigError, DomainError, SingularHazard, finite_number, integer_count,
                     positive_number)

#: Win probabilities below this are treated as an exact zero for hazards.
_Q_FLOOR = 1e-300
#: Slack allowed when checking that a point lies in the support.
_EDGE_SLACK = 1e-9


def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _binomial_term(c, F, j, k):
    """c * (1 - F)^j * F^k, multiplied left to right.  For j = 0 the
    factor (1 - F)^0 is exactly 1 (even for a nan F), so it is skipped
    without changing a bit; single-unit hazards always have j = 0."""
    if j:
        c = c * np.power(1.0 - F, j)
    return c * np.power(F, k)


def _first(v, mask):
    """The first entry of v where mask holds, for error messages."""
    return float(np.broadcast_to(v, np.shape(mask))[mask][0])


class MarginalDist:
    """One bidder's value distribution on a closed interval [lo, hi]."""

    def __init__(self, lo, hi):
        lo, hi = finite_number(lo, "support lo"), finite_number(hi, "support hi")
        if not lo < hi:
            raise ConfigError(f"support must be a finite interval, got [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def _unit(self, t):
        """Position of t in the support as a fraction, clipped to [0, 1]."""
        return np.clip((np.asarray(t, dtype=float) - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def cdf(self, t):
        raise NotImplementedError

    def pdf(self, t):
        raise NotImplementedError

    def ppf(self, q):
        raise NotImplementedError

    def to_config(self):
        raise NotImplementedError


class UniformDist(MarginalDist):
    def cdf(self, t):
        return self._unit(t)

    def pdf(self, t):
        return np.full_like(np.asarray(t, dtype=float), 1.0 / (self.hi - self.lo))

    def ppf(self, q):
        return self.lo + (self.hi - self.lo) * np.asarray(q, dtype=float)

    def to_config(self):
        return {"family": "uniform"}

    def __repr__(self):
        return f"UniformDist({self.lo}, {self.hi})"


class PowerDist(MarginalDist):
    """CDF ((t-lo)/(hi-lo))^k for k > 0; density k z^(k-1) rescaled."""

    def __init__(self, k, lo, hi):
        super().__init__(lo, hi)
        self.k = positive_number(k, "power exponent")

    def cdf(self, t):
        return np.power(self._unit(t), self.k)

    def pdf(self, t):
        z = self._unit(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            # k < 1 genuinely diverges at the lower edge; callers that
            # condition there fall back to a point just inside
            out = self.k * np.power(z, self.k - 1.0) / (self.hi - self.lo)
        return out

    def ppf(self, q):
        return self.lo + (self.hi - self.lo) * np.power(np.asarray(q, dtype=float), 1.0 / self.k)

    def to_config(self):
        return {"family": "power", "k": self.k}

    def __repr__(self):
        return f"PowerDist(k={self.k}, lo={self.lo}, hi={self.hi})"


class TruncatedNormalDist(MarginalDist):
    """Normal(mu, sigma) conditioned on [lo, hi].

    Written in the log of the normal tail nearer the support (mirrored
    when the support lies above the mean), so that a support far out in
    one tail keeps its digits instead of cancelling to 0/0.
    """

    def __init__(self, mu, sigma, lo, hi):
        from scipy import special  # on first use: see the module docstring
        super().__init__(lo, hi)
        sigma = positive_number(sigma, "sigma")
        self.mu = finite_number(mu, "mu")
        self.sigma = sigma
        a, b = (self.lo - self.mu) / sigma, (self.hi - self.mu) / sigma
        self._s = -1.0 if a > 0 else 1.0
        self._la, self._lb = special.log_ndtr(self._s * a), special.log_ndtr(self._s * b)
        # log Phi(s z) runs from _la to _lb; the mass is e^_lm * |_den|
        self._lm = max(self._la, self._lb)
        with np.errstate(invalid="ignore"):
            self._den = np.expm1(self._lb - self._lm) - np.expm1(self._la - self._lm)
        if not (abs(self._den) > 0 and math.isfinite(self._la + self._lb)):
            raise ConfigError(
                f"truncated normal ({self.mu:g}, {sigma:g}) on [{self.lo:g}, {self.hi:g}] "
                "is degenerate in double precision"
            )
        self._log_norm = self._lm + math.log(abs(self._den)) + math.log(sigma * math.sqrt(2 * math.pi))

    def _z(self, t):
        return (np.clip(t, self.lo, self.hi) - self.mu) / self.sigma

    def cdf(self, t):
        from scipy import special
        lz = special.log_ndtr(self._s * self._z(t))
        m = np.maximum(lz, self._la)
        return np.exp(m - self._lm) * (np.expm1(lz - m) - np.expm1(self._la - m)) / self._den

    def pdf(self, t):
        z = self._z(t)
        return np.exp(-0.5 * z * z - self._log_norm)

    def ppf(self, q):
        from scipy import special
        q = np.asarray(q, dtype=float)
        with np.errstate(divide="ignore"):  # log(0) = -inf at q = 0 and q = 1
            lz = np.logaddexp(np.log1p(-q) + self._la, np.log(q) + self._lb)
        x = special.ndtri_exp(lz)
        far = x < -40.0
        if np.any(far):
            # ndtri_exp keeps about 12 digits beyond 60 sigma; one Newton
            # step on log_ndtr restores them
            xf = np.minimum(x, -40.0)
            mills = math.sqrt(math.pi / 2) * special.erfcx(-xf / math.sqrt(2))  # Phi/phi
            x = np.where(far, xf - (special.log_ndtr(xf) - lz) * mills, x)
        return np.clip(self.mu + self.sigma * self._s * x, self.lo, self.hi)

    def to_config(self):
        return {"family": "truncated_normal", "mu": self.mu, "sigma": self.sigma}

    def __repr__(self):
        return (
            f"TruncatedNormalDist(mu={self.mu}, sigma={self.sigma}, "
            f"lo={self.lo}, hi={self.hi})"
        )


class ValueModel:
    """Exchangeable model for n bidders' values on a common support.

    ``components`` is a sequence of (weight, MarginalDist) pairs; a
    single pair is the IID special case.  All marginals must share the
    same support interval.
    """

    def __init__(self, components, n):
        n = integer_count(n, "number of bidders", 2)
        comps = [(finite_number(w, "component weight"), d) for w, d in components]
        if not comps:
            raise ConfigError("value model needs at least one component")
        if any(w <= 0 for w, _ in comps):
            raise ConfigError("component weights must be positive")
        total = sum(w for w, _ in comps)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"component weights must sum to 1, got {total}")
        lo, hi = comps[0][1].lo, comps[0][1].hi
        for _, d in comps:
            if abs(d.lo - lo) > 1e-12 or abs(d.hi - hi) > 1e-12:
                raise ConfigError("all mixture components must share one support")
        self.n = n
        self.weights = np.array([w / total for w, _ in comps])
        self.dists = [d for _, d in comps]
        self.lo = lo
        self.hi = hi

    @classmethod
    def iid(cls, dist, n):
        return cls([(1.0, dist)], n)

    @classmethod
    def mixture(cls, components, n):
        return cls(components, n)

    @property
    def support(self):
        return (self.lo, self.hi)

    @property
    def span(self):
        return self.hi - self.lo

    @property
    def is_iid(self):
        return len(self.dists) == 1

    def _check_in_support(self, t, what="point"):
        slack = _EDGE_SLACK * self.span
        arr = np.asarray(t, dtype=float)
        if ((arr < self.lo - slack) | (arr > self.hi + slack)).any():
            raise DomainError(f"{what} outside support [{self.lo:g}, {self.hi:g}]")
        return np.minimum(np.maximum(arr, self.lo), self.hi)

    def marginal_cdf(self, t):
        t = self._check_in_support(t)
        out = sum(w * d.cdf(t) for w, d in zip(self.weights, self.dists))
        return _float_or_array(out)

    def _cdfs(self, t):
        return [d.cdf(t) for d in self.dists]

    def _pdfs(self, t):
        return [d.pdf(t) for d in self.dists]

    def _weighted(self, f):
        return np.array([w * fk for w, fk in zip(self.weights, f)])

    def posterior(self, v):
        """Component weights conditional on observing own value(s) v.

        Shape (K,) for a scalar v and (K,) + v.shape for an array.
        """
        return np.asarray(self._posterior(self._check_in_support(v, "conditioning value")))

    def _posterior(self, v, f=None):
        """Posterior at a checked v; ``f`` holds the component densities at
        v when the caller has them."""
        if self.is_iid:
            return np.ones((1,) + np.shape(v))
        raw = self._weighted(self._pdfs(v) if f is None else f)
        total = sum(raw)
        bad = (total <= 0.0) | ~np.isfinite(total)
        if np.any(bad):
            # densities can vanish (or blow up) right at a support edge;
            # those entries use the limit from just inside instead
            eps = 1e-9 * self.span
            v_in = np.clip(v, self.lo + eps, self.hi - eps)
            raw = np.where(bad, self._weighted(self._pdfs(v_in)), raw)
            total = sum(raw)
            bad = (total <= 0.0) | ~np.isfinite(total)
            if np.any(bad):
                raise DomainError(
                    f"component densities degenerate at v={_first(v, bad):g}"
                )
        return raw / total

    def win_prob(self, v, t):
        """P(highest of the other n-1 values <= t | own value v)."""
        return self.kth_win_prob(1, v, t)

    def top_rival_density(self, v, z):
        """Density of the highest rival value at z, conditional on own value v."""
        return self.kth_rival_density(1, v, z)

    def hazard(self, v):
        """d/dt log P(win | own value v, threshold t) at t = v, for each v.

        Closed form: the posterior-weighted top-rival density divided by
        the posterior-weighted win probability at t = v.  A scalar v gives
        a float, an array v an array of its shape.  Raises
        ``SingularHazard`` if the win probability vanishes at any entry.
        Each component's cdf and pdf are evaluated once and shared by the
        posterior and both order-statistic kernels.
        """
        v = self._check_in_support(v, "value")
        F, f = self._cdfs(v), self._pdfs(v)
        post = self._posterior(v, f)
        q = self._mix_tail(post, self._tail_factors(1, F))
        low = q < _Q_FLOOR
        if np.any(low):
            raise SingularHazard(f"win probability vanishes at v={_first(v, low):g}")
        return _float_or_array(self._mix_density(post, 1, self._density_factors(1, F, f)) / q)

    def _check_units(self, units):
        if not (1 <= units <= self.n - 1):
            raise ConfigError(
                f"order statistic index must be in [1, {self.n - 1}], got {units}"
            )

    def _tail_factors(self, units, cdfs):
        """Per component, P(fewer than ``units`` of the n-1 rivals exceed
        t) given its cdf at t: the part of :meth:`kth_win_prob` that does
        not depend on the own value."""
        m = self.n - 1
        tails = []
        for F in cdfs:
            tail = 0.0
            for j in range(units):
                tail = tail + _binomial_term(math.comb(m, j), F, j, m - j)
            tails.append(tail)
        return tails

    def _density_factors(self, units, cdfs, pdfs):
        """Per component, the factors (1 - F)^(units-1), F^(n-1-units) and f
        of :meth:`kth_rival_density` at the rival value, none of which
        depends on the own value; the first is ``None`` for one unit,
        where it is exactly 1."""
        m = self.n - 1
        factors = []
        for F, f in zip(cdfs, pdfs):
            lower = np.power(1.0 - F, units - 1) if units > 1 else None
            factors.append((lower, np.power(F, m - units), f))
        return factors

    @staticmethod
    def _mix_tail(post, tails):
        """:meth:`kth_win_prob` from the posterior and :meth:`_tail_factors`."""
        out = 0.0
        for p, tail in zip(post, tails):
            out = out + p * tail
        return out

    def _mix_density(self, post, units, factors):
        """:meth:`kth_rival_density` from the posterior and
        :meth:`_density_factors`, each term multiplied left to right as
        ((p * coef) * (1 - F)^(units-1)) * F^(n-1-units) * f."""
        coef = units * math.comb(self.n - 1, units)
        out = 0.0
        for p, (lower, upper, f) in zip(post, factors):
            c = p * coef if lower is None else p * coef * lower
            out = out + c * upper * f
        return out

    def kth_win_prob(self, units, v, t):
        """P(k-th highest rival value <= t | own value v) for k = units.

        Equals the probability that fewer than ``units`` of the n-1
        rivals exceed t.  units = 1 is :meth:`win_prob`.
        """
        self._check_units(units)
        post = self.posterior(v)
        t = self._check_in_support(t, "threshold")
        return _float_or_array(self._mix_tail(post, self._tail_factors(units, self._cdfs(t))))

    def kth_rival_density(self, units, v, z):
        """Density of the k-th highest rival value at z, for k = units.

        The derivative of :meth:`kth_win_prob` in its threshold;
        units = 1 is :meth:`top_rival_density`.
        """
        self._check_units(units)
        post = self.posterior(v)
        z = self._check_in_support(z, "rival value")
        factors = self._density_factors(units, self._cdfs(z), self._pdfs(z))
        return _float_or_array(self._mix_density(post, units, factors))

    def sample(self, rng, rounds):
        """Draw ``rounds`` full profiles of n values, shape (rounds, n).

        Mixture components are drawn once per profile, so the sampled
        profiles are exchangeable but not independent across bidders.
        """
        rounds = int(rounds)
        out = np.empty((rounds, self.n))
        if rounds == 0:
            return out
        if self.is_iid:
            out[:] = self.dists[0].ppf(rng.random((rounds, self.n)))
            return out
        comp = rng.choice(len(self.dists), size=rounds, p=self.weights)
        for i, d in enumerate(self.dists):
            mask = comp == i
            cnt = int(mask.sum())
            if cnt:
                out[mask] = d.ppf(rng.random((cnt, self.n)))
        return out

    def to_config(self):
        if self.is_iid:
            return {
                "support": [self.lo, self.hi],
                "n": self.n,
                "kind": "iid",
                "dist": self.dists[0].to_config(),
            }
        return {
            "support": [self.lo, self.hi],
            "n": self.n,
            "kind": "mixture",
            "components": [
                {"weight": float(w), "dist": d.to_config()}
                for w, d in zip(self.weights, self.dists)
            ],
        }

    def __repr__(self):
        return f"ValueModel(n={self.n}, components={len(self.dists)}, support=({self.lo}, {self.hi}))"
