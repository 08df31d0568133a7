"""Unit tests for value models and order-statistic machinery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from riskbid import (
    ConfigError,
    DomainError,
    PowerDist,
    SingularHazard,
    TruncatedNormalDist,
    UniformDist,
    ValueModel,
)

UNIT_MIX = ValueModel.mixture(
    [(0.5, UniformDist(0.0, 1.0)), (0.5, PowerDist(2.0, 0.0, 1.0))], 3
)
#: a power(k < 1) density blows up at the bottom edge, so posteriors
#: there fall back to the limit from just inside
EDGE_MIX = ValueModel.mixture(
    [(0.4, PowerDist(0.5, 0.0, 1.0)), (0.6, PowerDist(3.0, 0.0, 1.0))], 3
)


def hazard_fd(m, v, step=None):
    """Finite-difference hazard of model m at v: the oracle for the closed form."""
    v = float(v)
    h = step if step is not None else 1e-6 * m.span
    q = m.win_prob(v, v)
    up = m.win_prob(v, min(v + h, m.hi))
    dn = m.win_prob(v, max(v - h, m.lo))
    return (up - dn) / ((min(v + h, m.hi) - max(v - h, m.lo)) * q)


def test_uniform_marginal():
    d = UniformDist(0.0, 2.0)
    assert d.cdf(1.0) == pytest.approx(0.5)
    assert d.pdf(0.3) == pytest.approx(0.5)
    assert d.ppf(0.25) == pytest.approx(0.5)


def test_power_marginal():
    d = PowerDist(2.0, 0.0, 1.0)
    assert d.cdf(0.5) == pytest.approx(0.25)
    assert d.pdf(0.5) == pytest.approx(1.0)
    assert d.ppf(0.25) == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        PowerDist(0.0, 0.0, 1.0)


#: (mu, sigma, lo, hi): the bulk, a centred truncation, both tails, a
#: support 29 sigma out and one 50 sigma below the mean
TRUNCATIONS = {
    "bulk": (0.4, 0.3, 0.0, 1.0),
    "centred": (0.5, 0.2, 0.0, 1.0),
    "upper-tail": (0.0, 1.0, 6.0, 8.0),
    "lower-tail": (0.0, 1.0, -8.0, -6.0),
    "far-upper-tail": (0.0, 1.0, 29.0, 30.0),
    "far-below-mean": (50.0, 1.0, -3.0, 3.0),
}


@pytest.mark.parametrize("mu, sigma, lo, hi", TRUNCATIONS.values(), ids=TRUNCATIONS.keys())
def test_truncated_normal_marginal(mu, sigma, lo, hi):
    d = TruncatedNormalDist(mu, sigma, lo, hi)
    ref = stats.truncnorm((lo - mu) / sigma, (hi - mu) / sigma, loc=mu, scale=sigma)
    t = np.linspace(lo, hi, 257)
    np.testing.assert_allclose(d.cdf(t), ref.cdf(t), rtol=1e-12, atol=0)
    np.testing.assert_allclose(d.pdf(t), ref.pdf(t), rtol=1e-12, atol=0)
    q = np.linspace(0.0, 1.0, 257)
    np.testing.assert_allclose(d.ppf(q), ref.ppf(q), rtol=0, atol=1e-12 * (hi - lo))
    assert d.cdf(lo) == 0.0 and d.cdf(hi) == 1.0


def test_truncated_normal_needs_mass():
    with pytest.raises(ConfigError):
        TruncatedNormalDist(0.5, 0.0, 0.0, 1.0)
    with pytest.raises(ConfigError, match="degenerate"):
        TruncatedNormalDist(0.0, 1e17, 0.0, 1.0)  # Phi(0) == Phi(1e-17) in doubles
    with pytest.raises(ConfigError, match="degenerate"):
        TruncatedNormalDist(0.5, 1e-300, 0.0, 1.0)  # log Phi(-5e299) == -inf


@settings(max_examples=60, deadline=None)
@example(mu=50.0, sigma=0.1, lo=-10.0, width=0.01)  # 600 sigma out: ndtri_exp alone is off
@given(
    mu=st.floats(-60.0, 60.0),
    sigma=st.floats(0.01, 20.0),
    lo=st.floats(-10.0, 10.0),
    width=st.floats(0.01, 20.0),
)
def test_truncated_normal_cdf_ppf_round_trip(mu, sigma, lo, width):
    d = TruncatedNormalDist(mu, sigma, lo, lo + width)
    span = d.hi - d.lo
    t = np.linspace(d.lo, d.hi, 65)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        F = d.cdf(t)
        ends = d.ppf(np.array([0.0, 1.0]))
        back = d.ppf(F)
        dens = d.pdf(t)
    assert np.all((F >= 0.0) & (F <= 1.0)) and np.all(np.diff(F) >= 0.0)
    np.testing.assert_allclose(ends, [d.lo, d.hi], rtol=0, atol=1e-9 * span)
    # where the density is tiny the cdf rounds to a flat 0 or 1 and no
    # inverse can recover t; elsewhere the round trip is exact to 1e-9
    ok = dens * span > 1e-6
    np.testing.assert_allclose(back[ok], t[ok], rtol=0, atol=1e-9 * span)


def test_mixture_cdf_value():
    assert UNIT_MIX.marginal_cdf(0.5) == pytest.approx(0.375)


def test_model_validation():
    with pytest.raises(ConfigError):
        ValueModel.iid(UniformDist(0.0, 1.0), 1)
    with pytest.raises(ConfigError):
        ValueModel.mixture([(0.5, UniformDist(0.0, 1.0))], 2)  # weights != 1
    with pytest.raises(ConfigError):
        ValueModel.mixture(
            [(0.5, UniformDist(0.0, 1.0)), (0.5, UniformDist(0.0, 2.0))], 2
        )  # mismatched supports
    with pytest.raises(ConfigError):
        ValueModel([], 2)


def test_support_properties():
    m = ValueModel.iid(UniformDist(0.25, 1.25), 4)
    assert m.support == (0.25, 1.25)
    assert m.span == pytest.approx(1.0)
    assert m.is_iid
    assert not UNIT_MIX.is_iid


def test_win_prob_examples():
    m = ValueModel.iid(UniformDist(0.0, 1.0), 3)
    assert m.win_prob(0.7, 0.5) == pytest.approx(0.25)
    assert m.win_prob(0.7, 1.0) == pytest.approx(1.0)
    assert m.win_prob(0.7, 0.0) == pytest.approx(0.0)


def test_hazard_closed_forms():
    m3 = ValueModel.iid(UniformDist(0.0, 1.0), 3)
    assert m3.hazard(0.5) == pytest.approx(4.0)
    m2 = ValueModel.iid(UniformDist(0.0, 1.0), 2)
    assert m2.hazard(0.25) == pytest.approx(4.0)
    p2 = ValueModel.iid(PowerDist(2.0, 0.0, 1.0), 2)
    assert p2.hazard(0.5) == pytest.approx(4.0)


def test_hazard_matches_finite_difference():
    for m in (
        ValueModel.iid(UniformDist(0.0, 1.0), 4),
        ValueModel.iid(PowerDist(1.5, 0.0, 1.0), 3),
        UNIT_MIX,
        ValueModel.mixture(
            [(0.3, UniformDist(0.0, 1.0)), (0.7, TruncatedNormalDist(0.6, 0.3, 0.0, 1.0))],
            3,
        ),
    ):
        for v in np.linspace(0.02, 0.98, 100):
            assert m.hazard(v) == pytest.approx(hazard_fd(m, v), rel=1e-5)


def test_hazard_singular_at_bottom():
    m = ValueModel.iid(UniformDist(0.0, 1.0), 2)
    with pytest.raises(SingularHazard):
        m.hazard(0.0)
    # one entry at the bottom type is enough
    with pytest.raises(SingularHazard, match="v=0"):
        m.hazard(np.array([0.5, 0.0, 0.7]))


#: uniform, power, truncated normal and two mixtures
MODELS = [
    ValueModel.iid(UniformDist(0.0, 1.0), 3),
    ValueModel.iid(PowerDist(1.5, 0.0, 1.0), 4),
    ValueModel.iid(TruncatedNormalDist(0.4, 0.3, 0.0, 1.0), 2),
    ValueModel.mixture(
        [(0.3, UniformDist(0.0, 1.0)), (0.7, TruncatedNormalDist(0.6, 0.3, 0.0, 1.0))],
        3,
    ),
    UNIT_MIX,
]


def assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def scalar_kinds(v):
    """One point as a Python float, an np.float64 and a 0-d array."""
    return (float(v), np.float64(v), np.array(float(v)))


@pytest.mark.parametrize("m", MODELS)
def test_array_hazard_and_posterior_match_scalar_calls(m):
    vs = np.linspace(0.01, 1.0, 37)
    np.testing.assert_array_equal(m.hazard(vs), [m.hazard(v) for v in vs])
    post = m.posterior(vs)
    assert post.shape == (len(m.dists),) + vs.shape
    np.testing.assert_array_equal(post.T, [m.posterior(v) for v in vs])
    grid = vs.reshape(37, 1)  # any shape, elementwise
    np.testing.assert_array_equal(m.hazard(grid), m.hazard(vs).reshape(37, 1))
    # a scalar of every kind rounds exactly as the array path does
    haz = m.hazard(vs)
    for i, v in enumerate(np.append(vs, [m.lo + 1e-9, m.hi, m.hi + 1e-12])):
        for x in scalar_kinds(v):
            h = m.hazard(x)
            assert type(h) is float
            assert_bits_equal(h, haz[i] if i < len(vs) else m.hazard(np.array([v]))[0])
            assert_bits_equal(m.posterior(x), m.posterior(np.array([v]))[:, 0])
    # marginals too, also outside the support where the cdf clips
    ts = np.array([m.lo - 0.5, m.lo, 0.37, m.hi, m.hi + 0.5])
    for d in m.dists:
        for method in (d.cdf, d.pdf):
            vec = method(ts)
            for i, t in enumerate(ts):
                for x in scalar_kinds(t):
                    assert_bits_equal(method(x), vec[i])


@pytest.mark.parametrize("m", MODELS)
def test_hazard_is_rival_density_over_win_prob(m):
    vs = np.linspace(0.01, 1.0, 37)
    for v in (vs, vs.reshape(37, 1), *scalar_kinds(0.43), 1.0):
        assert_bits_equal(
            m.hazard(v), m.kth_rival_density(1, v, v) / m.kth_win_prob(1, v, v)
        )


def test_posterior_edge_fallback_per_entry():
    vs = np.array([0.0, 0.3, 1.0, 0.0, 0.7])
    post = EDGE_MIX.posterior(vs)
    np.testing.assert_array_equal(post.T, [EDGE_MIX.posterior(v) for v in vs])
    # the bottom edge takes the limit from just inside; interior and top
    # entries are untouched by the fallback
    inside = EDGE_MIX.posterior(1e-9 * EDGE_MIX.span)
    np.testing.assert_array_equal(post[:, 0], inside)
    np.testing.assert_array_equal(post[:, 3], inside)
    np.testing.assert_allclose(post.sum(axis=0), 1.0, rtol=1e-15)
    assert post[0, 0] > 0.99  # the diverging power(k < 1) density wins
    interior = np.array([0.3, 1.0, 0.7])
    np.testing.assert_array_equal(
        EDGE_MIX.hazard(interior), [EDGE_MIX.hazard(v) for v in interior]
    )


def test_array_out_of_support_is_domain_error():
    m = ValueModel.iid(UniformDist(0.0, 1.0), 3)
    for f in (m.hazard, m.posterior, UNIT_MIX.posterior):
        with pytest.raises(DomainError):
            f(np.array([0.5, 1.5]))
        with pytest.raises(DomainError):
            f(np.array([-0.2, 0.5]))


def test_hazard_scalar_and_empty_shapes():
    for m in (ValueModel.iid(UniformDist(0.0, 1.0), 3), UNIT_MIX):
        for v in (0.5, np.float64(0.5), np.array(0.5)):
            assert type(m.hazard(v)) is float
        assert m.hazard(np.array([])).shape == (0,)
        assert m.posterior(np.array([])).shape == (len(m.dists), 0)


def test_top_rival_density_matches_win_prob_slope():
    h = 1e-6
    for m in (ValueModel.iid(UniformDist(0.0, 1.0), 3), UNIT_MIX):
        for v in (0.3, 0.8):
            for t in (0.2, 0.55, 0.9):
                fd = (m.win_prob(v, t + h) - m.win_prob(v, t - h)) / (2 * h)
                assert m.top_rival_density(v, t) == pytest.approx(fd, rel=1e-6)


def test_posterior_updates_on_value():
    # equal densities at 0.5, so the posterior stays at the prior
    np.testing.assert_allclose(UNIT_MIX.posterior(0.5), [0.5, 0.5])
    # the power component is twice as dense at the top
    np.testing.assert_allclose(UNIT_MIX.posterior(1.0), [1 / 3, 2 / 3])
    iid = ValueModel.iid(UniformDist(0.0, 1.0), 2)
    np.testing.assert_allclose(iid.posterior(0.7), [1.0])


def test_domain_checks():
    m = ValueModel.iid(UniformDist(0.0, 1.0), 2)
    with pytest.raises(DomainError):
        m.marginal_cdf(1.5)
    with pytest.raises(DomainError):
        m.win_prob(0.5, -0.5)


def test_kth_win_prob_examples():
    m = ValueModel.iid(UniformDist(0.0, 1.0), 4)
    # fewer than 2 of 3 rivals above the median: (1 + 3) / 8
    assert m.kth_win_prob(2, 0.5, 0.5) == pytest.approx(0.5)
    # units = 1 reduces to the ordinary win probability
    for t in (0.2, 0.6, 0.9):
        assert m.kth_win_prob(1, 0.5, t) == pytest.approx(m.win_prob(0.5, t))
    with pytest.raises(ConfigError):
        m.kth_win_prob(4, 0.5, 0.5)
    with pytest.raises(ConfigError):
        m.kth_win_prob(0, 0.5, 0.5)


def test_kth_rival_density_matches_slope():
    h = 1e-6
    m = ValueModel.iid(UniformDist(0.0, 1.0), 5)
    mix = ValueModel.mixture(
        [(0.6, UniformDist(0.0, 1.0)), (0.4, PowerDist(2.0, 0.0, 1.0))], 5
    )
    for model in (m, mix):
        for units in (1, 2, 3):
            for t in (0.25, 0.5, 0.85):
                fd = (
                    model.kth_win_prob(units, 0.5, t + h)
                    - model.kth_win_prob(units, 0.5, t - h)
                ) / (2 * h)
                assert model.kth_rival_density(units, 0.5, t) == pytest.approx(
                    fd, rel=1e-5
                )
    # units = 1 reduces to the top-rival density
    assert m.kth_rival_density(1, 0.5, 0.7) == pytest.approx(
        m.top_rival_density(0.5, 0.7)
    )


@pytest.mark.parametrize("model", [ValueModel.iid(UniformDist(0.0, 1.0), 5), UNIT_MIX, EDGE_MIX])
def test_kth_sums_match_binomial_reference(model):
    # every term as c (1 - F)^j F^k with all four powers, (1 - F)^0 included,
    # summed in the same order: the evaluators agree bit for bit, on floats
    # and on arrays
    m = model.n - 1
    t = np.linspace(0.05, 1.0, 33)
    for units in range(1, model.n):
        for v in (0.3, t):
            post = model.posterior(v)
            F = [d.cdf(v) for d in model.dists]
            f = [d.pdf(v) for d in model.dists]
            tail = density = 0.0
            for p, Fi, fi in zip(post, F, f):
                tail = tail + p * sum(
                    math.comb(m, j) * np.power(1.0 - Fi, j) * np.power(Fi, m - j)
                    for j in range(units)
                )
                density = density + (
                    p * (units * math.comb(m, units)) * np.power(1.0 - Fi, units - 1)
                    * np.power(Fi, m - units) * fi
                )
            assert np.array_equal(model.kth_win_prob(units, v, v), tail)
            assert np.array_equal(model.kth_rival_density(units, v, v), density)


def test_sampling_shape_and_support():
    rng = np.random.default_rng(0)
    m = ValueModel.iid(PowerDist(2.0, 0.5, 1.5), 3)
    draws = m.sample(rng, 2000)
    assert draws.shape == (2000, 3)
    assert draws.min() >= 0.5 and draws.max() <= 1.5
    # power k=2 has mean lo + span * 2/3
    assert draws.mean() == pytest.approx(0.5 + 2 / 3, abs=0.02)
    assert m.sample(rng, 0).shape == (0, 3)


def test_mixture_sampling_is_exchangeable_not_independent():
    rng = np.random.default_rng(7)
    mix = ValueModel.mixture(
        [(0.5, PowerDist(4.0, 0.0, 1.0)), (0.5, PowerDist(0.25, 0.0, 1.0))], 2
    )
    draws = mix.sample(rng, 40_000)
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert corr > 0.1  # common latent component induces positive correlation
    iid = ValueModel.iid(UniformDist(0.0, 1.0), 2)
    d2 = iid.sample(rng, 40_000)
    assert abs(np.corrcoef(d2[:, 0], d2[:, 1])[0, 1]) < 0.02


def test_config_round_trip():
    from riskbid.config import _build_values

    for m in (
        ValueModel.iid(UniformDist(0.0, 1.0), 3),
        ValueModel.iid(TruncatedNormalDist(0.4, 0.3, 0.0, 1.0), 2),
        UNIT_MIX,
    ):
        doc = m.to_config()
        rebuilt = _build_values(doc)
        assert rebuilt.n == m.n
        assert rebuilt.support == m.support
        ts = np.linspace(m.lo, m.hi, 9)
        np.testing.assert_allclose(rebuilt.marginal_cdf(ts), m.marginal_cdf(ts))
        assert rebuilt.to_config() == doc


@settings(max_examples=40, deadline=None)
@given(
    v=st.floats(0.05, 0.95),
    t1=st.floats(0.0, 1.0),
    t2=st.floats(0.0, 1.0),
)
def test_win_prob_monotone_in_threshold(v, t1, t2):
    lo_t, hi_t = min(t1, t2), max(t1, t2)
    q_lo = UNIT_MIX.win_prob(v, lo_t)
    q_hi = UNIT_MIX.win_prob(v, hi_t)
    assert -1e-12 <= q_lo <= q_hi <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(v=st.floats(0.02, 0.98), units=st.integers(1, 3))
def test_kth_win_prob_increases_with_units(v, units):
    m = ValueModel.iid(UniformDist(0.0, 1.0), 5)
    if units < 3:
        assert m.kth_win_prob(units + 1, v, v) >= m.kth_win_prob(units, v, v) - 1e-12
