"""Distribution tests: parametric shapes, empirical fits, round-trips."""

import pickle

import numpy as np
import pytest

from chainbook import distributions as dist


def test_uniform_basics():
    u = dist.uniform(0.2, 0.8)
    assert u.cdf(0.2) == 0.0
    assert u.cdf(0.8) == 1.0
    assert u.cdf(0.5) == pytest.approx(0.5)
    assert u.ppf(0.5) == pytest.approx(0.5)


def test_beta_matches_scipy_shape():
    b = dist.beta(2.0, 5.0)
    assert b.cdf(0.0) == 0.0
    assert b.cdf(1.0) == 1.0
    assert 0.0 < b.ppf(0.5) < 0.5  # right-skewed mass
    draws = b.sample(np.random.default_rng(0), 20_000)
    assert np.mean(draws) == pytest.approx(2.0 / 7.0, abs=0.01)


def test_lognormal_truncated_stays_in_window():
    ln = dist.lognormal_truncated(mu=0.0, sigma=1.0, lo=0.5, hi=2.0)
    draws = ln.sample(np.random.default_rng(1), 5_000)
    assert draws.min() >= 0.5
    assert draws.max() <= 2.0
    assert ln.cdf(0.5) == 0.0
    assert ln.cdf(2.0) == 1.0


def test_fit_empirical_two_points():
    emp = dist.fit_empirical([0.0, 1.0], (0.0, 1.0))
    assert emp.cdf(0.5) == pytest.approx(0.5)


def test_fit_empirical_close_to_uniform():
    rng = np.random.default_rng(2)
    samples = rng.random(10_000)
    emp = dist.fit_empirical(samples, (0.0, 1.0))
    grid = np.linspace(0.001, 0.999, 500)
    assert np.max(np.abs(emp.cdf(grid) - grid)) < 0.02


def test_fit_empirical_constant_samples():
    emp = dist.fit_empirical([0.3, 0.3, 0.3], (0.0, 1.0))
    assert emp.kind == "point"
    assert emp.cdf(0.2999) == 0.0
    assert emp.cdf(0.3) == 1.0
    assert emp.ppf(0.7) == 0.3


def test_fit_empirical_errors():
    with pytest.raises(ValueError):
        dist.fit_empirical([], (0.0, 1.0))
    with pytest.raises(ValueError, match="support"):
        dist.fit_empirical([0.5, 1.5], (0.0, 1.0))


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "beta", "a": 0.0, "b": 1.0}, "a > 0 and b > 0"),
        ({"kind": "beta", "a": -1.0, "b": 2.0}, "a > 0 and b > 0"),
        ({"kind": "beta", "a": 2.0, "b": float("nan")}, "a > 0 and b > 0"),
        ({"kind": "beta", "a": 2.0, "b": 2.0, "lo": 0.8, "hi": 0.2}, "lo < hi"),
        ({"kind": "beta", "a": 2.0, "b": 2.0, "lo": 0.5, "hi": 0.5}, "lo < hi"),
        ({"kind": "lognormal_truncated", "mu": 0.0, "sigma": -1.0, "lo": 0.1, "hi": 1.0}, "sigma > 0"),
        ({"kind": "lognormal_truncated", "mu": 0.0, "sigma": 0.0, "lo": 0.1, "hi": 1.0}, "sigma > 0"),
    ],
)
def test_from_config_rejects_parameters_that_yield_nan(spec, message):
    # Each of these once built a distribution whose samples and CDF were NaN.
    with pytest.raises(ValueError, match=message):
        dist.from_config(spec)


def test_inverse_roundtrip_on_continuity_points():
    rng = np.random.default_rng(3)
    emp = dist.fit_empirical(np.sort(rng.random(200)), (0.0, 1.0))
    xs = np.linspace(emp.ppf(0.01), emp.ppf(0.99), 50)
    assert np.allclose(emp.ppf(emp.cdf(xs)), xs, atol=1e-9)
    uni = dist.uniform(0.1, 0.9)
    assert np.allclose(uni.ppf(uni.cdf(xs)), np.clip(xs, 0.1, 0.9), atol=1e-12)


def test_sampling_respects_quantile_levels():
    emp = dist.fit_empirical(np.linspace(0, 1, 101), (0.0, 1.0))
    draws = emp.sample(np.random.default_rng(4), 50_000)
    assert np.mean(draws < 0.25) == pytest.approx(0.25, abs=0.01)


def test_config_roundtrip():
    for d in (
        dist.uniform(0.1, 0.7),
        dist.beta(2.0, 3.0, 0.0, 0.5),
        dist.point_mass(1.5),
        dist.fit_empirical([0.1, 0.4, 0.9], (0.0, 1.0)),
        dist.lognormal_truncated(0.0, 0.5, 0.1, 3.0),
    ):
        rebuilt = dist.from_config(d.to_config())
        assert rebuilt.kind == d.kind
        xs = np.linspace(*d.support, 17)
        assert np.allclose(rebuilt.cdf(xs), d.cdf(xs), atol=1e-12)


@pytest.mark.parametrize(
    "d",
    [
        dist.uniform(0.1, 0.7),
        dist.beta(2.0, 3.0, 0.0, 0.5),
        dist.lognormal_truncated(0.0, 0.5, 0.1, 3.0),
        dist.point_mass(1.5),
        dist.fit_empirical([0.9, 0.1, 0.4, 0.4], (0.0, 1.0)),
    ],
    ids=lambda d: d.kind,
)
def test_pickle_rebuilds_from_config(d):
    copy = pickle.loads(pickle.dumps(d))
    assert copy.to_config() == d.to_config()
    assert copy.support == d.support
    xs = np.linspace(*d.support, 17)
    us = np.linspace(0.0, 1.0, 17)
    assert np.array_equal(copy.cdf(xs), d.cdf(xs))
    assert np.array_equal(copy.ppf(us), d.ppf(us))
    draws = [x.sample(np.random.default_rng(4), 50) for x in (copy, d)]
    assert np.array_equal(draws[0], draws[1])


def test_from_config_unknown_kind():
    with pytest.raises(ValueError, match="unknown"):
        dist.from_config({"kind": "cauchy"})


def test_ppf_rejects_bad_levels():
    u = dist.uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        u.ppf(1.2)
