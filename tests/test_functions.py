import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openrcd.functions import (
    ConvexityCertificate,
    GeneralSmoothFunction,
    LogCoshQuadratic,
    ParameterRangeError,
    QuadraticFunction,
    _cost_from_uniforms,
    logcosh_quantiles,
    make_logcosh_quadratic,
    make_quadratic,
    quadratic_quantiles,
)
from paper_identities import certify


def test_certificate_basic():
    cert = ConvexityCertificate(1.0, 1.2)
    assert cert.kappa == pytest.approx(1.2)
    with pytest.raises(ParameterRangeError):
        ConvexityCertificate(0.0, 1.0)
    with pytest.raises(ParameterRangeError):
        ConvexityCertificate(2.0, 1.0)
    with pytest.raises(ParameterRangeError):
        ConvexityCertificate(1.0, math.inf)


def test_quadratic_value_gradient_minimizer():
    cert = ConvexityCertificate(1.0, 4.0)
    f = make_quadratic(1.5, 0.25, cert)
    assert f.value(0.25) == 0.0
    assert f.gradient(0.25) == 0.0
    assert f.value(1.25) == pytest.approx(1.5)
    assert f.gradient(1.25) == pytest.approx(3.0)
    assert f.minimizer == 0.25
    assert f.certificate is cert


def test_quadratic_parameter_rejection():
    cert = ConvexityCertificate(1.0, 2.0)
    with pytest.raises(ParameterRangeError):
        make_quadratic(0.4, 0.0, cert)    # theta below alpha/2
    with pytest.raises(ParameterRangeError):
        make_quadratic(1.1, 0.0, cert)    # theta above beta/2
    with pytest.raises(ParameterRangeError):
        make_quadratic(0.5, 1.5, cert)    # mu outside [-1, 1]


def test_logcosh_parameter_rejection():
    cert = ConvexityCertificate(2.0, 3.0)
    with pytest.raises(ParameterRangeError):
        LogCoshQuadratic(1.0, 0.0, -0.5, cert)
    with pytest.raises(ParameterRangeError):
        LogCoshQuadratic(1.0, 0.0, 1.5, cert)    # 2*theta + weight > beta
    with pytest.raises(ParameterRangeError):
        LogCoshQuadratic(0.5, 0.0, 0.5, cert)    # 2*theta < alpha


def test_logcosh_value_and_gradient_at_minimizer():
    cert = ConvexityCertificate(2.0, 3.0)
    g = make_logcosh_quadratic(1.0, 0.3, cert)
    assert g.weight == pytest.approx(1.0)
    assert g.value(0.3) == pytest.approx(0.0, abs=1e-15)
    assert g.gradient(0.3) == pytest.approx(0.0, abs=1e-15)
    # gradient = 2 theta (x-mu) + w tanh(x-mu)
    z = 0.8 - 0.3
    assert g.gradient(0.8) == pytest.approx(2.0 * z + math.tanh(z))


def test_logcosh_overflow_safe():
    cert = ConvexityCertificate(2.0, 3.0)
    g = make_logcosh_quadratic(1.0, 0.0, cert)
    v = g.value(1e4)
    assert math.isfinite(v)
    # logcosh(z) ~ |z| - log 2 for large z
    assert v == pytest.approx(1e8 + 1e4 - math.log(2.0), rel=1e-12)


def test_general_smooth_function_checks_minimizer():
    cert = ConvexityCertificate(1.0, 2.0)
    GeneralSmoothFunction(lambda x: (x - 0.5) ** 2, lambda x: 2 * (x - 0.5), cert, 0.5)
    with pytest.raises(ParameterRangeError):
        GeneralSmoothFunction(lambda x: x * x, lambda x: 2 * x, cert, 0.5)
    with pytest.raises(ParameterRangeError):
        GeneralSmoothFunction(lambda x: (x - 2) ** 2, lambda x: 2 * (x - 2), cert, 2.0)


def test_certify_accepts_matching_quadratic():
    cert = ConvexityCertificate(1.0, 1.0)
    f = make_quadratic(0.5, 0.0, cert)
    result = certify(f, 2000, np.random.default_rng(1))
    assert result
    assert result.witness is None


def test_certify_rejects_with_witness():
    # f'' = 1 everywhere, certified range demands at least 1.5
    f = make_quadratic(0.5, 0.0, ConvexityCertificate(1.0, 1.0))
    claimed = ConvexityCertificate(1.5, 2.0)
    result = certify(f, 2000, np.random.default_rng(1), certificate=claimed)
    assert not result
    x, y, slope = result.witness
    assert x != y
    assert slope == pytest.approx(1.0, rel=1e-9)


def test_certify_logcosh_example():
    cert = ConvexityCertificate(2.0, 3.0)
    g = make_logcosh_quadratic(1.0, 0.0, cert)
    assert certify(g, 5000, np.random.default_rng(2))


def test_quantile_maps_hit_range_ends():
    cert = ConvexityCertificate(1.0, 2.0)
    theta, mu = quadratic_quantiles(cert, 0.0, 0.0)
    assert theta == 0.5 and mu == -1.0
    theta, mu = quadratic_quantiles(cert, 1.0, 1.0)
    assert theta == 1.0 and mu == 1.0
    theta, mu, weight = logcosh_quantiles(cert, 1.0, 0.5)
    assert weight == pytest.approx(2.0 - 2.0 * theta)


def test_quantile_maps_vectorize():
    cert = ConvexityCertificate(1.0, 2.0)
    u = np.linspace(0.0, 1.0, 7)
    theta, mu = quadratic_quantiles(cert, u, u)
    assert theta.shape == mu.shape == (7,)
    assert np.all(theta >= 0.5) and np.all(theta <= 1.0)
    assert np.all(np.abs(mu) <= 1.0)


@given(seed=st.integers(0, 10_000), kappa=st.floats(1.0, 50.0))
@settings(max_examples=60, deadline=None)
def test_sampled_replacement_always_certifies(seed, kappa):
    cert = ConvexityCertificate(1.0, kappa)
    u = np.random.default_rng(seed).random(2)
    f = _cost_from_uniforms("quadratic", cert, u[0], u[1])
    assert cert.alpha / 2.0 <= f.theta <= cert.beta / 2.0
    assert -1.0 <= f.mu <= 1.0
    assert certify(f, 300, np.random.default_rng(seed + 1))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_sampled_logcosh_replacement_certifies(seed):
    cert = ConvexityCertificate(1.0, 3.0)
    u = np.random.default_rng(seed).random(2)
    f = _cost_from_uniforms("logcosh_quadratic", cert, u[0], u[1])
    assert certify(f, 300, np.random.default_rng(seed + 1))


def test_replacement_location_mean_is_centered():
    # locations are uniform on [-1, 1]; the mean over 1e5 draws sits near 0
    cert = ConvexityCertificate(1.0, 1.2)
    rng = np.random.default_rng(7)
    mus = [_cost_from_uniforms("quadratic", cert, *rng.random(2)).mu for _ in range(100_000)]
    assert abs(float(np.mean(mus))) < 0.01


def test_replacement_consumes_two_uniforms():
    cert = ConvexityCertificate(1.0, 1.2)
    r1 = np.random.default_rng(5)
    r2 = np.random.default_rng(5)
    _cost_from_uniforms("quadratic", cert, *r1.random(2))
    r2.random(2)
    assert r1.random() == r2.random()
