import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openrcd import allocation
from openrcd.allocation import (
    Allocation,
    FeasibilityError,
    NonConvergenceError,
    _agent_sum,
    _logcosh_newton_minimizer,
    _logcosh_point,
    check_in_ball,
    closed_form_quadratic_minimizer,
    dual_bisection_minimizer,
    minimizer_ball_radius,
)
from openrcd.functions import (
    ConvexityCertificate,
    LogCoshQuadratic,
    logcosh_quantiles,
    make_logcosh_quadratic,
    make_quadratic,
)

C12 = ConvexityCertificate(1.0, 2.0)


def quad_roster(thetas, mus, cert=C12):
    return [make_quadratic(t, m, cert) for t, m in zip(thetas, mus)]


def test_allocation_validates_budget():
    a = Allocation(np.array([1.0, 2.0]), 3.0)
    assert a.n == 2
    assert not a.values.flags.writeable
    with pytest.raises(FeasibilityError):
        Allocation(np.array([1.0, 2.0]), 4.0)
    with pytest.raises(ValueError):
        Allocation(np.array([[1.0, 2.0]]), 3.0)
    with pytest.raises(ValueError):
        Allocation(np.array([]), 0.0)


def test_allocation_adds_its_agents_in_order(monkeypatch):
    # in agent order 1e16 + 1 rounds to 1e16, so the sum is 0 and misses b = 1
    # by 1, as the batch engine's _agent_sum measures it; a compensated sum,
    # as the builtin sum is from Python 3.12 on, would read 1 and accept
    values = [1e16, 1.0, -1e16]
    assert _agent_sum(np.array(values)) == 0.0
    monkeypatch.setattr(allocation, "sum", math.fsum, raising=False)
    with pytest.raises(FeasibilityError):
        Allocation(values, 1.0)


def test_allocation_keeps_a_private_copy():
    a = np.array([0.25, 0.75, 5.0])
    x = Allocation(a[:2], 1.0)
    a[0] = 100.0
    assert x.values.tolist() == [0.25, 0.75]    # still feasible
    b = np.array([0.5, 0.5])
    Allocation(b, 1.0)
    assert b.flags.writeable


def test_allocation_uniform():
    a = Allocation.uniform(4, 2.0)
    assert np.allclose(a.values, 0.5)
    assert a.budget == 2.0


def test_closed_form_two_agent_example():
    fs = quad_roster([1.0, 0.5], [0.0, 0.0])
    res = closed_form_quadratic_minimizer(fs, 3.0)
    assert np.allclose(res.point.values, [1.0, 2.0])
    assert res.multiplier == pytest.approx(2.0)
    assert res.method == "closed_form"


def test_closed_form_stationarity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        fs = quad_roster(rng.uniform(0.5, 1.0, n), rng.uniform(-1, 1, n))
        b = float(rng.uniform(-3, 3))
        res = closed_form_quadratic_minimizer(fs, b)
        grads = [f.gradient(v) for f, v in zip(fs, res.point.values)]
        assert np.ptp(grads) < 1e-8
        assert grads[0] == pytest.approx(res.multiplier, abs=1e-10)
        assert res.point.values.sum() == pytest.approx(b, abs=1e-9)


def test_single_agent_minimizer():
    fs = quad_roster([0.75], [0.2])
    res = closed_form_quadratic_minimizer(fs, 5.0)
    assert res.point.values[0] == 5.0
    assert res.multiplier == pytest.approx(fs[0].gradient(5.0))
    res2 = dual_bisection_minimizer(fs, 5.0)
    assert res2.point.values[0] == pytest.approx(5.0, abs=1e-9)


def test_ball_radius_examples():
    assert minimizer_ball_radius(4, 1.0, 0.0) == pytest.approx(4.0)
    assert minimizer_ball_radius(1, 1.0, 0.0) == pytest.approx(2.0)
    assert minimizer_ball_radius(1, 4.0, 1.0) == pytest.approx(5.0)


def test_check_in_ball_boundary_is_inside():
    r = minimizer_ball_radius(2, 1.0, 0.0)
    x = np.array([r / np.sqrt(2.0), r / np.sqrt(2.0)])
    assert check_in_ball(x, r)
    assert not check_in_ball(1.0000001 * x, r)


def test_solvers_agree_on_quadratics():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        kappa = float(rng.uniform(1.0, 10.0))
        cert = ConvexityCertificate(1.0, kappa)
        fs = [
            make_quadratic(t, m, cert)
            for t, m in zip(rng.uniform(0.5, kappa / 2, n), rng.uniform(-1, 1, n))
        ]
        b = float(rng.uniform(-4, 4))
        exact = closed_form_quadratic_minimizer(fs, b)
        approx = dual_bisection_minimizer(fs, b)
        assert np.max(np.abs(exact.point.values - approx.point.values)) < 1e-9
        assert approx.method == "dual_bisection"


def test_bisection_handles_mixed_roster():
    cert = ConvexityCertificate(2.0, 3.0)
    fs = [
        make_logcosh_quadratic(1.0, 0.4, cert),
        make_quadratic(1.2, -0.5, cert),
        make_logcosh_quadratic(1.3, 0.0, cert),
    ]
    res = dual_bisection_minimizer(fs, 1.5)
    grads = [f.gradient(v) for f, v in zip(fs, res.point.values)]
    assert np.ptp(grads) < 1e-6
    assert res.point.values.sum() == pytest.approx(1.5, abs=1e-9)


def test_bisection_multiplier_matches_common_gradient():
    fs = quad_roster([0.6, 0.9, 0.5], [0.1, -0.3, 0.8])
    res = dual_bisection_minimizer(fs, 2.0)
    for f, v in zip(fs, res.point.values):
        assert f.gradient(v) == pytest.approx(res.multiplier, abs=1e-7)


def test_bisection_iteration_cap(monkeypatch):
    monkeypatch.setattr(allocation, "_BISECTIONS", 3)
    fs = quad_roster([0.6, 0.9, 0.5], [0.1, -0.3, 0.8])
    with pytest.raises(NonConvergenceError):
        dual_bisection_minimizer(fs, 2.0)


def test_minimizers_stay_in_ball():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        kappa = float(rng.uniform(1.0, 8.0))
        cert = ConvexityCertificate(1.0, kappa)
        fs = [
            make_quadratic(t, m, cert)
            for t, m in zip(rng.uniform(0.5, kappa / 2, n), rng.uniform(-1, 1, n))
        ]
        b = float(rng.uniform(-5, 5))
        res = closed_form_quadratic_minimizer(fs, b)
        assert check_in_ball(res.point.values, minimizer_ball_radius(n, kappa, b))


def logcosh_rosters(cert, rng, rosters, n):
    """``rosters`` log-cosh rosters of ``n`` agents as stacked parameter arrays."""
    return logcosh_quantiles(cert, rng.random((rosters, n)), rng.random((rosters, n)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 50),
    kappa=st.floats(1.0, 1e3),
    budget=st.floats(-50.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_newton_agrees_with_dual_bisection(n, kappa, budget, seed):
    cert = ConvexityCertificate(1.0, kappa)
    theta, mu, weight = logcosh_rosters(cert, np.random.default_rng(seed), 3, n)
    alone = []
    for r in range(3):
        fs = [LogCoshQuadratic(float(t), float(m), float(w), cert)
              for t, m, w in zip(theta[r], mu[r], weight[r])]
        try:
            reference = dual_bisection_minimizer(fs, budget).point.values
        except NonConvergenceError:
            reference = None
        try:
            res = _logcosh_newton_minimizer(fs, budget)
        except NonConvergenceError:
            # the reference must have failed too
            assert reference is None
            return
        x = res.point.values
        assert res.method == "newton"
        assert abs(float(x.sum()) - budget) <= 0.5e-9
        if reference is not None:
            assert np.max(np.abs(x - reference)) <= 1e-8
        alone.append((x, res.multiplier))
    # the rosters solved together: each row bit for bit as solved alone
    x_all, nu_all = _logcosh_point(theta.T, mu.T, weight.T, budget, cert)
    for r, (x, nu) in enumerate(alone):
        assert np.array_equal(x_all[:, r], x)
        assert nu_all[r] == nu


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 200])
@pytest.mark.parametrize("rows", [1, 2, 3, 1024])
def test_agent_sum_adds_agents_in_index_order(n, rows):
    # numpy sums 1-D arrays, single columns and F-ordered arrays pairwise,
    # which differs from this loop from n = 8 on; magnitudes spread over
    # five decades, not so far that a few terms swallow the rest
    rng = np.random.default_rng(1000 * n + rows)
    wide = rng.standard_normal((n, 2 * rows)) * 10.0 ** rng.integers(-2, 3, (n, 2 * rows))
    a = wide[:, ::2].copy()
    expected = a[0].copy()
    for row in a[1:]:
        expected = expected + row
    for layout in (a, np.asfortranarray(a), wide[:, ::2], a[:, np.arange(rows)]):
        assert np.array_equal(_agent_sum(layout), expected)
    for r in (0, rows - 1):
        assert _agent_sum(a[:, r]) == expected[r]
        assert np.array_equal(_agent_sum(a[:, r:r + 1]), expected[r:r + 1])


def test_newton_multiplier_is_the_common_gradient():
    cert = ConvexityCertificate(1.0, 8.0)
    fs = [make_logcosh_quadratic(t, m, cert) for t, m in [(0.6, 0.1), (3.5, -0.9), (1.0, 0.8)]]
    res = _logcosh_newton_minimizer(fs, 2.0)
    for f, v in zip(fs, res.point.values):
        assert f.gradient(v) == pytest.approx(res.multiplier, abs=1e-10)


def test_newton_single_agent_and_bad_rosters():
    cert = ConvexityCertificate(1.0, 3.0)
    res = _logcosh_newton_minimizer([make_logcosh_quadratic(1.0, 0.2, cert)], 4.0)
    assert res.point.values[0] == 4.0
    with pytest.raises(TypeError):
        _logcosh_newton_minimizer(quad_roster([0.6, 0.9], [0.1, -0.3]), 1.0)


def test_newton_falls_back_to_dual_bisection_at_its_step_cap(monkeypatch):
    cert = ConvexityCertificate(1.0, 30.0)
    theta, mu, weight = logcosh_rosters(cert, np.random.default_rng(7), 6, 9)
    fs = [[LogCoshQuadratic(float(t), float(m), float(w), cert)
           for t, m, w in zip(theta[r], mu[r], weight[r])] for r in range(6)]
    reference = [dual_bisection_minimizer(f, 12.0).point.values for f in fs]
    fell_back = {}
    for cap in (0, 5, allocation._NEWTON_ITERATIONS):
        monkeypatch.setattr(allocation, "_NEWTON_ITERATIONS", cap)
        x_all, nu_all = _logcosh_point(theta.T, mu.T, weight.T, 12.0, cert)
        for r in range(6):
            alone = _logcosh_newton_minimizer(fs[r], 12.0)
            assert np.array_equal(x_all[:, r], alone.point.values) and nu_all[r] == alone.multiplier
            assert np.max(np.abs(x_all[:, r] - reference[r])) <= 1e-8
        fell_back[cap] = [np.array_equal(x_all[:, r], reference[r]) for r in range(6)]
    # past the cap a roster gets exactly the reference; 5 steps converge some
    assert all(fell_back[0]) and not any(fell_back[allocation._NEWTON_ITERATIONS])
    assert 0 < sum(fell_back[5]) < 6


def test_newton_needs_no_fallback_over_a_wide_range(monkeypatch):
    # wherever the reference converges, Newton converges without it
    def no_fallback(fs, budget):
        raise AssertionError("Newton fell back to the dual bisection")

    monkeypatch.setattr(allocation, "dual_bisection_minimizer", no_fallback)
    rng = np.random.default_rng(3)
    compared = 0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        cert = ConvexityCertificate(1.0, float(10 ** rng.uniform(3, 5)))
        budget = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1, 3))
        theta, mu, weight = logcosh_rosters(cert, rng, 1, n)
        fs = [LogCoshQuadratic(float(t), float(m), float(w), cert)
              for t, m, w in zip(theta[0], mu[0], weight[0])]
        try:
            reference = dual_bisection_minimizer(fs, budget).point.values
        except NonConvergenceError:
            continue
        x = _logcosh_newton_minimizer(fs, budget).point.values
        assert np.max(np.abs(x - reference)) <= 1e-8 * max(1.0, np.max(np.abs(reference)))
        compared += 1
    assert compared >= 20


@pytest.mark.parametrize("budget", [1e6, -1e6])
def test_both_solvers_converge_at_a_large_budget(budget):
    # coordinates near 2e5 and multipliers near 1e6: one ulp of either is
    # coarser than the targets the solvers used to demand here
    cert = ConvexityCertificate(0.5, 6.0)
    theta, mu, weight = logcosh_rosters(cert, np.random.default_rng(11), 20, 5)
    for r in range(20):
        fs = [LogCoshQuadratic(float(t), float(m), float(w), cert)
              for t, m, w in zip(theta[r], mu[r], weight[r])]
        reference = dual_bisection_minimizer(fs, budget).point.values
        x = _logcosh_newton_minimizer(fs, budget).point.values
        assert np.max(np.abs(x - reference)) <= 1e-8 * np.max(np.abs(reference))


def far_logcosh_minimizer(fs, budget):
    """The exact minimizer of a log-cosh roster whose coordinates all lie
    a thousand or more from their costs' minimizers, rounded once.

    There ``tanh(x_i - mu_i)`` is ``sign(budget)`` to within ``2 e**-2000``,
    so stationarity ``2 theta_i (x_i - mu_i) + w_i s = nu`` with
    ``sum(x) = budget`` is linear, and solved in rationals.
    """
    s = Fraction(int(math.copysign(1, budget)))
    inv = [1 / (2 * Fraction(f.theta)) for f in fs]
    nu = (Fraction(budget) - sum(Fraction(f.mu) for f in fs)
          + sum(Fraction(f.weight) * s * i for f, i in zip(fs, inv))) / sum(inv)
    return np.array([float(Fraction(f.mu) + (nu - Fraction(f.weight) * s) * i)
                     for f, i in zip(fs, inv)])


@pytest.mark.parametrize("budget", [1e6, -1e6, 1e9, -1e9])
def test_both_solvers_stay_stationary_at_a_large_budget(budget):
    # only the sum target scales with |b|; the bracket and gradient targets
    # stay absolute, floored at 4 beta ulp(radius), so every coordinate is
    # within (width + gradient floor) / alpha of the exact minimizer
    cert = ConvexityCertificate(0.5, 6.0)
    n = 5
    bound = 8.0 * cert.kappa * math.ulp(minimizer_ball_radius(n, cert.kappa, budget))
    theta, mu, weight = logcosh_rosters(cert, np.random.default_rng(11), 5, n)
    for r in range(5):
        fs = [LogCoshQuadratic(float(t), float(m), float(w), cert)
              for t, m, w in zip(theta[r], mu[r], weight[r])]
        exact = far_logcosh_minimizer(fs, budget)
        assert np.min(np.abs(exact - mu[r])) > 1e3
        for solve in (dual_bisection_minimizer, _logcosh_newton_minimizer):
            assert np.max(np.abs(solve(fs, budget).point.values - exact)) <= bound
