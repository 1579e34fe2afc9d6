import math

import numpy as np
import pytest

from openrcd.allocation import Allocation, closed_form_quadratic_minimizer
from openrcd.functions import ConvexityCertificate, ParameterRangeError, make_quadratic
from openrcd.rcd import (
    PairSelection,
    StepConfig,
    complete_graph_edges,
    exact_onestep_expectation,
    rcd_pair_step,
    uniform_pair_probability,
)
from openrcd.rules import ConfigError
from paper_identities import (
    DegenerateWeightsError,
    certify,
    general_weight_pair_step,
    laplacian_identity_check,
    selection_matrix,
)

_F = make_quadratic(1.0, 0.3, ConvexityCertificate(2.0, 2.0))


def test_uniform_pair_probability():
    assert uniform_pair_probability(5) == pytest.approx(0.1)
    assert uniform_pair_probability(2) == 1.0


def test_complete_graph_edges():
    ei, ej = complete_graph_edges(4)
    assert ei.size == 6
    assert all(i < j for i, j in zip(ei, ej))


def test_complete_graph_edges_are_cached_and_read_only():
    ei, ej = complete_graph_edges(5)
    assert complete_graph_edges(5)[0] is ei and complete_graph_edges(5)[1] is ej
    assert not ei.flags.writeable and not ej.flags.writeable
    with pytest.raises(ValueError):
        ei[0] = 3


def test_step_config_validation():
    with pytest.raises(ParameterRangeError):
        StepConfig(0.0)
    with pytest.raises(ParameterRangeError):
        StepConfig(-1.0)
    with pytest.raises(ParameterRangeError):
        StepConfig(1.0, beta=1.2)    # h > 1/beta
    cfg = StepConfig.default(1.2)
    assert cfg.h == pytest.approx(1.0 / 1.2)


def test_pair_selection_validation():
    with pytest.raises(ValueError):
        PairSelection(2, 2)


def test_pair_step_example():
    # two identical parabolas, h = 1/beta: one step lands on the pair optimum
    cert = ConvexityCertificate(2.0, 2.0)
    f = make_quadratic(1.0, 0.0, cert)
    x = Allocation(np.array([1.0, 3.0]), 4.0)
    y = rcd_pair_step(x, [f, f], PairSelection(0, 1), StepConfig(0.5))
    assert np.array_equal(y.values, [2.0, 2.0])


def test_pair_step_beats_grid_on_equal_curvature():
    # equal curvature, h = 1/beta: the step is the exact minimizer along
    # the feasible segment, so no grid point on that segment does better
    cert = ConvexityCertificate(1.6, 1.6)
    fs = [make_quadratic(0.8, 0.5, cert), make_quadratic(0.8, -0.25, cert)]
    x = Allocation(np.array([-1.0, 2.5]), 1.5)
    y = rcd_pair_step(x, fs, PairSelection(0, 1), StepConfig(1.0 / 1.6))

    def pair_cost(xi):
        return fs[0].value(xi) + fs[1].value(1.5 - xi)

    best = min(pair_cost(xi) for xi in np.linspace(-4.0, 4.0, 20001))
    assert pair_cost(y.values[0]) <= best + 1e-12


def test_pair_step_only_touches_selected_pair():
    cert = ConvexityCertificate(1.0, 2.0)
    rng = np.random.default_rng(2)
    fs = [make_quadratic(t, m, cert) for t, m in zip(rng.uniform(0.5, 1, 5), rng.uniform(-1, 1, 5))]
    v = rng.normal(size=5)
    x = Allocation(v, float(v.sum()))
    y = rcd_pair_step(x, fs, PairSelection(1, 3), StepConfig.default(2.0))
    untouched = [0, 2, 4]
    assert np.array_equal(y.values[untouched], x.values[untouched])
    assert y.values.sum() == pytest.approx(x.budget, abs=1e-12)


def test_pair_step_descends():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        kappa = float(rng.uniform(1.0, 6.0))
        cert = ConvexityCertificate(1.0, kappa)
        fs = [
            make_quadratic(t, m, cert)
            for t, m in zip(rng.uniform(0.5, kappa / 2, n), rng.uniform(-1, 1, n))
        ]
        v = rng.normal(size=n)
        x = Allocation(v, float(v.sum()))
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        y = rcd_pair_step(x, fs, PairSelection(int(i), int(j)), StepConfig.default(kappa))
        before = math.fsum(f.value(u) for f, u in zip(fs, x.values))
        after = math.fsum(f.value(u) for f, u in zip(fs, y.values))
        assert after <= before + 1e-12


def test_selection_matrix_structure():
    q = selection_matrix(0, 2, 4)
    assert np.array_equal(q, q.T)
    assert np.allclose(q @ np.ones(4), 0.0)
    assert np.allclose(q @ q, q)    # projector onto span(e_i - e_j)
    assert np.trace(q) == pytest.approx(1.0)


def test_laplacian_identity():
    for n in range(2, 11):
        assert laplacian_identity_check(n)


@pytest.mark.parametrize("call, key", [
    (lambda: laplacian_identity_check(5.7), "n"),
    (lambda: selection_matrix(0, 1, 5.5), "n"),
    (lambda: certify(_F, 2.5, np.random.default_rng(0)), "sample_count"),
    (lambda: certify(_F, -3, np.random.default_rng(0)), "sample_count"),
    (lambda: certify(_F, math.nan, np.random.default_rng(0)), "sample_count"),
], ids=["laplacian-5.7", "selection-5.5", "certify-2.5", "certify-minus-3", "certify-nan"])
def test_library_counts_name_their_argument(call, key):
    with pytest.raises(ConfigError) as err:
        call()
    assert err.value.key == key


@pytest.mark.parametrize("call, key", [
    # numpy raised a bare IndexError for 0.5 and read True as a mask
    (lambda: selection_matrix(0.5, 1, 5), "i"),
    (lambda: selection_matrix(True, 0, 3), "i"),
    (lambda: selection_matrix(0, 5, 5), "j"),
    (lambda: selection_matrix(-1, 2, 5), "i"),
    (lambda: selection_matrix(2, 2, 5), "j"),
    # numpy raised OverflowError for nan and inf, a bare ValueError for -1
    (lambda: certify(_F, 10, np.random.default_rng(0), radius=math.nan), "radius"),
    (lambda: certify(_F, 10, np.random.default_rng(0), radius=math.inf), "radius"),
    (lambda: certify(_F, 10, np.random.default_rng(0), radius=-1.0), "radius"),
    (lambda: certify(_F, 10, np.random.default_rng(0), radius=0.0), "radius"),
], ids=["selection-0.5", "selection-True", "selection-5-of-5", "selection-minus-1",
        "selection-same", "certify-radius-nan", "certify-radius-inf",
        "certify-radius-minus-1", "certify-radius-0"])
def test_library_indices_and_radius_name_their_argument(call, key):
    with pytest.raises(ConfigError) as err:
        call()
    assert err.value.key == key


def test_exact_onestep_two_agents_equal_curvature():
    # n=2 with h=1/beta and matched curvature contracts to zero in one step
    cert = ConvexityCertificate(2.0, 2.0)
    fs = [make_quadratic(1.0, 0.3, cert), make_quadratic(1.0, -0.6, cert)]
    xstar = closed_form_quadratic_minimizer(fs, 1.0).point
    x = Allocation(np.array([2.0, -1.0]), 1.0)
    e = exact_onestep_expectation(x, fs, xstar, StepConfig(0.5))
    assert e == pytest.approx(0.0, abs=1e-15)


def test_exact_onestep_matches_empirical_average():
    cert = ConvexityCertificate(1.0, 2.0)
    rng = np.random.default_rng(21)
    fs = [make_quadratic(t, m, cert) for t, m in zip(rng.uniform(0.5, 1, 4), rng.uniform(-1, 1, 4))]
    xstar = closed_form_quadratic_minimizer(fs, 0.5).point
    v = rng.normal(size=4)
    v += (0.5 - v.sum()) / 4
    x = Allocation(v, 0.5)
    step = StepConfig.default(2.0)
    ei, ej = complete_graph_edges(4)
    brute = np.mean(
        [
            float(
                np.sum(
                    (
                        rcd_pair_step(x, fs, PairSelection(int(i), int(j)), step).values
                        - xstar.values
                    )
                    ** 2
                )
            )
            for i, j in zip(ei, ej)
        ]
    )
    assert exact_onestep_expectation(x, fs, xstar, step) == pytest.approx(brute, rel=1e-12)


def test_general_weight_step_example():
    # weight vector (1, 0): agent j absorbs its full gradient
    cert = ConvexityCertificate(1.0, 2.0)
    fs = [make_quadratic(1.0, 0.0, cert), make_quadratic(1.0, 0.5, cert)]
    x = np.array([1.0, 3.0])
    y = general_weight_pair_step(x, fs, 1.0, 0.0, PairSelection(0, 1), StepConfig(0.5))
    gj = fs[1].gradient(3.0)
    assert y[0] == pytest.approx(1.0)                  # conserving 1*x_i + 0*x_j pins agent i
    assert y[1] == pytest.approx(3.0 - 0.5 * gj)       # j takes an unconstrained gradient step


def test_general_weight_step_reduces_to_pair_step():
    cert = ConvexityCertificate(1.0, 2.0)
    rng = np.random.default_rng(4)
    fs = [make_quadratic(t, m, cert) for t, m in zip(rng.uniform(0.5, 1, 3), rng.uniform(-1, 1, 3))]
    v = rng.normal(size=3)
    x = Allocation(v, float(v.sum()))
    sel = PairSelection(0, 2)
    step = StepConfig.default(2.0)
    y1 = rcd_pair_step(x, fs, sel, step)
    y2 = general_weight_pair_step(x.values, fs, 1.0, 1.0, sel, step)
    assert np.allclose(y1.values, y2, atol=1e-15)


def test_general_weight_step_preserves_weighted_sum():
    cert = ConvexityCertificate(1.0, 2.0)
    fs = [make_quadratic(0.7, 0.1, cert), make_quadratic(0.9, -0.4, cert)]
    x = np.array([0.5, 1.5])
    a_i, a_j = 2.0, 3.0
    y = general_weight_pair_step(x, fs, a_i, a_j, PairSelection(0, 1), StepConfig(0.25))
    assert a_i * y[0] + a_j * y[1] == pytest.approx(a_i * 0.5 + a_j * 1.5, abs=1e-12)


def test_general_weight_step_rejects_degenerate():
    cert = ConvexityCertificate(1.0, 2.0)
    fs = [make_quadratic(0.7, 0.1, cert), make_quadratic(0.9, -0.4, cert)]
    x = np.array([0.5, 1.5])
    with pytest.raises(DegenerateWeightsError):
        general_weight_pair_step(x, fs, 0.0, 0.0, PairSelection(0, 1), StepConfig(0.25))
