import dataclasses
import math

import numpy as np
import pytest

import bound_oracle as oracle
from openrcd.bounds import (
    MAX_ABS_BUDGET,
    MAX_KAPPA,
    closed_system_rate,
    conjectured_displacement_cap,
    displacement_bound_general,
    displacement_bound_quadratic,
    evaluate_bounds,
    max_agent_probability,
    open_contraction_rate,
    open_recursion,
    quadratic_replacement_offset,
    recursion_envelope,
    replacement_error_map,
    replacement_offset,
    replacement_ratio,
    stability_thresholds,
    steady_state_envelope,
    steady_state_from_recursion,
    steady_state_level,
)


def test_closed_rate_examples():
    assert closed_system_rate(2, 1.0, 1.0) == 0.0
    assert closed_system_rate(5, 1.0, 1.0 / 1.2) == pytest.approx(1 - 1 / 4.8)
    assert closed_system_rate(101, 1.0, 1.0) == pytest.approx(0.99)


def test_open_rate_limits():
    # p_update = 1 recovers the closed-system factor at h = 1/beta
    assert open_contraction_rate(5, 1.2, 1.0) == pytest.approx(1 - 1 / 4.8)
    assert open_contraction_rate(5, 1.2, 0.0) == pytest.approx(2.0)
    rate, off = open_recursion(5, 1.2, 1.0, 0.95)
    assert rate == pytest.approx(0.8520833333333333)
    assert off == pytest.approx(10.714136552049608)


def test_offsets_vanish_without_replacements():
    assert replacement_offset(7, 3.0, 2.0, 1.0) == 0.0
    assert quadratic_replacement_offset(7, 3.0, 2.0, 1.0) == 0.0


def test_quadratic_offset_kappa_one_form():
    # second term carries (kappa-1)^2 so only the first survives
    for n in (2, 5, 11):
        got = quadratic_replacement_offset(n, 1.0, 0.7, 0.95)
        assert got == pytest.approx(8 * 0.05 * (n - 1) / n, rel=1e-13)


def test_quadratic_offset_below_general_for_fig1():
    tight = quadratic_replacement_offset(5, 1.2, 1.0, 0.95)
    loose = replacement_offset(5, 1.2, 1.0, 0.95)
    assert tight < loose


def test_stability_thresholds_exact():
    p_min, ratio_max = stability_thresholds(5, 1.2)
    assert p_min == pytest.approx(4.8 / 5.8, abs=1e-15)
    assert ratio_max == pytest.approx(1.0 / 4.8, abs=1e-15)


def test_replacement_ratio():
    assert replacement_ratio(1.0) == 0.0
    assert replacement_ratio(0.5) == 1.0
    assert replacement_ratio(0.0) == math.inf
    with pytest.raises(ValueError):
        replacement_ratio(1.5)


def test_max_agent_probability():
    assert max_agent_probability(0.2, 2.0) == pytest.approx(0.05)


def test_steady_state_sentinels():
    ratio_max = 1.0 / 4.8
    assert steady_state_level(5, 1.2, 1.0, ratio_max) == math.inf
    assert steady_state_level(5, 1.2, 1.0, ratio_max * 1.01) == math.inf
    assert math.isfinite(steady_state_level(5, 1.2, 1.0, ratio_max * 0.99))
    assert steady_state_from_recursion(5, 1.2, 1.0, 0.8) == math.inf
    assert steady_state_from_recursion(5, 1.2, 1.0, 1.0) == 0.0


def test_steady_state_forms_disagree_and_both_ship():
    # the printed closed form and the recursion fixed point differ;
    # both are reported rather than silently reconciled
    printed = steady_state_level(5, 1.2, 1.0, replacement_ratio(0.97))
    fixed = steady_state_from_recursion(5, 1.2, 1.0, 0.97)
    assert printed == pytest.approx(17.68058578990258, rel=1e-12)
    assert fixed == pytest.approx(37.356795726274697, rel=1e-12)
    assert printed != fixed


def test_displacement_bounds_positive_and_ordered_for_fig1():
    g = displacement_bound_general(5, 1.2, 1.0)
    q = displacement_bound_quadratic(5, 1.2, 1.0)
    assert g > 0 and q > 0
    assert q < g


def test_replacement_error_map_affine():
    base = replacement_error_map(0.0, 5, 1.2, 1.0)
    assert base == pytest.approx(2.0 * displacement_bound_general(5, 1.2, 1.0))
    assert replacement_error_map(3.0, 5, 1.2, 1.0) == pytest.approx(base + 6.0)


def test_conjectured_cap_example():
    assert conjectured_displacement_cap(2, 1.0) == pytest.approx(3.75)


def test_recursion_envelope_iterates():
    env = recursion_envelope(2.0, 0.5, 1.0, 4)
    assert np.allclose(env, [2.0, 2.0, 2.0, 2.0, 2.0])
    env = recursion_envelope(4.0, 0.5, 0.0, 3)
    assert np.allclose(env, [4.0, 2.0, 1.0, 0.5])


def test_recursion_envelope_dominates_simulated_mean_shape():
    # contraction below 1 pulls the envelope monotonically toward its
    # fixed point from either side
    rate, off = 0.9, 1.0
    fp = off / (1 - rate)
    above = recursion_envelope(fp + 5, rate, off, 50)
    below = recursion_envelope(fp - 5, rate, off, 50)
    assert np.all(np.diff(above) < 0) and above[-1] > fp
    assert np.all(np.diff(below) > 0) and below[-1] < fp


def test_steady_state_envelope_matches_geometric_form():
    env = steady_state_envelope(10.0, 5, 1.2, 1.0, replacement_ratio(0.97), 30)
    gamma = steady_state_level(5, 1.2, 1.0, replacement_ratio(0.97))
    assert env[0] == 10.0
    assert env[-1] == pytest.approx(gamma, rel=1e-2)
    env_unstable = steady_state_envelope(10.0, 5, 1.2, 1.0, 1.0, 5)
    assert env_unstable[0] == 10.0
    assert np.all(np.isinf(env_unstable[1:]))


def test_evaluate_bounds_fields_consistent():
    bs = evaluate_bounds(5, 1.0, 1.2, 1.0, 0.95)
    assert bs.kappa == pytest.approx(1.2)
    assert bs.h == pytest.approx(1 / 1.2)
    assert bs.stable
    assert bs.open_rate == pytest.approx(open_contraction_rate(5, 1.2, 0.95))
    assert bs.offset_quadratic == pytest.approx(
        quadratic_replacement_offset(5, 1.2, 1.0, 0.95)
    )
    unstable = evaluate_bounds(5, 1.0, 1.2, 1.0, 0.5)
    assert not unstable.stable
    assert unstable.steady_state_fixed_point == math.inf


def test_validation_rejects_bad_domains():
    with pytest.raises(ValueError):
        open_contraction_rate(1, 1.2, 0.95)
    with pytest.raises(ValueError):
        open_contraction_rate(5, 0.9, 0.95)
    with pytest.raises(ValueError):
        steady_state_level(5, 1.2, 1.0, -0.1)
    with pytest.raises(ValueError):
        recursion_envelope(1.0, 0.9, 0.1, -1)


def test_against_independent_oracle_spot():
    # the full 100-tuple sweep lives in the acceptance suite; keep a
    # quick sanity cross-check here
    for args in [(5, 1.2, 1.0, 0.95), (10, 3.0, 0.0, 0.99), (2, 100.0, 1.0, 0.9)]:
        n, kappa, b, pu = args
        got = replacement_offset(n, kappa, b, pu)
        want = float(oracle.offset_general(n, kappa, b, pu))
        assert got == pytest.approx(want, rel=1e-12)
        got_q = quadratic_replacement_offset(n, kappa, b, pu)
        want_q = float(oracle.offset_quadratic(n, kappa, b, pu))
        assert got_q == pytest.approx(want_q, rel=1e-12)


def test_overflowing_inputs_are_rejected_and_the_limits_give_no_nan():
    for beta, b in [(10.0 * MAX_KAPPA, 1.0), (2.0, 10.0 * MAX_ABS_BUDGET), (2.0, -1e300)]:
        with pytest.raises(ValueError):
            evaluate_bounds(5, 1.0, beta, b, 0.9)
    for p_update in (0.9, 1.0):
        bs = evaluate_bounds(5, 1.0, MAX_KAPPA, MAX_ABS_BUDGET, p_update)
        assert not any(
            isinstance(v, float) and math.isnan(v) for v in dataclasses.astuple(bs)
        )
    assert quadratic_replacement_offset(5, MAX_KAPPA, MAX_ABS_BUDGET, 1.0) == 0.0
