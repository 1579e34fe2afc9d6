import dataclasses
import inspect
import math

import mpmath as mp
import numpy as np
import pytest

import bound_oracle as oracle
from openrcd import bounds
from openrcd.allocation import minimizer_ball_radius
from openrcd.bounds import (
    MAX_ABS_BUDGET,
    MAX_AGENTS,
    MAX_KAPPA,
    closed_system_rate,
    conjectured_displacement_cap,
    displacement_bound_general,
    displacement_bound_quadratic,
    evaluate_bounds,
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
from openrcd.opensim import EventSchedule
from openrcd.rcd import uniform_pair_probability
from openrcd.worstcase import maximize_displacement
from paper_identities import max_agent_probability


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


@pytest.mark.parametrize("n", [2, 3, 5, 12, 100, 1024])
@pytest.mark.parametrize("kappa", [1.0, 1.2, 2.0, 10.0, 1e3, 1e6])
def test_max_agent_probability_is_the_agent_probability_at_the_threshold(n, kappa):
    # at the stability threshold p_U* = kappa (n-1) / (kappa (n-1) + 1) the
    # largest stable replacement probability of an agent is its actual one,
    # (1 - p_U*) / n; the half-ulp rounding of p_U* is amplified by the
    # cancellation in 1 - p_U*, hence the tolerance
    p = stability_thresholds(n, kappa)[0]
    schedule = EventSchedule(p)
    stable = max_agent_probability(schedule.edge_probability(n), kappa)
    assert stable == pytest.approx(schedule.agent_probability(n), rel=4 * math.ulp(1.0) / (1.0 - p))


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


def test_conjectured_cap_does_not_cancel_at_large_kappa():
    # the oracle's printed form cancels too at its own 50 digits, so it
    # is evaluated at 400 here
    for n in (2, 3, 5, 12, 100, 1000):
        for kappa in (1.0, 1.2, 2.0, 3.7, 10.0, 1e3, 1e8, 1e16, 1e50, MAX_KAPPA):
            with mp.workdps(400):
                want = oracle.conjectured_displacement_cap(n, kappa)
                got = mp.mpf(conjectured_displacement_cap(n, kappa))
                assert abs(got - want) <= 1e-15 * abs(want), (n, kappa)


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


# one good value per argument name, and bad ones: non-finite or out of range
_GOOD = dict(n=5, kappa=2.0, b=1.0, budget=1.0, p_update=0.9, edge_probability=0.2,
             ratio=0.1, alpha=1.0, beta=2.0, h=0.5, horizon=3, initial=1.0, rate=0.5,
             offset=0.1, c=1.0, search_budget=1, seed=0)
_BAD = dict(
    n=(1, 5.5, math.inf, math.nan, MAX_AGENTS + 1),
    kappa=(0.5, math.nan, 10.0 * MAX_KAPPA),
    b=(math.nan, -math.inf, 10.0 * MAX_ABS_BUDGET),
    budget=(math.nan, -math.inf, 10.0 * MAX_ABS_BUDGET),
    p_update=(1.5, math.nan),
    edge_probability=(-0.1, math.nan),
    ratio=(-0.1, math.nan),
    alpha=(0.0, math.nan, math.inf),
    beta=(0.5, math.nan, 10.0 * MAX_KAPPA),
    h=(0.0, math.nan, 2.0),
    horizon=(-1, 2.5),
    initial=(-1.0, math.nan),
    rate=(-1.0, math.nan),
    offset=(-1.0, math.nan),
    c=(-1.0, math.nan),
    search_budget=(0, 2.5, math.inf),
    seed=(-1, 1.5),
)
# the ball radius holds for a single agent, so its count floor is 1, not 2
_OWN_BAD = {(minimizer_ball_radius, "n"): (0, 5.5, math.inf, math.nan, MAX_AGENTS + 1)}
_CALCULATORS = [
    f for _, f in inspect.getmembers(bounds, inspect.isfunction) if f.__name__ in bounds.__all__
] + [uniform_pair_probability, maximize_displacement, minimizer_ball_radius, max_agent_probability]


def _bad_argument_cases():
    for func in _CALCULATORS:
        for name in inspect.signature(func).parameters:
            for bad in _OWN_BAD.get((func, name), _BAD[name]):
                yield pytest.param(func, name, bad, id=f"{func.__name__}-{name}={bad!r}")


@pytest.mark.parametrize("func, name, bad", _bad_argument_cases())
def test_every_calculator_refuses_a_bad_argument_by_name(func, name, bad):
    kwargs = {arg: _GOOD[arg] for arg in inspect.signature(func).parameters if arg in _GOOD}
    func(**kwargs)
    kwargs[name] = bad
    with pytest.raises(ValueError, match=rf"\b{name}\b") as err:
        func(**kwargs)
    assert getattr(err.value, "key", name) == name
