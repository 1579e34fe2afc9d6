import math

import numpy as np
import pytest

from openrcd import worstcase

from openrcd.allocation import dual_bisection_minimizer
from openrcd.bounds import (
    conjectured_displacement_cap,
    displacement_bound_general,
    displacement_bound_quadratic,
)
from openrcd.functions import ConvexityCertificate
from openrcd.worstcase import (
    ReplacementInstance,
    _ascend,
    _LineMaxima,
    _start_sequence,
    displacement,
    maximize_displacement,
    sweep,
)


def test_displacement_two_agent_hand_instance():
    # equal curvatures: swapping the location from -1 to +1 moves each
    # minimizer coordinate by 1, squared displacement 2
    inst = ReplacementInstance(
        kept_theta=(0.5,),
        kept_mu=(0.0,),
        replaced_before=(0.5, -1.0),
        replaced_after=(0.5, 1.0),
        budget=0.0,
        certificate=ConvexityCertificate(1.0, 1.0),
    )
    assert displacement(inst) == pytest.approx(2.0, abs=1e-13)
    assert inst.n == 2


def test_search_recovers_unit_condition_closed_form():
    # kappa = 1 forces every curvature to alpha/2; the exact worst case
    # is 4(n-1)/n, attained by a full location swing
    for n in (2, 3, 4, 6):
        res = maximize_displacement(n, 1.0, 0.0, search_budget=8, seed=0)
        assert res.value == pytest.approx(4.0 * (n - 1) / n, rel=1e-10)
        assert res.theta_on_boundary


def test_search_result_witness_is_reproducible():
    # past the 729 fixed templates, so the witness may come from the seeded tail
    res = maximize_displacement(4, 3.0, 1.0, search_budget=760, seed=1)
    assert displacement(res.witness) == pytest.approx(res.value, rel=1e-12)
    # independent solver agrees on both minimizers of the witness
    before, after = res.witness.rosters()
    a = dual_bisection_minimizer(before, 1.0).point.values
    b = dual_bisection_minimizer(after, 1.0).point.values
    assert float(((b - a) ** 2).sum()) == pytest.approx(res.value, abs=1e-8)


def test_search_dominates_naive_sampling():
    n, kappa, b = 3, 2.0, 1.0
    res = maximize_displacement(n, kappa, b, search_budget=32, seed=0)
    cert = ConvexityCertificate(1.0, kappa)
    rng = np.random.default_rng(123)
    best = 0.0
    for _ in range(2000):
        thetas = rng.uniform(0.5, kappa / 2, n + 1)
        mus = rng.uniform(-1.0, 1.0, n + 1)
        inst = ReplacementInstance(
            kept_theta=tuple(thetas[: n - 1]),
            kept_mu=tuple(mus[: n - 1]),
            replaced_before=(thetas[n - 1], mus[n - 1]),
            replaced_after=(thetas[n], mus[n]),
            budget=b,
            certificate=cert,
        )
        best = max(best, displacement(inst))
    assert res.value >= best


def test_search_budget_monotone():
    values = [
        maximize_displacement(5, 2.0, 1.0, search_budget=budget, seed=9).value
        for budget in (8, 32, 128, 760)   # 760 reaches the seeded random tail
    ]
    assert values[0] <= values[1] <= values[2] <= values[3]


def test_search_value_below_caps():
    for n, kappa in [(2, 2.0), (5, 5.0), (9, 3.0)]:
        res = maximize_displacement(n, kappa, 1.0, search_budget=16, seed=0)
        assert res.value <= displacement_bound_general(n, kappa, 1.0)
        assert res.value <= displacement_bound_quadratic(n, kappa, 1.0)


def test_search_validation():
    with pytest.raises(ValueError):
        maximize_displacement(1, 2.0, 0.0)
    with pytest.raises(ValueError):
        maximize_displacement(3, 0.5, 0.0)
    with pytest.raises(ValueError):
        maximize_displacement(3, 2.0, 0.0, search_budget=0)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((3, 2.0, math.nan), {}),
        ((3, 2.0, math.inf), {}),
        ((3, math.nan, 0.0), {}),
        ((2.7, 2.0, 0.0), {}),
        ((3, 2.0, 0.0), {"search_budget": 2.5}),
        ((3, 2.0, 0.0), {"search_budget": math.nan}),
        ((3, 2.0, 0.0), {"search_budget": math.inf}),
    ],
)
def test_search_rejects_bad_inputs_before_searching(monkeypatch, args, kwargs):
    # a NaN kappa used to run the whole search first; n = 2.7 and a budget
    # of 2.5 used to be truncated to 2
    def no_ascent(*_):
        raise AssertionError("searched before checking its inputs")

    monkeypatch.setattr(worstcase, "_ascend", no_ascent)
    with pytest.raises(ValueError):
        maximize_displacement(*args, **kwargs)


def test_sweep_rejects_infinite_budget():
    with pytest.raises(ValueError, match=r"\|b\|"):
        sweep([3], [2.0], math.inf, 4)


def _bits(value, vec):
    return np.float64(value).tobytes(), np.asarray(vec, dtype=np.float64).tobytes()


@pytest.mark.parametrize("n, kappa, b", [(2, 3.0, 0.0), (4, 3.0, 1.0), (7, 5.0, -2.0)])
def test_shared_line_maxima_are_exact(n, kappa, b):
    # 760 starts reach the seeded random tail; cap 0 recomputes every line
    box = (0.5, 0.5 * kappa)
    shared = _LineMaxima(*box, worstcase._LINE_CACHE_CAP)
    alone = _LineMaxima(*box, 0)
    rng = np.random.default_rng(1)
    for _, start in zip(range(760), _start_sequence(n, box, rng)):
        assert _bits(*_ascend(start, n, b, shared)) == _bits(*_ascend(start, n, b, alone))
    assert shared.store and not alone.store


def test_line_maxima_stop_storing_at_the_cap(monkeypatch):
    cap = 64
    sizes = []

    def ascend_and_measure(start, n, b, lines):
        found = _ascend(start, n, b, lines)
        sizes.append(len(lines.store))
        return found

    unbounded = maximize_displacement(3, 4.0, 1.0, search_budget=760, seed=3)
    monkeypatch.setattr(worstcase, "_LINE_CACHE_CAP", cap)
    monkeypatch.setattr(worstcase, "_ascend", ascend_and_measure)
    bounded = maximize_displacement(3, 4.0, 1.0, search_budget=760, seed=3)
    assert len(sizes) == 760 and max(sizes) == cap
    assert bounded == unbounded


def test_sweep_table_shape_and_columns():
    rows = sweep([2, 3, 4], [2.0, 5.0], 1.0, search_budget=8, seed=7)
    assert len(rows) == 6
    for row in rows:
        assert row.empirical_max > 0
        assert row.bound_general == displacement_bound_general(row.n, row.kappa, 1.0)
        assert row.bound_quadratic == displacement_bound_quadratic(row.n, row.kappa, 1.0)
        assert row.conjecture == conjectured_displacement_cap(row.n, row.kappa)
        assert row.empirical_max <= min(row.bound_general, row.bound_quadratic)


def test_sweep_deterministic():
    a = sweep([2, 3], [2.0], 1.0, search_budget=8, seed=7)
    b = sweep([2, 3], [2.0], 1.0, search_budget=8, seed=7)
    assert a == b
