import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openrcd import worstcase

from openrcd.allocation import dual_bisection_minimizer
from openrcd.config import MAX_AGENTS, ConfigError
from openrcd.bounds import (
    conjectured_displacement_cap,
    displacement_bound_general,
    displacement_bound_quadratic,
)
from openrcd.functions import ConvexityCertificate
from openrcd.rules import MAX_SEARCH_BUDGET, _check_search_budget
from openrcd.worstcase import (
    ReplacementInstance,
    _ascend,
    _kept_theta_max,
    _line_max,
    _line_maxima,
    _objective,
    _start_sequence,
    _t1_line,
    _t2_line,
    _theta_grid,
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


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("b", [0.0, 1.0, -1.0, 1e6, -1e6, 1e12, -1e12])
def test_unit_condition_value_holds_up_to_large_budgets(n, b):
    # the kappa = 1 worst case 4(1 - 1/n) does not depend on b, but
    # _objective's b - s - m terms cancel: past |b| = 1e12 the value drifts
    # (2e-3 high at n = 3, b = 1e15), so this range is the one guaranteed
    res = maximize_displacement(n, 1.0, b, search_budget=48, seed=0)
    assert res.value == pytest.approx(4.0 * (1.0 - 1.0 / n), rel=1e-6)


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


def _bits(value, state):
    kt, t1, t2, km, m1, m2 = state
    return np.float64(value).tobytes(), np.asarray([*kt, t1, t2, *km, m1, m2]).tobytes()


@pytest.mark.parametrize(
    "n, kappa, b", [(2, 3.0, 0.0), (4, 3.0, 1.0), (7, 5.0, -2.0), (12, 5.0, 1.0)])
def test_shared_line_maxima_are_exact(n, kappa, b):
    # 760 starts reach the seeded random tail; cap 0 recomputes every line
    # and reuses no tail
    box = (0.5, 0.5 * kappa)
    shared = _line_maxima(*box, worstcase._LINE_CACHE_CAP)
    alone = _line_maxima(*box, 0)
    for _, start in zip(range(760), _start_sequence(n, box, 1)):
        assert _bits(*_ascend(start, b, shared)) == _bits(*_ascend(start, b, alone))
    assert shared.cache_info().currsize and not alone.cache_info().currsize
    assert shared.tails and not alone.tails


@pytest.mark.parametrize("sweeps", [1, 2, 3])
@pytest.mark.parametrize("n", [4, 7])
def test_tails_are_reused_only_with_the_sweeps_they_took(monkeypatch, n, sweeps):
    # with the sweeps capped, many ascents stop at the cap; a tail stored by
    # an ascent that converged later than the sweeps left must not be reused
    monkeypatch.setattr(worstcase, "_MAX_SWEEPS", sweeps)
    box = (0.5, 2.5)
    shared = _line_maxima(*box, worstcase._LINE_CACHE_CAP)
    alone = _line_maxima(*box, 0)
    for _, start in zip(range(760), _start_sequence(n, box, 1)):
        assert _bits(*_ascend(start, 1.0, shared)) == _bits(*_ascend(start, 1.0, alone))


def test_line_maxima_stay_within_the_cap(monkeypatch):
    cap = 64
    sizes = []

    def ascend_and_measure(start, b, lines):
        found = _ascend(start, b, lines)
        sizes.append((lines.cache_info().currsize, len(lines.tails)))
        return found

    unbounded = maximize_displacement(3, 4.0, 1.0, search_budget=760, seed=3)
    monkeypatch.setattr(worstcase, "_LINE_CACHE_CAP", cap)
    monkeypatch.setattr(worstcase, "_ascend", ascend_and_measure)
    bounded = maximize_displacement(3, 4.0, 1.0, search_budget=760, seed=3)
    assert len(sizes) == 760 and max(lines for lines, _ in sizes) == cap
    # a tail key holds 2n + 4 floats
    assert max(tails for _, tails in sizes) == cap // (2 * 3 + 4)
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


@pytest.mark.parametrize("search, args, kwargs, key", [
    (sweep, ([3, 4], [2.0, 1e300], 1.0, 2), {}, "kappa"),
    (sweep, ([3, 4], [2.0, math.nan], 1.0, 2), {}, "kappa"),
    (sweep, ([3, 2.5], [2.0], 1.0, 2), {}, "n"),
    (sweep, ([3, 4], [2.0, 5.0], math.nan, 2), {}, "b"),
    (sweep, ([3, 4], [2.0, 5.0], 1.0, 2.5), {}, "search_budget"),
    # budgets past MAX_SEARCH_BUDGET used to search until killed
    (sweep, ([3, 4], [2.0, 5.0], 1.0, MAX_SEARCH_BUDGET + 1), {}, "search_budget"),
    (sweep, ([3, 4], [2.0, 5.0], 1.0, 2**64), {}, "search_budget"),
    (maximize_displacement, (3, 2.0, 1.0, MAX_SEARCH_BUDGET + 1), {}, "search_budget"),
    (maximize_displacement, (3, 2.0, 1.0, 2**64), {}, "search_budget"),
    (sweep, ([3, 4], [2.0, 5.0], 1.0, 2), {"seed": 1.5}, "seed"),
    (sweep, ([3, 4], [2.0, 5.0], 1.0, 2), {"seed": -1}, "seed"),
    (maximize_displacement, (3, 2.0, 1.0, 2), {"seed": 1.5}, "seed"),
    (maximize_displacement, (3, 2.0, 1.0, 2), {"seed": -1}, "seed"),
    # a range is checked by its two ends, so a huge one is refused at once
    (sweep, (range(2, 10**400), [2.0], 1.0, 2), {}, "n"),
    (sweep, (range(MAX_AGENTS, MAX_AGENTS + 2), [2.0], 1.0, 2), {}, "n"),
    (sweep, ([3, MAX_AGENTS + 1], [2.0], 1.0, 2), {}, "n"),
])
def test_sweep_checks_every_input_before_searching(monkeypatch, search, args, kwargs, key):
    # the bad entry is the grid's last: a kappa of 1e300 used to be refused
    # only after three cells, n = 2.5 after n = 3, and a seed of 1.5 ran as 1
    def no_ascent(*_):
        raise AssertionError("searched before checking its inputs")

    monkeypatch.setattr(worstcase, "_ascend", no_ascent)
    with pytest.raises(ConfigError) as err:
        search(*args, **kwargs)
    assert err.value.key == key


def test_the_search_budget_cap_itself_is_legal():
    assert _check_search_budget("search_budget", MAX_SEARCH_BUDGET) == MAX_SEARCH_BUDGET


def test_sweep_bits_are_pinned_past_the_corner_starts():
    # budget 100 passes the 64 corner starts into the mixed templates, at
    # b < 0 and kappa = 50; the fig2-analogue digests (budget 48) reach neither
    rows = sweep(range(2, 6), [3.0, 50.0], -2.0, 100, seed=11)
    assert [row.empirical_max.hex() for row in rows] == [
        "0x1.0000000000000p+3", "0x1.0fac687d6343fp+3",
        "0x1.2000000000001p+3", "0x1.2f684bda12f6ap+3",
        "0x1.5dc635f36b274p+4", "0x1.e1623276449cep+4",
        "0x1.37a670b913b51p+5", "0x1.82ed561928f1ap+5",
    ]


def test_search_bits_are_pinned_in_the_seeded_tail():
    res = maximize_displacement(4, 20.0, 0.5, 760, seed=3)
    w = res.witness
    assert res.value.hex() == "0x1.1ae4ba0c7cad3p+4"
    assert [t.hex() for t in w.kept_theta] == [
        "0x1.4000000000000p+3", "0x1.4000000000000p+3", "0x1.0f71786912ddap+0"]
    assert w.kept_mu == (-1.0, -1.0, -1.0)
    assert w.replaced_before == (10.0, -1.0) and w.replaced_after == (0.5, 1.0)


# budgets at the sign changes and far out, locations at the box ends and inside
_B = st.sampled_from([0.0, 1.0, -1.0, 1e6, -1e6]) | st.floats(-1e6, 1e6)
_MU = st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(kappa=st.floats(1.0, 100.0), b=_B, data=st.data())
def test_line_objectives_return_the_reference_bits(kappa, b, data):
    # each line hoists what stays fixed along it; every value must still be
    # _objective's, bit for bit, or the search's pinned outputs would move
    theta = st.floats(0.5, 0.5 * kappa)
    kt = data.draw(st.lists(theta, min_size=1, max_size=11), label="kept theta")
    km = data.draw(st.lists(_MU, min_size=len(kt), max_size=len(kt)), label="kept mu")
    t, t1, t2 = (data.draw(theta, label=name) for name in ("t", "t1", "t2"))
    m1, m2 = data.draw(_MU, label="m1"), data.draw(_MU, label="m2")
    # the aggregates as _ascend forms them, added in order
    s = z0 = q0 = 0.0
    for x, m in zip(kt, km):
        s += m
        z0 += 1.0 / x
        q0 += 1.0 / (x * x)
    z0_rest = z0 - 1.0 / kt[0]
    q0_rest = q0 - 1.0 / (kt[0] * kt[0])

    grid = _theta_grid(0.5, 0.5 * kappa)

    def kept_line(x):
        return _objective(s, z0_rest + 1.0 / x, q0_rest + 1.0 / (x * x), b, t1, m1, t2, m2)

    pairs = [
        (_kept_theta_max(grid, s, z0_rest, q0_rest, b, t1, m1, t2, m2),
         _line_max(kept_line, grid[0])),
        (_t1_line(s, z0, q0, b, m1, t2, m2)(t), _objective(s, z0, q0, b, t, m1, t2, m2)),
        (_t2_line(s, z0, q0, b, t1, m1, m2)(t), _objective(s, z0, q0, b, t1, m1, t, m2)),
    ]
    for got, want in pairs:
        assert got.hex() == want.hex()
