import itertools
import math
from fractions import Fraction

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
from openrcd.rules import MAX_ABS_BUDGET, MAX_KAPPA, MAX_SEARCH_BUDGET, _check_search_budget
from openrcd.worstcase import (
    ReplacementInstance,
    _aggregates,
    _ascend,
    _kept_theta_candidates,
    _kept_theta_max,
    _line_maxima,
    _objective,
    _start_sequence,
    _stationary_cubic,
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
@pytest.mark.parametrize("b", [
    0.0, 1.0, -1.0, 1e6, -1e6, 1e12, -1e12, 1e16, -1e16, 1e17, 1e100, 1e150, -1e150])
def test_unit_condition_value_holds_up_to_large_budgets(n, b):
    # the kappa = 1 worst case 4(1 - 1/n) does not depend on b; a form of
    # _objective that cancelled b - s - m1 against b - s - m2 read 4.75 at
    # n = 3, b = 1e16, and 0 from b = 1e17 on
    res = maximize_displacement(n, 1.0, b, search_budget=48, seed=0)
    assert res.value == pytest.approx(4.0 * (1.0 - 1.0 / n), rel=1e-12)


@pytest.mark.parametrize("n, kappa, b, budget, seed", [
    (3, 1e16, 0.0, 48, 0),
    (3, 1e100, 0.0, 48, 0),
    (4, 20.0, 0.5, 760, 3),
    (5, 2.0, 1.0, 128, 9),
    (12, 50.0, -2.0, 100, 11),
    (3, 1.0, 1e150, 3, 0),
])
def test_search_value_is_the_objective_at_its_witness(n, kappa, b, budget, seed):
    # scored from sums updated step by step, the value at (3, 1e16) read
    # 17.999997563 against 17.999996354 at the witness
    res = maximize_displacement(n, kappa, b, budget, seed)
    w = res.witness
    sums = _aggregates(w.kept_theta, w.kept_mu)
    assert res.value.hex() == _objective(*sums, b, *w.replaced_before, *w.replaced_after).hex()


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


_THETA_GRID = 17
_GOLDEN_ITERS = 28
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _theta_grid(lo, hi):
    return [lo + (hi - lo) * g / (_THETA_GRID - 1) for g in range(_THETA_GRID)]


def _line_max(func, xs):
    """Argmax of ``func`` by a scan of the grid ``xs`` plus golden refinement
    between the best point's neighbours: the reference line search, which
    the search ran on every kept curvature line before it solved the
    line's stationary cubic."""
    vals = list(map(func, xs))
    best = vals.index(max(vals))   # the first maximum
    a = xs[max(best - 1, 0)]
    c = xs[min(best + 1, len(xs) - 1)]
    x1 = c - _INVPHI * (c - a)
    x2 = a + _INVPHI * (c - a)
    f1, f2 = func(x1), func(x2)
    for _ in range(_GOLDEN_ITERS):
        if f1 >= f2:
            c, x2, f2 = x2, x1, f1
            x1 = c - _INVPHI * (c - a)
            f1 = func(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (c - a)
            f2 = func(x2)
    _, x = max((vals[best], xs[best]), (f1, x1), (f2, x2))
    return x


# _objective's rounding, in unit roundoffs u = 2**-53 of the scale
# S^2 (q0 + z0^2), S = |(b-s)(t1-t2)/(t1 t2 z1 z2)| + 1/z1 + 1/z2, at float
# inputs: the |b| term carries 11u (b - s, the quotient of t1 - t2 and
# t1 t2, two z's of 2u each, their product and two more operations), each
# m/z 3u and the two sums 2u, so |da| <= 13u S; a*a then adds 26u S^2 plus
# its own rounding, and q0 + z0*z0 and the last product 3u: 30u, fixed at 32u
_ROUNDING = 32 * 2.0**-53


def _exact_objective(*args):
    """``_objective``'s value in exact arithmetic at the same inputs, and
    the scale its rounding is bounded by."""
    s, z0, q0, b, t1, m1, t2, m2 = map(Fraction, args)
    z1 = z0 + 1 / t1
    z2 = z0 + 1 / t2
    big = (b - s) * (t1 - t2) / (t1 * t2 * z1 * z2)
    a = big - m1 / z1 + m2 / z2
    return a * a * (q0 + z0 * z0), (abs(big) + 1 / z1 + 1 / z2) ** 2 * (q0 + z0 * z0)


def _exact_displacement(kt, km, t1, m1, t2, m2, b):
    # both closed-form minimizers x_i = mu_i + (b - sum mu)/(theta_i sum 1/theta)
    def minimizer(theta, mu):
        theta, mu = [Fraction(t) for t in theta], [Fraction(m) for m in mu]
        lam = (Fraction(b) - sum(mu)) / sum(1 / t for t in theta)
        return [m + lam / t for t, m in zip(theta, mu)]

    before = minimizer([*kt, t1], [*km, m1])
    after = minimizer([*kt, t2], [*km, m2])
    return sum((x - y) ** 2 for x, y in zip(before, after))


_KAPPA = st.floats(1.0, 1e4) | st.just(1.0 + 1e-9)
_HUGE_B = st.floats(-1e150, 1e150) | st.sampled_from(
    [0.0, 1.0, -1.0, 1e16, -1e16, 1e17, 1e100, 1e150, -1e150])
_MU = st.sampled_from([-1.0, 1.0]) | st.floats(-1.0, 1.0)


@settings(max_examples=400, deadline=None)
@given(n=st.integers(2, 12), kappa=_KAPPA, b=_HUGE_B, data=st.data())
def test_objective_is_the_displacement_and_rounds_within_its_bound(n, kappa, b, data):
    theta = st.floats(0.5, 0.5 * kappa)
    kt = data.draw(st.lists(theta, min_size=n - 1, max_size=n - 1), label="kept theta")
    km = data.draw(st.lists(_MU, min_size=n - 1, max_size=n - 1), label="kept mu")
    t1, t2 = data.draw(theta, label="t1"), data.draw(theta, label="t2")
    m1, m2 = data.draw(_MU, label="m1"), data.draw(_MU, label="m2")
    # the identity: the replaced agent moves by -a z0, so the displacement
    # is a^2 (q0 + z0^2), exactly
    inv = [1 / Fraction(t) for t in kt]
    sums = (sum(map(Fraction, km)), sum(inv), sum(r * r for r in inv))
    exact, _ = _exact_objective(*sums, b, t1, m1, t2, m2)
    assert _exact_displacement(kt, km, t1, m1, t2, m2, b) == exact
    # the rounding, at the float sums the search forms
    args = (*_aggregates(kt, km), b, t1, m1, t2, m2)
    exact, scale = _exact_objective(*args)
    assert abs(Fraction(_objective(*args)) - exact) <= Fraction(_ROUNDING) * scale


def _assert_exact_at_the_witness(value, w):
    # the witness's exact displacement, within _objective's rounding bound
    kt, km, b = w.kept_theta, w.kept_mu, w.budget
    args = (*_aggregates(kt, km), b, *w.replaced_before, *w.replaced_after)
    exact = _exact_displacement(kt, km, *w.replaced_before, *w.replaced_after, b)
    assert abs(Fraction(value) - exact) <= Fraction(_ROUNDING) * _exact_objective(*args)[1]


def test_sweep_bits_are_pinned_past_the_corner_starts():
    # budget 100 passes the 64 corner starts into the mixed templates, at
    # b < 0 and kappa = 50; the fig2-analogue digests (budget 48) reach neither
    rows = sweep(range(2, 6), [3.0, 50.0], -2.0, 100, seed=11)
    assert [row.empirical_max.hex() for row in rows] == [
        "0x1.0000000000000p+3", "0x1.0fac687d63440p+3",
        "0x1.2000000000001p+3", "0x1.2f684bda12f68p+3",
        "0x1.5dc635f36b27bp+4", "0x1.e1623276449d4p+4",
        "0x1.37a670b913b4cp+5", "0x1.82ed561928f6bp+5",
    ]
    for ki, kappa in enumerate([3.0, 50.0]):
        for ni, n in enumerate(range(2, 6)):
            res = maximize_displacement(n, kappa, -2.0, 100, seed=11 + 7919 * (ki * 1000 + ni))
            assert res.value == rows[4 * ki + ni].empirical_max
            _assert_exact_at_the_witness(res.value, res.witness)


def test_search_bits_are_pinned_in_the_seeded_tail():
    res = maximize_displacement(4, 20.0, 0.5, 760, seed=3)
    w = res.witness
    assert res.value.hex() == "0x1.1ae4ba0c7caedp+4"
    assert [t.hex() for t in w.kept_theta] == [
        "0x1.4000000000000p+3", "0x1.4000000000000p+3", "0x1.0f71749c6ef97p+0"]
    assert w.kept_mu == (-1.0, -1.0, -1.0)
    assert w.replaced_before == (0.5, 1.0) and w.replaced_after == (10.0, -1.0)
    _assert_exact_at_the_witness(res.value, w)


@pytest.mark.parametrize("n", [2, 3])
def test_value_fits_where_a_squared_overflows(n):
    # a is about 5e249 here, so a*a overflowed and the search read inf,
    # picking an arbitrary kept theta on lines where every value was inf
    res = maximize_displacement(n, MAX_KAPPA, MAX_ABS_BUDGET, 3, 0)
    w = res.witness
    exact = _exact_displacement(
        w.kept_theta, w.kept_mu, *w.replaced_before, *w.replaced_after, w.budget)
    assert res.value == pytest.approx(float(exact), rel=1e-12)
    assert res.value > 1e300


# budgets at the sign changes and far out, locations at the box ends and inside
_B = st.sampled_from([0.0, 1.0, -1.0, 1e6, -1e6]) | st.floats(-1e6, 1e6)


def _kept_line(line):
    """``x -> _objective``'s arguments on the kept curvature line ``line =
    (s, z0_rest, q0_rest, b, t1, m1, t2, m2)``, summed as ``_ascend`` sums."""
    s, z0_rest, q0_rest, *rest = line
    return lambda x: (s, z0_rest + 1.0 / x, q0_rest + 1.0 / (x * x), *rest)


def _assert_line_maximum(lo, hi, line):
    # the exact maximum lies in the box and scores at least the reference
    # line search on an even and on a geometric grid, up to the rounding of
    # both values: _ROUNDING times their scales
    args = _kept_line(line)
    got = _kept_theta_max(lo, hi, *line)
    assert lo <= got <= hi
    value = Fraction(_objective(*args(got)))
    geometric = [min(lo * (hi / lo) ** (g / 16), hi) for g in range(17)]
    for grid in (_theta_grid(lo, hi), geometric):
        ref = _line_max(lambda x: _objective(*args(x)), grid)
        scale = _exact_objective(*args(got))[1] + _exact_objective(*args(ref))[1]
        assert value >= Fraction(_objective(*args(ref))) - Fraction(_ROUNDING) * scale


@settings(max_examples=300, deadline=None)
@given(kappa=st.floats(1.0, 100.0), b=_B, data=st.data())
def test_line_objectives_return_the_reference_bits(kappa, b, data):
    # the kept line scores its candidates with _objective at the sums
    # _ascend forms, and the t1 and t2 lines are scored at the box ends;
    # every value must be _objective's, bit for bit, or the search's pinned
    # outputs would move
    theta = st.floats(0.5, 0.5 * kappa)
    kt = data.draw(st.lists(theta, min_size=1, max_size=11), label="kept theta")
    km = data.draw(st.lists(_MU, min_size=len(kt), max_size=len(kt)), label="kept mu")
    t1, t2 = (data.draw(theta, label=name) for name in ("t1", "t2"))
    m1, m2 = data.draw(_MU, label="m1"), data.draw(_MU, label="m2")
    # the aggregates as _ascend forms them, added in order
    s, z0, q0 = _aggregates(kt, km)
    z0_rest = z0 - 1.0 / kt[0]
    q0_rest = q0 - 1.0 / (kt[0] * kt[0])
    line = (s, z0_rest, q0_rest, b, t1, m1, t2, m2)

    lo, hi = 0.5, 0.5 * kappa
    grid = _theta_grid(lo, hi)
    args = _kept_line(line)
    ts = _kept_theta_candidates(lo, hi, *line)
    values = [_objective(*args(t)) for t in ts]
    assert _kept_theta_max(lo, hi, *line).hex() == ts[values.index(max(values))].hex()
    assert ts[:2] == [lo, hi] and all(lo <= t <= hi for t in ts)

    # along the t1 and t2 lines a is monotone in 1/t, so the better box end
    # scores at least the reference line search's argmax, up to the
    # rounding of the three values: _ROUNDING times their scales
    for line in (lambda x: (s, z0, q0, b, x, m1, t2, m2),
                 lambda x: (s, z0, q0, b, t1, m1, x, m2)):
        peak = _line_max(lambda x: _objective(*line(x)), grid)
        ends = max(_objective(*line(lo)), _objective(*line(hi)))
        scale = sum(_exact_objective(*line(x))[1] for x in (lo, hi, peak))
        assert ends >= Fraction(_objective(*line(peak))) - Fraction(_ROUNDING) * scale


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(lambda e: min(max(math.exp(e), lo), hi))


_SIGN = st.sampled_from([-1.0, 1.0])
_ANY_B = st.sampled_from([0.0, 1.0, -1.0, 1e16, -1e17, MAX_ABS_BUDGET, -MAX_ABS_BUDGET]) \
    | st.floats(-MAX_ABS_BUDGET, MAX_ABS_BUDGET) \
    | st.builds(lambda sign, mag: sign * mag, _SIGN, _log_uniform(1e-12, MAX_ABS_BUDGET))


@settings(max_examples=300, deadline=None)
@given(kappa=_log_uniform(1.0, MAX_KAPPA) | st.sampled_from([1.0, 2.0, MAX_KAPPA]),
       b=_ANY_B, data=st.data())
def test_kept_line_maximum_holds_at_every_legal_scale(kappa, b, data):
    # kappa up to 1e100 and |b| up to 1e150 once underflowed or missed
    # roots of a naively expanded cubic
    lo, hi = 0.5, 0.5 * kappa
    theta = st.sampled_from([lo, hi]) | st.floats(lo, hi) | _log_uniform(lo, hi)
    kt = data.draw(st.lists(theta, min_size=1, max_size=11), label="kept theta")
    km = data.draw(st.lists(_MU, min_size=len(kt), max_size=len(kt)), label="kept mu")
    t1, t2 = (data.draw(theta, label=name) for name in ("t1", "t2"))
    m1, m2 = data.draw(_MU, label="m1"), data.draw(_MU, label="m2")
    s, z0, q0 = _aggregates(kt, km)
    _assert_line_maximum(lo, hi, (s, z0 - 1.0 / kt[0], q0 - 1.0 / (kt[0] * kt[0]),
                                  b, t1, m1, t2, m2))


def test_kept_line_maximum_holds_on_the_fig2_analogue_lines(monkeypatch):
    # every line the fig2-analogue preset (n = 2:12, kappa = 2,5, b = 1,
    # budget 48) asks for
    asked = set()

    def record(lo, hi, *line):
        asked.add((lo, hi, *line))
        return kept_theta_max(lo, hi, *line)

    kept_theta_max = worstcase._kept_theta_max
    monkeypatch.setattr(worstcase, "_kept_theta_max", record)
    sweep(range(2, 13), [2.0, 5.0], 1.0, 48, seed=7)
    monkeypatch.undo()
    assert len(asked) > 3000
    for lo, hi, *line in asked:
        _assert_line_maximum(lo, hi, line)


@pytest.mark.parametrize("kappa, kt, km, b, t1, m1, t2, m2, interior", [
    # at kappa = 1.1e96 the cubic formed at unscaled inputs missed the peak
    (1.1073087877853357e+96, [3.850311082367112e+95, 5.536543938926679e+95], [-1.0, -1.0],
     -4.486151975040047e+54, 5.337393066244598e+92, 0.8909473708386977,
     5.536543938926679e+95, -0.9175878913676301, 1),
    # the r^3 coefficient of B is exactly 0 here: B is a quadratic
    (100.0, [2.0, 1.0], [1.0, -1.0], -4.0, 0.5, -1.0, 1.0, 1.0, 1),
    # two maxima inside the box; the one at the larger t is higher
    (3.187352645939275e+45, [1.0818180442922831e+45, 9.79937085866202e+44,
                             8.094012015940287e+44, 1.5936763229696374e+45, 248195834.62581912],
     [1.0, -1.0, 1.0, -1.0, 1.0], 0.0, 3.537314762785802e+43, -1.0, 0.5, -1.0, 2),
])
def test_kept_line_maximum_on_hard_lines(kappa, kt, km, b, t1, m1, t2, m2, interior):
    s, z0, q0 = _aggregates(kt, km)
    line = (s, z0 - 1.0 / kt[0], q0 - 1.0 / (kt[0] * kt[0]), b, t1, m1, t2, m2)
    assert len(_kept_theta_candidates(0.5, 0.5 * kappa, *line)) == 2 + interior
    _assert_line_maximum(0.5, 0.5 * kappa, line)


_FRACTION = st.fractions(-8, 8, max_denominator=64)
_NONNEGATIVE = st.fractions(0, 8, max_denominator=64)
_POSITIVE = st.fractions(Fraction(1, 64), 8, max_denominator=64)


@settings(max_examples=50, deadline=None)
@given(c0=_FRACTION, c1=_FRACTION, z=_NONNEGATIVE, big_a=_NONNEGATIVE, r1=_POSITIVE,
       r2=_POSITIVE, rs=st.lists(_FRACTION, min_size=5, max_size=5, unique=True))
def test_stationary_cubic_is_the_slope_numerator(c0, c1, z, big_a, r1, r2, rs):
    # B = (2 c1 P + L P') Q - 2 L P Q' has degree at most 4, so agreeing at
    # five points makes 2 (c0 D0 + c1 D1) the same polynomial
    coeffs = _stationary_cubic(c0, c1, z, big_a, r1 + r2, r1 * r2)
    for r in rs:
        big_l, big_p = c0 + c1 * r, big_a + r * r + (z + r) ** 2
        big_q = (z + r + r1) * (z + r + r2)
        slope = (2 * c1 * big_p + big_l * (4 * r + 2 * z)) * big_q \
            - 2 * big_l * big_p * (2 * (z + r) + r1 + r2)
        assert slope == 2 * sum(c * r ** (3 - k) for k, c in enumerate(coeffs))


@pytest.mark.parametrize("hi", [10.0, 0.5 * MAX_KAPPA])
@pytest.mark.parametrize("line", [
    # (s, z0_rest, q0_rest, b, t1, m1, t2, m2): each zero takes both signs
    (0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 0.5),      # n = 2, c0 = 0, c1 != 0
    (0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 1.0, 0.0),      # c0 = c1 = 0: a flat line
    (0.0, 0.0, 0.0, 0.0, 2.0, -1.0, 0.5, 1.0),     # b = s
    (0.0, 0.0, 0.0, 0.0, 2.0, 1.0, 2.0, 1.0),      # t1 = t2, m1 = m2
    (0.0, 0.75, 0.3125, 0.0, 0.5, -1.0, 4.0, 0.0),
    (1.0, 0.0, 0.0, 0.0, 0.5, 0.0, 4.0, -1.0),
])
def test_line_maxima_ignore_the_sign_of_a_zero(line, hi):
    # the line cache aliases 0.0 with -0.0 in its keys (see _line_maxima)
    zeros = [i for i, x in enumerate(line) if x == 0.0]
    found = set()
    for signs in itertools.product([0.0, -0.0], repeat=len(zeros)):
        flipped = list(line)
        for i, zero in zip(zeros, signs):
            flipped[i] = zero
        ts = _kept_theta_candidates(0.5, hi, *flipped)
        found.add((_kept_theta_max(0.5, hi, *flipped).hex(), *(t.hex() for t in ts)))
    assert len(found) == 1
