"""Worst-case minimizer displacement under a single agent replacement.

How far can the constrained minimizer jump when one agent of a
quadratic roster swaps its cost?  ``displacement`` evaluates one
concrete instance; ``maximize_displacement`` searches the instance
space for a lower bound on the worst case; ``sweep`` tables the search
against the closed-form caps over a parameter grid.

The search is deterministic: a fixed sequence of starting points
(corner and midpoint combinations of a reduced six-slot template, then
seeded random draws), each refined by coordinate-wise ascent.  A larger
``search_budget`` consumes a longer prefix of the same sequence, so the
reported maximum is nondecreasing in the budget.  Minimizers are
invariant under a common scaling of all curvature weights, so the box
``[alpha/2, beta/2]`` is normalized to ``alpha = 1``, ``beta = kappa``.

Coordinate ascent exploits the objective's structure: it is convex in
every location parameter (so ``_objective``, the reference closed form,
scores those lines at the box endpoints) and rational in every
curvature weight (grid plus golden-section refinement, 47 points a
line).  The ``t1`` and ``t2`` line builders compute once what stays
fixed along the line (``b - s - m1``, ``m1 - m2``, ``1/t1``, ...);
``_kept_theta_max``, the most called line, writes its value out in one
function over the grid's precomputed ``1/t`` and ``1/t^2``.  All keep
``_objective``'s operands in its order, so each value carries its exact
bits.

The ascents of one search converge to a few states, so one
``maximize_displacement`` call shares its curvature line maxima across
its starts in a ``functools.lru_cache`` of recently used lines, keyed
by every input the line reads, and shares the ends of its ascents in a
table of converged tails, keyed by the state and best value at a sweep
start.  A line maximum is a pure function of its key and a tail of its
key and the sweeps left, so each start ends as it would alone, bit for
bit, and the result is still nondecreasing in the budget.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .allocation import _squared_distance, closed_form_quadratic_minimizer
from .bounds import (
    _check,
    conjectured_displacement_cap,
    displacement_bound_general,
    displacement_bound_quadratic,
)
from .functions import ConvexityCertificate, QuadraticFunction
from .rules import (
    _check_agents,
    _check_budget,
    _check_count,
    _check_kappa,
    _check_search_budget,
)

__all__ = [
    "ReplacementInstance",
    "SearchResult",
    "SweepRow",
    "displacement",
    "maximize_displacement",
    "sweep",
]


@dataclass(frozen=True)
class ReplacementInstance:
    """A roster, the swapped-out cost, and the swapped-in cost.

    ``kept_theta`` and ``kept_mu`` parameterize the ``n - 1`` agents
    that survive the replacement; ``replaced_before``/``replaced_after``
    are ``(theta, mu)`` pairs for the remaining agent's old and new
    cost.
    """

    kept_theta: tuple
    kept_mu: tuple
    replaced_before: tuple
    replaced_after: tuple
    budget: float
    certificate: ConvexityCertificate

    def __post_init__(self):
        if len(self.kept_theta) != len(self.kept_mu) or not self.kept_theta:
            raise ValueError("need matching, nonempty kept parameter tuples")

    @property
    def n(self):
        return len(self.kept_theta) + 1

    def rosters(self):
        """The quadratic rosters before and after the swap."""
        kept = [
            QuadraticFunction(t, m, self.certificate)
            for t, m in zip(self.kept_theta, self.kept_mu)
        ]
        before = kept + [QuadraticFunction(*self.replaced_before, self.certificate)]
        after = kept + [QuadraticFunction(*self.replaced_after, self.certificate)]
        return before, after


def displacement(instance):
    """Squared distance between the minimizers before and after the swap."""
    before, after = instance.rosters()
    a = closed_form_quadratic_minimizer(before, instance.budget).point.values
    b = closed_form_quadratic_minimizer(after, instance.budget).point.values
    return float(_squared_distance(b, a))


def _objective(s, z0, q0, b, t1, m1, t2, m2):
    # closed-form displacement given the kept-agent aggregates:
    # s = sum of kept mu, z0 = sum of 1/theta, q0 = sum of 1/theta^2
    big_t1 = b - s - m1
    big_t2 = b - s - m2
    z1 = z0 + 1.0 / t1
    z2 = z0 + 1.0 / t2
    a = big_t1 / z1 - big_t2 / z2
    c = (m1 - m2) + big_t1 / (t1 * z1) - big_t2 / (t2 * z2)
    return a * a * q0 + c * c


def _t1_line(s, z0, q0, b, m1, t2, m2):
    """``t -> _objective(s, z0, q0, b, t, m1, t2, m2)``."""
    bs = b - s
    big_t1 = bs - m1
    big_t2 = bs - m2
    dm = m1 - m2
    z2 = z0 + 1.0 / t2
    a2 = big_t2 / z2
    c2 = big_t2 / (t2 * z2)

    def value(t):
        z1 = z0 + 1.0 / t
        a = big_t1 / z1 - a2
        c = dm + big_t1 / (t * z1) - c2
        return a * a * q0 + c * c

    return value


def _t2_line(s, z0, q0, b, t1, m1, m2):
    """``t -> _objective(s, z0, q0, b, t1, m1, t, m2)``."""
    bs = b - s
    big_t1 = bs - m1
    big_t2 = bs - m2
    z1 = z0 + 1.0 / t1
    a1 = big_t1 / z1
    c1 = (m1 - m2) + big_t1 / (t1 * z1)

    def value(t):
        z2 = z0 + 1.0 / t
        a = a1 - big_t2 / z2
        c = c1 - big_t2 / (t * z2)
        return a * a * q0 + c * c

    return value


_THETA_GRID = 17
_GOLDEN_ITERS = 28
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _line_max(func, xs):
    """Argmax of ``func`` by a scan of the grid ``xs`` plus golden refinement."""
    vals = list(map(func, xs))
    best = vals.index(max(vals))   # the first maximum
    a = xs[max(best - 1, 0)]
    c = xs[min(best + 1, _THETA_GRID - 1)]
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


def _theta_grid(lo, hi):
    """The line scan's grid on ``[lo, hi]``, with its ``1/t`` and ``1/t^2``."""
    xs = tuple(lo + (hi - lo) * g / (_THETA_GRID - 1) for g in range(_THETA_GRID))
    return xs, tuple(1.0 / t for t in xs), tuple(1.0 / (t * t) for t in xs)


def _kept_theta_max(grid, s, z0_rest, q0_rest, b, t1, m1, t2, m2):
    """What ``_line_max`` returns for the kept curvature line ``t ->
    _objective(s, z0_rest + 1/t, q0_rest + 1/t^2, b, t1, m1, t2, m2)``.

    The line's value is written out in place of a closure, over the
    grid's ``1/t`` and ``1/t^2``, with ``_objective``'s operands in its
    order, so every value, and hence the argmax, carries the same bits.
    """
    xs, inv, inv_sq = grid
    bs = b - s
    big_t1 = bs - m1
    big_t2 = bs - m2
    dm = m1 - m2
    r1 = 1.0 / t1
    r2 = 1.0 / t2
    vals = []
    for r, r_sq in zip(inv, inv_sq):
        z0 = z0_rest + r
        z1 = z0 + r1
        z2 = z0 + r2
        a = big_t1 / z1 - big_t2 / z2
        c = dm + big_t1 / (t1 * z1) - big_t2 / (t2 * z2)
        vals.append(a * a * (q0_rest + r_sq) + c * c)
    best = vals.index(max(vals))   # the first maximum
    lo = xs[max(best - 1, 0)]
    hi = xs[min(best + 1, _THETA_GRID - 1)]
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    # _line_max's golden section, one new point a step; steps 0 and 1
    # score its two starting points
    for step in range(_GOLDEN_ITERS + 2):
        if step < 2:
            left = step == 0
            x = x1 if left else x2
        else:
            left = f1 >= f2
            if left:
                hi, x2, f2 = x2, x1, f1
                x = x1 = hi - _INVPHI * (hi - lo)
            else:
                lo, x1, f1 = x1, x2, f2
                x = x2 = lo + _INVPHI * (hi - lo)
        z0 = z0_rest + 1.0 / x
        z1 = z0 + r1
        z2 = z0 + r2
        a = big_t1 / z1 - big_t2 / z2
        c = dm + big_t1 / (t1 * z1) - big_t2 / (t2 * z2)
        f = a * a * (q0_rest + 1.0 / (x * x)) + c * c
        if left:
            f1 = f
        else:
            f2 = f
    _, x = max((vals[best], xs[best]), (f1, x1), (f2, x2))
    return x


#: most line maxima one search keeps; the fig2-analogue cells hold at
#: most a few hundred, the random tail adds about n + 1 per start
_LINE_CACHE_CAP = 1 << 14


def _line_maxima(lo, hi, cap):
    """``argmax(line, *args)``: curvature line maxima on ``[lo, hi]``.

    A line is ``_kept_theta_max``, ``_t1_line`` or ``_t2_line`` and its
    arguments; together they key an LRU cache of ``cap`` entries, and
    ``cap = 0`` recomputes every line.  The grid is built once, from
    ``lo`` and ``hi`` alone.  ``argmax.tails`` is the search's table of
    converged ascent tails (see ``_ascend``); ``cap = 0`` turns it off too.

    Python float keys alias ``0.0`` with ``-0.0``; that is harmless
    because every input reaches the objective's value only through sums,
    products and quotients that end in a square, and
    ``x + 0.0 == x - 0.0 == x`` for ``x != 0``, so a zero's sign can flip
    only the sign of an intermediate zero, which the square drops.  In a
    tail key only ``b`` can be zero, and the same argument covers it:
    from sweep 1 on every location is ``+-1``, every curvature is
    positive, and ``best`` (``a*a*q0 + c*c`` with ``q0 > 0``) is never
    ``-0.0``.
    """
    grid = _theta_grid(lo, hi)

    @functools.lru_cache(maxsize=cap)
    def argmax(line, *args):
        if line is _kept_theta_max:
            return _kept_theta_max(grid, *args)
        return _line_max(line(*args), grid[0])

    argmax.tails = {}
    return argmax


#: most coordinate sweeps one ascent makes
_MAX_SWEEPS = 60


def _ascend(start, b, lines):
    """Coordinate-wise ascent from one start; returns (value, state).

    A state is ``(kt, t1, t2, km, m1, m2)``, the kept curvatures and
    locations as sequences (tuples in the result); ``lines`` supplies the
    curvature line maxima and the table of converged tails.

    Each sweep re-sums its aggregates from the state and the line maxima
    are pure, so from a sweep start on, the rest of an ascent is a
    function of ``b``, ``best``, the state and the sweeps left.  Every
    sweep start after the first looks the first three up in
    ``lines.tails``; an ascent that converges stores its outcome under
    every key it passed, with the sweeps it still took from there, and an
    entry is used only with at least that many sweeps left.
    """
    kt, t1, t2, km, m1, m2 = start
    kt, km = list(kt), list(km)
    tails = lines.tails
    # a key holds 2n + 4 floats: the table keeps about as many floats as
    # the line cache keeps entries
    limit = lines.cache_parameters()["maxsize"] // (2 * len(kt) + 6)
    passed = []

    best = -math.inf
    for sweep in range(_MAX_SWEEPS):
        if sweep and limit:
            key = (b, best, t1, t2, m1, m2, *kt, *km)
            tail = tails.get(key)
            if tail is not None and tail[0] <= _MAX_SWEEPS - sweep:
                return _keep_tail(tails, limit, passed, sweep + tail[0], tail[1])
            passed.append((key, sweep))

        # resync aggregates each sweep so incremental updates cannot drift;
        # added in order, the same on every Python (the builtin sum
        # compensates from 3.12 on)
        s = z0 = q0 = 0.0
        for t, m in zip(kt, km):
            s += m
            z0 += 1.0 / t
            q0 += 1.0 / (t * t)

        # curvature weights of the kept agents
        for idx, t in enumerate(kt):
            z0_rest = z0 - 1.0 / t
            q0_rest = q0 - 1.0 / (t * t)
            t = kt[idx] = lines(_kept_theta_max, s, z0_rest, q0_rest, b, t1, m1, t2, m2)
            z0 = z0_rest + 1.0 / t
            q0 = q0_rest + 1.0 / (t * t)

        # curvature weights of the replaced agent, old and new
        t1 = lines(_t1_line, s, z0, q0, b, m1, t2, m2)
        t2 = lines(_t2_line, s, z0, q0, b, t1, m1, m2)

        # location parameters: convex coordinatewise, endpoints suffice
        for idx, m in enumerate(km):
            s_rest = s - m
            up = _objective(s_rest + 1.0, z0, q0, b, t1, m1, t2, m2)
            down = _objective(s_rest - 1.0, z0, q0, b, t1, m1, t2, m2)
            m = km[idx] = 1.0 if up >= down else -1.0
            s = s_rest + m
        up = _objective(s, z0, q0, b, t1, 1.0, t2, m2)
        down = _objective(s, z0, q0, b, t1, -1.0, t2, m2)
        m1 = 1.0 if up >= down else -1.0
        up = _objective(s, z0, q0, b, t1, m1, t2, 1.0)
        down = _objective(s, z0, q0, b, t1, m1, t2, -1.0)
        m2 = 1.0 if up >= down else -1.0

        value = _objective(s, z0, q0, b, t1, m1, t2, m2)
        if value <= best + 1e-12 * max(1.0, abs(best)):
            outcome = max(best, value), (tuple(kt), t1, t2, tuple(km), m1, m2)
            return _keep_tail(tails, limit, passed, sweep + 1, outcome)
        best = value
    return best, (tuple(kt), t1, t2, tuple(km), m1, m2)


def _keep_tail(tails, limit, passed, end, outcome):
    """Store ``outcome`` under each ``(key, sweep)`` passed by an ascent
    that ends before sweep ``end``, dropping the oldest entries past ``limit``."""
    for key, sweep in passed:
        if len(tails) >= limit:
            del tails[next(iter(tails))]
        tails[key] = end - sweep, outcome
    return outcome


def _start_sequence(n, theta_box, seed):
    """Deterministic, unbounded generator of ``_ascend`` start states.

    The 729 templated starts (corners, then midpoint mixes) come first.
    The random tail draws from ``np.random.default_rng(seed)``, built at
    the first random start, so a search that stops within the templates
    never loads ``numpy.random``.
    """
    lo, hi = theta_box
    theta_levels = (lo, 0.5 * (lo + hi), hi)
    mu_levels = (-1.0, 0.0, 1.0)

    def expand(template):
        kt_l, t1_l, t2_l, km_l, m1_l, m2_l = template
        return (
            [theta_levels[kt_l]] * (n - 1), theta_levels[t1_l], theta_levels[t2_l],
            [mu_levels[km_l]] * (n - 1), mu_levels[m1_l], mu_levels[m2_l],
        )

    corners = list(itertools.product((0, 2), repeat=6))
    mixed = [c for c in itertools.product((0, 1, 2), repeat=6) if 1 in c]
    for template in corners + mixed:
        yield expand(template)
    rng = np.random.default_rng(seed)
    while True:
        kt = rng.uniform(lo, hi, size=n - 1)
        ts = rng.uniform(lo, hi, size=2)
        km = rng.uniform(-1.0, 1.0, size=n - 1)
        ms = rng.uniform(-1.0, 1.0, size=2)
        yield list(kt), *ts, list(km), *ms


@dataclass(frozen=True)
class SearchResult:
    """Best instance found; ``value`` is ``_objective`` at ``witness``.

    ``_objective`` cancels ``b - s - m1`` against ``b - s - m2``, so
    ``value`` can exceed the true maximum at large ``|b|``.  At
    ``kappa = 1`` (true maximum ``4 (1 - 1/n)`` at every ``b``), budget 48
    finds it to 1.9e-9 relative up to ``|b| = 1e12``; the error then grows
    about as ``(|b| 2**-52)**2`` (2e-3 at 1e15), ``b = 1e16`` reads 4,
    4.75 and 4 at n = 2, 3, 4 (true: 2, 2.67, 3), and from about 1e17
    most cells read 0.
    """

    value: float
    witness: ReplacementInstance
    starts: int
    theta_on_boundary: bool


def maximize_displacement(n, kappa, b, search_budget=64, seed=0):
    """Search for the largest single-replacement minimizer displacement.

    Parameters
    ----------
    n : int
        Agents, an integer >= 2.
    kappa : float
        Condition ratio of the certificate (normalized alpha=1), in
        ``[1, MAX_KAPPA]``.
    b : float
        Budget, ``|b| <= MAX_ABS_BUDGET``; past ``|b| = 1e12`` the value
        can exceed the true maximum (see :class:`SearchResult`).
    search_budget : int
        Number of ascent starts, an integer from 1 to ``MAX_SEARCH_BUDGET``
        (``openrcd.rules``), consumed from the deterministic start
        sequence; the result is nondecreasing in this number.
    seed : int
        Seed for the random tail of the start sequence, an integer >= 0.

    Returns
    -------
    SearchResult
    """
    _check(n, kappa, b)
    n = int(n)
    search_budget = _check_search_budget("search_budget", search_budget)
    theta_box = (0.5, 0.5 * kappa)
    seed = _check_count("seed", seed, 0)
    lines = _line_maxima(*theta_box, _LINE_CACHE_CAP)

    best_value = -math.inf
    best = None
    for _, start in zip(range(search_budget), _start_sequence(n, theta_box, seed)):
        value, state = _ascend(start, float(b), lines)
        if value > best_value:
            best_value, best = value, state

    kt, t1, t2, km, m1, m2 = best
    witness = ReplacementInstance(
        kept_theta=tuple(kt),
        kept_mu=tuple(km),
        replaced_before=(t1, m1),
        replaced_after=(t2, m2),
        budget=float(b),
        certificate=ConvexityCertificate(1.0, float(kappa)),
    )
    lo, hi = theta_box
    edge_tol = 1e-9 * max(1.0, hi - lo)
    on_edge = all(min(t - lo, hi - t) <= edge_tol for t in (*kt, t1, t2))
    return SearchResult(best_value, witness, search_budget, on_edge)


@dataclass(frozen=True)
class SweepRow:
    n: int
    kappa: float
    empirical_max: float
    bound_general: float
    bound_quadratic: float
    conjecture: float


def sweep(n_values, kappa_values, b, search_budget=64, seed=0):
    """Run the search over a grid and table it against the caps.

    ``n_values`` and ``kappa_values`` are sequences (a ``range`` too).
    Returns one :class:`SweepRow` per ``(n, kappa)`` pair, in grid
    order (kappa outer, n inner).  Every input is checked before the first search,
    a ``range`` of ``n`` by its two ends.
    """
    ends = (n_values[0], n_values[-1]) if isinstance(n_values, range) and n_values else n_values
    for n in ends:
        _check_agents("n", n)
    for kappa in kappa_values:
        _check_kappa("kappa", kappa)
    _check_budget("b", b)
    _check_search_budget("search_budget", search_budget)
    seed = _check_count("seed", seed, 0)
    rows = []
    for ki, kappa in enumerate(kappa_values):
        for ni, n in enumerate(n_values):
            cell_seed = seed + 7919 * (ki * 1000 + ni)
            found = maximize_displacement(n, kappa, b, search_budget, seed=cell_seed)
            rows.append(
                SweepRow(
                    n=int(n),
                    kappa=float(kappa),
                    empirical_max=found.value,
                    bound_general=displacement_bound_general(n, kappa, b),
                    bound_quadratic=displacement_bound_quadratic(n, kappa, b),
                    conjecture=conjectured_displacement_cap(n, kappa),
                )
            )
    return rows
