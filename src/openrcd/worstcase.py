"""Worst-case minimizer displacement under a single agent replacement.

How far can the constrained minimizer jump when one agent of a
quadratic roster swaps its cost?  ``displacement`` evaluates one
concrete instance; ``maximize_displacement`` searches the instance
space for a certified lower bound on the worst case; ``sweep`` tables
the search against the closed-form caps over a parameter grid.

The search is deterministic: a fixed sequence of starting points
(corner and midpoint combinations of a reduced six-slot template, then
seeded random draws), each refined by coordinate-wise ascent.  A larger
``search_budget`` consumes a longer prefix of the same sequence, so the
reported maximum is nondecreasing in the budget.  Minimizers are
invariant under a common scaling of all curvature weights, so the box
``[alpha/2, beta/2]`` is normalized to ``alpha = 1``, ``beta = kappa``.

Coordinate ascent exploits the objective's structure: it is convex in
every location parameter (so those line maxima sit at box endpoints)
and rational in every curvature weight (searched by grid plus
golden-section refinement).

The curvature line maxima are pure functions of the inputs their line
objective reads, and the ascents of one search converge to a few
states, so one ``maximize_displacement`` call shares them across its
starts in a cache keyed by exactly those inputs.  The cache is exact:
every start ends on the same value and vector, bit for bit, as it would
alone, so the result is still nondecreasing in the budget.  It is
bounded: past a fixed number of entries it stops storing (the seeded
random tail's first-sweep lines never repeat) and only serves lookups.
"""

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
from .config import _check_budget, _check_count, _check_kappa
from .functions import ConvexityCertificate, QuadraticFunction

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


_THETA_GRID = 17
_GOLDEN_ITERS = 28
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _line_max(func, lo, hi):
    """Grid scan plus golden refinement; deterministic."""
    if hi <= lo:
        return lo, func(lo)
    xs = [lo + (hi - lo) * g / (_THETA_GRID - 1) for g in range(_THETA_GRID)]
    vals = [func(x) for x in xs]
    best = max(range(_THETA_GRID), key=vals.__getitem__)
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
    candidates = [(vals[best], xs[best]), (f1, x1), (f2, x2)]
    v, x = max(candidates)
    return x, v


#: most line maxima one search stores; the fig2-analogue cells hold at
#: most a few hundred, the random tail adds about n + 1 per start
_LINE_CACHE_CAP = 1 << 14


class _LineMaxima:
    """Curvature line maxima on ``[lo, hi]``, shared by one search's starts.

    ``key`` is a kind tag plus every input of the line objective except
    ``b``, ``lo`` and ``hi``, which one search holds fixed.  Python float
    keys alias ``0.0`` with ``-0.0``; that is harmless because every
    input reaches the objective's value only through sums, products and
    quotients that end in a square, and ``x + 0.0 == x - 0.0 == x`` for
    ``x != 0``, so a zero's sign can flip only the sign of an
    intermediate zero, which the square drops.  ``cap = 0`` stores
    nothing and recomputes every line.
    """

    def __init__(self, lo, hi, cap):
        self.lo, self.hi, self.cap = lo, hi, cap
        self.store = {}

    def argmax(self, key, func):
        x = self.store.get(key)
        if x is None:
            x, _ = _line_max(func, self.lo, self.hi)
            if len(self.store) < self.cap:
                self.store[key] = x
        return x


def _ascend(start, n, b, lines, max_sweeps=60):
    """Coordinate-wise ascent from one start; returns (value, vector).

    Vector layout: ``kt[0..n-2], t1, t2, km[0..n-2], m1, m2``.
    ``lines`` supplies the curvature line maxima.
    """
    kt = list(start[: n - 1])
    t1, t2 = start[n - 1], start[n]
    km = list(start[n + 1: 2 * n])
    m1, m2 = start[2 * n], start[2 * n + 1]

    best = -math.inf
    for _ in range(max_sweeps):
        # resync aggregates each sweep so incremental updates cannot drift
        s = sum(km)
        z0 = sum(1.0 / t for t in kt)
        q0 = sum(1.0 / (t * t) for t in kt)

        # curvature weights of the kept agents
        for idx in range(n - 1):
            z0_rest = z0 - 1.0 / kt[idx]
            q0_rest = q0 - 1.0 / (kt[idx] * kt[idx])

            def on_theta(t, z0_rest=z0_rest, q0_rest=q0_rest):
                return _objective(
                    s, z0_rest + 1.0 / t, q0_rest + 1.0 / (t * t), b, t1, m1, t2, m2
                )

            kt[idx] = lines.argmax(("kept", s, z0_rest, q0_rest, t1, m1, t2, m2), on_theta)
            z0 = z0_rest + 1.0 / kt[idx]
            q0 = q0_rest + 1.0 / (kt[idx] * kt[idx])

        # curvature weights of the replaced agent, old and new
        t1 = lines.argmax(
            ("t1", s, z0, q0, m1, t2, m2),
            lambda t: _objective(s, z0, q0, b, t, m1, t2, m2),
        )
        t2 = lines.argmax(
            ("t2", s, z0, q0, t1, m1, m2),
            lambda t: _objective(s, z0, q0, b, t1, m1, t, m2),
        )

        # location parameters: convex coordinatewise, endpoints suffice
        for idx in range(n - 1):
            s_rest = s - km[idx]
            if _objective(s_rest + 1.0, z0, q0, b, t1, m1, t2, m2) >= _objective(
                s_rest - 1.0, z0, q0, b, t1, m1, t2, m2
            ):
                km[idx] = 1.0
            else:
                km[idx] = -1.0
            s = s_rest + km[idx]
        m1 = (
            1.0
            if _objective(s, z0, q0, b, t1, 1.0, t2, m2)
            >= _objective(s, z0, q0, b, t1, -1.0, t2, m2)
            else -1.0
        )
        m2 = (
            1.0
            if _objective(s, z0, q0, b, t1, m1, t2, 1.0)
            >= _objective(s, z0, q0, b, t1, m1, t2, -1.0)
            else -1.0
        )

        value = _objective(s, z0, q0, b, t1, m1, t2, m2)
        if value <= best + 1e-12 * max(1.0, abs(best)):
            best = max(best, value)
            break
        best = value
    return best, kt + [t1, t2] + km + [m1, m2]


def _start_sequence(n, theta_box, rng):
    """Deterministic, unbounded start generator: corners, mixes, random."""
    lo, hi = theta_box
    theta_levels = (lo, 0.5 * (lo + hi), hi)
    mu_levels = (-1.0, 0.0, 1.0)

    def expand(template):
        kt_l, t1_l, t2_l, km_l, m1_l, m2_l = template
        return (
            [theta_levels[kt_l]] * (n - 1)
            + [theta_levels[t1_l], theta_levels[t2_l]]
            + [mu_levels[km_l]] * (n - 1)
            + [mu_levels[m1_l], mu_levels[m2_l]]
        )

    corners = list(itertools.product((0, 2), repeat=6))
    mixed = [c for c in itertools.product((0, 1, 2), repeat=6) if 1 in c]
    for template in corners + mixed:
        yield expand(template)
    while True:
        kt = rng.uniform(lo, hi, size=n - 1)
        ts = rng.uniform(lo, hi, size=2)
        km = rng.uniform(-1.0, 1.0, size=n - 1)
        ms = rng.uniform(-1.0, 1.0, size=2)
        yield list(kt) + list(ts) + list(km) + list(ms)


@dataclass(frozen=True)
class SearchResult:
    """Best instance found; ``value`` is a certified lower bound."""

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
        Budget, ``|b| <= MAX_ABS_BUDGET``.
    search_budget : int
        Number of ascent starts, an integer >= 1, consumed from the
        deterministic start sequence; the result is nondecreasing in
        this number.
    seed : int
        Seed for the random tail of the start sequence, an integer >= 0.

    Returns
    -------
    SearchResult
    """
    _check(n, kappa, b)
    n = int(n)
    search_budget = _check_count("search_budget", search_budget, 1)
    theta_box = (0.5, 0.5 * kappa)
    rng = np.random.default_rng(_check_count("seed", seed, 0))
    lines = _LineMaxima(*theta_box, _LINE_CACHE_CAP)

    best_value = -math.inf
    best_vec = None
    for _, start in zip(range(search_budget), _start_sequence(n, theta_box, rng)):
        value, vec = _ascend(start, n, float(b), lines)
        if value > best_value:
            best_value, best_vec = value, vec

    cert = ConvexityCertificate(1.0, float(kappa))
    witness = ReplacementInstance(
        kept_theta=tuple(best_vec[: n - 1]),
        kept_mu=tuple(best_vec[n + 1: 2 * n]),
        replaced_before=(best_vec[n - 1], best_vec[2 * n]),
        replaced_after=(best_vec[n], best_vec[2 * n + 1]),
        budget=float(b),
        certificate=cert,
    )
    lo, hi = theta_box
    edge_tol = 1e-9 * max(1.0, hi - lo)
    on_edge = all(
        min(t - lo, hi - t) <= edge_tol
        for t in (*witness.kept_theta, witness.replaced_before[0], witness.replaced_after[0])
    )
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
    order (kappa outer, n inner).  Every input is checked before the first search.
    """
    for n in n_values:
        _check_count("n", n, 2)
    for kappa in kappa_values:
        _check_kappa("kappa", kappa)
    _check_budget("b", b)
    _check_count("search_budget", search_budget, 1)
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
