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

Coordinate ascent exploits the objective's structure.  The budget holds
before and after the swap, so the replaced agent moves by minus the kept
agents' total move, and ``_objective``, the reference closed form, reads
``a^2 (q0 + z0^2)``.  It is convex in every location parameter, and along
either of the replaced agent's curvatures ``q0 + z0^2`` stays fixed while
``a`` is monotone in ``1/t``; ``_objective`` scores all these lines at the
box ends.  A kept curvature's line has interior optima, but its slope
vanishes only where ``a`` does and at the roots of a cubic, so
``_kept_theta_max`` scores the box ends and those roots: the exact maximum.

The ascents of one search converge to a few states, so one
``maximize_displacement`` call shares its kept-curvature line maxima across
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
    # s = sum of kept mu, z0 = sum of 1/theta, q0 = sum of 1/theta^2.
    # Kept agent i moves by a/theta_i, where a is the change in
    # (b - s - m)/(z0 + 1/t), and the replaced agent by -a*z0; written
    # with t1 - t2, no two |b|-sized terms of a cancel
    z1 = z0 + 1.0 / t1
    z2 = z0 + 1.0 / t2
    a = (b - s) * ((t1 - t2) / (t1 * t2)) / (z1 * z2) - m1 / z1 + m2 / z2
    value = a * a * (q0 + z0 * z0)
    # a*a can overflow where the value, at most 4n (1 + |b| + n)^2, fits
    return value if value < math.inf else (a * math.sqrt(q0 + z0 * z0)) ** 2


def _cubic_roots(a, b, c):
    """Real roots of ``y^3 + a y^2 + b y + c``: scaled by a power-of-two root
    bound, solved in closed form, each polished by two Newton steps."""
    bound = math.ldexp(0.5, math.frexp(max(abs(a), math.sqrt(abs(b)), abs(c) ** (1 / 3)))[1])
    a, b, c = a / bound, b / bound / bound, c / bound / bound / bound
    shift = a / 3.0
    p = b - a * shift
    q = (2.0 * shift * shift - b) * shift + c
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc > 0.0 or p >= 0.0:   # one real root, u + v with u v = -p/3
        u = (0.5 * abs(q) + math.sqrt(max(disc, 0.0))) ** (1 / 3)
        ys = ((-q / (u * u + p / 3.0 + (p / (3.0 * u)) ** 2) if u else 0.0) - shift,)
    else:   # three real roots, in trigonometric form
        m = 2.0 * math.sqrt(p / -3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
        ys = [m * math.cos(phi - k * 2.0943951023931957) - shift for k in range(3)]
    roots = []
    for y in ys:
        for _ in range(2):
            slope = (3.0 * y + 2.0 * a) * y + b
            y -= (((y + a) * y + b) * y + c) / slope if slope else 0.0
        roots.append(y * bound)
    return roots


def _stationary_cubic(c0, c1, z, big_a, sig, pi):
    """``B/2`` of ``_kept_theta_candidates``, ``r^3`` first; exact on fractions."""
    zs = z * (sig + z)
    h = pi + zs
    return (c1 * (2 * sig + 3 * z) - 2 * c0,
            c1 * (4 * pi + 5 * zs - big_a) - 3 * z * c0,
            3 * c1 * z * h + c0 * (2 * pi + z * sig - 2 * z * z - 2 * big_a),
            c1 * (big_a + z * z) * h - c0 * (big_a * (sig + 2 * z) + z * (z * z - pi)))


def _kept_theta_candidates(lo, hi, s, z0_rest, q0_rest, b, t1, m1, t2, m2):
    """``[lo, hi]``, then the stationary points inside the box of the line
    ``t -> _objective(s, z0_rest + 1/t, q0_rest + 1/t^2, b, t1, m1, t2, m2)``.

    In ``r = 1/t`` the line is ``L^2 P / Q^2``: ``L = c0 + c1 r``, ``P = A +
    r^2 + (z + r)^2``, ``Q = (z + r + r1)(z + r + r2)`` at ``z = z0_rest``,
    ``A = q0_rest``, ``ri = 1/ti``.  Its slope has the sign of ``L B``, ``B =
    (2 c1 P + L P') Q - 2 L P Q'`` a cubic, and ``L = 0`` only at its minima.
    ``B`` is formed at ``z``, ``ri``, ``sqrt(A)``, ``1/hi`` and ``c0`` scaled
    by one power of two, ``A`` by its square, so it neither overflows nor
    underflows at any legal ``kappa`` and ``b``.
    """
    r1, r2, c1 = 1.0 / t1, 1.0 / t2, m2 - m1
    c0 = (b - s) * ((t1 - t2) / (t1 * t2)) - m1 * r2 + m2 * r1 + c1 * z0_rest
    r_max = max(z0_rest, r1, r2, math.sqrt(abs(q0_rest)), 1.0 / hi)
    scale = math.ldexp(1.0, -math.frexp(r_max)[1])
    b3, b2, b1, b0 = _stationary_cubic(c0 * scale, c1, z0_rest * scale, q0_rest * scale * scale,
                                       (r1 + r2) * scale, r1 * scale * r2 * scale)
    ts = [lo, hi]
    while not b3 and (b2 or b1 or b0):   # times r: its root 0 is outside the box
        b3, b2, b1, b0 = b2, b1, b0, 0.0
    for y in _cubic_roots(b2 / b3, b1 / b3, b0 / b3) if b3 else ():
        if 1.0 / hi < y / scale < 1.0 / lo:
            ts.append(min(max(scale / y, lo), hi))
    return ts


def _kept_theta_max(lo, hi, s, z0_rest, q0_rest, *rest):
    """The first of ``_kept_theta_candidates`` with the largest ``_objective``."""
    ts = _kept_theta_candidates(lo, hi, s, z0_rest, q0_rest, *rest)
    values = [_objective(s, z0_rest + 1.0 / t, q0_rest + 1.0 / (t * t), *rest) for t in ts]
    return ts[values.index(max(values))]


#: most line maxima one search keeps; the fig2-analogue cells hold at
#: most a few hundred, the random tail adds about n - 1 per start
_LINE_CACHE_CAP = 1 << 14


def _line_maxima(lo, hi, cap):
    """``_kept_theta_max`` on ``[lo, hi]`` in an LRU cache of ``cap`` lines,
    with ``.box = (lo, hi)`` and ``.tails``, the search's table of converged
    ascent tails (see ``_ascend``); ``cap = 0`` turns off both caches.

    Python float keys alias ``0.0`` with ``-0.0``; that is harmless:
    ``x + 0.0 == x - 0.0 == x`` for ``x != 0``, and the line divides only
    by numbers that cannot be zero and calls no ``copysign``, so a zero's
    sign can flip only the sign of a zero: of a root, which lies outside
    the box, or of ``a``, which the square drops.  In a tail key only ``b``
    can be zero, and the same argument covers it: from sweep 1 on every
    location is ``+-1``, every curvature positive, and ``best``
    (``a*a*(q0 + z0*z0)`` with ``q0 > 0``) never ``-0.0``.
    """
    argmax = functools.lru_cache(maxsize=cap)(functools.partial(_kept_theta_max, lo, hi))
    argmax.box = lo, hi
    argmax.tails = {}
    return argmax


#: most coordinate sweeps one ascent makes
_MAX_SWEEPS = 60


def _aggregates(kt, km):
    """``(s, z0, q0)`` of the kept agents, added in order, the same on
    every Python (the builtin sum compensates from 3.12 on)."""
    s = z0 = q0 = 0.0
    for t, m in zip(kt, km):
        s += m
        z0 += 1.0 / t
        q0 += 1.0 / (t * t)
    return s, z0, q0


def _ascend(start, b, lines):
    """Coordinate-wise ascent from one start; returns (value, state).

    A state is ``(kt, t1, t2, km, m1, m2)``, the kept curvatures and
    locations as sequences (tuples in the result); ``lines`` supplies the
    kept curvature line maxima, the box and the table of converged tails.
    ``value`` is ``_objective`` at the state's ``_aggregates``: each sweep
    re-sums them at its end, so the steps' updates cannot drift into the
    score, and the ascent returns the best-scoring state it reached.

    The line maxima are pure, so from a sweep start on, the rest of an
    ascent is a function of ``b``, ``best``, the state and the sweeps
    left.  Every sweep start after the first looks the first three up in
    ``lines.tails``; an ascent that converges stores its outcome under
    every key it passed, with the sweeps it still took from there, and an
    entry is used only with at least that many sweeps left.
    """
    kt, t1, t2, km, m1, m2 = start
    kt, km = list(kt), list(km)
    lo, hi = lines.box
    tails = lines.tails
    # a key holds 2n + 4 floats: the table keeps about as many floats as
    # the line cache keeps entries
    limit = lines.cache_parameters()["maxsize"] // (2 * len(kt) + 6)
    passed = []

    best, state = -math.inf, None
    s, z0, q0 = _aggregates(kt, km)
    for sweep in range(_MAX_SWEEPS):
        if sweep and limit:
            key = (b, best, t1, t2, m1, m2, *kt, *km)
            tail = tails.get(key)
            if tail is not None and tail[0] <= _MAX_SWEEPS - sweep:
                return _keep_tail(tails, limit, passed, sweep + tail[0], tail[1])
            passed.append((key, sweep))

        # curvature weights of the kept agents
        for idx, t in enumerate(kt):
            z0_rest = z0 - 1.0 / t
            q0_rest = q0 - 1.0 / (t * t)
            t = kt[idx] = lines(s, z0_rest, q0_rest, b, t1, m1, t2, m2)
            z0 = z0_rest + 1.0 / t
            q0 = q0_rest + 1.0 / (t * t)

        # curvature weights of the replaced agent, old and new: along
        # either line a is monotone, so a box end is best
        up = _objective(s, z0, q0, b, hi, m1, t2, m2)
        down = _objective(s, z0, q0, b, lo, m1, t2, m2)
        t1 = hi if up >= down else lo
        up = _objective(s, z0, q0, b, t1, m1, hi, m2)
        down = _objective(s, z0, q0, b, t1, m1, lo, m2)
        t2 = hi if up >= down else lo

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

        s, z0, q0 = _aggregates(kt, km)
        value = _objective(s, z0, q0, b, t1, m1, t2, m2)
        converged = value <= best + 1e-12 * max(1.0, abs(best))
        if value > best:
            best, state = value, (tuple(kt), t1, t2, tuple(km), m1, m2)
        if converged:
            return _keep_tail(tails, limit, passed, sweep + 1, (best, state))
    return best, state


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
    """Best instance found; ``value`` is ``_objective`` at ``witness``'s
    kept-agent sums, added in order."""

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
