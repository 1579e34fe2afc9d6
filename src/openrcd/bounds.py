"""Closed-form rates, offsets, thresholds, and envelope generators.

Everything here is exact arithmetic on the experiment parameters; no
simulation.  Conventions shared by all calculators:

* ``kappa`` is the condition ratio ``beta / alpha`` (>= 1),
* ``b`` is the budget; only ``|b|`` enters any bound,
* ``p_update`` is the per-iteration probability of a pair update (the
  complement is the probability that one agent's cost is replaced),
* ``replacement_ratio`` is the expected number of replacements per
  update, ``(1 - p_update) / p_update``.

The mean-error recursion ``E[C_{k+1}] <= rate * E[C_k] + offset`` has
two offset variants: one valid for every certified smooth strongly
convex roster and a tighter one for quadratic rosters.  Two steady
-state levels ship on purpose: :func:`steady_state_level` evaluates the
printed closed form (first power of the bracket), while
:func:`steady_state_from_recursion` evaluates the exact fixed point
``offset / (1 - rate)`` of the recursion, which carries the bracket
squared.  They genuinely differ; ``BoundSet`` records both so the
discrepancy is visible in every report.

Divergent regimes return ``math.inf`` as an explicit sentinel, never a
floating overflow.  Each argument out of its :mod:`openrcd.config`
rule, ``nan`` included, raises ``ConfigError`` naming the argument.
"""

import math
from dataclasses import dataclass

import numpy as np

from .allocation import minimizer_ball_radius
from .config import (
    MAX_ABS_BUDGET,
    MAX_KAPPA,
    _check_budget,
    _check_count,
    _check_curvature,
    _check_kappa,
    _check_nonnegative,
    _check_probability,
    _check_step,
)

__all__ = [
    "closed_system_rate",
    "open_contraction_rate",
    "replacement_offset",
    "quadratic_replacement_offset",
    "open_recursion",
    "stability_thresholds",
    "max_agent_probability",
    "replacement_ratio",
    "steady_state_level",
    "steady_state_from_recursion",
    "displacement_bound_general",
    "displacement_bound_quadratic",
    "replacement_error_map",
    "conjectured_displacement_cap",
    "recursion_envelope",
    "steady_state_envelope",
    "BoundSet",
    "evaluate_bounds",
    "MAX_KAPPA",
    "MAX_ABS_BUDGET",
]

def _check(n, kappa, b=0.0, p_update=0.0):
    _check_count("n", n, 2)
    _check_kappa("kappa", kappa)
    _check_budget("b", b)
    _check_probability("p_update", p_update)


def closed_system_rate(n, alpha, h):
    """Expected one-step contraction with a fixed roster: ``1 - h*alpha/(n-1)``."""
    _check_count("n", n, 2)
    # the curvature and step rules at the smallest beta, beta = alpha
    _check_curvature(alpha, alpha)
    _check_step(h, alpha)
    return 1.0 - h * alpha / (n - 1)


def open_contraction_rate(n, kappa, p_update):
    """Contraction factor of the open-system mean-error recursion."""
    _check(n, kappa, p_update=p_update)
    return 2.0 - p_update * (1.0 + 1.0 / ((n - 1) * kappa))


def _error_bracket(n, kappa, b):
    # reused by the general offset and displacement cap
    return 1.0 + 1.0 / math.sqrt(kappa) + abs(b) / n


def replacement_offset(n, kappa, b, p_update):
    """Per-iteration additive error inflation, general certified rosters."""
    _check(n, kappa, b, p_update)
    paren = _error_bracket(n, kappa, b)
    return 8.0 * (1.0 - p_update) * paren * paren * n * kappa


def _quadratic_bracket(n, kappa, b):
    # reused by the quadratic offset and displacement cap
    first = (kappa ** 3 + kappa * n - 2.0) / (kappa * n)
    second = (
        (abs(b) + n) ** 2
        * (kappa - 1.0) ** 2
        * kappa ** 2
        * (kappa ** 2 * n ** 2 + n - 1.0)
        / n ** 4
    )
    return first + second


def quadratic_replacement_offset(n, kappa, b, p_update):
    """Per-iteration additive error inflation, quadratic rosters."""
    _check(n, kappa, b, p_update)
    if p_update == 1.0:
        # no replacements; an overflowed (inf) bracket must not turn 0 into nan
        return 0.0
    return 8.0 * (1.0 - p_update) * _quadratic_bracket(n, kappa, b)


def open_recursion(n, kappa, b, p_update):
    """The pair ``(rate, offset)`` of the general mean-error recursion."""
    return (
        open_contraction_rate(n, kappa, p_update),
        replacement_offset(n, kappa, b, p_update),
    )


def stability_thresholds(n, kappa):
    """Stability frontier of the open system.

    Returns ``(min_update_probability, max_replacement_ratio)``: the
    recursion contracts iff ``p_update`` exceeds the first value, or
    equivalently iff the replacement ratio stays below the second.
    """
    _check(n, kappa)
    edge = kappa * (n - 1)
    return edge / (edge + 1.0), 1.0 / ((n - 1) * kappa)


def max_agent_probability(edge_probability, kappa):
    """Largest per-agent replacement probability a per-edge update
    probability can stabilize: ``edge_probability / (2 kappa)``."""
    _check_probability("edge_probability", edge_probability)
    _check_kappa("kappa", kappa)
    return edge_probability / (2.0 * kappa)


def replacement_ratio(p_update):
    """Expected replacements per update, ``(1 - p_update)/p_update``."""
    _check_probability("p_update", p_update)
    if p_update == 0.0:
        return math.inf
    return (1.0 - p_update) / p_update


def steady_state_level(n, kappa, b, ratio):
    """Printed steady-state error level in terms of the replacement ratio.

    This is the closed form as published (bracket to the first power);
    see :func:`steady_state_from_recursion` for the exact fixed point.
    Returns ``math.inf`` at or beyond the stability frontier.
    """
    _check(n, kappa, b)
    _check_nonnegative("ratio", ratio)
    cap = 1.0 / ((n - 1) * kappa)
    if ratio >= cap:
        return math.inf
    paren = _error_bracket(n, kappa, b)
    return 8.0 * n * kappa * paren * ratio / (cap - ratio)


def steady_state_from_recursion(n, kappa, b, p_update):
    """Exact fixed point ``offset / (1 - rate)`` of the mean-error recursion.

    Returns ``math.inf`` when the recursion does not contract.
    """
    rate, offset = open_recursion(n, kappa, b, p_update)
    if rate >= 1.0:
        return math.inf
    return offset / (1.0 - rate)


def displacement_bound_general(n, kappa, b):
    """Cap on the squared minimizer jump caused by one replacement."""
    _check(n, kappa, b)
    paren = _error_bracket(n, kappa, b)
    return 4.0 * n * kappa * paren * paren


def displacement_bound_quadratic(n, kappa, b):
    """Quadratic-roster cap on the squared minimizer jump of one replacement."""
    _check(n, kappa, b)
    # 8 is a power of two, so 8 (first + second) rounds as 8 first + 8 second
    return 8.0 * _quadratic_bracket(n, kappa, b)


def replacement_error_map(c, n, kappa, b):
    """Bound on ``E[C_{k+1}]`` given ``E[C_k] = c`` when a replacement hits."""
    _check_nonnegative("c", c)
    return 2.0 * c + 2.0 * displacement_bound_general(n, kappa, b)


def conjectured_displacement_cap(n, kappa, c1=1.0, c2=1.0):
    """Two-parameter curve conjectured to cap the true worst displacement.

    The curve is ``(kappa + 1)^2 - c1 kappa^3 / (n + kappa + c2)``.  It is
    evaluated over one denominator, with ``m = n + c2``, as
    ``((1 - c1) kappa^3 + (m + 2) kappa^2 + (2m + 1) kappa + m) / (m + kappa)``:
    the two terms of the printed form cancel at large ``kappa``.
    """
    _check(n, kappa)
    m = n + c2
    numerator = (1.0 - c1) * kappa ** 3 + (m + 2.0) * kappa ** 2 + (2.0 * m + 1.0) * kappa + m
    return numerator / (m + kappa)


def recursion_envelope(initial, rate, offset, horizon):
    """Iterate ``B_{k+1} = rate * B_k + offset`` from ``B_0 = initial``.

    Returns the array ``B_0 .. B_horizon``; with the rate and an offset
    from this module it upper-bounds the mean error curve.
    """
    for key, value in (("initial", initial), ("rate", rate), ("offset", offset)):
        _check_nonnegative(key, value)
    horizon = _check_count("horizon", horizon, 0)
    out = np.empty(horizon + 1)
    out[0] = initial
    value = float(initial)
    for k in range(horizon):
        value = rate * value + offset
        out[k + 1] = value
    return out


def steady_state_envelope(initial, n, kappa, b, ratio, horizon):
    """Geometric envelope ``gamma + rate^k (initial - gamma)``.

    Uses the replacement-ratio form of the contraction rate,
    ``1 + (ratio - cap) / (1 + ratio)`` with ``cap`` the stability
    frontier, and the printed steady-state level.  Beyond the frontier
    the level is infinite and every entry after ``k = 0`` is ``inf``.
    """
    _check_nonnegative("initial", initial)
    gamma = steady_state_level(n, kappa, b, ratio)
    horizon = _check_count("horizon", horizon, 0)
    out = np.empty(horizon + 1)
    out[0] = initial
    if math.isinf(gamma):
        out[1:] = math.inf
        return out
    cap = 1.0 / ((n - 1) * kappa)
    rate = 1.0 + (ratio - cap) / (1.0 + ratio)
    ks = np.arange(1, horizon + 1)
    out[1:] = gamma + rate ** ks * (initial - gamma)
    return out


@dataclass(frozen=True)
class BoundSet:
    """Every calculator evaluated once for a parameter tuple."""

    n: int
    kappa: float
    budget: float
    p_update: float
    h: float
    closed_rate: float
    open_rate: float
    offset_general: float
    offset_quadratic: float
    steady_state_printed: float
    steady_state_fixed_point: float
    ball_radius: float
    min_update_probability: float
    max_replacement_ratio: float
    stable: bool


def evaluate_bounds(n, alpha, beta, b, p_update, h=None):
    """Evaluate the full bound family for one parameter tuple.

    Parameters
    ----------
    n : int
    alpha, beta : float
        Curvature certificate; ``kappa = beta / alpha``.
    b : float
        Budget.
    p_update : float
    h : float, optional
        Step size, default ``1/beta``.

    Returns
    -------
    BoundSet
    """
    kappa = _check_curvature(alpha, beta)
    h = 1.0 / beta if h is None else _check_step(h, beta)
    p_min, ratio_max = stability_thresholds(n, kappa)
    ratio = replacement_ratio(p_update)
    return BoundSet(
        n=int(n),
        kappa=kappa,
        budget=float(b),
        p_update=float(p_update),
        h=float(h),
        closed_rate=closed_system_rate(n, alpha, h),
        open_rate=open_contraction_rate(n, kappa, p_update),
        offset_general=replacement_offset(n, kappa, b, p_update),
        offset_quadratic=quadratic_replacement_offset(n, kappa, b, p_update),
        steady_state_printed=steady_state_level(n, kappa, b, ratio),
        steady_state_fixed_point=steady_state_from_recursion(n, kappa, b, p_update),
        ball_radius=minimizer_ball_radius(n, kappa, b),
        min_update_probability=p_min,
        max_replacement_ratio=ratio_max,
        stable=p_update > p_min,
    )
