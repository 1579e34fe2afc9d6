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
floating overflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from .allocation import minimizer_ball_radius

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

#: largest ``kappa`` the calculators accept; ``kappa ** 3`` overflows a
#: float from about 5.6e102 on
MAX_KAPPA = 1e100

#: largest ``|b|`` the calculators accept; ``(|b| + n) ** 2`` overflows a
#: float from about 1.3e154 on
MAX_ABS_BUDGET = 1e150


def _check(n, kappa, b=0.0):
    if int(n) != n or n < 2:
        raise ValueError(f"need an integer n >= 2, got {n!r}")
    if not 1.0 <= kappa <= MAX_KAPPA:
        raise ValueError(f"need 1 <= kappa <= {MAX_KAPPA:g}, got {kappa!r}")
    if not abs(b) <= MAX_ABS_BUDGET:
        raise ValueError(f"need |b| <= {MAX_ABS_BUDGET:g}, got {b!r}")


def closed_system_rate(n, alpha, h):
    """Expected one-step contraction with a fixed roster: ``1 - h*alpha/(n-1)``."""
    if n < 2:
        raise ValueError("need n >= 2")
    if alpha <= 0.0 or h <= 0.0:
        raise ValueError("need alpha > 0 and h > 0")
    return 1.0 - h * alpha / (n - 1)


def open_contraction_rate(n, kappa, p_update):
    """Contraction factor of the open-system mean-error recursion."""
    _check(n, kappa)
    return 2.0 - p_update * (1.0 + 1.0 / ((n - 1) * kappa))


def _error_bracket(n, kappa, b):
    # reused by the general offset and displacement cap
    return 1.0 + 1.0 / math.sqrt(kappa) + abs(b) / n


def replacement_offset(n, kappa, b, p_update):
    """Per-iteration additive error inflation, general certified rosters."""
    _check(n, kappa, b)
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
    _check(n, kappa, b)
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
    if kappa < 1.0 or edge_probability < 0.0:
        raise ValueError("need kappa >= 1 and a nonnegative probability")
    return edge_probability / (2.0 * kappa)


def replacement_ratio(p_update):
    """Expected replacements per update, ``(1 - p_update)/p_update``."""
    if not (0.0 <= p_update <= 1.0):
        raise ValueError(f"p_update={p_update} outside [0, 1]")
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
    if ratio < 0.0:
        raise ValueError(f"replacement ratio must be >= 0, got {ratio!r}")
    cap = 1.0 / ((n - 1) * kappa)
    if ratio >= cap:
        return math.inf
    paren = _error_bracket(n, kappa, b)
    return 8.0 * n * kappa * paren * ratio / (cap - ratio)


def steady_state_from_recursion(n, kappa, b, p_update):
    """Exact fixed point ``offset / (1 - rate)`` of the mean-error recursion.

    Returns ``math.inf`` when the recursion does not contract.
    """
    rate = open_contraction_rate(n, kappa, p_update)
    if rate >= 1.0:
        return math.inf
    return replacement_offset(n, kappa, b, p_update) / (1.0 - rate)


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
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    out = np.empty(int(horizon) + 1)
    out[0] = initial
    value = float(initial)
    for k in range(int(horizon)):
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
    _check(n, kappa, b)
    gamma = steady_state_level(n, kappa, b, ratio)
    out = np.empty(int(horizon) + 1)
    out[0] = initial
    if math.isinf(gamma):
        out[1:] = math.inf
        return out
    cap = 1.0 / ((n - 1) * kappa)
    rate = 1.0 + (ratio - cap) / (1.0 + ratio)
    ks = np.arange(1, int(horizon) + 1)
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
    if h is None:
        h = 1.0 / beta
    kappa = beta / alpha
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
