"""Random pairwise coordinate-descent updates on the budget hyperplane.

One iteration picks a pair of agents and moves their two estimates in
opposite directions along the gradient difference, which preserves the
estimate sum by construction.  The uniform-weight update is the
workhorse; a general-weight variant handles constraints
``a_i x_i + a_j x_j = const`` by projecting the scaled negative
gradients onto the pair's feasible direction, and reduces to the
uniform case when the two weights are equal.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .allocation import Allocation, _squared_distance
from .config import _check_count
from .functions import ParameterRangeError

__all__ = [
    "DegenerateWeightsError",
    "PairSelection",
    "StepConfig",
    "uniform_pair_probability",
    "complete_graph_edges",
    "rcd_pair_step",
    "general_weight_pair_step",
    "selection_matrix",
    "laplacian_identity_check",
    "exact_onestep_expectation",
]


class DegenerateWeightsError(ValueError):
    """Both constraint weights of a pair vanish; no update direction exists."""


def uniform_pair_probability(n):
    """Probability ``2 / (n (n-1))`` of any one pair on the complete graph."""
    n = _check_count("n", n, 2)
    return 2.0 / (n * (n - 1))


@lru_cache(maxsize=64)
def complete_graph_edges(n):
    """Index arrays ``(i, j)`` of all pairs with ``i < j``, lexicographic.

    Built once per ``n`` and cached; the arrays are read-only.
    """
    edges = np.triu_indices(int(n), k=1)
    for a in edges:
        a.flags.writeable = False
    return edges


@dataclass(frozen=True)
class PairSelection:
    """A selected pair of distinct agents, optionally with its probability."""

    i: int
    j: int
    probability: float | None = None

    def __post_init__(self):
        if self.i == self.j or self.i < 0 or self.j < 0:
            raise ValueError(f"pair must be two distinct agents, got ({self.i}, {self.j})")
        if self.probability is not None and not (0.0 < self.probability <= 1.0):
            raise ValueError(f"probability={self.probability} outside (0, 1]")


@dataclass(frozen=True)
class StepConfig:
    """Step size for the pair update.

    ``h`` must be positive; when ``beta`` is supplied, ``h <= 1/beta``
    is enforced (the regime in which the update is a descent step).
    """

    h: float
    beta: float | None = None

    def __post_init__(self):
        if not (self.h > 0.0) or not math.isfinite(self.h):
            raise ParameterRangeError(f"step size h={self.h} must be positive and finite")
        if self.beta is not None and self.h > 1.0 / self.beta:
            raise ParameterRangeError(f"h={self.h} exceeds 1/beta={1.0 / self.beta}")

    @classmethod
    def default(cls, beta):
        """The canonical choice ``h = 1/beta``."""
        return cls(1.0 / beta, beta)


def rcd_pair_step(x, fs, sel, step):
    """One uniform-weight pair update.

    With ``g = f_i'(x_i) - f_j'(x_j)`` the selected pair moves by
    ``x_i -> x_i - (h/2) g`` and ``x_j -> x_j + (h/2) g``; all other
    coordinates are untouched and the estimate sum is preserved.

    Parameters
    ----------
    x : Allocation
    fs : sequence of CostFunction
    sel : PairSelection
    step : StepConfig

    Returns
    -------
    Allocation
    """
    v = x.values.copy()
    i, j = sel.i, sel.j
    _pair_update(v, i, j, fs[i].gradient(v[i]), fs[j].gradient(v[j]), step.h)
    return Allocation(v, x.budget)


def _pair_update(v, i, j, gi, gj, h):
    # in place; rcd_pair_step passes a 1-D vector, the batch simulator a
    # gathered (2, m) block of pairs with i, j = 0, 1
    d = 0.5 * h * (gi - gj)
    v[i] -= d
    v[j] += d


def general_weight_pair_step(x, fs, a_i, a_j, sel, step):
    """Pair update under a weighted coupling ``a_i x_i + a_j x_j = const``.

    The displacement is the orthogonal projection of the scaled negative
    gradient pair onto the line ``a_i d_i + a_j d_j = 0``:
    ``d = -h (I - a a^T / ||a||^2) grad``.  With ``a_i == a_j`` this is
    exactly the uniform-weight update.

    Parameters
    ----------
    x : array_like, shape (n,)
        Raw estimates (the weighted constraint need not be the budget
        hyperplane, so no Allocation wrapper here).
    fs : sequence of CostFunction
    a_i, a_j : float
        Constraint weights of the selected pair; must not both vanish.
    sel : PairSelection
    step : StepConfig

    Returns
    -------
    numpy.ndarray
    """
    norm2 = a_i * a_i + a_j * a_j
    if norm2 == 0.0:
        raise DegenerateWeightsError("a_i = a_j = 0 admits no feasible direction")
    v = np.asarray(x, dtype=np.float64).copy()
    i, j = sel.i, sel.j
    gi = fs[i].gradient(v[i])
    gj = fs[j].gradient(v[j])
    # projector onto the feasible direction, applied to (gi, gj)
    dot = (a_i * gi + a_j * gj) / norm2
    v[i] -= step.h * (gi - a_i * dot)
    v[j] -= step.h * (gj - a_j * dot)
    return v


def selection_matrix(i, j, n):
    """Matrix form of the uniform pair update direction.

    Returns the ``n x n`` matrix with ``1/2`` at ``(i, i)`` and
    ``(j, j)`` and ``-1/2`` at ``(i, j)`` and ``(j, i)``; the pair
    update is ``x -> x - h Q grad``.
    """
    if i == j or not (0 <= i < n) or not (0 <= j < n):
        raise ValueError(f"need two distinct agents inside range, got ({i}, {j})")
    q = np.zeros((n, n))
    q[i, i] = q[j, j] = 0.5
    q[i, j] = q[j, i] = -0.5
    return q


def laplacian_identity_check(n, tol=1e-14):
    """Verify the selection matrices aggregate to the complete-graph Laplacian.

    Checks entrywise, to ``tol``: each pair matrix is symmetric and
    idempotent, and the probability-weighted sum over all pairs equals
    ``p/2 * (n I - ones ones^T)`` with ``p = 2/(n(n-1))``.
    """
    n = int(n)
    p = uniform_pair_probability(n)
    acc = np.zeros((n, n))
    for i, j in zip(*complete_graph_edges(n)):
        q = selection_matrix(i, j, n)
        if not np.array_equal(q, q.T):
            return False
        if np.max(np.abs(q @ q - q)) > tol:
            return False
        acc += p * q
    laplacian = n * np.eye(n) - np.ones((n, n))
    return bool(np.max(np.abs(acc - 0.5 * p * laplacian)) <= tol)


def exact_onestep_expectation(x, fs, xstar, step):
    """Exact ``E ||x+ - x*||^2`` over the uniform pair choice.

    Enumerates every pair of the complete graph (no sampling) and
    averages the squared distance to ``xstar`` after one update.

    Parameters
    ----------
    x : Allocation
        Current feasible point.
    fs : sequence of CostFunction
    xstar : Allocation
        The constrained minimizer of ``fs`` (not recomputed here).
    step : StepConfig

    Returns
    -------
    float
    """
    target = xstar.values
    ei, ej = complete_graph_edges(x.n)
    total = 0.0
    for i, j in zip(ei, ej):
        after = rcd_pair_step(x, fs, PairSelection(int(i), int(j)), step)
        total += float(_squared_distance(after.values, target))
    return total / ei.size
