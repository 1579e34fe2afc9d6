"""Random pairwise coordinate-descent updates on the budget hyperplane.

One iteration picks a pair of agents and moves their two estimates in
opposite directions along the gradient difference, which preserves the
estimate sum by construction.  The module holds that update, the
complete graph's edge table the pair is drawn from, and the exact
expectation of one update's squared distance to the minimizer over the
uniform pair choice.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .allocation import Allocation, _squared_distance
from .functions import ParameterRangeError
from .rules import _check_agents

__all__ = [
    "PairSelection",
    "StepConfig",
    "uniform_pair_probability",
    "complete_graph_edges",
    "rcd_pair_step",
    "exact_onestep_expectation",
]


def uniform_pair_probability(n):
    """Probability ``2 / (n (n-1))`` of any one pair on the complete graph."""
    n = _check_agents("n", n)
    return 2.0 / (n * (n - 1))


@lru_cache(maxsize=64)
def _edge_table(n):
    """The ``(2, n(n-1)/2)`` read-only table of :func:`complete_graph_edges`:
    row 0 holds every pair's ``i``, row 1 its ``j``."""
    table = np.array(np.triu_indices(int(n), k=1))
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def complete_graph_edges(n):
    """Index arrays ``(i, j)`` of all pairs with ``i < j``, lexicographic.

    Built once per ``n`` and cached; the arrays are read-only views of
    the rows of one table, which the batch simulator reads too.
    """
    return tuple(_edge_table(n))


@dataclass(frozen=True)
class PairSelection:
    """A selected pair of distinct agents."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j or self.i < 0 or self.j < 0:
            raise ValueError(f"pair must be two distinct agents, got ({self.i}, {self.j})")


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
