"""The paper's identities that no run of the program uses, kept as test
references.

* :func:`selection_matrix` and :func:`laplacian_identity_check`: the
  matrix form of the uniform pair update, whose probability-weighted
  sum over the complete graph is the graph's Laplacian;
* :func:`general_weight_pair_step`: the pair update under a weighted
  coupling ``a_i x_i + a_j x_j = const``, which reduces to
  ``rcd_pair_step`` when the two weights are equal;
* :func:`certify`: a sampled check of a curvature certificate, run on
  the shipped cost classes;
* :func:`max_agent_probability`: the largest per-agent replacement
  probability a per-edge update probability can stabilize.

Each keeps the argument checks it had in the library, so a bad argument
still ends in a ``ConfigError`` naming it.
"""

import math
from dataclasses import dataclass

import numpy as np

from openrcd.rcd import complete_graph_edges, uniform_pair_probability
from openrcd.rules import _check_agents, _check_count, _check_kappa, _check_probability, _need


class DegenerateWeightsError(ValueError):
    """Both constraint weights of a pair vanish; no update direction exists."""


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
    n = _check_agents("n", n)
    for key, agent in (("i", i), ("j", j)):
        _need(_check_count(key, agent, 0) < n, key, f"an agent index < n = {n}", agent)
    _need(i != j, "j", f"an agent other than i = {i}", j)
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
    n = _check_agents("n", n)
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


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of a sampled curvature check; truthy iff it passed."""

    passed: bool
    witness: tuple | None = None  # (x, y, slope) for the first failing pair

    def __bool__(self):
        return self.passed


def certify(f, sample_count, rng, certificate=None, radius=None):
    """Check a curvature certificate on sampled secant slopes.

    Draws ``sample_count`` point pairs ``(x, y)`` and verifies
    ``alpha <= (gradient(x) - gradient(y)) / (x - y) <= beta`` for each,
    up to a relative slack of 1e-9.  Sampling covers ``[-radius, radius]``;
    the default radius is the single-agent zero-budget localization ball
    ``1 + sqrt(kappa)``.

    Parameters
    ----------
    f : CostFunction
    sample_count : int
    rng : numpy.random.Generator
    certificate : ConvexityCertificate, optional
        Claim to check; defaults to ``f.certificate``.
    radius : float, optional
        Finite and positive.

    Returns
    -------
    CertificationResult
        Truthy on success; carries the first failing ``(x, y, slope)``
        triple otherwise.
    """
    sample_count = _check_count("sample_count", sample_count, 0)
    cert = f.certificate if certificate is None else certificate
    if radius is None:
        radius = 1.0 + math.sqrt(cert.kappa)
    _need(0.0 < radius < math.inf, "radius", "a finite radius > 0", radius)
    slack = 1e-9 * max(1.0, cert.beta)
    pairs = rng.uniform(-radius, radius, size=(sample_count, 2))
    for x, y in pairs:
        if abs(x - y) < 1e-9:
            continue
        slope = (f.gradient(x) - f.gradient(y)) / (x - y)
        if slope < cert.alpha - slack or slope > cert.beta + slack:
            return CertificationResult(False, (float(x), float(y), float(slope)))
    return CertificationResult(True, None)


def max_agent_probability(edge_probability, kappa):
    """Largest per-agent replacement probability a per-edge update
    probability can stabilize: ``edge_probability / (2 kappa)``."""
    _check_probability("edge_probability", edge_probability)
    _check_kappa("kappa", kappa)
    return edge_probability / (2.0 * kappa)
