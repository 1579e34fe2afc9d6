"""Budget-coupled allocations and constrained-minimizer solvers.

The feasible set is the hyperplane ``sum(x) == budget``.  Three solvers
compute the constrained minimizer of a separable roster of costs: a
closed form valid for quadratic rosters, an equality-constrained Newton
iteration for log-cosh rosters, and a dual bisection valid for any
certified smooth strongly convex roster.  The dual bisection is kept
independent on purpose: it is the reference the other two are checked
against.  The closed form and the Newton iteration take agents on axis
0: one roster is an ``(n,)`` array and a batch of rosters an ``(n, rows)``
array, so the batch simulator solves many rosters in one call with the
same arithmetic as a single solve.  Every sum over agents goes through
:func:`_agent_sum`, which adds them in agent order whatever the shape or
memory layout, so a roster's bits never depend on the rosters beside it.

Sign convention: ``MinimizerResult.multiplier`` stores the common
stationary gradient value ``g = f_i'(x*_i)``, identical across agents
at the constrained optimum.  For quadratic rosters
``g = 2 * (budget - sum(mu)) / sum(1/theta)``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .functions import LogCoshQuadratic, _logcosh_gradient
from .rules import _check_agents, _check_budget, _check_kappa

__all__ = [
    "FEASIBILITY_TOL",
    "FeasibilityError",
    "NonConvergenceError",
    "Allocation",
    "MinimizerResult",
    "minimizer_ball_radius",
    "check_in_ball",
    "closed_form_quadratic_minimizer",
    "dual_bisection_minimizer",
]

#: slack allowed between sum(values) and the budget, per unit of |budget|
#: past 1 (:func:`_feasibility_tol`)
FEASIBILITY_TOL = 1e-9

#: Newton steps before a log-cosh roster falls back to the dual
#: bisection; at most 10 were needed over 23000 random rosters with
#: kappa up to 1e4 and |budget| up to 50
_NEWTON_ITERATIONS = 50

#: dual bisection steps before :class:`NonConvergenceError`
_BISECTIONS = 200


class FeasibilityError(ValueError):
    """An allocation does not satisfy its budget constraint."""


class NonConvergenceError(RuntimeError):
    """An iterative solver failed to close its bracket."""


@dataclass(frozen=True)
class Allocation:
    """Point on the budget hyperplane.

    Parameters
    ----------
    values : array_like, shape (n,)
        Per-agent estimates.
    budget : float
        Required value of ``sum(values)`` up to ``FEASIBILITY_TOL``.
    """

    values: np.ndarray
    budget: float

    def __post_init__(self):
        # a private copy: the caller's array can neither break nor be frozen by it
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise FeasibilityError("values must be a 1-D array with n >= 1")
        # agent order, as _agent_sum adds (the builtin sum compensates from
        # Python 3.12 on)
        total = 0.0
        for value in v.tolist():
            total += value
        _check_feasible(abs(total - self.budget), self.budget)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.size

    @classmethod
    def uniform(cls, n, budget):
        """Equal split ``budget / n`` per agent."""
        return cls(np.full(n, budget / n), float(budget))


def _feasibility_tol(budget):
    """``FEASIBILITY_TOL * max(1, |budget|)``, the slack between an
    allocation's sum and its budget: absolute up to ``|budget| = 1`` and
    relative past it, so that the rounding of a large budget's sum, an
    ulp of the budget or a few, stays well inside it."""
    return FEASIBILITY_TOL * max(1.0, abs(budget))


def _check_feasible(gap, budget):
    """Raise :class:`FeasibilityError` unless ``gap``, the largest
    ``|sum(x) - budget|`` measured (agents added in order), is within
    :func:`_feasibility_tol`; ``nan``, and any gap at an infinite budget,
    fail.  Both simulation engines end a run that drifts off its budget
    here."""
    tol = _feasibility_tol(budget)
    if not (gap <= tol < math.inf):
        raise FeasibilityError(f"sum(values) misses budget by {gap:.3e} (> {tol:.3e})")


@dataclass(frozen=True)
class MinimizerResult:
    """Constrained minimizer plus its stationarity multiplier."""

    point: Allocation
    multiplier: float
    method: str = field(default="closed_form")


def minimizer_ball_radius(n, kappa, budget):
    """Radius of an origin-centred ball containing the constrained minimizer.

    Valid for any roster of certified costs with condition ratio at most
    ``kappa``, minimizers in ``[-1, 1]`` and the given budget.
    """
    n = _check_agents("n", n, 1)
    _check_kappa("kappa", kappa)
    _check_budget("budget", budget)
    return math.sqrt(n) + (1.0 + abs(budget) / n) * math.sqrt(kappa * n)


def check_in_ball(x, radius):
    """True iff ``||x|| <= radius`` (boundary counts as inside)."""
    values = x.values if isinstance(x, Allocation) else np.asarray(x, dtype=np.float64)
    return bool(np.linalg.norm(values) <= radius)


def _agent_sum(a):
    """``a[0] + a[1] + ...`` in agent order, for ``(n,)`` or ``(n, rows)`` input.

    numpy adds axis 0 of a C-contiguous 2-D array row after row only when
    it has at least two columns; a 1-D array, one column or another
    memory layout gets its pairwise sum, whose order differs from n = 8
    on.  ``accumulate`` is sequential in every case, and slower on 2-D.
    """
    if a.ndim == 2 and a.shape[1] > 1:
        return np.ascontiguousarray(a).sum(axis=0)
    return np.add.accumulate(a, axis=0)[-1]


def _squared_distance(a, b, out=None):
    """``||a - b||^2`` over the agents on axis 0, for every squared distance
    measured; ``out``, shaped like ``a``, takes the differences in place of
    fresh temporaries."""
    d = np.subtract(a, b, out=out)
    return _agent_sum(np.multiply(d, d, out=d))


def _roster_arrays(fs, names, solver):
    try:
        return [np.array([getattr(f, name) for f in fs], dtype=np.float64) for name in names]
    except AttributeError as exc:
        raise TypeError(f"{solver} needs a roster with {', '.join(names)}") from exc


def _pinned(fs, budget, method):
    """A one-agent roster's minimizer: the constraint pins its coordinate."""
    point = Allocation(np.array([budget]), budget)
    return MinimizerResult(point, float(fs[0].gradient(budget)), method)


def closed_form_quadratic_minimizer(fs, budget):
    """Constrained minimizer of a quadratic roster, in closed form.

    Solves ``min sum_i theta_i (x_i - mu_i)^2  s.t.  sum_i x_i = budget``
    via the stationarity system: every coordinate satisfies
    ``x_i = mu_i + t / theta_i`` with ``t = (budget - sum(mu)) / sum(1/theta)``.

    Parameters
    ----------
    fs : sequence of QuadraticFunction
    budget : float

    Returns
    -------
    MinimizerResult
    """
    budget = float(budget)
    if len(fs) == 1:
        return _pinned(fs, budget, "closed_form")
    theta, mu = _roster_arrays(fs, ("theta", "mu"), "closed form")
    x, t = _quadratic_point(mu, 1.0 / theta, budget)
    return MinimizerResult(Allocation(x, budget), 2.0 * t, "closed_form")


def _quadratic_point(mu, inv_theta, budget):
    """``(x, t)`` of the closed form for agents on axis 0.

    Shared with the batch simulator, which keeps the two bit-identical.
    """
    t = (budget - _agent_sum(mu)) / _agent_sum(inv_theta)
    return mu + t * inv_theta, t


def _logcosh_newton_minimizer(fs, budget):
    """Constrained minimizer of a log-cosh roster sharing one certificate,
    to the targets :func:`_solver_targets` gives."""
    budget = float(budget)
    if len(fs) == 1:
        return _pinned(fs, budget, "newton")
    theta, mu, weight = _roster_arrays(fs, ("theta", "mu", "weight"), "log-cosh Newton")
    x, nu = _logcosh_point(theta, mu, weight, budget, fs[0].certificate)
    return MinimizerResult(Allocation(x, budget), float(nu), "newton")


def _logcosh_point(theta, mu, weight, budget, certificate):
    """``(x, nu)`` of the log-cosh minimizer for agents on axis 0.

    Starts from the closed form of the local quadratic model (curvature
    ``theta + weight/2`` at the cost's minimizer) and iterates
    ``x <- x - (g - nu) / h`` with ``nu`` chosen so that the step lands
    on ``sum(x) == budget``.  Each roster stops on its own once it meets
    the targets of :func:`_solver_targets`, so its result never
    depends on the other rosters solved with it.  Newton has no bracket,
    so a roster still unconverged after ``_NEWTON_ITERATIONS`` steps is
    solved by :func:`dual_bisection_minimizer` instead, which fails only
    where the reference itself fails.  Shared with the batch simulator,
    which keeps the two bit-identical.
    """
    shape = np.shape(mu)
    n = shape[0]
    theta, mu, weight = (np.reshape(a, (n, -1)) for a in (theta, mu, weight))
    x, _ = _quadratic_point(mu, 1.0 / (theta + 0.5 * weight), budget)
    point, nu = np.empty_like(x), np.empty(x.shape[1])
    radius = minimizer_ball_radius(n, certificate.kappa, budget)
    sum_tol, grad_tol, _ = _solver_targets(
        budget, n, certificate.alpha, certificate.beta, radius)
    rows = np.arange(x.shape[1])  # where the unconverged rosters go in the output
    for _ in range(_NEWTON_ITERATIONS):
        g = _logcosh_gradient(theta, mu, weight, x)
        t = np.tanh(x - mu)
        inv_h = 1.0 / (2.0 * theta + weight * (1.0 - t * t))
        total = _agent_sum(x)
        nu_step = (budget - total + _agent_sum(g * inv_h)) / _agent_sum(inv_h)
        resid = g - nu_step
        done = (np.abs(total - budget) <= sum_tol) & (np.abs(resid).max(axis=0) <= grad_tol)
        if done.any():
            point[:, rows[done]] = x.compress(done, axis=1)
            nu[rows[done]] = nu_step[done]
            if done.all():
                return point.reshape(shape), nu.reshape(shape[1:])
            more = ~done
            rows = rows[more]
            # compress keeps C order; a[:, more] would be F-ordered
            x, theta, mu, weight, resid, inv_h = (
                a.compress(more, axis=1) for a in (x, theta, mu, weight, resid, inv_h)
            )
        x = x - resid * inv_h
    for k, r in enumerate(rows):
        fs = [LogCoshQuadratic(float(t), float(m), float(w), certificate)
              for t, m, w in zip(theta[:, k], mu[:, k], weight[:, k])]
        res = dual_bisection_minimizer(fs, budget)
        point[:, r], nu[r] = res.point.values, res.multiplier
    return point.reshape(shape), nu.reshape(shape[1:])


def _solver_targets(budget, n, alpha, beta, radius):
    """Where both iterative solvers stop: ``|sum(x) - budget| <= sum_tol``,
    every gradient within ``grad_tol`` of the multiplier and, for the dual
    bisection, a multiplier bracket within ``width_tol`` (for coordinatewise
    agreement, not just a feasible sum).

    Only ``sum_tol``, half of :func:`_feasibility_tol`, grows with
    ``|budget|``; the other two come from the absolute
    ``FEASIBILITY_TOL``, and ``n`` residuals of ``grad_tol`` cannot spend it.
    No target is finer than ``beta`` times a few ulps of the largest
    coordinate the minimizer ball of ``radius`` allows, which rounding
    alone can miss, and that floor is what a large budget's stationarity
    targets rest on.
    """
    floor = 4.0 * beta * math.ulp(radius)
    width = 0.1 * FEASIBILITY_TOL * alpha
    return 0.5 * _feasibility_tol(budget), max(width / n, floor), max(width, floor)


def _inverse_gradient(f, nu, tol):
    """Solve ``f.gradient(z) == nu`` for z, to ``|gradient - nu| <= tol``.

    The curvature certificate brackets the root around the minimizer:
    ``z - minimizer`` lies between ``nu/beta`` and ``nu/alpha``.  Inside
    that bracket a safeguarded secant iteration does the work (exact in
    two steps for quadratics); every third step bisects so the bracket
    provably shrinks, for at most 200 steps.
    """
    cert = f.certificate
    x0 = f.minimizer
    if nu >= 0.0:
        lo, hi = x0 + nu / cert.beta, x0 + nu / cert.alpha
    else:
        lo, hi = x0 + nu / cert.alpha, x0 + nu / cert.beta
    if lo >= hi:
        return x0 + nu / cert.beta
    z_prev = g_prev = None
    z = 0.5 * (lo + hi)
    for it in range(200):
        g = f.gradient(z) - nu
        if abs(g) <= tol:
            return z
        if g > 0.0:
            hi = z
        else:
            lo = z
        step = None
        if g_prev is not None and g != g_prev and it % 3 != 2:
            step = z - g * (z - z_prev) / (g - g_prev)
        z_prev, g_prev = z, g
        if step is None or not (lo < step < hi):
            step = 0.5 * (lo + hi)
        z = step
    raise NonConvergenceError(
        f"inverse gradient stalled at residual {f.gradient(z) - nu:.3e}"
    )


def dual_bisection_minimizer(fs, budget):
    """Constrained minimizer via bisection on the stationary gradient value.

    Works for any certified roster.  Searches the scalar ``nu`` with
    ``sum_i (f_i')^{-1}(nu) == budget``; the sum is nondecreasing in
    ``nu``, and the localization ball bounds the initial bracket.  It
    stops on the targets of :func:`_solver_targets` and raises
    :class:`NonConvergenceError` after ``_BISECTIONS`` bisections.

    Parameters
    ----------
    fs : sequence of CostFunction
    budget : float

    Returns
    -------
    MinimizerResult
    """
    budget = float(budget)
    n = len(fs)
    if n == 1:
        return _pinned(fs, budget, "dual_bisection")

    kappa = max(f.certificate.kappa for f in fs)
    alpha_min = min(f.certificate.alpha for f in fs)
    beta_max = max(f.certificate.beta for f in fs)
    radius = minimizer_ball_radius(n, kappa, budget)
    lo = min(f.gradient(-radius) for f in fs)
    hi = max(f.gradient(radius) for f in fs)
    sum_tol, inner_tol, width_target = _solver_targets(budget, n, alpha_min, beta_max, radius)

    def primal_sum(nu):
        return math.fsum(_inverse_gradient(f, nu, inner_tol) for f in fs)

    nu = 0.5 * (lo + hi)
    for _ in range(_BISECTIONS):
        nu = 0.5 * (lo + hi)
        total = primal_sum(nu)
        if abs(total - budget) <= sum_tol and hi - lo <= width_target:
            break
        if total > budget:
            hi = nu
        else:
            lo = nu
    else:
        raise NonConvergenceError(
            f"dual bracket still [{lo}, {hi}] after {_BISECTIONS} bisections"
        )

    x = np.array([_inverse_gradient(f, nu, inner_tol) for f in fs])
    return MinimizerResult(Allocation(x, budget), float(nu), "dual_bisection")
