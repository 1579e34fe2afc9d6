"""Budget-coupled allocations and constrained-minimizer solvers.

The feasible set is the hyperplane ``sum(x) == budget``.  Three solvers
compute the constrained minimizer of a separable roster of costs: a
closed form valid for quadratic rosters, an equality-constrained Newton
iteration for log-cosh rosters, and a dual bisection valid for any
certified smooth strongly convex roster.  The dual bisection is kept
independent on purpose: it is the reference the other two are checked
against.  The closed form and the Newton iteration work on rosters laid
out on the last axis of arrays, so the batch simulator solves many
rosters in one call with the same arithmetic as a single solve.

Sign convention: ``MinimizerResult.multiplier`` stores the common
stationary gradient value ``g = f_i'(x*_i)``, identical across agents
at the constrained optimum.  For quadratic rosters
``g = 2 * (budget - sum(mu)) / sum(1/theta)``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .functions import LogCoshQuadratic, _logcosh_gradient

__all__ = [
    "FeasibilityError",
    "NonConvergenceError",
    "Allocation",
    "MinimizerResult",
    "minimizer_ball_radius",
    "check_in_ball",
    "closed_form_quadratic_minimizer",
    "dual_bisection_minimizer",
]

#: absolute slack allowed between sum(values) and the budget
FEASIBILITY_TOL = 1e-9

#: Newton steps before a log-cosh roster falls back to the dual
#: bisection; at most 10 were needed over 23000 random rosters with
#: kappa up to 1e4 and |budget| up to 50
_NEWTON_ITERATIONS = 50


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
        gap = abs(float(v.sum()) - self.budget)
        if not (gap <= FEASIBILITY_TOL):
            raise FeasibilityError(
                f"sum(values) misses budget by {gap:.3e} (> {FEASIBILITY_TOL:.0e})"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.size

    @classmethod
    def uniform(cls, n, budget):
        """Equal split ``budget / n`` per agent."""
        return cls(np.full(n, budget / n), float(budget))


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
    n = int(n)
    if n < 1 or not kappa >= 1.0:
        raise ValueError("need n >= 1 and kappa >= 1")
    return math.sqrt(n) + (1.0 + abs(budget) / n) * math.sqrt(kappa * n)


def check_in_ball(x, radius):
    """True iff ``||x|| <= radius`` (boundary counts as inside)."""
    values = x.values if isinstance(x, Allocation) else np.asarray(x, dtype=np.float64)
    return bool(np.linalg.norm(values) <= radius)


def _squared_distance(a, b):
    """``||a - b||^2`` along the last axis, for every squared distance measured."""
    d = a - b
    return (d * d).sum(axis=-1)


def _roster_arrays(fs, names, solver):
    try:
        return [np.array([getattr(f, name) for f in fs], dtype=np.float64) for name in names]
    except AttributeError as exc:
        raise TypeError(f"{solver} needs a roster with {', '.join(names)}") from exc


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
        # constraint pins the single coordinate exactly
        point = Allocation(np.array([budget]), budget)
        return MinimizerResult(point, float(fs[0].gradient(budget)), "closed_form")
    theta, mu = _roster_arrays(fs, ("theta", "mu"), "closed form")
    x, t = _quadratic_point(mu, 1.0 / theta, budget)
    return MinimizerResult(Allocation(x, budget), 2.0 * t, "closed_form")


def _quadratic_point(mu, inv_theta, budget):
    """``(x, t)`` of the closed form for rosters laid out on the last axis.

    Shared with the batch simulator, which keeps the two bit-identical.
    """
    t = (budget - mu.sum(axis=-1)) / inv_theta.sum(axis=-1)
    return mu + t[..., None] * inv_theta, t


def _logcosh_newton_minimizer(fs, budget):
    """Constrained minimizer of a log-cosh roster sharing one certificate,
    to the targets :func:`_solver_targets` gives for ``FEASIBILITY_TOL``."""
    budget = float(budget)
    if len(fs) == 1:
        point = Allocation(np.array([budget]), budget)
        return MinimizerResult(point, float(fs[0].gradient(budget)), "newton")
    theta, mu, weight = _roster_arrays(fs, ("theta", "mu", "weight"), "log-cosh Newton")
    x, nu = _logcosh_point(theta, mu, weight, budget, fs[0].certificate)
    return MinimizerResult(Allocation(x, budget), float(nu), "newton")


def _logcosh_point(theta, mu, weight, budget, certificate):
    """``(x, nu)`` of the log-cosh minimizer for rosters laid out on the last axis.

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
    n = shape[-1]
    theta, mu, weight = (np.reshape(a, (-1, n)) for a in (theta, mu, weight))
    x, _ = _quadratic_point(mu, 1.0 / (theta + 0.5 * weight), budget)
    point, nu = np.empty_like(x), np.empty(len(x))
    radius = minimizer_ball_radius(n, certificate.kappa, budget)
    sum_tol, grad_tol, _ = _solver_targets(
        FEASIBILITY_TOL, n, certificate.alpha, certificate.beta, radius)
    rows = np.arange(len(x))  # where the unconverged rosters go in the output
    for _ in range(_NEWTON_ITERATIONS):
        g = _logcosh_gradient(theta, mu, weight, x)
        t = np.tanh(x - mu)
        inv_h = 1.0 / (2.0 * theta + weight * (1.0 - t * t))
        total = x.sum(axis=-1)
        nu_step = (budget - total + (g * inv_h).sum(axis=-1)) / inv_h.sum(axis=-1)
        resid = g - nu_step[:, None]
        done = (np.abs(total - budget) <= sum_tol) & (
            np.abs(resid).max(axis=-1) <= grad_tol
        )
        if done.any():
            point[rows[done]] = x[done]
            nu[rows[done]] = nu_step[done]
            if done.all():
                return point.reshape(shape), nu.reshape(shape[:-1])
            more = ~done
            rows, x, theta, mu, weight, resid, inv_h = (
                a[more] for a in (rows, x, theta, mu, weight, resid, inv_h)
            )
        x = x - resid * inv_h
    for k, r in enumerate(rows):
        fs = [LogCoshQuadratic(float(t), float(m), float(w), certificate)
              for t, m, w in zip(theta[k], mu[k], weight[k])]
        res = dual_bisection_minimizer(fs, budget)
        point[r], nu[r] = res.point.values, res.multiplier
    return point.reshape(shape), nu.reshape(shape[:-1])


def _solver_targets(tol, n, alpha, beta, radius):
    """Where both iterative solvers stop: ``|sum(x) - budget| <= sum_tol``,
    every gradient within ``grad_tol`` of the multiplier and, for the dual
    bisection, a multiplier bracket within ``width_tol`` (for coordinatewise
    agreement, not just a feasible sum).

    ``n`` residuals of ``grad_tol`` cannot spend the feasibility budget
    ``tol``.  No target is finer than ``beta`` times a few ulps of the
    largest coordinate the minimizer ball of ``radius`` allows, which
    rounding alone can miss.
    """
    floor = 4.0 * beta * math.ulp(radius)
    width = 0.1 * tol * alpha
    return 0.5 * tol, max(width / n, floor), max(width, floor)


def _inverse_gradient(f, nu, tol, max_iterations=200):
    """Solve ``f.gradient(z) == nu`` for z, to ``|gradient - nu| <= tol``.

    The curvature certificate brackets the root around the minimizer:
    ``z - minimizer`` lies between ``nu/beta`` and ``nu/alpha``.  Inside
    that bracket a safeguarded secant iteration does the work (exact in
    two steps for quadratics); every third step bisects so the bracket
    provably shrinks.
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
    for it in range(max_iterations):
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


def dual_bisection_minimizer(fs, budget, tol=FEASIBILITY_TOL, max_iterations=200):
    """Constrained minimizer via bisection on the stationary gradient value.

    Works for any certified roster.  Searches the scalar ``nu`` with
    ``sum_i (f_i')^{-1}(nu) == budget``; the sum is nondecreasing in
    ``nu``, and the localization ball bounds the initial bracket.

    Parameters
    ----------
    fs : sequence of CostFunction
    budget : float
    tol : float
        Feasibility target ``|sum(x) - budget| <= tol``.
    max_iterations : int
        Bisection budget before :class:`NonConvergenceError`.

    Returns
    -------
    MinimizerResult
    """
    budget = float(budget)
    n = len(fs)
    if n == 1:
        point = Allocation(np.array([budget]), budget)
        return MinimizerResult(point, float(fs[0].gradient(budget)), "dual_bisection")

    kappa = max(f.certificate.kappa for f in fs)
    alpha_min = min(f.certificate.alpha for f in fs)
    beta_max = max(f.certificate.beta for f in fs)
    radius = minimizer_ball_radius(n, kappa, budget)
    lo = min(f.gradient(-radius) for f in fs)
    hi = max(f.gradient(radius) for f in fs)
    sum_tol, inner_tol, width_target = _solver_targets(tol, n, alpha_min, beta_max, radius)

    def primal_sum(nu):
        return math.fsum(_inverse_gradient(f, nu, inner_tol) for f in fs)

    nu = 0.5 * (lo + hi)
    for _ in range(max_iterations):
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
            f"dual bracket still [{lo}, {hi}] after {max_iterations} bisections"
        )

    x = np.array([_inverse_gradient(f, nu, inner_tol) for f in fs])
    return MinimizerResult(Allocation(x, budget), float(nu), "dual_bisection")
