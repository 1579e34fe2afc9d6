"""Open-system simulation: pair updates interleaved with agent swaps.

Each iteration is one of two events: with probability ``p_update`` a
uniformly chosen pair performs a coordinate-descent update; otherwise a
uniformly chosen agent has its cost replaced by a fresh draw (the
agent's estimate survives, the constrained minimizer moves).  The
tracked error is ``C_k = ||x_k - x*_k||^2`` against the minimizer of
the *current* roster.

Randomness is consumed in a canonical order so that runs are exactly
reproducible and batch execution matches sequential execution bit for
bit: a trajectory with seed ``s`` first draws two uniforms per agent
for the initial roster, then five uniforms per iteration (event coin,
edge pick, agent pick, theta quantile, mu quantile); draws not needed
by the realized event are discarded.  ``run_ensemble`` exploits this by
simulating all replications of an experiment in either built-in family
(quadratic or log-cosh) in lockstep with vectorized arithmetic that is
operation-for-operation identical to the scalar path.  Runs with a
custom ``replacement_sampler`` (which may return any certified cost,
e.g. a ``GeneralSmoothFunction``) exist only on the scalar path and
track the minimizer with the dual bisection.

Large rosters (``n >= _POOL_MIN_AGENTS``) spread their replication
batches over a thread pool; smaller ones run on one thread, where the
pool measured slower.  The choice is automatic and never changes
results, because batches are merged in a fixed order.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .allocation import (
    Allocation,
    _logcosh_newton_minimizer,
    _logcosh_point,
    _quadratic_point,
    closed_form_quadratic_minimizer,
    dual_bisection_minimizer,
)
from .functions import (
    _cost_from_uniforms,
    _logcosh_gradient,
    _logcosh_weight,
    _quadratic_gradient,
    quadratic_quantiles,
)
from .rcd import PairSelection, StepConfig, complete_graph_edges, rcd_pair_step

__all__ = [
    "EventSchedule",
    "SystemState",
    "TrajectoryRecord",
    "ReplicationStats",
    "initial_system_state",
    "step",
    "run_trajectory",
    "run_ensemble",
]

#: two-sided 95% normal quantile used for confidence half-widths
Z95 = 1.959963984540054

#: replication rows simulated per vectorized batch
_BATCH_ROWS = 1024

#: steps of random tape drawn at a time per row (memory cap)
_TAPE_STEPS = 256

#: agent count from which batches run on a thread pool; below it the
#: per-step numpy calls are too small for threads to beat one thread
_POOL_MIN_AGENTS = 64


@dataclass(frozen=True)
class EventSchedule:
    """Per-iteration event mix of the open system."""

    p_update: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p_update <= 1.0):
            raise ValueError(f"p_update={self.p_update} outside [0, 1]")

    @property
    def p_replace(self):
        return 1.0 - self.p_update

    def edge_probability(self, n):
        """Chance a given pair updates this iteration: ``2 p_U / (n(n-1))``."""
        return 2.0 * self.p_update / (n * (n - 1))

    def agent_probability(self, n):
        """Chance a given agent is replaced this iteration: ``p_R / n``."""
        return self.p_replace / n


@dataclass(frozen=True)
class SystemState:
    """Estimates plus the current cost roster."""

    allocation: Allocation
    roster: tuple

    def __post_init__(self):
        if len(self.roster) != self.allocation.n:
            raise ValueError("roster size must match the allocation")

    @property
    def n(self):
        return self.allocation.n

    @property
    def certificate(self):
        return self.roster[0].certificate


@dataclass(frozen=True)
class TrajectoryRecord:
    """Per-iteration log of a single run; row 0 is the initial state."""

    k: np.ndarray
    event: tuple
    error: np.ndarray
    suboptimality: np.ndarray
    minimizer_shift: np.ndarray
    final_state: SystemState


@dataclass(frozen=True)
class ReplicationStats:
    """Per-iteration ensemble mean of the error with CI half-widths."""

    mean_error: np.ndarray
    ci_halfwidth: np.ndarray
    replications: int
    replacement_count: int
    max_replacement_shift: float


def _solver_for(family, custom_replacements=False):
    if family == "quadratic":
        return closed_form_quadratic_minimizer
    if custom_replacements:
        # a custom sampler may return any certified cost
        return dual_bisection_minimizer
    return _logcosh_newton_minimizer


def _initial_point(config, shape, minimizer):
    """The configured starting estimates, broadcast to ``shape``.

    ``minimizer`` is a zero-argument callable returning the roster's
    constrained minimizer; it is only called for the ``"minimizer"`` start.
    """
    if config.initial_state == "uniform_budget":
        fill = config.budget / config.n
    elif config.initial_state == "minimizer":
        fill = minimizer()
    else:
        fill = config.initial_state
    return np.full(shape, fill, dtype=np.float64)


def initial_system_state(config, rng, solver=None):
    """Draw the starting roster and build the configured initial point.

    Consumes exactly ``2 n`` uniforms from ``rng`` (theta and mu
    quantiles per agent, in agent order).  ``solver(roster, budget)``
    gives the ``"minimizer"`` start; it defaults to the family's own
    solver, and :func:`run_trajectory` passes the one it tracks the
    minimizer with, so that start is exact.
    """
    cert = config.certificate
    family = config.function_family
    roster = tuple(
        _cost_from_uniforms(family, cert, u_theta, u_mu)
        for u_theta, u_mu in rng.random((config.n, 2))
    )
    solve = _solver_for(family) if solver is None else solver
    x0 = _initial_point(config, config.n, lambda: solve(roster, config.budget).point.values)
    return SystemState(Allocation(x0, config.budget), roster)


def step(state, schedule, rng, step_config=None, family="quadratic",
         replacement_sampler=None):
    """Advance the open system by one iteration.

    Consumes exactly five uniforms from ``rng`` regardless of the
    realized event (unused draws are discarded), unless a custom
    ``replacement_sampler`` takes extra draws of its own.

    Parameters
    ----------
    state : SystemState
    schedule : EventSchedule
    rng : numpy.random.Generator
    step_config : StepConfig, optional
        Defaults to ``h = 1/beta`` for the roster's certificate.
    family : str
        Which built-in family replacements are drawn from.
    replacement_sampler : callable, optional
        ``sampler(rng, certificate) -> CostFunction`` overriding the
        built-in draw.

    Returns
    -------
    (SystemState, tuple)
        The new state and the realized event, either
        ``("update", i, j)`` or ``("replace", agent)``.
    """
    if step_config is None:
        step_config = StepConfig.default(state.certificate.beta)
    u = rng.random(5)
    n = state.n
    if u[0] < schedule.p_update:
        ei, ej = complete_graph_edges(n)
        e = int(u[1] * ei.size)
        sel = PairSelection(int(ei[e]), int(ej[e]), 2.0 / (n * (n - 1)))
        after = rcd_pair_step(state.allocation, state.roster, sel, step_config)
        return SystemState(after, state.roster), ("update", sel.i, sel.j)
    agent = int(u[2] * n)
    if replacement_sampler is not None:
        fresh = replacement_sampler(rng, state.certificate)
    else:
        fresh = _cost_from_uniforms(family, state.certificate, u[3], u[4])
    roster = state.roster[:agent] + (fresh,) + state.roster[agent + 1:]
    return SystemState(state.allocation, roster), ("replace", agent)


def _roster_value(roster, values):
    return math.fsum(f.value(v) for f, v in zip(roster, values))


def _squared_distance(a, b):
    # along the last axis, so both engines measure C_k with one formula
    d = a - b
    return (d * d).sum(axis=-1)


def run_trajectory(config, seed=None, replacement_sampler=None):
    """Simulate one run and log it per iteration.

    Parameters
    ----------
    config : ExperimentConfig
    seed : int, optional
        Defaults to ``config.seed``.
    replacement_sampler : callable, optional
        Passed through to :func:`step`.

    Returns
    -------
    TrajectoryRecord
        Arrays of length ``horizon + 1``; row 0 is the initial state
        with event ``"init"``.  ``error`` is ``||x_k - x*_k||^2``,
        ``suboptimality`` the roster-value gap to the constrained
        minimizer, and ``minimizer_shift`` the squared minimizer jump
        (zero except on replacement rows).
    """
    rng = np.random.default_rng(config.seed if seed is None else seed)
    schedule = EventSchedule(config.p_update)
    step_config = StepConfig(config.h, config.beta)
    solver = _solver_for(config.function_family, replacement_sampler is not None)
    state = initial_system_state(config, rng, solver)

    horizon = config.horizon
    events = ["init"]
    error = np.empty(horizon + 1)
    subopt = np.empty(horizon + 1)
    shift = np.zeros(horizon + 1)
    xstar = solver(state.roster, config.budget).point.values

    for k in range(horizon + 1):
        if k:
            state, event = step(
                state,
                schedule,
                rng,
                step_config,
                family=config.function_family,
                replacement_sampler=replacement_sampler,
            )
            events.append(event[0])
            if event[0] == "replace":
                moved = solver(state.roster, config.budget).point.values
                shift[k] = _squared_distance(moved, xstar)
                xstar = moved
        values = state.allocation.values
        error[k] = _squared_distance(values, xstar)
        subopt[k] = _roster_value(state.roster, values) - _roster_value(state.roster, xstar)
    return TrajectoryRecord(np.arange(horizon + 1), tuple(events), error, subopt, shift, state)


@dataclass
class _BatchOutcome:
    error: np.ndarray                 # (rows, horizon+1)
    final_values: np.ndarray          # (rows, n)
    replacement_count: int
    max_replacement_shift: float
    update_mask: np.ndarray | None    # (rows, horizon) when collected


class _QuadraticRows:
    """One quadratic roster per row: ``theta``, ``mu`` and the ``1/theta``
    the closed form needs, each ``(rows, n)``."""

    def __init__(self, config, theta, mu):
        self.budget = config.budget
        self.theta, self.mu, self.inv_theta = theta, mu, 1.0 / theta

    def gradient(self, r, i, x):
        return _quadratic_gradient(self.theta[r, i], self.mu[r, i], x)

    def replace(self, r, agents, theta, mu):
        self.theta[r, agents] = theta
        self.inv_theta[r, agents] = 1.0 / theta
        self.mu[r, agents] = mu

    def minimizer(self, r=slice(None)):
        return _quadratic_point(self.mu[r], self.inv_theta[r], self.budget)[0]


class _LogCoshRows:
    """One log-cosh roster per row: ``theta``, ``mu`` and ``weight``."""

    def __init__(self, config, theta, mu):
        self.certificate, self.budget = config.certificate, config.budget
        self.theta, self.mu = theta, mu
        self.weight = _logcosh_weight(self.certificate, theta)

    def gradient(self, r, i, x):
        return _logcosh_gradient(self.theta[r, i], self.mu[r, i], self.weight[r, i], x)

    def replace(self, r, agents, theta, mu):
        self.theta[r, agents] = theta
        self.weight[r, agents] = _logcosh_weight(self.certificate, theta)
        self.mu[r, agents] = mu

    def minimizer(self, r=slice(None)):
        return _logcosh_point(
            self.theta[r], self.mu[r], self.weight[r], self.budget, self.certificate
        )[0]


def _simulate_batch(config, seeds, collect_update_mask=False):
    """Lockstep simulation of many replications of a built-in family.

    Row ``r`` reproduces ``run_trajectory(config, seed=seeds[r])``
    exactly: the same uniforms feed the same arithmetic in the same
    order, only batched across rows.
    """
    n, horizon = config.n, config.horizon
    cert = config.certificate
    rows = len(seeds)
    gens = [np.random.default_rng(int(s)) for s in seeds]
    init_u = np.stack([g.random((n, 2)) for g in gens])
    # the rest of each row's stream is drawn _TAPE_STEPS steps at a time;
    # consecutive Generator.random calls continue one stream exactly
    tape = np.empty((rows, min(horizon, _TAPE_STEPS), 5))

    family = _QuadraticRows if config.function_family == "quadratic" else _LogCoshRows
    roster = family(config, *quadratic_quantiles(cert, init_u[..., 0], init_u[..., 1]))
    xstar = roster.minimizer()
    x = _initial_point(config, (rows, n), lambda: xstar)

    error = np.empty((rows, horizon + 1))
    error[:, 0] = _squared_distance(x, xstar)

    ei, ej = complete_graph_edges(n)
    edge_count = ei.size
    half_h = 0.5 * config.h
    row_index = np.arange(rows)
    update_mask = np.empty((rows, horizon), dtype=bool) if collect_update_mask else None
    replacement_count = 0
    max_shift = 0.0

    for k in range(horizon):
        c = k % _TAPE_STEPS
        if c == 0:
            steps = min(_TAPE_STEPS, horizon - k)
            for r, g in enumerate(gens):
                tape[r, :steps] = g.random((steps, 5))
        u = tape[:, c, :]
        is_update = u[:, 0] < config.p_update
        if update_mask is not None:
            update_mask[:, k] = is_update

        urows = row_index[is_update]
        if urows.size:
            e = (u[urows, 1] * edge_count).astype(np.intp)
            ii, jj = ei[e], ej[e]
            xi = x[urows, ii]
            xj = x[urows, jj]
            dstep = half_h * (roster.gradient(urows, ii, xi) - roster.gradient(urows, jj, xj))
            x[urows, ii] = xi - dstep
            x[urows, jj] = xj + dstep

        rrows = row_index[~is_update]
        if rrows.size:
            replacement_count += rrows.size
            agents = (u[rrows, 2] * n).astype(np.intp)
            roster.replace(rrows, agents, *quadratic_quantiles(cert, u[rrows, 3], u[rrows, 4]))
            moved = roster.minimizer(rrows)
            shift = _squared_distance(moved, xstar[rrows])
            max_shift = max(max_shift, float(shift.max()))
            xstar[rrows] = moved

        error[:, k + 1] = _squared_distance(x, xstar)

    return _BatchOutcome(error, x, replacement_count, max_shift, update_mask)


def _batch_seed_ranges(base_seed, replications):
    starts = range(0, replications, _BATCH_ROWS)
    return [
        range(base_seed + lo, base_seed + min(lo + _BATCH_ROWS, replications))
        for lo in starts
    ]


def run_ensemble(config, replications=None, base_seed=None):
    """Run independent replications and aggregate the error curves.

    Replication ``r`` is seeded ``base_seed + r`` and reproduces the
    corresponding :func:`run_trajectory` exactly.  Both built-in families
    (quadratic and log-cosh) run through the vectorized batch engine in
    batches of ``_BATCH_ROWS`` rows.  From ``_POOL_MIN_AGENTS`` agents up the
    batches run on a thread pool of ``min(cpu_count, 8, batches)``
    workers, otherwise on the calling thread; batches are merged in
    deterministic order, so the statistics never depend on scheduling.

    Parameters
    ----------
    config : ExperimentConfig
    replications : int, optional
        Defaults to ``config.replications``.
    base_seed : int, optional
        Defaults to ``config.seed``.

    Returns
    -------
    ReplicationStats
        ``mean_error[k]`` estimates ``E[C_k]``; ``ci_halfwidth`` holds
        95% normal-approximation half-widths (zero when only one
        replication ran).
    """
    replications = config.replications if replications is None else int(replications)
    base_seed = config.seed if base_seed is None else int(base_seed)
    if replications < 1:
        raise ValueError("need at least one replication")

    ranges = _batch_seed_ranges(base_seed, replications)
    workers = 1
    if config.n >= _POOL_MIN_AGENTS:
        workers = min(os.cpu_count() or 1, 8, len(ranges))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda rng_: _simulate_batch(config, rng_), ranges))
    else:
        outcomes = [_simulate_batch(config, r) for r in ranges]
    error = np.concatenate([o.error for o in outcomes], axis=0)
    replacement_count = sum(o.replacement_count for o in outcomes)
    max_shift = max((o.max_replacement_shift for o in outcomes), default=0.0)

    mean = error.mean(axis=0)
    if replications > 1:
        halfwidth = Z95 * error.std(axis=0, ddof=1) / math.sqrt(replications)
    else:
        halfwidth = np.zeros_like(mean)
    return ReplicationStats(mean, halfwidth, replications, replacement_count, max_shift)
