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
operation-for-operation identical to the scalar path, because both call
one copy of each formula: ``rcd._pair_update``, ``quadratic_quantiles``,
``functions._logcosh_weight``, ``allocation._quadratic_point``,
``allocation._logcosh_point`` (which stops on
``allocation._solver_targets``), :func:`_initial_point` and
``allocation._squared_distance``.  Runs with a custom ``replacement_sampler``
(which may return any certified cost, e.g. a ``GeneralSmoothFunction``)
exist only on the scalar path and track the minimizer with the dual
bisection, in either family.

Large rosters (``n >= _POOL_MIN_AGENTS``) spread their replication
batches over a thread pool; smaller ones run on one thread, where the
pool measured slower.  The choice is automatic and never changes
results, because each batch writes its own rows of one shared error
matrix.

The batch engine solves the roster process first.  Swaps are exogenous:
which agent leaves, what cost arrives and so where the minimizer moves
depend on the random tape alone, never on the iterate.  So each chunk
of ``_TAPE_STEPS`` steps first reads its swaps off the tape and solves
them in rounds, every row's ``j``-th swap of the chunk in one batched
minimizer call (:func:`_chunk_swaps`); the step loop then only does
the pair updates, installs each swap's cost and precomputed minimizer,
and records the error.  :func:`run_ensemble` states what an ensemble
holds in memory.
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
    _squared_distance,
    closed_form_quadratic_minimizer,
    dual_bisection_minimizer,
)
from .config import _check_count, _check_probability
from .functions import (
    _cost_from_uniforms,
    _logcosh_gradient,
    _logcosh_weight,
    _quadratic_gradient,
    quadratic_quantiles,
)
from .rcd import PairSelection, StepConfig, _pair_update, complete_graph_edges, rcd_pair_step

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

    def __post_init__(self):
        _check_probability("p_update", self.p_update)

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
    if custom_replacements:
        # a custom sampler may return any certified cost
        return dual_bisection_minimizer
    if family == "quadratic":
        return closed_form_quadratic_minimizer
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
    rng = np.random.default_rng(_check_count("seed", config.seed if seed is None else seed, 0))
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
    error: np.ndarray                 # (rows, horizon+1), ``out`` when given
    final_values: np.ndarray          # (rows, n)
    replacement_count: int
    max_replacement_shift: float
    update_mask: np.ndarray | None    # (rows, horizon) when collected


class _Rows:
    """One roster per row: only the drawn ``(rows, n)`` arrays ``theta`` and
    ``mu``; ``1/theta`` and the log-cosh weight are computed where read.

    Agent ``i`` of row ``r`` is flat index ``r * n + i`` of both arrays, so
    one flat ``take`` or ``put`` reaches any mix of rows and agents.
    """

    def __init__(self, config, theta, mu):
        self.budget, self.certificate = config.budget, config.certificate
        self.theta, self.mu = theta, mu

    def replace(self, at, theta, mu):
        """Give the agents at flat indices ``at`` the costs ``(theta, mu)``."""
        self.theta.put(at, theta)
        self.mu.put(at, mu)


class _QuadraticRows(_Rows):
    def gradient(self, at, x):
        return _quadratic_gradient(self.theta.take(at), self.mu.take(at), x)

    def minimizer(self, rows=slice(None)):
        return _quadratic_point(self.mu[rows], 1.0 / self.theta[rows], self.budget)[0]


class _LogCoshRows(_Rows):
    def gradient(self, at, x):
        theta = self.theta.take(at)
        weight = _logcosh_weight(self.certificate, theta)
        return _logcosh_gradient(theta, self.mu.take(at), weight, x)

    def minimizer(self, rows=slice(None)):
        theta = self.theta[rows]
        weight = _logcosh_weight(self.certificate, theta)
        return _logcosh_point(theta, self.mu[rows], weight, self.budget, self.certificate)[0]


@dataclass
class _ChunkSwaps:
    """One tape chunk's swaps in step-major order, solved ahead of its steps.

    The swaps of chunk step ``c`` are entries ``bounds[c]:bounds[c + 1]``.
    ``at`` is the flat index ``row * n + agent`` of the agent each swap
    replaces, ``theta`` and ``mu`` the new cost and ``moved`` the row's
    constrained minimizer after the swap.
    """

    bounds: list
    at: np.ndarray
    theta: np.ndarray
    mu: np.ndarray
    moved: np.ndarray
    max_shift: float


def _chunk_swaps(config, tape, swap, roster, xstar):
    """Read the swaps marked in ``swap`` (rows x chunk steps) off the tape
    and solve them ahead of the steps.

    Which rows swap, which agent leaves and what cost arrives depend on
    the tape alone, never on the iterate.  So the chunk's swaps are
    drawn with one quantile call on 1-D arrays and applied to ``roster``
    and its minimizers ``xstar`` in rounds: round ``j`` takes every
    row's ``j``-th swap of the chunk and solves those rows with one
    ``minimizer`` call.  A chunk costs as many solves as the most swaps
    any row has in it.  Once the chunk-sized swap mask is gone, what
    stays is ``(3 + n) * 8`` bytes per swap.
    """
    n = config.n
    step, rows = np.nonzero(swap.T)
    bounds = np.searchsorted(step, np.arange(swap.shape[1] + 1)).tolist()
    at = rows * n + (tape[rows, step, 2] * n).astype(np.intp)
    theta, mu = quadratic_quantiles(
        config.certificate, tape[rows, step, 3], tape[rows, step, 4]
    )
    moved = np.empty((rows.size, n))
    by_row = np.argsort(rows, kind="stable")   # each row's swaps in step order
    counts = np.bincount(rows, minlength=len(xstar))
    first = np.cumsum(counts) - counts
    del step, rows

    max_shift = 0.0
    row_index = np.arange(len(xstar))
    for j in range(int(counts.max(initial=0))):
        swapping = row_index[counts > j]
        sel = by_row[first[swapping] + j]
        roster.replace(at[sel], theta[sel], mu[sel])
        point = roster.minimizer(swapping)
        shift = _squared_distance(point, xstar[swapping])
        max_shift = max(max_shift, float(shift.max()))
        xstar[swapping] = point
        moved[sel] = point
    return _ChunkSwaps(bounds, at, theta, mu, moved, max_shift)


def _simulate_batch(config, seeds, collect_update_mask=False, out=None):
    """Lockstep simulation of many replications of a built-in family.

    Row ``r`` reproduces ``run_trajectory(config, seed=seeds[r])``
    exactly: the same uniforms feed the same arithmetic in the same
    order, only batched across rows.  Each step's errors are written
    into ``out``, a ``(len(seeds), horizon + 1)`` float64 array (for
    example rows of a larger matrix), or into a fresh array when it is
    omitted.

    The roster process does not depend on the iterate, so it is solved
    first, one tape chunk (``_TAPE_STEPS`` steps) at a time: the chunk's
    swaps are read off the tape and applied, in rounds of one swap per
    row, to a second copy of the rosters that runs ahead of the steps
    (:func:`_chunk_swaps`).  Each step then does three things: the pair
    updates, as one flat gather and one flat scatter on ``x``; the
    step's swaps, written into the rosters the gradients read together
    with their precomputed minimizers; and the error column.  What a
    batch holds in memory is stated in :func:`run_ensemble`.
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
    theta, mu = quadratic_quantiles(cert, init_u[..., 0], init_u[..., 1])
    del init_u
    roster = family(config, theta, mu)                # as of the current step
    ahead = family(config, theta.copy(), mu.copy())   # as of the chunk's end
    xstar = roster.minimizer()
    ahead_xstar = xstar.copy()
    x = _initial_point(config, (rows, n), lambda: xstar)
    flat_x = x.reshape(-1)

    error = np.empty((rows, horizon + 1)) if out is None else out
    error[:, 0] = _squared_distance(x, xstar)

    edges = np.stack(complete_graph_edges(n))
    edge_count = edges.shape[1]
    row_index = np.arange(rows)
    update_mask = np.empty((rows, horizon), dtype=bool) if collect_update_mask else None
    replacement_count = 0
    max_shift = 0.0

    for start in range(0, horizon, _TAPE_STEPS):
        steps = min(_TAPE_STEPS, horizon - start)
        for r, g in enumerate(gens):
            tape[r, :steps] = g.random((steps, 5))
        coin = tape[:, :steps, 0] < config.p_update   # True: a pair update
        if update_mask is not None:
            update_mask[:, start:start + steps] = coin
        swaps = _chunk_swaps(config, tape, ~coin, ahead, ahead_xstar)
        replacement_count += swaps.at.size
        max_shift = max(max_shift, swaps.max_shift)
        bounds = swaps.bounds

        for c in range(steps):
            urows = row_index[coin[:, c]]
            if urows.size:
                e = (tape[urows, c, 1] * edge_count).astype(np.intp)
                pair = edges.take(e, axis=1) + urows * n   # flat i (row 0) and j (row 1)
                xp = flat_x[pair]
                grad = roster.gradient(pair, xp)
                _pair_update(xp, 0, 1, grad[0], grad[1], config.h)
                flat_x[pair] = xp

            lo, hi = bounds[c], bounds[c + 1]
            if hi > lo:
                at = swaps.at[lo:hi]
                roster.replace(at, swaps.theta[lo:hi], swaps.mu[lo:hi])
                xstar[at // n] = swaps.moved[lo:hi]

            error[:, start + c + 1] = _squared_distance(x, xstar)
        del swaps  # before the next chunk's swaps are drawn

    return _BatchOutcome(error, x, replacement_count, max_shift, update_mask)


def _column_stats(error):
    """Column means and ``ddof=1`` standard deviations of ``error``,
    reduced in place: the matrix is consumed.

    The steps are ``np.mean`` and ``np.std(ddof=1)``'s own, in their
    order, so the bits are numpy's; one row gives its own values and a
    zero spread.  Errors are never negative, so ``rows * max**2`` bounds
    every sum; columns where that could overflow are first scaled by an
    exact power of two, and their statistics scaled back.
    """
    rows = error.shape[0]
    top = error.max(axis=0)
    shift = np.where(top > math.sqrt(np.finfo(float).max / (2 * rows)), np.frexp(top)[1], 0)
    if shift.any():
        np.ldexp(error, -shift, out=error)
    mean = error.sum(axis=0) / rows
    error -= mean
    error *= error
    std = np.sqrt(error.sum(axis=0) / max(rows - 1, 1))
    return np.ldexp(mean, shift), np.ldexp(std, shift)


def run_ensemble(config, replications=None, base_seed=None):
    """Run independent replications and aggregate the error curves.

    Replication ``r`` is seeded ``base_seed + r`` and reproduces the
    corresponding :func:`run_trajectory` exactly.  Both built-in families
    (quadratic and log-cosh) run through the vectorized batch engine in
    batches of ``_BATCH_ROWS`` rows, each writing its rows of one
    preallocated ``(replications, horizon + 1)`` error matrix.  From
    ``_POOL_MIN_AGENTS`` agents up the batches run on a thread pool of
    ``min(cpu_count, 8, batches)`` workers, otherwise on the calling
    thread; the rows a batch writes are fixed by its seeds, so the
    statistics never depend on scheduling.

    Each batch solves its rosters' swaps ahead of its steps, one tape
    chunk at a time, so a chunk costs as many minimizer calls as the
    most swaps any row has in it (see :func:`_simulate_batch`).

    Peak memory is about ``replications * (horizon + 1) * 8`` bytes for
    the matrix plus, per running batch, its random tape
    (``_BATCH_ROWS * _TAPE_STEPS * 5 * 8`` bytes), two copies of its
    rosters (``theta`` and ``mu``, ``2 * n * 8`` bytes per row each) and
    ``(3 + n) * 8`` bytes per swap of the current chunk.
    The mean and standard deviation are then reduced in place in the
    matrix (:func:`_column_stats`), which adds only a few columns.

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
    replications = _check_count(
        "replications", config.replications if replications is None else replications, 1
    )
    base_seed = _check_count("base_seed", config.seed if base_seed is None else base_seed, 0)

    error = np.empty((replications, config.horizon + 1))
    starts = range(0, replications, _BATCH_ROWS)

    def simulate(lo):
        hi = min(lo + _BATCH_ROWS, replications)
        return _simulate_batch(config, range(base_seed + lo, base_seed + hi), out=error[lo:hi])

    workers = 1
    if config.n >= _POOL_MIN_AGENTS:
        workers = min(os.cpu_count() or 1, 8, len(starts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(simulate, starts))
    else:
        outcomes = [simulate(lo) for lo in starts]
    replacement_count = sum(o.replacement_count for o in outcomes)
    max_shift = max((o.max_replacement_shift for o in outcomes), default=0.0)

    mean, std = _column_stats(error)
    halfwidth = Z95 * std / math.sqrt(replications)
    return ReplicationStats(mean, halfwidth, replications, replacement_count, max_shift)
