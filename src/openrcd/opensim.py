"""Open-system simulation: pair updates interleaved with agent swaps.

Each iteration is one of two events: with probability ``p_update`` a
uniformly chosen pair performs a coordinate-descent update; otherwise a
uniformly chosen agent has its cost replaced by a fresh draw (the
agent's estimate survives, the constrained minimizer moves).  The
tracked error is ``C_k = ||x_k - x*_k||^2`` against the minimizer of
the *current* roster.

Randomness is consumed in a canonical order so that runs are exactly
reproducible and batch execution matches sequential execution bit for
bit.  A run's seed and replication count are set in its config alone
(variants are built with ``dataclasses.replace``).  A trajectory seeded
``config.seed`` first draws two uniforms per agent for the initial
roster, then five uniforms per iteration (event coin, edge pick, agent
pick, theta quantile, mu quantile); draws not needed by the realized
event are discarded.  ``run_ensemble`` exploits this by simulating all
``config.replications`` replications of an experiment in either
built-in family (quadratic or log-cosh) in lockstep (:class:`_Batch`)
with vectorized arithmetic that is operation-for-operation identical to
the scalar path, because both call one copy of each formula:
``rcd._pair_update``, ``quadratic_quantiles``, ``functions._logcosh_weight``,
``allocation._quadratic_point``, ``allocation._logcosh_point`` (which
stops on ``allocation._solver_targets``), :func:`_initial_point` and
``allocation._squared_distance``; both end a run whose estimates or
minimizers are off the budget with ``allocation._check_feasible``, the
scalar path at every step and the batch engine at its start and once per
tape chunk.  Both paths simulate exactly the two built-in families: an
arrival is drawn from the family of the cost it replaces, and the
minimizer is tracked with that family's own solver.

The batch engine solves the roster process first.  Swaps are exogenous:
which agent leaves, what cost arrives and so where the minimizer moves
depend on the random tape alone, never on the iterate.  So each tape
chunk is drawn one block of rows at a time, keeping only the coin mask,
the edge picks and the swaps' uniforms (:meth:`_Batch.draw`), and then
solves its swaps (:func:`_chunk_swaps`): in row, then step order, cut
into blocks of whole rows by bytes, each swap's full roster is built by a
forward fill along its row's swaps, and a block's rosters are solved with
one minimizer call.  The step loop then only does the pair updates,
installs each swap's cost and precomputed minimizer, and records the
error.
Every per-worker buffer is sized from ``_CHUNK_BYTES``, and
:func:`_footprint` states what an ensemble holds from that construction.
"""

import math
import os
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .allocation import (
    Allocation,
    _agent_sum,
    _check_feasible,
    _logcosh_newton_minimizer,
    _logcosh_point,
    _quadratic_point,
    _squared_distance,
    closed_form_quadratic_minimizer,
)
# unused here, but bench/tracer.py wraps it as an attribute of this module
from .allocation import dual_bisection_minimizer  # noqa: F401
from .functions import (
    LogCoshQuadratic,
    QuadraticFunction,
    _cost_from_uniforms,
    _logcosh_gradient,
    _logcosh_weight,
    _quadratic_gradient,
    quadratic_quantiles,
)
from .rcd import (
    PairSelection,
    StepConfig,
    _edge_table,
    _pair_update,
    complete_graph_edges,
    rcd_pair_step,
)
from .rules import ConfigError, _check_agents, _check_probability

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

#: most replication rows simulated per vectorized batch (:func:`_batches`)
_BATCH_ROWS = 2048

#: most steps of random tape drawn at a time per row
_TAPE_STEPS = 256

#: bytes one worker's chunk may hold (:func:`_footprint`)
_CHUNK_BYTES = 4 * 2**20

#: bytes of random tape a batch draws at once, one block of rows
#: (:meth:`_Batch.draw`), 142 rows of ``fig1``'s 46-step chunks, and of each
#: ``(n, block)`` array a block of swaps is solved in (:func:`_chunk_swaps`);
#: tape blocks of 128 KiB to 1 MiB ran ``fig1`` equally fast
_FILL_BYTES = _CHUNK_BYTES // 16

#: agent count from which batches run on a thread pool; below it the
#: per-step numpy calls are too small for threads to beat one thread
_POOL_MIN_AGENTS = 64

#: bytes a row's generator holds, ``PCG64`` and ``Generator``, with headroom:
#: measured 588 traced and 572 RSS bytes a row (numpy 2.4, x86-64), all
#: rows' generators sharing one seed-words object
_GENERATOR_BYTES = 1024

#: agent-major ``(n, block)`` arrays one worker holds at once while it
#: solves a block of swaps (:func:`_chunk_swaps`): the block's rosters and
#: a batched log-cosh solve's; traced peaks past the chunk's swaps were at
#: most 18.4 log-cosh and 7.1 quadratic, n = 5 to 1024 (``p_update`` 0 or
#: 0.95, 64 or 1024 rows)
_WORKER_ARRAYS = 19

#: bytes per step of a run's step-indexed outputs: a trajectory's four
#: columns and event log, or an ensemble's statistics, with the CLI's columns
_STEP_BYTES = 96


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
        n = _check_agents("n", n)
        return 2.0 * self.p_update / (n * (n - 1))

    def agent_probability(self, n):
        """Chance a given agent is replaced this iteration: ``p_R / n``."""
        return self.p_replace / _check_agents("n", n, 1)


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


def _solver_for(family):
    if family == "quadratic":
        return closed_form_quadratic_minimizer
    return _logcosh_newton_minimizer


def _initial_point(config, rows, minimizer):
    """The configured starting estimates, agents on axis 0: an ``(n,)``
    array for one roster (``rows=()``), ``(n, rows)`` for a batch.

    ``minimizer`` is a zero-argument callable returning the roster's
    constrained minimizer; it is only called for the ``"minimizer"`` start.
    """
    if config.initial_state == "uniform_budget":
        fill = config.budget / config.n
    elif config.initial_state == "minimizer":
        fill = minimizer()
    else:
        fill = np.reshape(config.initial_state, (config.n,) + (1,) * len(rows))
    return np.full((config.n, *rows), fill, dtype=np.float64)


def initial_system_state(config, rng):
    """Draw the starting roster and build the configured initial point.

    Consumes exactly ``2 n`` uniforms from ``rng`` (theta and mu
    quantiles per agent, in agent order).  The family's own solver, the
    one :func:`run_trajectory` tracks the minimizer with, gives the
    ``"minimizer"`` start, so that start is exact.
    """
    cert = config.certificate
    family = config.function_family
    roster = tuple(
        _cost_from_uniforms(family, cert, u_theta, u_mu)
        for u_theta, u_mu in rng.random((config.n, 2))
    )
    solve = _solver_for(family)
    x0 = _initial_point(config, (), lambda: solve(roster, config.budget).point.values)
    return SystemState(Allocation(x0, config.budget), roster)


#: the built-in family of each cost class :func:`step` can replace
_FAMILY_OF = {QuadraticFunction: "quadratic", LogCoshQuadratic: "logcosh_quadratic"}


def step(state, schedule, rng, step_config=None):
    """Advance the open system by one iteration.

    Consumes exactly five uniforms from ``rng`` regardless of the
    realized event (unused draws are discarded).  An arrival is drawn
    from the built-in family of the cost it replaces.

    Parameters
    ----------
    state : SystemState
    schedule : EventSchedule
    rng : numpy.random.Generator
    step_config : StepConfig, optional
        Defaults to ``h = 1/beta`` for the roster's certificate.

    Returns
    -------
    (SystemState, tuple)
        The new state and the realized event, either
        ``("update", i, j)`` or ``("replace", agent)``.

    Raises
    ------
    ValueError
        If the replaced cost belongs to neither built-in family.
    """
    if step_config is None:
        step_config = StepConfig.default(state.certificate.beta)
    u = rng.random(5)
    n = state.n
    if u[0] < schedule.p_update:
        ei, ej = complete_graph_edges(n)
        e = int(u[1] * ei.size)
        sel = PairSelection(int(ei[e]), int(ej[e]))
        after = rcd_pair_step(state.allocation, state.roster, sel, step_config)
        return SystemState(after, state.roster), ("update", sel.i, sel.j)
    agent = int(u[2] * n)
    leaving = state.roster[agent]
    family = _FAMILY_OF.get(type(leaving))
    if family is None:
        raise ValueError(
            f"agent {agent} holds a {type(leaving).__name__}; only a "
            "QuadraticFunction or a LogCoshQuadratic can be replaced"
        )
    fresh = _cost_from_uniforms(family, state.certificate, u[3], u[4])
    roster = state.roster[:agent] + (fresh,) + state.roster[agent + 1:]
    return SystemState(state.allocation, roster), ("replace", agent)


def _batches(config, replications):
    """How :func:`run_ensemble` splits its replications: ``(count, rows,
    workers)``.

    ``count`` batches of equal size, ``rows`` the widest, as few as keep
    every batch within ``_BATCH_ROWS`` rows; they run on ``workers``
    threads.  From ``_POOL_MIN_AGENTS`` agents up the pool has
    ``min(cpu_count, 8)`` threads, and a run is split over up to that many
    batches of about ``_BATCH_ROWS // 2`` rows or more, so that a run past
    ``_BATCH_ROWS // 2`` rows keeps its pool (``wide`` runs as 2 x 1024
    rows on two or more cores) and a smaller one stays one batch on one
    thread; below it one thread runs every batch.
    """
    threads = 1 if config.n < _POOL_MIN_AGENTS else min(os.cpu_count() or 1, 8)
    count = max(-(-replications // _BATCH_ROWS),
                min(threads, -(-replications // (_BATCH_ROWS // 2))))
    return count, -(-replications // count), min(threads, count)


def _chunk_length(config, rows):
    """Steps per tape chunk for batches of ``rows`` rows, and the bytes it
    budgets per step: each row's five uniforms and, per expected swap, what
    :func:`_chunk_swaps` keeps of it, eight words (three uniforms, agent,
    ``theta``, ``mu``, place and order) and its ``(n,)`` minimizer.  A chunk
    is as long as fits in ``_CHUNK_BYTES``, one to ``_TAPE_STEPS`` steps.
    The uniforms are counted whole although a batch keeps only its coin
    mask, complement and edge picks (3 to 6 bytes a cell,
    :meth:`_Batch.draw`), which keeps chunks short and so the shared error
    block small; that block is left out, or very large ensembles would run
    one-step chunks."""
    step_bytes = rows * 5 * 8 + rows * (1.0 - config.p_update) * (8 + config.n) * 8
    fits = int(_CHUNK_BYTES // step_bytes)
    return min(config.horizon, max(1, min(_TAPE_STEPS, fits))), step_bytes


def _footprint(config, replications):
    """The bytes :func:`run_ensemble` states it holds, ``(by_rows, by_steps)``;
    the simulator's one account of its memory.

    - per row: ``(chunk + 1) * 8`` for its row of the shared error block,
      ``_GENERATOR_BYTES`` for its generator, and ``5 * n * 8`` for its
      :class:`_Batch` columns (``theta``, ``mu``, ``x``, ``xstar``, scratch);
    - per worker: ``2 * _FILL_BYTES`` for the block of uniforms it draws
      into and that block's masks and picks, ``chunk * step_bytes``
      (:func:`_chunk_length` at the widest batch :func:`_batches` builds)
      for a chunk's cells and swaps, and
      ``_WORKER_ARRAYS`` ``(n, block)`` arrays while it solves a block of
      swaps; :func:`_chunk_swaps` cuts blocks to ``_FILL_BYTES`` unless one
      row's swaps, at most ``chunk``, are more;
    - once: ``n (n - 1) * 8`` for the shared edge table;
    - per step: ``_STEP_BYTES``; every chunk is reduced before the next.
    """
    n = config.n
    _, rows, workers = _batches(config, replications)
    chunk, step_bytes = _chunk_length(config, rows)
    row_bytes = (chunk + 1) * 8 + _GENERATOR_BYTES + 5 * n * 8
    worker_bytes = (2 * _FILL_BYTES + chunk * step_bytes
                    + _WORKER_ARRAYS * max(_FILL_BYTES, 8 * n * chunk))
    by_rows = replications * row_bytes + n * (n - 1) * 8 + workers * worker_bytes
    return by_rows, (config.horizon + 1) * _STEP_BYTES


def _check_footprint(config, replications=None):
    """Refuse a run whose stated footprint (:func:`_footprint`) exceeds
    physical memory.

    The :class:`ConfigError` names ``replications`` or ``horizon``,
    whichever part is larger.  Platforms that do not report their
    physical memory are not checked.
    """
    replications = config.replications if replications is None else replications
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    by_rows, by_steps = _footprint(config, replications)
    if by_rows + by_steps > memory:
        raise ConfigError(
            "replications" if by_rows >= by_steps else "horizon",
            f"{replications} replications of {config.horizon} steps need about "
            f"{(by_rows + by_steps) / 2**30:.3g} GiB, more than the "
            f"{memory / 2**30:.3g} GiB of physical memory",
        )


def _roster_value(roster, values):
    return math.fsum(f.value(v) for f, v in zip(roster, values))


def run_trajectory(config):
    """Simulate one run, seeded ``config.seed``, and log it per iteration.

    The minimizer is tracked with the family's own solver: the closed
    form for quadratic rosters, the log-cosh Newton solve otherwise.

    Parameters
    ----------
    config : ExperimentConfig

    Returns
    -------
    TrajectoryRecord
        Arrays of length ``horizon + 1``; row 0 is the initial state
        with event ``"init"``.  ``error`` is ``||x_k - x*_k||^2``,
        ``suboptimality`` the roster-value gap to the constrained
        minimizer, and ``minimizer_shift`` the squared minimizer jump
        (zero except on replacement rows).
    """
    rng = np.random.default_rng(config.seed)
    _check_footprint(config, 1)
    schedule = EventSchedule(config.p_update)
    step_config = StepConfig(config.h, config.beta)
    solver = _solver_for(config.function_family)
    state = initial_system_state(config, rng)

    horizon = config.horizon
    events = ["init"]
    error = np.empty(horizon + 1)
    subopt = np.empty(horizon + 1)
    shift = np.zeros(horizon + 1)
    xstar = solver(state.roster, config.budget).point.values

    for k in range(horizon + 1):
        if k:
            state, event = step(state, schedule, rng, step_config)
            events.append(event[0])
            if event[0] == "replace":
                moved = solver(state.roster, config.budget).point.values
                shift[k] = _squared_distance(moved, xstar)
                xstar = moved
        values = state.allocation.values
        error[k] = _squared_distance(values, xstar)
        subopt[k] = _roster_value(state.roster, values) - _roster_value(state.roster, xstar)
    return TrajectoryRecord(np.arange(horizon + 1), tuple(events), error, subopt, shift, state)


#: numpy's ``SeedSequence`` hash constants (``numpy/random/bit_generator.pyx``)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4


def _row_generators(seeds):
    """``np.random.default_rng(seed)`` for every seed, hashed in one pass.

    ``default_rng(seed)`` is ``Generator(PCG64(SeedSequence(seed)))``, and
    ``PCG64`` reads only ``SeedSequence(seed).generate_state(4, uint64)``.
    That hash is fixed ``uint32`` arithmetic on the seed's 32-bit words
    whose constants do not depend on the seed, so here it runs on every
    seed at once: the entropy pool's ``hashmix``/``mix``, the words past
    the pool's four (seeds from ``2**128`` on), then ``generate_state``.
    ``run_trajectory`` still calls ``default_rng``, the reference that
    the bitwise engine tests hold this to.
    """
    # numpy.random loads here, at the first batch, as default_rng would
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """One seed sequence for all the rows: each ``PCG64`` it seeds
        reads the next row's precomputed state words, and every generator
        keeps this one object rather than one of its own."""

        def __init__(self, words):
            self.rows = iter(words)

        def generate_state(self, n_words, dtype=np.uint32):
            return next(self.rows)

    seeds = [int(s) for s in seeds]
    if min(seeds, default=0) < 0:
        raise ValueError("seeds must be non-negative")
    width = max(_POOL_WORDS, -(-max(seeds, default=0).bit_length() // 32))
    raw = b"".join(s.to_bytes(4 * width, "little") for s in seeds)
    words = np.frombuffer(raw, "<u4").reshape(len(seeds), width).T.astype(np.uint32, order="C")
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    # a seed shorter than the pool hashes zeros in its place
    pool = [hashmix(w) for w in words[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_WORDS, width):
        has_word = np.array([s >> 32 * src > 0 for s in seeds])
        for dst in range(_POOL_WORDS):
            pool[dst] = np.where(has_word, mix(pool[dst], hashmix(words[src])), pool[dst])

    const = _INIT_B
    state = []
    for i in range(2 * _POOL_WORDS):
        value = pool[i % _POOL_WORDS] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state.append(value ^ (value >> _XSHIFT))
    state = np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)
    words = StateWords(state)
    return [np.random.Generator(np.random.PCG64(words)) for _ in seeds]


def _block_rosters(batch, at, theta, mu, lead):
    """The roster after each of a block's swaps, ``(theta, mu)`` as
    C-contiguous ``(n, swaps)`` arrays.  The swaps are whole rows in row,
    then step order; ``at``, ``theta`` and ``mu`` are as
    :func:`_chunk_swaps` decodes them, and ``lead[s]`` is the position
    of the first swap of swap ``s``'s row.

    A segmented forward fill: each swap's position goes in its agent's
    entry, ``maximum.accumulate`` carries it along the swaps, and entries
    still before their row's first swap keep the batch's roster as of the
    chunk's start.
    """
    n, batch_rows = batch.theta.shape
    agent, row = np.divmod(at, batch_rows)
    cols = np.arange(at.size)
    latest = np.full((n, at.size), -1, dtype=np.intp)
    latest[agent, cols] = cols
    np.maximum.accumulate(latest, axis=1, out=latest)
    fresh = latest >= lead
    return [np.where(fresh, drawn.take(latest), start.take(row, axis=1))
            for start, drawn in ((batch.theta, theta), (batch.mu, mu))]


def _chunk_swaps(batch, swap, drawn):
    """Solve a tape chunk's swaps ahead of its steps.

    ``swap`` is the chunk's ``(steps, rows)`` mask of swaps and ``drawn``
    their ``(swaps, 3)`` uniforms (agent pick, theta and mu quantiles) in
    row, then step order, as :meth:`_Batch.draw` keeps them.  Returns
    ``(bounds, at, theta, mu, moved, max_shift)``, the swaps in step-major
    order: those of chunk step ``c`` are entries ``bounds[c]:bounds[c +
    1]``; ``at`` is the flat index ``agent * rows + row`` of the agent each
    swap replaces, ``theta`` and ``mu`` the new cost, column ``s`` of the
    ``(n, swaps)`` array ``moved`` the row's constrained minimizer after
    swap ``s``, and ``max_shift`` the largest squared shift.

    Which rows swap, which agent leaves and what cost arrives depend on
    the tape alone, never on the iterate.  So the swaps are decoded with
    one quantile call and, still in row order, cut into blocks of whole
    rows whose ``(n, block)`` float64 array fits in ``_FILL_BYTES`` (a row
    with more swaps is a block of its own), each a slice.  Each block
    builds the roster after every one of its swaps (:func:`_block_rosters`)
    and solves them all with one ``batch.minimizer`` call, so a chunk costs
    one solve per block; the batch is only read.  Each swap's shift is
    measured against its row's previous swap, or ``xstar`` for the row's
    first.  The minimizers are written to their step-major columns as they
    are solved, and the costs are put in step order last.
    """
    n, batch_rows = batch.xstar.shape
    cell = np.flatnonzero(swap)   # step * rows + row of each swap, in step order
    bounds = np.searchsorted(cell, np.arange(swap.shape[0] + 1) * batch_rows).tolist()
    # each swap's step-major position, listed in row order: a stable argsort
    # of 8- or 16-bit keys is a radix sort
    row = (cell % batch_rows).astype(np.min_scalar_type(batch_rows - 1))
    place = np.argsort(row, kind="stable")
    counts = np.bincount(row, minlength=batch_rows)   # each row's swaps
    del cell, row
    at = (drawn[:, 0] * n).astype(np.intp) * batch_rows
    at += np.repeat(np.arange(batch_rows), counts)
    theta, mu = quadratic_quantiles(batch.certificate, drawn[:, 1], drawn[:, 2])
    moved = np.empty((n, at.size))
    swapping = np.flatnonzero(counts)
    counts = counts[swapping]
    starts = np.concatenate(([0], np.cumsum(counts)))   # each swapping row's first swap

    cap = max(1, _FILL_BYTES // (8 * n))   # swaps whose (n, block) array fits
    max_shift = 0.0
    first = 0   # the block's first row, an index into swapping
    while first < swapping.size:
        lo = starts[first]
        last = max(first + 1, int(np.searchsorted(starts, lo + cap, "right")) - 1)
        block = slice(lo, starts[last])
        heads = starts[first:last] - lo
        lead = np.repeat(heads, counts[first:last])
        point = batch.minimizer(*_block_rosters(batch, at[block], theta[block], mu[block], lead))
        previous = np.empty_like(point)
        previous[:, 1:] = point[:, :-1]
        previous[:, heads] = batch.xstar.take(swapping[first:last], axis=1)
        max_shift = max(max_shift, float(_squared_distance(point, previous, previous).max()))
        moved[:, place[block]] = point
        first = last
    order = np.empty_like(place)
    order[place] = np.arange(place.size)
    at = at.take(order)
    theta = theta.take(order)
    mu = mu.take(order)
    return bounds, at, theta, mu, moved, max_shift


class _Batch:
    """Lockstep simulation of many replications of a built-in family,
    resumable between tape chunks: the one holder of their state.

    Row ``r`` reproduces ``run_trajectory(replace(config, seed=seeds[r]))``
    exactly: the same uniforms, from generators seeded in one pass
    (:func:`_row_generators`), feed the same arithmetic in the same order.
    The rosters (only the drawn ``theta`` and ``mu``), the estimates ``x``
    and the minimizers ``xstar`` are agent-major ``(n, rows)`` arrays:
    agent ``i`` of row ``r`` is flat index ``i * rows + r``, so one flat
    ``take`` or ``put`` reaches any mix of rows and agents, and each agent
    sum adds whole rows in agent order (``allocation._agent_sum``), as the
    scalar path adds one roster.  :func:`_footprint` states what it holds.
    """

    def __init__(self, config, seeds):
        self.config = config
        self.budget, self.certificate = config.budget, config.certificate
        self.logcosh = config.function_family != "quadratic"
        self.gens = _row_generators(seeds)
        rows = self.rows = len(self.gens)
        init_u = np.empty((rows, config.n, 2))
        for g, u in zip(self.gens, init_u):
            g.random(out=u)
        init_u = np.ascontiguousarray(init_u.transpose(2, 1, 0))   # (2, n, rows)
        self.theta, self.mu = quadratic_quantiles(self.certificate, init_u[0], init_u[1])
        del init_u
        self.xstar = self.minimizer(self.theta, self.mu)
        self.x = _initial_point(config, (rows,), lambda: self.xstar)
        self.check_feasible(self.xstar, self.x)
        self.scratch = np.empty_like(self.x)
        self.replacement_count = 0
        self.max_replacement_shift = 0.0

    def gradient(self, at, x):
        """The gradients at ``x`` of the agents at flat indices ``at``."""
        theta, mu = self.theta.take(at), self.mu.take(at)
        if self.logcosh:
            return _logcosh_gradient(theta, mu, _logcosh_weight(self.certificate, theta), x)
        return _quadratic_gradient(theta, mu, x)

    def minimizer(self, theta, mu):
        """The constrained minimizers of the family's rosters given as
        C-contiguous ``(n, k)`` arrays, such as columns gathered from these."""
        if self.logcosh:
            weight = _logcosh_weight(self.certificate, theta)
            return _logcosh_point(theta, mu, weight, self.budget, self.certificate)[0]
        return _quadratic_point(mu, 1.0 / theta, self.budget)[0]

    def check_feasible(self, *arrays):
        """Raise the ``FeasibilityError`` the scalar path's ``Allocation``
        raises (``allocation._check_feasible``) if a column of these
        ``(n, k)`` estimates or minimizers is off the budget, its agents
        added in order as ``Allocation`` adds them."""
        gaps = [np.abs(_agent_sum(a) - self.budget).max() for a in arrays if a.shape[1]]
        _check_feasible(float(np.max(gaps, initial=0.0)), self.budget)

    def error(self):
        """Every row's ``||x - x*||^2`` at the current step."""
        return _squared_distance(self.x, self.xstar, self.scratch)

    def draw(self, steps):
        """Draw the next ``steps`` steps of every row's uniforms and keep
        what the step loop reads: ``(coin, picks, drawn)``.

        The uniforms go into a scratch of about ``_FILL_BYTES``, one block
        of rows at a time, one row's steps per ``Generator.random`` call;
        consecutive calls continue one stream exactly, so any chunk length
        or block draws the same uniforms.  ``coin`` (True for a pair
        update) and ``picks`` (each cell's edge pick, read where ``coin``
        holds, in the smallest unsigned type that holds every edge index)
        are ``(steps, rows)``, so each step reads one contiguous row of
        both; ``drawn`` holds each swap's three uniforms, in row, then
        step order.
        """
        rows = self.rows
        edge_count = _edge_table(self.config.n).shape[1]
        coin = np.empty((steps, rows), dtype=bool)
        picks = np.empty((steps, rows), dtype=np.min_scalar_type(edge_count - 1))
        drawn = []
        fill = max(1, _FILL_BYTES // (steps * 5 * 8))
        tape = np.empty((min(fill, rows), steps, 5))
        for lo in range(0, rows, fill):
            part = tape[:rows - lo]
            hi = lo + len(part)
            for g, row in zip(self.gens[lo:hi], part):
                g.random(out=row)
            hit = part[:, :, 0] < self.config.p_update
            coin[:, lo:hi] = hit.T
            picks[:, lo:hi] = (part[:, :, 1] * edge_count).astype(picks.dtype).T
            drawn.append(part[~hit, 2:])
        return coin, picks, np.concatenate(drawn)

    def advance(self, out):
        """Run the next ``steps = out.shape[1]`` steps, one tape chunk.

        The chunk's uniforms are drawn first (:meth:`draw`) and its swaps
        solved (:func:`_chunk_swaps`).  Each step then does its pair
        updates, one flat gather and scatter on ``x`` indexed from the
        shared edge table (``rcd._edge_table``); installs its swaps' costs
        and precomputed minimizers; and writes its error column to ``out[:,
        c]``.  Last, :meth:`check_feasible` measures every row's estimates
        and every minimizer solved in the chunk, so a run the scalar path
        stops on its budget stops here too, by the chunk's end.  Returns
        the ``(steps, rows)`` mask of pair updates.
        """
        config, rows, steps = self.config, self.rows, out.shape[1]
        coin, picks, drawn = self.draw(steps)
        bounds, at, theta, mu, moved, max_shift = _chunk_swaps(self, ~coin, drawn)
        del drawn
        self.replacement_count += at.size
        self.max_replacement_shift = max(self.max_replacement_shift, max_shift)

        x, xstar, scratch = self.x, self.xstar, self.scratch
        edges = _edge_table(config.n)
        flat_x = x.reshape(-1)
        row_index = np.arange(rows)
        for c in range(steps):
            urows = row_index[coin[c]]
            if urows.size:
                pair = edges.take(picks[c, urows], axis=1)   # i (row 0) and j (row 1)
                pair *= rows
                pair += urows                  # their flat indices in x
                xp = flat_x[pair]
                grad = self.gradient(pair, xp)
                _pair_update(xp, 0, 1, grad[0], grad[1], config.h)
                flat_x[pair] = xp

            lo, hi = bounds[c], bounds[c + 1]
            if hi > lo:
                agents = at[lo:hi]
                self.theta.put(agents, theta[lo:hi])
                self.mu.put(agents, mu[lo:hi])
                xstar[:, agents % rows] = moved[:, lo:hi]

            out[:, c] = _squared_distance(x, xstar, scratch)
        self.check_feasible(x, moved)
        return coin


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


def run_ensemble(config):
    """Run ``config.replications`` independent replications and aggregate
    the error curves.

    Replication ``r`` is seeded ``config.seed + r``: it reproduces
    ``run_trajectory(replace(config, seed=config.seed + r))`` exactly.
    Both built-in families (quadratic and log-cosh) run through the
    vectorized batch engine (:class:`_Batch`) in the even batches of at
    most ``_BATCH_ROWS`` rows that :func:`_batches` gives.  The horizon
    runs one tape chunk at a time, its length set once per run by
    :func:`_chunk_length` for the widest batch: every batch advances by
    the chunk and writes its rows of one shared ``(replications, chunk + 1)`` block, whose
    column 0 carries the previous chunk's last column, and the block's
    columns are then reduced into the mean and standard deviation
    (:func:`_column_stats`).  numpy adds axis 0 of a row-major block of
    two or more columns row after row, so every statistic has the bits it
    would have from the full ``(replications, horizon + 1)`` matrix; the
    carried column keeps a one-step last chunk at two columns.  The
    batches run on the threads :func:`_batches` gives, one pool task per
    batch and chunk, so a thread holds one batch's chunk buffers at a
    time; the rows a batch writes are fixed by its seeds, so the
    statistics never depend on scheduling; only a pooled run imports
    ``concurrent.futures``.  A run whose stated footprint
    (:func:`_footprint`) exceeds physical memory is refused before any
    batch is built.

    Parameters
    ----------
    config : ExperimentConfig

    Returns
    -------
    ReplicationStats
        ``mean_error[k]`` estimates ``E[C_k]``; ``ci_halfwidth`` holds
        95% normal-approximation half-widths (zero when only one
        replication ran).
    """
    replications, seed = config.replications, config.seed
    _check_footprint(config)

    horizon = config.horizon
    count, rows, workers = _batches(config, replications)
    chunk = _chunk_length(config, rows)[0]
    block = np.empty((replications, chunk + 1))
    mean, std = np.empty(horizon + 1), np.empty(horizon + 1)
    bounds = [b * replications // count for b in range(count + 1)]
    starts = bounds[:-1]

    def begin(lo, hi):
        batch = _Batch(config, range(seed + lo, seed + hi))
        block[lo:hi, 0] = batch.error()
        return batch

    def advance(lo, batch, steps):
        batch.advance(block[lo:lo + batch.rows, 1:steps + 1])

    with ExitStack() as stack:
        run = map
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor   # only pooled runs load it
            run = stack.enter_context(ThreadPoolExecutor(max_workers=workers)).map
        batches = list(run(begin, starts, bounds[1:]))
        if not horizon:
            mean, std = _column_stats(block)
        for start in range(0, horizon, max(chunk, 1)):
            steps = min(chunk, horizon - start)
            list(run(advance, starts, batches, repeat(steps)))
            carry = block[:, steps].copy()   # _column_stats consumes the block
            columns = slice(start, start + steps + 1)
            mean[columns], std[columns] = _column_stats(block[:, :steps + 1])
            block[:, 0] = carry
    replacement_count = sum(b.replacement_count for b in batches)
    max_shift = max(b.max_replacement_shift for b in batches)

    halfwidth = Z95 * std / math.sqrt(replications)
    return ReplicationStats(mean, halfwidth, replications, replacement_count, max_shift)
