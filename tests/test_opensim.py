import concurrent.futures
import copy
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from batch_reference import _simulate_batch
from openrcd import allocation, rcd
from openrcd.allocation import (
    Allocation,
    FeasibilityError,
    NonConvergenceError,
    _logcosh_newton_minimizer,
    closed_form_quadratic_minimizer,
    dual_bisection_minimizer,
)
from openrcd.cli import main
from openrcd.config import ConfigError, ExperimentConfig
from openrcd.functions import (
    ConvexityCertificate,
    GeneralSmoothFunction,
    LogCoshQuadratic,
    QuadraticFunction,
    _cost_from_uniforms,
    make_logcosh_quadratic,
    make_quadratic,
)

import openrcd.opensim as opensim
from openrcd.opensim import (
    Z95,
    _POOL_MIN_AGENTS,
    _TAPE_STEPS,
    EventSchedule,
    SystemState,
    _column_stats,
    _row_generators,
    initial_system_state,
    run_ensemble,
    run_trajectory,
    step,
)


def fig1_config(**overrides):
    base = dict(
        n=5, alpha=1.0, beta=1.2, budget=1.0, p_update=0.95,
        horizon=200, replications=1, seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def logcosh_config(**overrides):
    base = dict(alpha=0.5, beta=6.0, function_family="logcosh_quadratic")
    base.update(overrides)
    return fig1_config(**base)


def test_event_schedule_probabilities():
    s = EventSchedule(0.95)
    assert s.p_replace == pytest.approx(0.05)
    assert s.edge_probability(5) == pytest.approx(2 * 0.95 / 20)
    assert s.agent_probability(5) == pytest.approx(0.05 / 5)


@pytest.mark.parametrize("method, n", [
    ("edge_probability", 1),
    ("edge_probability", 2.5),
    ("edge_probability", 1025),
    ("agent_probability", 0),
    ("agent_probability", 2.5),
])
def test_event_schedule_names_a_bad_agent_count(method, n):
    with pytest.raises(ConfigError) as err:
        getattr(EventSchedule(0.95), method)(n)
    assert err.value.key == "n"


def test_initial_state_modes():
    cfg = fig1_config(initial_state="uniform_budget")
    st = initial_system_state(cfg, np.random.default_rng(0))
    assert np.allclose(st.allocation.values, 0.2)

    cfg = fig1_config(initial_state="minimizer")
    st = initial_system_state(cfg, np.random.default_rng(0))
    grads = [f.gradient(v) for f, v in zip(st.roster, st.allocation.values)]
    assert np.ptp(grads) < 1e-8

    cfg = fig1_config(initial_state=(0.5, 0.5, 0.0, 0.0, 0.0))
    st = initial_system_state(cfg, np.random.default_rng(0))
    assert np.array_equal(st.allocation.values, [0.5, 0.5, 0.0, 0.0, 0.0])


def test_initial_state_consumes_two_uniforms_per_agent():
    cfg = fig1_config()
    r1 = np.random.default_rng(9)
    r2 = np.random.default_rng(9)
    initial_system_state(cfg, r1)
    r2.random(2 * cfg.n)
    assert r1.random() == r2.random()


def test_step_event_shapes():
    cfg = fig1_config()
    rng = np.random.default_rng(1)
    state = initial_system_state(cfg, rng)
    saw_update = saw_replace = False
    for _ in range(200):
        before = state.allocation.values
        roster_before = state.roster
        state, event = step(state, EventSchedule(cfg.p_update), rng)
        if event[0] == "update":
            saw_update = True
            assert state.roster is roster_before
        else:
            saw_replace = True
            agent = event[1]
            # a replacement leaves every estimate bit-identical
            assert np.array_equal(state.allocation.values, before)
            assert state.roster[agent] is not roster_before[agent]
    assert saw_update and saw_replace


def test_trajectory_matches_batch_engine_bitwise():
    for cfg, seed in [
        (fig1_config(), 123),
        (fig1_config(n=3, horizon=150, budget=-2.0, p_update=0.8), 7),
        # past numpy's 8-wide pairwise-sum unroll, over a tape-chunk boundary
        (fig1_config(n=12, horizon=_TAPE_STEPS + 45, p_update=0.8), 11),
        (fig1_config(n=_POOL_MIN_AGENTS, horizon=120, p_update=0.9,
                     initial_state="minimizer"), 5),
        (fig1_config(n=9, horizon=80, p_update=0.7,
                     initial_state=(1.0, -0.5, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0)), 3),
        (logcosh_config(), 123),
        (logcosh_config(n=12, horizon=_TAPE_STEPS + 45, p_update=0.8, beta=40.0), 11),
        (logcosh_config(n=7, horizon=150, p_update=0.7, budget=-3.0,
                        initial_state="minimizer"), 5),
        (logcosh_config(n=9, horizon=80, p_update=0.7,
                        initial_state=(1.0, -0.5, 0.25, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0)), 3),
        # agent-major sums: one row is an (n, 1) column and a block may
        # hold one swap of a crowd, where numpy's own axis-0 sum is pairwise
        (fig1_config(n=200, horizon=_TAPE_STEPS + 45, p_update=0.8), 13),
        (logcosh_config(n=200, horizon=_TAPE_STEPS + 45, p_update=0.8), 13),
        # swap-heavy two-agent rosters: a row's many swaps in a chunk each
        # fill its roster forward from the swap before
        (fig1_config(n=2, horizon=_TAPE_STEPS + 45, p_update=0.3), 17),
        (logcosh_config(n=2, horizon=_TAPE_STEPS + 45, p_update=0.3), 17),
    ]:
        rec = run_trajectory(replace(cfg, seed=seed))
        out = _simulate_batch(cfg, np.array([seed]))
        assert np.array_equal(rec.error, out.error[0])
        assert np.array_equal(rec.final_state.allocation.values, out.final_values[0])
        assert out.max_replacement_shift == float(rec.minimizer_shift.max())
        # a row's result does not depend on the rows simulated beside it
        crowd = _simulate_batch(cfg, np.arange(seed - 3, seed + 4))
        assert np.array_equal(crowd.error[3], out.error[0])
        trio = _simulate_batch(cfg, range(seed - 1, seed + 2))
        assert np.array_equal(trio.error[1], out.error[0])
        assert np.array_equal(trio.final_values[1], out.final_values[0])


@pytest.mark.parametrize("seeds", [
    [0, 1, 2**32 - 1, 2**32, 2**63, 2**64, 2**128 - 1, 2**128, 2**200],
    range(40, 45),
    np.arange(7, 12),
    np.array([123]),
])
def test_row_generators_draw_the_default_rng_streams(seeds):
    # 2**128 and up have more than four 32-bit words, which SeedSequence
    # mixes into its pool in a loop of their own
    gens = _row_generators(seeds)
    assert len(gens) == len(seeds)
    for seed, g in zip(seeds, gens):
        assert np.array_equal(g.random(9), np.random.default_rng(int(seed)).random(9))


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.one_of(st.integers(0, 2**64), st.integers(0, 2**300)),
                      min_size=1, max_size=6))
def test_row_generators_hash_any_seed_as_default_rng_does(seeds):
    for seed, g in zip(seeds, _row_generators(seeds)):
        assert np.array_equal(g.random(5), np.random.default_rng(seed).random(5))


def test_row_generators_refuse_a_negative_seed_as_default_rng_does():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        _row_generators([3, -1])


def _off_budget(mp, formula, budget):
    """Patch one shared formula, under the name each engine calls it by, to
    put its output four feasibility tolerances off the budget: the pair
    update (the estimates) or the quadratic closed form (the minimizers)."""
    off = 4.0 * allocation._feasibility_tol(budget)
    if formula == "pair_update":
        real, modules = rcd._pair_update, (rcd, opensim)

        def patched(v, i, j, gi, gj, h):
            real(v, i, j, gi, gj, h)
            v[i] += off
    else:
        real, modules = allocation._quadratic_point, (allocation, opensim)

        def patched(mu, inv_theta, budget):
            x, t = real(mu, inv_theta, budget)
            return x + off, t
    for module in modules:
        mp.setattr(module, "_" + formula, patched)


@settings(max_examples=60, deadline=None)
@example(family="logcosh_quadratic", n=5, alpha=1.0, kappa=2.0, budget=1e9, p_update=0.5,
         initial_state="uniform_budget", tape_steps=7, seed=3, off_budget="pair_update")
@example(family="quadratic", n=5, alpha=1.0, kappa=2.0, budget=-3.0, p_update=0.5,
         initial_state="uniform_budget", tape_steps=7, seed=3, off_budget="quadratic_point")
@given(
    family=st.sampled_from(["quadratic", "logcosh_quadratic"]),
    n=st.integers(2, 12),
    alpha=st.floats(1e-2, 1e2),
    kappa=st.floats(1.0, 1e3),
    budget=st.floats(-1e9, 1e9),
    p_update=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    initial_state=st.sampled_from(["uniform_budget", "minimizer"]),
    tape_steps=st.sampled_from([1, 7, 37]),
    seed=st.integers(0, 2**32 - 1),
    off_budget=st.none(),
)
def test_batch_rows_match_trajectories_at_extreme_parameters(
    family, n, alpha, kappa, budget, p_update, initial_state, tape_steps, seed, off_budget
):
    # no drawn example has failed so far; the explicit ones, with estimates
    # or minimizers pushed off the budget, make both engines fail
    cfg = ExperimentConfig(
        n=n, alpha=alpha, beta=alpha * kappa, budget=budget, p_update=p_update,
        horizon=60, initial_state=initial_state, function_family=family,
    )
    seeds = [seed, seed + 1, seed + 2]
    records, failures = [], set()
    with pytest.MonkeyPatch.context() as mp:
        if off_budget:
            _off_budget(mp, off_budget, budget)
        for s in seeds:
            try:
                records.append(run_trajectory(replace(cfg, seed=s)))
            except (NonConvergenceError, FeasibilityError) as exc:
                failures.add(type(exc))
        if off_budget:
            assert failures == {FeasibilityError}
        mp.setattr(opensim, "_TAPE_STEPS", tape_steps)
        if failures:
            # a roster the scalar path cannot solve, or a run it finds off
            # its budget, stops the batch too
            with pytest.raises(tuple(failures)):
                _simulate_batch(cfg, seeds)
            return
        out = _simulate_batch(cfg, seeds)
    for r, rec in enumerate(records):
        assert np.array_equal(out.error[r], rec.error)
        assert np.array_equal(out.final_values[r], rec.final_state.allocation.values)
        assert np.array_equal(out.update_mask[r], np.array(rec.event[1:]) == "update")
    assert out.replacement_count == sum(rec.event.count("replace") for rec in records)
    assert out.max_replacement_shift == max(float(rec.minimizer_shift.max()) for rec in records)


def test_single_replication_ensemble_equals_trajectory():
    for cfg in (fig1_config(), logcosh_config(), logcosh_config(initial_state="minimizer")):
        rec = run_trajectory(replace(cfg, seed=42))
        stats = run_ensemble(replace(cfg, replications=1, seed=42))
        assert np.array_equal(stats.mean_error, rec.error)
        assert np.all(stats.ci_halfwidth == 0.0)
        assert stats.replacement_count == rec.event.count("replace")


def test_trajectory_row_semantics():
    cfg = fig1_config(horizon=300)
    rec = run_trajectory(replace(cfg, seed=5))
    assert rec.event[0] == "init"
    assert rec.k[0] == 0 and rec.k[-1] == 300
    for k, ev in enumerate(rec.event):
        if ev == "replace":
            assert rec.minimizer_shift[k] >= 0.0
        elif ev == "update":
            assert rec.minimizer_shift[k] == 0.0
    assert np.all(rec.suboptimality >= -1e-12)
    assert "replace" in rec.event and "update" in rec.event


@pytest.mark.parametrize("budget", [1.0, 2e4, -2e4])
def test_largest_accepted_cost_scale_keeps_suboptimality_finite(budget):
    # beta = 1e300 takes budgets up to about 3e4 at n = 5: every roster
    # value is near 1e300, and their gap is still a number
    cfg = fig1_config(alpha=1e300, beta=1e300, budget=budget, p_update=0.5, horizon=20)
    rec = run_trajectory(cfg)
    assert np.isfinite(rec.suboptimality).all()
    with pytest.raises(ConfigError) as err:
        fig1_config(alpha=1e300, beta=1e300, budget=2 * budget + math.copysign(4e4, budget))
    assert err.value.key == "beta"


def test_horizon_zero_trajectory():
    cfg = fig1_config(horizon=0)
    rec = run_trajectory(replace(cfg, seed=0))
    assert rec.k.size == 1
    assert rec.event == ("init",)


def test_event_frequency_close_to_p_update():
    cfg = fig1_config(horizon=100, p_update=0.95)
    out = _simulate_batch(cfg, np.arange(1000))
    freq = float(out.update_mask.mean())
    assert abs(freq - 0.95) < 0.005


def test_closed_system_contracts_at_published_rate():
    # p_update=1: no replacements, mean error decays at least as fast as
    # the closed-system factor predicts (statistical check, 3000 chains)
    cfg = fig1_config(p_update=1.0, horizon=60)
    stats = run_ensemble(replace(cfg, replications=3000, seed=11))
    rate = 1.0 - (1.0 / 1.2) * 1.0 / (cfg.n - 1)
    bound = stats.mean_error[0] * rate ** np.arange(61)
    assert np.all(stats.mean_error <= bound * 1.05 + 1e-12)
    assert stats.replacement_count == 0


def test_feasibility_drift_stays_tiny():
    # one vectorized run covering 2000 chains x 500 steps = 1e6 updates
    cfg = fig1_config(horizon=500, p_update=0.9)
    out = _simulate_batch(cfg, np.arange(2000))
    drift = np.abs(out.final_values.sum(axis=1) - cfg.budget)
    assert float(drift.max()) < 1e-12


def test_mean_error_dominates_conditional_update_mean():
    # restricted to update steps the error contracts on average
    cfg = fig1_config(horizon=80, p_update=0.9)
    out = _simulate_batch(cfg, np.arange(4000))
    before = out.error[:, :-1][out.update_mask]
    after = out.error[:, 1:][out.update_mask]
    assert after.mean() < before.mean()


def test_pooled_batches_match_one_unthreaded_pass(monkeypatch):
    # five batches of 20 rows on a 4-core machine: one worker runs two
    pools = []
    real_pool = concurrent.futures.ThreadPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(opensim.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(opensim, "_BATCH_ROWS", 20)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
    cfg = fig1_config(n=_POOL_MIN_AGENTS, horizon=60, p_update=0.9)
    stats = run_ensemble(replace(cfg, replications=100, seed=3))
    assert pools == [4]

    out = _simulate_batch(cfg, np.arange(3, 103))
    assert np.array_equal(stats.mean_error, out.error.mean(axis=0))
    assert np.array_equal(
        stats.ci_halfwidth, Z95 * out.error.std(axis=0, ddof=1) / math.sqrt(100)
    )
    assert stats.replacement_count == out.replacement_count
    assert stats.max_replacement_shift == out.max_replacement_shift

    # below the agent-count threshold the batches stay on one thread
    run_ensemble(fig1_config(n=_POOL_MIN_AGENTS - 1, horizon=5, replications=100))
    assert pools == [4]


def test_pooled_chunks_keep_their_tapes_under_thread_switching(monkeypatch):
    # eight workers on short chunks, switching threads every microsecond:
    # a buffer shared by two running batches would mix their draws
    monkeypatch.setattr(opensim.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(opensim, "_BATCH_ROWS", 10)
    monkeypatch.setattr(opensim, "_TAPE_STEPS", 8)
    cfg = fig1_config(n=_POOL_MIN_AGENTS, horizon=40, p_update=0.9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stats = run_ensemble(replace(cfg, replications=80, seed=7))
    finally:
        sys.setswitchinterval(interval)
    out = _simulate_batch(cfg, np.arange(7, 87))
    assert np.array_equal(stats.mean_error, out.error.mean(axis=0))
    assert np.array_equal(
        stats.ci_halfwidth, Z95 * out.error.std(axis=0, ddof=1) / math.sqrt(80)
    )


def _budget_for(cfg, rows, steps):
    """A ``_CHUNK_BYTES`` that gives ``steps``-step chunks to ``rows``-row batches."""
    return (steps + 0.5) * opensim._chunk_length(cfg, rows)[1]


def _recording_batches(monkeypatch):
    """Record the rows of every batch built and every ``_chunk_length``
    width asked for, in two lists."""
    built, widths = [], []
    real_batch, real_chunk = opensim._Batch, opensim._chunk_length

    class Recording(real_batch):
        def __init__(self, config, seeds):
            super().__init__(config, seeds)
            built.append(self.rows)

    def recording_chunk(config, rows):
        widths.append(rows)
        return real_chunk(config, rows)

    monkeypatch.setattr(opensim, "_Batch", Recording)
    monkeypatch.setattr(opensim, "_chunk_length", recording_chunk)
    return built, widths


_FULL_MATRIX_CASES = [
    # 64 columns, reduced in place in one pass
    (fig1_config(horizon=63, p_update=0.9), None),
    (logcosh_config(horizon=60, p_update=0.8), None),
    # from _POOL_MIN_AGENTS up the four batches run on the thread pool
    (fig1_config(n=_POOL_MIN_AGENTS, horizon=50, p_update=0.9), None),
    # one column: numpy sums a one-column matrix's axis 0 pairwise
    (fig1_config(horizon=0), None),
    # a one-step last chunk still reduces two columns, the carried one too
    (fig1_config(horizon=_TAPE_STEPS + 1, p_update=0.9), None),
    (fig1_config(n=_POOL_MIN_AGENTS, horizon=_TAPE_STEPS + 1, p_update=0.9), None),
    # two full chunks
    (fig1_config(horizon=2 * _TAPE_STEPS, p_update=0.9), None),
    (logcosh_config(horizon=2 * _TAPE_STEPS, p_update=0.8), None),
    # the byte budget, not _TAPE_STEPS, sets one-step and five-step chunks
    (fig1_config(horizon=23, p_update=0.9), 1),
    (logcosh_config(horizon=23, p_update=0.8), 1),
    (fig1_config(n=_POOL_MIN_AGENTS, horizon=23, p_update=0.9), 1),
    (fig1_config(horizon=23, p_update=0.9), 5),
    (logcosh_config(horizon=23, p_update=0.8), 5),
    (fig1_config(n=_POOL_MIN_AGENTS, horizon=23, p_update=0.9), 5),
]


@pytest.mark.parametrize(
    "cfg, chunk", _FULL_MATRIX_CASES, ids=[f"cfg{i}" for i in range(len(_FULL_MATRIX_CASES))]
)
def test_ensemble_statistics_match_the_full_matrix(cfg, chunk, monkeypatch):
    # three batches of 20 rows, or four of 15 on the pool's four workers
    monkeypatch.setattr(opensim.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(opensim, "_BATCH_ROWS", 25)
    rows = opensim._batches(cfg, 60)[1]
    if chunk is not None:
        monkeypatch.setattr(opensim, "_CHUNK_BYTES", _budget_for(cfg, rows, chunk))
        assert opensim._chunk_length(cfg, rows)[0] == chunk
    stats = run_ensemble(replace(cfg, replications=60, seed=3))

    full = np.vstack([_simulate_batch(cfg, [seed]).error for seed in range(3, 63)])
    assert np.array_equal(stats.mean_error, full.mean(axis=0))
    assert np.array_equal(
        stats.ci_halfwidth, Z95 * full.std(axis=0, ddof=1) / math.sqrt(60)
    )


@pytest.mark.parametrize("make", [fig1_config, logcosh_config])
def test_ensemble_results_do_not_depend_on_the_batch_width(make, monkeypatch):
    # 2101 rows: batches of 1050 and 1051 at the cap of 2048, three of 700
    # or 701 at 1024, and five of 420 or 421 at 500, which divides neither
    cfg = make(horizon=12, p_update=0.8)
    runs = {}
    for cap in (2048, 1024, 500):
        monkeypatch.setattr(opensim, "_BATCH_ROWS", cap)
        built, _ = _recording_batches(monkeypatch)
        runs[cap] = run_ensemble(replace(cfg, replications=2101, seed=5))
        assert len(built) == -(-2101 // cap)
        assert max(built) - min(built) == 1
    first = runs[2048]
    for stats in runs.values():
        assert np.array_equal(stats.mean_error, first.mean_error)
        assert np.array_equal(stats.ci_halfwidth, first.ci_halfwidth)
        assert stats.replacement_count == first.replacement_count
        assert stats.max_replacement_shift == first.max_replacement_shift


@pytest.mark.parametrize("cpus, replications, batches", [
    # wide's geometry: one batch would fit, two of 1024 are built on two or
    # more cores, and one of 2048 on one core
    (2, 2048, 2),
    (8, 2048, 2),
    (1, 2048, 1),
    # up to _BATCH_ROWS // 2 rows a run stays one batch on one thread
    (4, 3, 1),
    (8, 1024, 1),
    (8, 1025, 2),
    (8, 3000, 3),
    (2, 4097, 3),     # past _BATCH_ROWS the cap sets the count
    (1, 100, 1),
])
def test_pooled_runs_give_every_worker_a_batch(cpus, replications, batches, monkeypatch):
    monkeypatch.setattr(opensim.os, "cpu_count", lambda: cpus)
    built, widths = _recording_batches(monkeypatch)
    cfg = fig1_config(n=_POOL_MIN_AGENTS, horizon=3, p_update=0.9)
    run_ensemble(replace(cfg, replications=replications))
    assert len(built) == batches
    assert sum(built) == replications
    assert max(built) - min(built) <= 1 and max(built) <= opensim._BATCH_ROWS
    assert opensim._batches(cfg, replications) == (batches, max(built), min(cpus, batches))
    # the stated footprint and the run's chunk both read the widest batch
    opensim._footprint(cfg, replications)
    assert set(widths) == {max(built)} and len(widths) >= 3


def test_overflowing_column_statistics_are_rescaled_exactly():
    error = np.random.default_rng(0).standard_exponential((50, 9))
    mean, std = _column_stats(error.copy())
    # squaring values near 2**900 overflows; scaling by a power of two is exact
    with np.errstate(over="raise"):
        huge_mean, huge_std = _column_stats(np.ldexp(error, 900))
    assert np.array_equal(huge_mean, np.ldexp(mean, 900))
    assert np.array_equal(huge_std, np.ldexp(std, 900))


def test_only_overflowing_columns_are_rescaled():
    error = np.random.default_rng(1).standard_exponential((40, 6))
    error[:, 4:] = np.ldexp(error[:, 4:], 1000)
    mean, std = error.mean(axis=0), error[:, :4].std(axis=0, ddof=1)
    with np.errstate(over="raise"):
        got_mean, got_std = _column_stats(error.copy())
    assert np.array_equal(got_mean, mean)
    assert np.array_equal(got_std[:4], std)
    scaled = np.ldexp(error[:, 4:], -1000)
    assert np.array_equal(got_std[4:], np.ldexp(scaled.std(axis=0, ddof=1), 1000))


def test_column_statistics_reduce_in_place():
    error = np.random.default_rng(2).standard_exponential((2000, 601))
    tracemalloc.start()
    try:
        _column_stats(error)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.02 * error.nbytes


def test_ensemble_memory_does_not_grow_with_the_horizon(monkeypatch):
    # short chunks and four batches: the block, the chunk buffers and the
    # rows' generators are sized by the replications and _TAPE_STEPS, so only
    # the statistics' horizon + 1 entries grow with the horizon
    monkeypatch.setattr(opensim, "_BATCH_ROWS", 128)
    monkeypatch.setattr(opensim, "_TAPE_STEPS", 16)
    run_ensemble(fig1_config(horizon=5, replications=3))  # warm lazy imports and caches
    peaks = {}
    for chunks in (2, 16):
        cfg = fig1_config(horizon=chunks * opensim._TAPE_STEPS, p_update=0.95)
        tracemalloc.start()
        try:
            run_ensemble(replace(cfg, replications=512))
            peaks[chunks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] < 1.1 * peaks[2]


def test_logcosh_family_trajectory_runs():
    cfg = fig1_config(
        alpha=2.0, beta=3.0, horizon=120, function_family="logcosh_quadratic",
    )
    rec = run_trajectory(replace(cfg, seed=2))
    assert np.all(np.isfinite(rec.error))
    assert np.all(np.isfinite(rec.suboptimality))
    assert rec.final_state.allocation.values.sum() == pytest.approx(1.0, abs=1e-9)


def test_replacements_keep_the_log_cosh_family():
    # arrivals come from the family of the cost they replace, so the
    # log-cosh Newton solve can still read the roster afterwards
    cfg = logcosh_config(p_update=0.0)
    rng = np.random.default_rng(3)
    state = initial_system_state(cfg, rng)
    for _ in range(40):
        state, event = step(state, EventSchedule(0.0), rng)
        assert event[0] == "replace"
    assert all(type(f) is LogCoshQuadratic for f in state.roster)
    newton = _logcosh_newton_minimizer(state.roster, cfg.budget).point.values
    reference = dual_bisection_minimizer(state.roster, cfg.budget).point.values
    assert np.allclose(newton, reference, atol=1e-9)


def test_replacing_a_general_cost_is_refused_by_name():
    cert = ConvexityCertificate(1.0, 3.0)
    f = GeneralSmoothFunction(lambda x: x * x, lambda x: 2.0 * x, cert, 0.0)
    state = SystemState(Allocation(np.array([0.5, 0.5, 0.0]), 1.0), (f, f, f))
    with pytest.raises(ValueError, match="GeneralSmoothFunction"):
        step(state, EventSchedule(0.0), np.random.default_rng(0))
    rng = np.random.default_rng(0)
    for _ in range(20):
        state, event = step(state, EventSchedule(1.0), rng)
        assert event[0] == "update"
    assert state.roster == (f, f, f)
    # the pair updates descend toward the equal split x_i = 1/3
    assert np.allclose(state.allocation.values, 1.0 / 3.0, atol=1e-4)


def test_replacements_keep_the_quadratic_family():
    cfg = fig1_config(p_update=0.0)
    rng = np.random.default_rng(3)
    state = initial_system_state(cfg, rng)
    for _ in range(40):
        state, event = step(state, EventSchedule(0.0), rng)
        assert event[0] == "replace"
    assert all(type(f) is QuadraticFunction for f in state.roster)
    closed = closed_form_quadratic_minimizer(state.roster, cfg.budget).point.values
    reference = dual_bisection_minimizer(state.roster, cfg.budget).point.values
    assert np.allclose(closed, reference, atol=1e-9)


def test_replacement_draws_from_the_replaced_costs_family():
    # a roster mixing both families: each arrival takes the family of the
    # cost it replaces, built from the step's fourth and fifth uniforms
    cert = ConvexityCertificate(1.0, 3.0)
    roster = (
        make_quadratic(1.0, 0.2, cert),
        make_logcosh_quadratic(1.0, -0.3, cert),
        make_quadratic(1.2, 0.0, cert),
        make_logcosh_quadratic(0.8, 0.4, cert),
    )
    state = SystemState(Allocation(np.full(4, 0.25), 1.0), roster)
    families = {QuadraticFunction: "quadratic", LogCoshQuadratic: "logcosh_quadratic"}
    rng = np.random.default_rng(17)
    for _ in range(30):
        u = copy.deepcopy(rng).random(5)
        mirror = copy.deepcopy(rng)
        mirror.random(5)
        before = state.roster
        state, event = step(state, EventSchedule(0.0), rng)
        agent = event[1]
        assert agent == int(u[2] * 4)
        family = families[type(before[agent])]
        assert state.roster[agent] == _cost_from_uniforms(family, cert, u[3], u[4])
        # the step consumed exactly five uniforms
        assert rng.random() == mirror.random()


@pytest.mark.parametrize(
    "config, solver",
    [
        (fig1_config(initial_state="minimizer"), closed_form_quadratic_minimizer),
        (logcosh_config(initial_state="minimizer"), _logcosh_newton_minimizer),
    ],
    ids=["quadratic", "logcosh"],
)
def test_minimizer_start_comes_from_the_familys_solver(config, solver):
    state = initial_system_state(config, np.random.default_rng(5))
    expected = solver(state.roster, config.budget).point.values
    assert np.array_equal(state.allocation.values, expected)


@pytest.mark.parametrize("budget", [1e6, -1e6, 1e7, -1e7, 1e9, -1e9])
def test_logcosh_runs_at_a_large_budget_converge(budget):
    # the solvers' gradient targets used to sit below one ulp of the
    # coordinates (about 2e5 at |b| = 1e6); from |b| = 1e7 on the sum's own
    # rounding exceeded an absolute FEASIBILITY_TOL, which now scales with |b|
    cfg = fig1_config(function_family="logcosh_quadratic", budget=budget)
    for seed in range(10):
        rec = run_trajectory(replace(cfg, seed=seed))
        assert np.all(np.isfinite(rec.error))
    out = _simulate_batch(cfg, [seed])
    assert np.array_equal(out.error[0], rec.error)


def _swap_steps(cfg, seeds):
    """Which steps swap an agent, per row, read straight off the documented
    stream order: ``2 n`` uniforms for the roster, then 5 per step."""
    swaps = []
    for s in seeds:
        rng = np.random.default_rng(s)
        rng.random(2 * cfg.n)
        swaps.append(rng.random((cfg.horizon, 5))[:, 0] >= cfg.p_update)
    return np.array(swaps)


def test_logcosh_ensemble_solves_each_chunk_in_rounds(monkeypatch):
    monkeypatch.setattr(opensim, "_TAPE_STEPS", 37)
    calls = []
    real = opensim._logcosh_point

    def counting(theta, *args):
        calls.append(theta.shape[1])
        return real(theta, *args)

    monkeypatch.setattr(opensim, "_logcosh_point", counting)
    cfg = logcosh_config(horizon=150, p_update=0.9)
    stats = run_ensemble(replace(cfg, replications=64, seed=5))
    swaps = _swap_steps(cfg, range(5, 69))
    assert stats.replacement_count == swaps.sum()
    # one solve for the starting rosters, then one per round: a chunk has
    # as many rounds as the most swaps any row has in it
    most = sum(int(swaps[:, lo:lo + 37].sum(axis=1).max()) for lo in range(0, 150, 37))
    assert calls[0] == 64
    assert len(calls) <= 1 + most
    # far fewer than one solve per step in which some row swaps
    assert len(calls) < swaps.any(axis=0).sum() // 2


def test_logcosh_ensemble_solves_each_chunk_in_one_call(monkeypatch):
    monkeypatch.setattr(opensim, "_TAPE_STEPS", 37)
    calls = []
    real = opensim._logcosh_point

    def counting(theta, *args):
        calls.append(theta.shape[1])
        return real(theta, *args)

    monkeypatch.setattr(opensim, "_logcosh_point", counting)
    cfg = logcosh_config(horizon=150, p_update=0.9)
    run_ensemble(replace(cfg, replications=64, seed=5))
    swaps = _swap_steps(cfg, range(5, 69))
    per_chunk = [int(swaps[:, lo:lo + 37].sum()) for lo in range(0, 150, 37)]
    assert max(per_chunk) <= opensim._FILL_BYTES // (8 * cfg.n)
    # one solve for the starting rosters, then one per chunk that swaps,
    # each of all the chunk's swaps at once
    assert calls == [64] + [k for k in per_chunk if k]


@pytest.mark.parametrize("cfg", [
    fig1_config(n=7, horizon=40, p_update=0.8),
    logcosh_config(n=7, horizon=40, p_update=0.8),
    # swap-heavy: most cells of every block are swaps
    fig1_config(n=2, horizon=40, p_update=0.3),
    logcosh_config(n=2, horizon=40, p_update=0.3),
], ids=["quadratic", "logcosh", "quadratic-n2", "logcosh-n2"])
def test_partial_fill_blocks_match_trajectories(cfg, monkeypatch):
    # 16-step chunks draw 3 rows at a time and the last 8-step chunk 6, so
    # a 10-row batch ends each chunk on a short block (3 + 3 + 3 + 1, 6 + 4)
    monkeypatch.setattr(opensim, "_TAPE_STEPS", 16)
    seeds = range(21, 31)
    whole = _simulate_batch(cfg, seeds)
    monkeypatch.setattr(opensim, "_FILL_BYTES", 3 * 16 * 5 * 8 + 100)
    assert [opensim._FILL_BYTES // (steps * 5 * 8) for steps in (16, 8)] == [3, 6]
    blocks = _simulate_batch(cfg, seeds)
    assert np.array_equal(blocks.error, whole.error)
    assert np.array_equal(blocks.final_values, whole.final_values)
    assert np.array_equal(blocks.update_mask, whole.update_mask)
    for r, seed in enumerate(seeds):
        rec = run_trajectory(replace(cfg, seed=seed))
        assert np.array_equal(blocks.error[r], rec.error)
        assert np.array_equal(blocks.final_values[r], rec.final_state.allocation.values)
        assert np.array_equal(blocks.update_mask[r], np.array(rec.event[1:]) == "update")
    assert blocks.replacement_count == whole.replacement_count > 0
    assert blocks.max_replacement_shift == whole.max_replacement_shift


@pytest.mark.parametrize("make", [fig1_config, logcosh_config])
@pytest.mark.parametrize("p_update", [0.0, 0.6])
def test_swap_blocks_cut_at_the_cap_match_trajectories(make, p_update, monkeypatch):
    # 16-step chunks against a cap of 5 swaps, the (2, 5) float64 arrays
    # that fit in _FILL_BYTES: a chunk splits into many blocks, and a row
    # with more swaps than the cap is a block of its own (at p_U = 0 every
    # row has 16); the run is small, so a cut that never advanced would
    # show as a hang here, not as a large allocation
    monkeypatch.setattr(opensim, "_TAPE_STEPS", 16)
    monkeypatch.setattr(opensim, "_FILL_BYTES", 5 * 2 * 8)
    blocks = []
    real = opensim._block_rosters

    def recording(batch, at, *args):
        blocks.append((at.size, np.unique(at % batch.rows).size))
        return real(batch, at, *args)

    monkeypatch.setattr(opensim, "_block_rosters", recording)
    cfg = make(n=2, horizon=40, p_update=p_update)
    seeds = range(11, 17)
    out = _simulate_batch(cfg, seeds)
    records = [run_trajectory(replace(cfg, seed=s)) for s in seeds]
    for r, rec in enumerate(records):
        assert np.array_equal(out.error[r], rec.error)
        assert np.array_equal(out.final_values[r], rec.final_state.allocation.values)
    assert out.replacement_count == sum(rec.event.count("replace") for rec in records)
    assert out.max_replacement_shift == max(float(rec.minimizer_shift.max()) for rec in records)

    assert sum(size for size, _ in blocks) == out.replacement_count
    assert len(blocks) > 3 * 2   # more than two blocks a chunk
    assert any(size > 5 for size, _ in blocks)
    # a block past the cap is one row's; any other holds whole rows
    assert all(rows == 1 for size, rows in blocks if size > 5)
    if p_update:
        assert any(rows > 1 for _, rows in blocks)


def _fail_after(calls_allowed):
    """A dual bisection that solves ``calls_allowed`` rosters, then fails."""
    real = allocation.dual_bisection_minimizer
    calls = []

    def failing(fs, budget):
        calls.append(1)
        if len(calls) > calls_allowed:
            raise NonConvergenceError("bracket stuck in a round")
        return real(fs, budget)

    return failing


def test_solver_failure_in_a_round_surfaces(monkeypatch, tmp_path, capsys):
    # Newton gets no steps, so every roster goes to the dual bisection;
    # the starting rosters solve, the first round's swaps do not
    monkeypatch.setattr(allocation, "_NEWTON_ITERATIONS", 0)
    cfg = logcosh_config(horizon=40, p_update=0.8)
    monkeypatch.setattr(allocation, "dual_bisection_minimizer", _fail_after(30))
    with pytest.raises(NonConvergenceError, match="in a round"):
        run_ensemble(replace(cfg, replications=30))

    monkeypatch.setattr(allocation, "dual_bisection_minimizer", _fail_after(30))
    path = tmp_path / "logcosh.cfg"
    path.write_text(
        "n = 5\nalpha = 0.5\nbeta = 6.0\nb = 1.0\np_U = 0.8\nhorizon = 40\n"
        "replications = 30\nfunction_family = logcosh_quadratic\n",
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "solver failure: bracket stuck in a round" in capsys.readouterr().err
    assert not (tmp_path / "ensemble.csv").exists()


@pytest.mark.parametrize("run, kwargs, key", [
    (run_ensemble, {"replications": 2.5}, "replications"),
    (run_ensemble, {"replications": 0}, "replications"),
    (run_ensemble, {"seed": -1}, "seed"),
    (run_trajectory, {"seed": 1.5}, "seed"),
    (run_trajectory, {"seed": -1}, "seed"),
])
def test_run_counts_and_seeds_are_refused_not_truncated(run, kwargs, key, monkeypatch):
    # a run's seed and replications are set in its config, so a variant made
    # with dataclasses.replace is checked again: 2.5 replications are refused
    # by name, not run as 2, and no batch is built
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch was built")

    monkeypatch.setattr(opensim, "_Batch", no_batch)
    with pytest.raises(ConfigError) as err:
        run(replace(fig1_config(horizon=5), **kwargs))
    assert err.value.key == key


@pytest.mark.parametrize("run, overrides, key", [
    (run_ensemble, {"horizon": 600, "replications": 10**15}, "replications"),
    (run_ensemble, {"horizon": 10**14, "replications": 2}, "horizon"),
    (run_trajectory, {"horizon": 10**14}, "horizon"),
])
def test_runs_past_physical_memory_are_refused_before_any_batch(run, overrides, key, monkeypatch):
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch was built")

    monkeypatch.setattr(opensim, "_Batch", no_batch)
    with pytest.raises(ConfigError, match="physical memory") as err:
        run(fig1_config(**overrides))
    assert err.value.key == key


def test_footprint_is_checked_against_the_reported_memory(monkeypatch):
    # fig1's 10000 x 600 states about 24.5 MiB: refused with 16 MiB, run with 32
    cfg = fig1_config(horizon=600, replications=10000)
    for mib, fits in ((16, False), (32, True)):
        monkeypatch.setattr(opensim.os, "sysconf",
                            {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": mib * 256}.__getitem__)
        if fits:
            opensim._check_footprint(cfg)
        else:
            with pytest.raises(ConfigError) as err:
                opensim._check_footprint(cfg)
            assert err.value.key == "replications"


@pytest.mark.parametrize("cfg, rows, steps", [
    # fig1: tape and swaps fill the budget at 90 steps, at 46 in the
    # 2000-row batches its 10000 replications run in
    (fig1_config(horizon=600), 1024, 90),
    (fig1_config(horizon=600), 2000, 46),
    # a 64-row log-cosh run keeps the longest chunk
    (logcosh_config(horizon=600), 64, _TAPE_STEPS),
    # every step swaps every row's 64-agent roster
    (fig1_config(n=64, p_update=0.0, horizon=600), 1024, 6),
    # the budget never cuts a chunk below one step, nor past the horizon
    (fig1_config(n=1024, p_update=0.0, horizon=600), 1024, 1),
    (fig1_config(horizon=40), 1024, 40),
    (fig1_config(horizon=0), 1024, 0),
])
def test_chunk_length_follows_the_byte_budget(cfg, rows, steps):
    chunk, step_bytes = opensim._chunk_length(cfg, rows)
    assert chunk == steps
    assert steps <= 1 or steps * step_bytes <= opensim._CHUNK_BYTES


def _traced_peak(run, *args):
    tracemalloc.start()
    try:
        result = run(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_swap_heavy_chunks_stay_within_the_budget(monkeypatch):
    # at p_U = 0 every row swaps every step: 256-step chunks held a
    # (64, 262144) array of minimizers, about 159 MiB traced
    cfg = fig1_config(n=64, p_update=0.0, horizon=256)
    run_ensemble(replace(cfg, replications=3))  # warm lazy imports and caches
    stats, peak = _traced_peak(run_ensemble, replace(cfg, replications=1024))
    assert peak < 24 * 2**20

    monkeypatch.setattr(opensim, "_CHUNK_BYTES", 2**62)
    assert opensim._chunk_length(cfg, 1024)[0] == _TAPE_STEPS
    lifted = run_ensemble(replace(cfg, replications=1024))
    assert np.array_equal(stats.mean_error, lifted.mean_error)
    assert np.array_equal(stats.ci_halfwidth, lifted.ci_halfwidth)
    assert stats.replacement_count == lifted.replacement_count
    assert stats.max_replacement_shift == lifted.max_replacement_shift


@pytest.mark.parametrize("cfg, replications", [
    (fig1_config(horizon=300), 2048),
    (fig1_config(n=64, p_update=0.0, horizon=256), 1024),
    (logcosh_config(horizon=600), 64),
    # the shared edge table is counted once, and no batch copies it
    (fig1_config(n=1024, horizon=50), 4),
    # swap-heavy runs at small n, where the swaps' index arrays dominate
    (fig1_config(n=2, p_update=0.0, horizon=120), 1024),
    (logcosh_config(n=2, p_update=0.0, horizon=120), 1024),
    (logcosh_config(p_update=0.5, horizon=120), 64),
    # past _BATCH_ROWS: swap-heavy batches of 1250 and 1251 rows on one worker
    (fig1_config(n=2, p_update=0.0, horizon=120), 2501),
    # swap-heavy at n = 1024: one-step chunks of 256 swaps, 2 MiB of minimizers
    (fig1_config(n=1024, p_update=0.0, horizon=8), 256),
])
def test_stated_footprint_covers_the_traced_peak(cfg, replications):
    run_ensemble(replace(cfg, replications=3))  # warm lazy imports and caches
    _, peak = _traced_peak(run_ensemble, replace(cfg, replications=replications))
    assert peak <= sum(opensim._footprint(cfg, replications))


@pytest.mark.parametrize("make", [fig1_config, logcosh_config])
def test_swap_blocks_do_not_grow_with_the_roster(make):
    # a block of swaps is cut to _FILL_BYTES of (n, block) arrays, not to a
    # swap count: blocks of 1024 swaps traced 18.3 MiB here (quadratic) and
    # 37.1 MiB (log-cosh)
    cfg = make(n=256, p_update=0.0, horizon=64)
    run_ensemble(replace(cfg, replications=3))  # warm lazy imports and caches
    _, peak = _traced_peak(run_ensemble, replace(cfg, replications=64))
    assert peak < 10 * 2**20
