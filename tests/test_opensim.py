import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openrcd import allocation
from openrcd.allocation import NonConvergenceError, dual_bisection_minimizer
from openrcd.cli import main
from openrcd.config import ConfigError, ExperimentConfig
from openrcd.functions import (
    ConvexityCertificate,
    GeneralSmoothFunction,
    make_quadratic,
    sample_logcosh_replacement,
)

import openrcd.opensim as opensim
from openrcd.opensim import (
    Z95,
    _POOL_MIN_AGENTS,
    _TAPE_STEPS,
    EventSchedule,
    _column_stats,
    _simulate_batch,
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
    ]:
        rec = run_trajectory(cfg, seed=seed)
        out = _simulate_batch(cfg, np.array([seed]))
        assert np.array_equal(rec.error, out.error[0])
        assert np.array_equal(rec.final_state.allocation.values, out.final_values[0])
        # a row's result does not depend on the rows simulated beside it
        crowd = _simulate_batch(cfg, np.arange(seed - 3, seed + 4))
        assert np.array_equal(crowd.error[3], out.error[0])


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["quadratic", "logcosh_quadratic"]),
    n=st.integers(2, 12),
    alpha=st.floats(1e-2, 1e2),
    kappa=st.floats(1.0, 1e3),
    budget=st.floats(-1e6, 1e6),
    p_update=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    initial_state=st.sampled_from(["uniform_budget", "minimizer"]),
    tape_steps=st.sampled_from([1, 7, 37]),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_rows_match_trajectories_at_extreme_parameters(
    family, n, alpha, kappa, budget, p_update, initial_state, tape_steps, seed
):
    cfg = ExperimentConfig(
        n=n, alpha=alpha, beta=alpha * kappa, budget=budget, p_update=p_update,
        horizon=60, initial_state=initial_state, function_family=family,
    )
    seeds = [seed, seed + 1, seed + 2]
    records = []
    for s in seeds:
        try:
            records.append(run_trajectory(cfg, seed=s))
        except NonConvergenceError:
            records.append(None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(opensim, "_TAPE_STEPS", tape_steps)
        if None in records:
            # a roster the scalar path cannot solve stops the batch too
            with pytest.raises(NonConvergenceError):
                _simulate_batch(cfg, seeds, collect_update_mask=True)
            return
        out = _simulate_batch(cfg, seeds, collect_update_mask=True)
    for r, rec in enumerate(records):
        assert np.array_equal(out.error[r], rec.error)
        assert np.array_equal(out.final_values[r], rec.final_state.allocation.values)
        assert np.array_equal(out.update_mask[r], np.array(rec.event[1:]) == "update")
    assert out.replacement_count == sum(rec.event.count("replace") for rec in records)
    assert out.max_replacement_shift == max(float(rec.minimizer_shift.max()) for rec in records)


def test_single_replication_ensemble_equals_trajectory():
    for cfg in (fig1_config(), logcosh_config(), logcosh_config(initial_state="minimizer")):
        rec = run_trajectory(cfg, seed=42)
        stats = run_ensemble(cfg, replications=1, base_seed=42)
        assert np.array_equal(stats.mean_error, rec.error)
        assert np.all(stats.ci_halfwidth == 0.0)
        assert stats.replacement_count == rec.event.count("replace")


def test_trajectory_row_semantics():
    cfg = fig1_config(horizon=300)
    rec = run_trajectory(cfg, seed=5)
    assert rec.event[0] == "init"
    assert rec.k[0] == 0 and rec.k[-1] == 300
    for k, ev in enumerate(rec.event):
        if ev == "replace":
            assert rec.minimizer_shift[k] >= 0.0
        elif ev == "update":
            assert rec.minimizer_shift[k] == 0.0
    assert np.all(rec.suboptimality >= -1e-12)
    assert "replace" in rec.event and "update" in rec.event


def test_horizon_zero_trajectory():
    cfg = fig1_config(horizon=0)
    rec = run_trajectory(cfg, seed=0)
    assert rec.k.size == 1
    assert rec.event == ("init",)


def test_event_frequency_close_to_p_update():
    cfg = fig1_config(horizon=100, p_update=0.95)
    out = _simulate_batch(cfg, np.arange(1000), collect_update_mask=True)
    freq = float(out.update_mask.mean())
    assert abs(freq - 0.95) < 0.005


def test_closed_system_contracts_at_published_rate():
    # p_update=1: no replacements, mean error decays at least as fast as
    # the closed-system factor predicts (statistical check, 3000 chains)
    cfg = fig1_config(p_update=1.0, horizon=60)
    stats = run_ensemble(cfg, replications=3000, base_seed=11)
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
    out = _simulate_batch(cfg, np.arange(4000), collect_update_mask=True)
    before = out.error[:, :-1][out.update_mask]
    after = out.error[:, 1:][out.update_mask]
    assert after.mean() < before.mean()


def test_pooled_batches_match_one_unthreaded_pass(monkeypatch):
    # three batches on a 4-core machine: the pool runs whatever the host
    pools = []
    real_pool = opensim.ThreadPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(opensim.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(opensim, "_BATCH_ROWS", 40)
    monkeypatch.setattr(opensim, "ThreadPoolExecutor", recording_pool)
    cfg = fig1_config(n=_POOL_MIN_AGENTS, horizon=60, p_update=0.9)
    stats = run_ensemble(cfg, replications=100, base_seed=3)
    assert pools == [3]

    out = _simulate_batch(cfg, np.arange(3, 103))
    assert np.array_equal(stats.mean_error, out.error.mean(axis=0))
    assert np.array_equal(
        stats.ci_halfwidth, Z95 * out.error.std(axis=0, ddof=1) / math.sqrt(100)
    )
    assert stats.replacement_count == out.replacement_count
    assert stats.max_replacement_shift == out.max_replacement_shift

    # below the agent-count threshold the batches stay on one thread
    run_ensemble(fig1_config(n=_POOL_MIN_AGENTS - 1, horizon=5), replications=100)
    assert pools == [3]


@pytest.mark.parametrize("cfg", [
    # 64 columns, reduced in place in one pass
    fig1_config(horizon=63, p_update=0.9),
    logcosh_config(horizon=60, p_update=0.8),
    # from _POOL_MIN_AGENTS up the three batches run on the thread pool
    fig1_config(n=_POOL_MIN_AGENTS, horizon=50, p_update=0.9),
    # one column: numpy sums a one-column matrix's axis 0 pairwise
    fig1_config(horizon=0),
])
def test_ensemble_statistics_match_the_full_matrix(cfg, monkeypatch):
    monkeypatch.setattr(opensim.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(opensim, "_BATCH_ROWS", 25)
    stats = run_ensemble(cfg, replications=60, base_seed=3)

    full = np.vstack([_simulate_batch(cfg, [seed]).error for seed in range(3, 63)])
    assert np.array_equal(stats.mean_error, full.mean(axis=0))
    assert np.array_equal(
        stats.ci_halfwidth, Z95 * full.std(axis=0, ddof=1) / math.sqrt(60)
    )


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


def test_ensemble_memory_is_one_error_matrix(monkeypatch):
    # short tapes and two batches, so one batch's buffers are small next
    # to the matrix; the batches write straight into it
    monkeypatch.setattr(opensim, "_BATCH_ROWS", 128)
    monkeypatch.setattr(opensim, "_TAPE_STEPS", 16)
    cfg = fig1_config(horizon=600, p_update=0.95)
    run_ensemble(cfg, replications=3)  # warm lazy imports and caches
    tracemalloc.start()
    try:
        run_ensemble(cfg, replications=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 256 * (cfg.horizon + 1) * 8


def test_logcosh_family_trajectory_runs():
    cfg = fig1_config(
        alpha=2.0, beta=3.0, horizon=120, function_family="logcosh_quadratic",
    )
    rec = run_trajectory(cfg, seed=2)
    assert np.all(np.isfinite(rec.error))
    assert np.all(np.isfinite(rec.suboptimality))
    assert rec.final_state.allocation.values.sum() == pytest.approx(1.0, abs=1e-9)


def test_custom_replacement_sampler_is_used():
    cert_seen = []

    def sampler(rng, certificate):
        cert_seen.append(certificate)
        rng.random(2)
        return make_quadratic(0.5, 0.0, certificate)

    cfg = fig1_config(p_update=0.0, horizon=5)
    rec = run_trajectory(cfg, seed=1, replacement_sampler=sampler)
    assert len(cert_seen) == 5
    assert all(c == ConvexityCertificate(1.0, 1.2) for c in cert_seen)
    assert all(ev == "replace" for ev in rec.event[1:])


def test_custom_sampler_in_logcosh_runs_tracks_with_dual_bisection(monkeypatch):
    solves = []
    real = opensim.dual_bisection_minimizer

    def counting(fs, budget):
        solves.append(len(fs))
        return real(fs, budget)

    def sampler(rng, certificate):
        rng.random(2)
        return GeneralSmoothFunction(lambda x: x * x, lambda x: 2.0 * x, certificate, 0.0)

    monkeypatch.setattr(opensim, "dual_bisection_minimizer", counting)
    cfg = logcosh_config(p_update=0.6, horizon=30, initial_state="minimizer")
    rec = run_trajectory(cfg, seed=4, replacement_sampler=sampler)
    # the minimizer start and the tracked minimizer come from one solver
    assert len(solves) == 2 + rec.event.count("replace")
    assert rec.error[0] == 0.0
    assert rec.suboptimality[0] == 0.0
    assert np.all(np.isfinite(rec.error))


def test_custom_sampler_in_quadratic_runs_tracks_with_dual_bisection():
    # log-cosh arrivals in a quadratic roster: the closed form would read
    # only their theta and mu
    cfg = fig1_config(n=4, beta=3.0, p_update=0.5, horizon=40)
    rec = run_trajectory(cfg, seed=3, replacement_sampler=sample_logcosh_replacement)
    assert "replace" in rec.event
    xstar = dual_bisection_minimizer(rec.final_state.roster, cfg.budget).point.values
    d = rec.final_state.allocation.values - xstar
    assert rec.error[-1] == (d * d).sum()


def test_custom_sampler_in_quadratic_runs_takes_any_certified_cost():
    def sampler(rng, certificate):
        rng.random(2)
        return GeneralSmoothFunction(lambda x: x * x, lambda x: 2.0 * x, certificate, 0.0)

    cfg = fig1_config(beta=3.0, p_update=0.6, horizon=30, initial_state="minimizer")
    rec = run_trajectory(cfg, seed=4, replacement_sampler=sampler)
    assert rec.error[0] == 0.0
    assert np.all(np.isfinite(rec.error))


@pytest.mark.parametrize("budget", [1e6, -1e6])
def test_logcosh_runs_at_a_large_budget_converge(budget):
    # the solvers' gradient targets used to sit below one ulp of the
    # coordinates (about 2e5) here; from |b| = 1e7 on the sum's own
    # rounding exceeds the absolute FEASIBILITY_TOL
    cfg = fig1_config(function_family="logcosh_quadratic", budget=budget)
    for seed in range(10):
        rec = run_trajectory(cfg, seed=seed)
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
        calls.append(len(theta))
        return real(theta, *args)

    monkeypatch.setattr(opensim, "_logcosh_point", counting)
    cfg = logcosh_config(horizon=150, p_update=0.9)
    stats = run_ensemble(cfg, replications=64, base_seed=5)
    swaps = _swap_steps(cfg, range(5, 69))
    assert stats.replacement_count == swaps.sum()
    # one solve for the starting rosters, then one per round: a chunk has
    # as many rounds as the most swaps any row has in it
    most = sum(int(swaps[:, lo:lo + 37].sum(axis=1).max()) for lo in range(0, 150, 37))
    assert calls[0] == 64
    assert len(calls) <= 1 + most
    # far fewer than one solve per step in which some row swaps
    assert len(calls) < swaps.any(axis=0).sum() // 2


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
        run_ensemble(cfg, replications=30)

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
    (run_ensemble, {"base_seed": -1}, "base_seed"),
    (run_trajectory, {"seed": 1.5}, "seed"),
    (run_trajectory, {"seed": -1}, "seed"),
])
def test_run_counts_and_seeds_are_refused_not_truncated(run, kwargs, key):
    # replications = 2.5 used to run 2 replications
    with pytest.raises(ConfigError) as err:
        run(fig1_config(horizon=5), **kwargs)
    assert err.value.key == key
