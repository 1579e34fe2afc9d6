"""The simulator's mean error curve against its exact value at kappa = 1.

``exact_mean.exact_mean_error`` gives ``E[C_k]`` exactly when
``alpha == beta``.  The pass rule was fixed before the first run: each
column ``k`` of each run passes iff
``|mean_C - E[C_k]| <= z * se + 1e-20``, with ``se`` the column's standard
error and ``z`` the two-sided Bonferroni quantile for a family-wise error
of 1e-3 over every column tested.  The ``1e-20`` admits the rounding of
columns whose exact value is 0 (about 1e-30 here), far below any
standard error of an O(0.1) error level.
"""

from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from exact_mean import exact_mean_error
from openrcd.config import ExperimentConfig
from openrcd.opensim import Z95, run_ensemble, run_trajectory

BETA = 1.5
HORIZON = 60
REPLICATIONS = 2000
SEED = 11


def _runs():
    # every (n, p_U) runs both families and both starts, split over the two steps
    for n in (2, 5, 12):
        for p_update in (0.0, 0.5, 0.95, 1.0):
            for h, pairs in ((1.0, (("quadratic", "uniform_budget"),
                                    ("logcosh_quadratic", "minimizer"))),
                             (0.5, (("quadratic", "minimizer"),
                                    ("logcosh_quadratic", "uniform_budget")))):
                for family, start in pairs:
                    yield n, p_update, h, family, start
    yield 5, 0.5, 1.0, "quadratic", (1.5, -0.5, 0.25, 0.0, 0.75)


RUNS = list(_runs())
Z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(RUNS) * (HORIZON + 1)))


def _config(n, p_update, h, family, start, horizon=HORIZON, budget=2.0):
    return ExperimentConfig(
        n=n, alpha=BETA, beta=BETA, budget=budget, p_update=p_update, h=h / BETA,
        horizon=horizon, function_family=family, initial_state=start,
    )


@pytest.mark.parametrize("n, p_update, h, family, start", RUNS)
def test_ensemble_mean_matches_the_exact_curve(n, p_update, h, family, start):
    cfg = _config(n, p_update, h, family, start)
    stats = run_ensemble(replace(cfg, replications=REPLICATIONS, seed=SEED))
    exact = exact_mean_error(cfg)
    se = stats.ci_halfwidth / Z95
    miss = np.abs(stats.mean_error - exact)
    worst = int(np.argmax(miss - Z * se))
    assert np.all(miss <= Z * se + 1e-20), (
        f"column {worst}: mean {stats.mean_error[worst]!r}, exact {exact[worst]!r}, "
        f"se {se[worst]!r}, |z| limit {Z:.2f}")


@pytest.mark.parametrize("n", [2, 5, 12])
@pytest.mark.parametrize("family", ["quadratic", "logcosh_quadratic"])
def test_updates_alone_keep_the_minimizer_start_at_rounding_level(n, family):
    cfg = _config(n, 1.0, 1.0, family, "minimizer")
    rec = run_trajectory(replace(cfg, seed=SEED))
    assert rec.error[0] == 0.0
    assert rec.error.max() <= 1e-26
    assert np.all(exact_mean_error(cfg) == 0.0)


@pytest.mark.parametrize("family", ["quadratic", "logcosh_quadratic"])
def test_one_update_of_two_agents_at_h_one_over_alpha_reaches_the_minimizer(family):
    cfg = _config(2, 1.0, 1.0, family, "uniform_budget", horizon=5, budget=-0.7)
    stats = run_ensemble(replace(cfg, replications=200, seed=SEED))
    assert stats.mean_error[0] > 0.1   # E[C_0] = (n - 1) / 3
    assert stats.mean_error[1:].max() <= 1e-26
    exact = exact_mean_error(cfg)
    assert exact[0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert np.abs(exact[1:]).max() <= 1e-15
