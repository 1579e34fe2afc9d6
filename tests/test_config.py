import numpy as np
import pytest

from openrcd.config import (
    SIMULATE_PRESETS,
    ConfigError,
    ExperimentConfig,
    config_from_table,
    load_config,
    parse_config_text,
)

GOOD = """
# experiment description
n = 5
alpha = 1.0
beta = 1.2
b = 1.0
p_U = 0.95
horizon = 100
replications = 3
seed = 17
"""


def test_parse_round_trip():
    cfg = parse_config_text(GOOD)
    assert cfg.n == 5
    assert cfg.budget == 1.0
    assert cfg.p_update == 0.95
    assert cfg.h == pytest.approx(1 / 1.2)
    assert cfg.horizon == 100
    assert cfg.replications == 3
    assert cfg.seed == 17
    assert cfg.kappa == pytest.approx(1.2)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD + "\nwobble = 3\n")
    assert "wobble" in str(err.value)
    assert err.value.key == "wobble"


def test_parse_rejects_missing_required():
    with pytest.raises(ConfigError) as err:
        parse_config_text("n = 5\nalpha = 1.0\nbeta = 1.2\nb = 1.0\n")
    assert err.value.key == "p_U"


def test_parse_rejects_bad_value_types():
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD.replace("n = 5", "n = five"))
    assert err.value.key == "n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD.replace("horizon = 100", "horizon = 10.5"))
    assert err.value.key == "horizon"


def test_validation_errors_name_their_key():
    cases = [
        (dict(n=1), "n"),
        (dict(alpha=-1.0), "alpha"),
        (dict(beta=0.5), "beta"),
        (dict(p_update=1.5), "p_U"),
        (dict(h=2.0), "h"),
        (dict(horizon=-1), "horizon"),
        (dict(replications=0), "replications"),
        (dict(initial_state="somewhere"), "initial_state"),
        (dict(function_family="cubic"), "function_family"),
        (dict(budget=float("nan")), "b"),
        (dict(budget=float("inf")), "b"),
        (dict(alpha=float("inf")), "alpha"),
        (dict(beta=float("nan")), "beta"),
        (dict(beta=float("inf")), "beta"),
        (dict(h=float("nan")), "h"),
        (dict(horizon=True), "horizon"),
        (dict(seed=False), "seed"),
        (dict(n=np.int64(1)), "n"),
        (dict(replications=2.0), "replications"),
        (dict(budget=-1e300), "b"),
        (dict(alpha=1e-200, beta=1.0), "beta"),
        (dict(seed=-1), "seed"),
        (dict(seed=np.int64(-3)), "seed"),
    ]
    base = dict(n=5, alpha=1.0, beta=1.2, budget=1.0, p_update=0.95)
    for overrides, key in cases:
        kwargs = dict(base)
        kwargs.update(overrides)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**kwargs)
        assert err.value.key == key, key


def test_numpy_integers_are_accepted_as_ints():
    cfg = ExperimentConfig(
        n=np.int64(5), alpha=1.0, beta=1.2, budget=1.0, p_update=0.95,
        horizon=np.int32(10), replications=np.uint16(2), seed=np.int64(7),
    )
    assert (cfg.n, cfg.horizon, cfg.replications, cfg.seed) == (5, 10, 2, 7)
    assert all(type(v) is int for v in (cfg.n, cfg.horizon, cfg.replications, cfg.seed))


def test_explicit_initial_state_checked_against_budget():
    base = dict(n=3, alpha=1.0, beta=1.2, budget=1.0, p_update=0.95)
    cfg = ExperimentConfig(initial_state=(0.5, 0.25, 0.25), **base)
    assert cfg.initial_state == (0.5, 0.25, 0.25)
    with pytest.raises(ConfigError):
        ExperimentConfig(initial_state=(0.5, 0.25), **base)
    with pytest.raises(ConfigError):
        ExperimentConfig(initial_state=(1.0, 1.0, 1.0), **base)


@pytest.mark.parametrize("vector", [
    (float("nan"), 0.0, 0.0, 0.0, 1.0),
    (float("inf"), float("-inf"), 0.0, 0.0, 1.0),
    # finite, sums to the budget, but beyond what the formulas take
    (1e300, -1e300, 0.0, 0.0, 1.0),
])
def test_initial_state_entries_must_be_finite(vector):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(n=5, alpha=1.0, beta=1.2, budget=1.0, p_update=0.95,
                         initial_state=vector)
    assert err.value.key == "initial_state"


def test_file_keys_beat_preset_defaults():
    cfg = parse_config_text(GOOD, defaults=SIMULATE_PRESETS["fig1"])
    assert cfg.horizon == 100
    assert cfg.replications == 3


def test_config_from_table_matches_preset():
    cfg = config_from_table(SIMULATE_PRESETS["fig1"])
    assert cfg.n == 5
    assert cfg.replications == 10000
    assert cfg.seed == 42


def test_load_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD, encoding="utf-8")
    cfg = load_config(str(path))
    assert cfg == parse_config_text(GOOD)
