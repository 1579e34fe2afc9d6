import numpy as np
import pytest

from openrcd.config import (
    MAX_AGENTS,
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
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD + "mystery value\n")
    assert err.value.key == "mystery"
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD + "initial_state = 1,x,0,0,0\n")
    assert err.value.key == "initial_state"


def test_config_counts_are_read_exactly():
    # both exceed 2**53, so a float cannot hold either
    cfg = parse_config_text(
        GOOD.replace("seed = 17", "seed = 12345678901234567891")
        .replace("horizon = 100", "horizon = 9007199254740993")
    )
    assert (cfg.seed, cfg.horizon) == (12345678901234567891, 9007199254740993)
    spelled = parse_config_text(
        GOOD.replace("horizon = 100", "horizon = 600.0").replace("seed = 17", "seed = 1e3")
    )
    assert (spelled.horizon, spelled.seed) == (600, 1000)


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
        # the default step h = 1/beta overflows: the key at fault is beta
        (dict(alpha=5e-324, beta=5e-324), "beta"),
        (dict(horizon=True), "horizon"),
        (dict(seed=False), "seed"),
        (dict(n=np.int64(1)), "n"),
        (dict(replications=2.0), "replications"),
        (dict(replications=2.5), "replications"),
        (dict(seed=1.5), "seed"),
        (dict(budget=-1e300), "b"),
        (dict(alpha=1e-200, beta=1.0), "beta"),
        # cost values beta/2 (x - mu)^2 overflow on the minimizer ball or at the start
        (dict(alpha=1e300, beta=1e300, budget=-1e6), "beta"),
        (dict(alpha=1e10, beta=1e10, budget=0.0, initial_state=(1e150, -1e150, 0.0, 0.0, 0.0)),
         "beta"),
        (dict(seed=-1), "seed"),
        (dict(seed=np.int64(-3)), "seed"),
        (dict(n=MAX_AGENTS + 1), "n"),
        (dict(n=10**400), "n"),
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
    # numpy's pairwise sum is exactly 1, the agent-order sum (Allocation's)
    # misses by 1.1e-9
    vec = (963485.023, 736601.421, 10991.927, 986104.285, 343637.366, 749019.8,
           -3895980.812000001, 106141.99)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(initial_state=vec, **dict(base, n=8))
    assert err.value.key == "initial_state"
    # the same numbers in an order whose agent-order sum is exactly 1 pass,
    # though numpy's pairwise sum misses by 1.4e-9
    ExperimentConfig(initial_state=(963485.023, 343637.366, 736601.421, 986104.285,
                                    106141.99, 10991.927, 749019.8, -3895980.812000001),
                     **dict(base, n=8))


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


def test_rules_are_a_leaf_module_reexported_by_config_and_bounds():
    # allocation calls the rules, and config imports allocation, so the
    # rules may import nothing from the package
    import ast
    import inspect

    from openrcd import bounds, config, rules

    tree = ast.parse(inspect.getsource(rules))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("openrcd")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("openrcd") for alias in node.names)
    names = ["ConfigError"] + [name for name in vars(rules) if name.startswith("MAX_")]
    for name in names:
        assert getattr(config, name) is getattr(rules, name), name
    for name in ("MAX_KAPPA", "MAX_ABS_BUDGET", "MAX_AGENTS", "_check_count", "_check_kappa"):
        assert getattr(bounds, name) is getattr(rules, name), name
