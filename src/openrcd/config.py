"""Experiment configuration: typed record, key=value parsing, presets.

The on-disk format is flat ``key = value`` lines; ``#`` starts a
comment, blank lines are skipped.  Recognized keys::

    n                 agent count (count >= 2)           required
    alpha, beta       curvature pair                     required
    b                 budget                             required
    p_U               per-iteration update probability   required
    h                 step size, default 1/beta
    horizon           iterations K (count >= 0), default 600
    replications      count >= 1, default 1
    seed              base RNG seed (count >= 0), default 0
    initial_state     uniform_budget | minimizer | comma-separated
                      floats, each a budget, summing to b
    function_family   quadratic | logcosh_quadratic

Each parameter rule is stated once, in the ``_check_*`` helpers below,
which the CLI and the library call too: a bad value raises
:class:`ConfigError` (a ``ValueError``) naming its key or argument.
"""

import math
from dataclasses import dataclass
from numbers import Integral

from .allocation import Allocation, FeasibilityError
from .functions import ConvexityCertificate

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config_text",
    "config_from_table",
    "load_config",
    "SIMULATE_PRESETS",
    "WORSTCASE_PRESETS",
]


class ConfigError(ValueError):
    """Invalid or missing configuration value; ``key`` names the culprit."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


#: largest ``kappa`` the calculators accept; ``kappa ** 3`` overflows a
#: float from about 5.6e102 on
MAX_KAPPA = 1e100

#: largest ``|b|`` the calculators accept; ``(|b| + n) ** 2`` overflows a
#: float from about 1.3e154 on
MAX_ABS_BUDGET = 1e150


def _need(ok, key, need, value):
    if not ok:
        raise ConfigError(key, f"need {need}, got {value!r}")
    return value


def _check_count(key, value, lowest):
    """An integer (numpy ones too; no bool, no float) >= ``lowest``, as an int."""
    ok = isinstance(value, Integral) and not isinstance(value, bool) and value >= lowest
    return int(_need(ok, key, f"an integer >= {lowest}", value))


def _check_kappa(key, kappa):
    return _need(1.0 <= kappa <= MAX_KAPPA, key, f"1 <= kappa <= {MAX_KAPPA:g}", kappa)


def _check_budget(key, b):
    return _need(abs(b) <= MAX_ABS_BUDGET, key, f"|{key}| <= {MAX_ABS_BUDGET:g}", b)


def _check_probability(key, p):
    return _need(0.0 <= p <= 1.0, key, "a probability in [0, 1]", p)


def _check_nonnegative(key, value):
    return _need(value >= 0.0, key, "a number >= 0", value)


def _check_curvature(alpha, beta):
    """A finite pair ``0 < alpha <= beta``; returns ``kappa = beta / alpha``."""
    _need(0.0 < alpha < math.inf, "alpha", "a finite alpha > 0", alpha)
    _need(alpha <= beta < math.inf, "beta", f"a finite beta >= alpha={alpha}", beta)
    return _check_kappa("beta", beta / alpha)


def _check_step(h, beta):
    return _need(0.0 < h <= 1.0 / beta < math.inf, "h", f"0 < h <= 1/beta={1.0 / beta}", h)


_INITIAL_STATE_NAMES = ("uniform_budget", "minimizer")
_FAMILIES = ("quadratic", "logcosh_quadratic")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters of one open-system experiment."""

    n: int
    alpha: float
    beta: float
    budget: float
    p_update: float
    h: float | None = None
    horizon: int = 600
    replications: int = 1
    seed: int = 0
    initial_state: str | tuple = "uniform_budget"
    function_family: str = "quadratic"

    def __post_init__(self):
        for key, lowest in (("n", 2), ("horizon", 0), ("replications", 1), ("seed", 0)):
            object.__setattr__(self, key, _check_count(key, getattr(self, key), lowest))
        _check_curvature(self.alpha, self.beta)
        _check_budget("b", self.budget)
        _check_probability("p_U", self.p_update)
        if self.h is None:
            object.__setattr__(self, "h", 1.0 / self.beta)
        _check_step(self.h, self.beta)
        if isinstance(self.initial_state, str):
            _need(self.initial_state in _INITIAL_STATE_NAMES, "initial_state",
                  f"one of {_INITIAL_STATE_NAMES} or a vector", self.initial_state)
        else:
            vec = tuple(float(v) for v in self.initial_state)
            _need(len(vec) == self.n, "initial_state", f"n={self.n} entries", vec)
            for v in vec:
                _check_budget("initial_state", v)
            try:
                Allocation(vec, self.budget)
            except FeasibilityError as exc:
                raise ConfigError("initial_state", str(exc)) from None
            object.__setattr__(self, "initial_state", vec)
        _need(self.function_family in _FAMILIES, "function_family", f"one of {_FAMILIES}",
              self.function_family)

    @property
    def kappa(self):
        return self.beta / self.alpha

    @property
    def certificate(self):
        return ConvexityCertificate(self.alpha, self.beta)


_KEY_TYPES = {
    "n": int,
    "alpha": float,
    "beta": float,
    "b": float,
    "p_U": float,
    "h": float,
    "horizon": int,
    "replications": int,
    "seed": int,
    "initial_state": str,
    "function_family": str,
}
_REQUIRED = ("n", "alpha", "beta", "b", "p_U")
# config-file key -> constructor argument
_KEY_TO_FIELD = {"b": "budget", "p_U": "p_update"}


def _convert(key, raw):
    kind = _KEY_TYPES[key]
    if kind is str:
        return raw
    try:
        if kind is int:
            # tolerate "600.0"-style ints but reject fractional and non-finite values
            value = float(raw)
            if not value.is_integer():
                raise ValueError
            return int(value)
        return float(raw)
    except ValueError:
        raise ConfigError(key, f"cannot parse {raw!r} as {kind.__name__}") from None


def parse_config_text(text, defaults=None):
    """Parse flat ``key = value`` text into an :class:`ExperimentConfig`.

    ``defaults`` (a mapping of config keys to raw string values) seeds
    the table before parsing, so a preset supplies whatever the file
    does not; keys in the text win.
    """
    table = dict(defaults) if defaults else {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(body.split()[0], f"line {lineno} is not 'key = value'")
        key, _, raw = body.partition("=")
        table[key.strip()] = raw.strip()
    return config_from_table(table)


def config_from_table(table):
    """Build a config from a raw string table, reporting bad keys."""
    for key in table:
        if key not in _KEY_TYPES:
            raise ConfigError(key, "unknown key")
    for key in _REQUIRED:
        if key not in table:
            raise ConfigError(key, "required key is missing")
    kwargs = {}
    for key, raw in table.items():
        value = _convert(key, raw) if isinstance(raw, str) else raw
        if key == "initial_state" and isinstance(value, str):
            if value not in _INITIAL_STATE_NAMES:
                try:
                    value = tuple(float(v) for v in value.split(","))
                except ValueError:
                    raise ConfigError(
                        "initial_state", f"cannot parse {value!r} as a vector"
                    ) from None
        kwargs[_KEY_TO_FIELD.get(key, key)] = value
    return ExperimentConfig(**kwargs)


def load_config(path, defaults=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), defaults=defaults)


#: named simulate presets (raw string tables, same format as config files)
SIMULATE_PRESETS = {
    "fig1": {
        "n": "5",
        "alpha": "1.0",
        "beta": "1.2",
        "b": "1.0",
        "p_U": "0.95",
        "horizon": "600",
        "replications": "10000",
        "seed": "42",
        "initial_state": "uniform_budget",
        "function_family": "quadratic",
    },
}

#: named worst-case sweep presets (raw strings, as the ``worstcase`` flags)
WORSTCASE_PRESETS = {
    "fig2-analogue": {"n": "2:12", "kappa": "2,5", "b": "1", "budget": "48", "seed": "7"},
}
