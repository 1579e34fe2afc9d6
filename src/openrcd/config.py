"""Experiment configuration: typed record, key=value parsing, presets.

The on-disk format is flat ``key = value`` lines; ``#`` starts a
comment, blank lines are skipped.  Recognized keys::

    n                 agent count (int, >= 2)            required
    alpha             strong-convexity modulus (> 0)     required
    beta              smoothness modulus (>= alpha,      required
                      beta/alpha <= MAX_KAPPA)
    b                 budget (|b| <= MAX_ABS_BUDGET)     required
    p_U               per-iteration update probability   required
    h                 step size, default 1/beta
    horizon           iterations K, default 600
    replications      default 1
    seed              base RNG seed (int, >= 0), default 0
    initial_state     uniform_budget | minimizer | comma-separated finite
                      floats of size <= MAX_ABS_BUDGET summing to b
    function_family   quadratic | logcosh_quadratic

Every validation failure raises :class:`ConfigError` carrying the
offending key, which the CLI maps to exit status 2.
"""

import math
from dataclasses import dataclass
from numbers import Integral

from .bounds import MAX_ABS_BUDGET, MAX_KAPPA
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
        self._integer("n", 2)
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ConfigError("alpha", f"need a finite alpha > 0, got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta >= self.alpha):
            raise ConfigError(
                "beta", f"need a finite beta >= alpha={self.alpha}, got {self.beta!r}"
            )
        if not self.kappa <= MAX_KAPPA:
            raise ConfigError(
                "beta", f"need kappa = beta/alpha <= {MAX_KAPPA:g}, got {self.kappa!r}"
            )
        if not abs(self.budget) <= MAX_ABS_BUDGET:
            raise ConfigError(
                "b", f"need a budget of size <= {MAX_ABS_BUDGET:g}, got {self.budget!r}"
            )
        if not (0.0 <= self.p_update <= 1.0):
            raise ConfigError("p_U", f"need a probability in [0, 1], got {self.p_update!r}")
        if self.h is None:
            object.__setattr__(self, "h", 1.0 / self.beta)
        if not (0.0 < self.h <= 1.0 / self.beta):
            raise ConfigError("h", f"need 0 < h <= 1/beta={1.0 / self.beta}, got {self.h!r}")
        self._integer("horizon", 0)
        self._integer("replications", 1)
        self._integer("seed", 0)
        if isinstance(self.initial_state, str):
            if self.initial_state not in _INITIAL_STATE_NAMES:
                raise ConfigError(
                    "initial_state",
                    f"{self.initial_state!r} is not one of {_INITIAL_STATE_NAMES} "
                    "or a comma-separated vector",
                )
        else:
            vec = tuple(float(v) for v in self.initial_state)
            if len(vec) != self.n:
                raise ConfigError(
                    "initial_state", f"vector has {len(vec)} entries, need n={self.n}"
                )
            for v in vec:
                if not abs(v) <= MAX_ABS_BUDGET:
                    raise ConfigError(
                        "initial_state",
                        f"need finite entries of size <= {MAX_ABS_BUDGET:g}, got {v!r}",
                    )
            if abs(sum(vec) - self.budget) > 1e-9:
                raise ConfigError(
                    "initial_state",
                    f"vector sums to {sum(vec)!r}, budget is {self.budget!r}",
                )
            object.__setattr__(self, "initial_state", vec)
        if self.function_family not in _FAMILIES:
            raise ConfigError(
                "function_family", f"{self.function_family!r} is not one of {_FAMILIES}"
            )

    def _integer(self, key, lowest):
        """Check that field ``key`` is an integer (numpy ones too, bool
        not) no smaller than ``lowest``, and store it as a Python int."""
        value = getattr(self, key)
        if not isinstance(value, Integral) or isinstance(value, bool) or value < lowest:
            raise ConfigError(key, f"need an integer >= {lowest}, got {value!r}")
        object.__setattr__(self, key, int(value))

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
            # tolerate "600.0"-style ints but reject fractional values
            value = float(raw)
            if value != int(value):
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
        key, raw = key.strip(), raw.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(key, "unknown key")
        table[key] = raw
    return config_from_table(table)


def config_from_table(table):
    """Build a config from a raw string table, reporting bad keys."""
    for key in _REQUIRED:
        if key not in table:
            raise ConfigError(key, "required key is missing")
    kwargs = {}
    for key, raw in table.items():
        if key not in _KEY_TYPES:
            raise ConfigError(key, "unknown key")
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

#: named worst-case sweep presets
WORSTCASE_PRESETS = {
    "fig2-analogue": {
        "n_lo": 2,
        "n_hi": 12,
        "kappas": (2.0, 5.0),
        "b": 1.0,
        "budget": 48,
        "seed": 7,
    },
}
