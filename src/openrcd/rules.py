"""Input rules shared by the config, the CLI and the library.

Each parameter rule is stated once, in the ``_check_*`` helpers below: a
bad value raises :class:`ConfigError` (a ``ValueError``) naming its key
or argument.  This module imports nothing from the package, so every
other module, :mod:`openrcd.allocation` included, can call the rules;
:mod:`openrcd.config` and :mod:`openrcd.bounds` re-export them.
"""

import math
from numbers import Integral


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

#: largest agent count anywhere: ``(|b| + n) ** 2`` and ``n ** 4`` stay
#: finite floats; ``opensim._footprint`` states what a simulate run holds
MAX_AGENTS = 1024

#: most ascent starts a worst-case search takes per cell; a full cell is
#: almost all seeded random starts, whose CPU cost grows with n: about
#: 0.1 ms at n = 2, 0.4 ms at n = 12 (about 7 minutes a full cell), 8 ms
#: at n = 256 and 30-50 ms at n = 1024 (9 to 15 hours) on a 2-core Xeon
MAX_SEARCH_BUDGET = 2**20


def _need(ok, key, need, value):
    if not ok:
        raise ConfigError(key, f"need {need}, got {value!r}")
    return value


def _check_count(key, value, lowest):
    """An integer (numpy ones too; no bool, no float) >= ``lowest``, as an int."""
    ok = isinstance(value, Integral) and not isinstance(value, bool) and value >= lowest
    return int(_need(ok, key, f"an integer >= {lowest}", value))


def _check_agents(key, n, lowest=2):
    """An agent count: a count >= ``lowest`` and at most ``MAX_AGENTS``, as an int."""
    n = _check_count(key, n, lowest)
    return _need(n <= MAX_AGENTS, key, f"at most MAX_AGENTS = {MAX_AGENTS} agents", n)


def _check_search_budget(key, starts):
    """A search budget: a count >= 1 and at most ``MAX_SEARCH_BUDGET``, as an int."""
    starts = _check_count(key, starts, 1)
    return _need(starts <= MAX_SEARCH_BUDGET, key,
                 f"at most MAX_SEARCH_BUDGET = {MAX_SEARCH_BUDGET} starts", starts)


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


def _check_cost_scale(beta, radius):
    """``beta`` small enough that ``beta * radius**2`` is a finite float.

    A certified cost is at most ``beta / 2`` times the squared distance to
    its own minimizer, so where ``radius`` bounds that distance each cost
    value, and a roster's sum of them, stays finite.
    """
    r = float(radius)   # Python floats overflow to inf without a numpy warning
    return _need(float(beta) * r * r < math.inf, "beta",
                 f"a finite beta * r**2 at the distance r = {r:.6g} from the "
                 "estimates to the cost minimizers", beta)


def _check_step(h, beta):
    """A step ``0 < h <= 1/beta``; ``None`` is the default ``1/beta``, and
    where that is not finite the fault is ``beta``'s."""
    if h is None:
        _need(1.0 / beta < math.inf, "beta", "a finite default step h = 1/beta", beta)
        h = 1.0 / beta
    return _need(0.0 < h <= 1.0 / beta < math.inf, "h", f"0 < h <= 1/beta={1.0 / beta}", h)
