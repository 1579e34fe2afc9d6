"""The CLI under inputs at the edges of its rules.

Every key and flag of the three commands is drawn from one pool of edge
values: zeros of both signs, the smallest subnormal, huge and non-finite
floats, a fraction, past-64-bit and past-``MAX_AGENTS`` integers, the
limits in :mod:`openrcd.rules` and one ulp past each.  Whatever is drawn,
``main`` must return 0, 2 (a named ``ConfigError``; argparse's own usage
error counts as 2) or 3 (a solver failure): no traceback, no
RuntimeWarning, no ``nan`` in stdout or in any file written, and no
``--out`` directory after an exit 2.

Run sizes are capped so the whole file takes a few seconds: ``horizon``,
``replications`` and the search ``--budget`` take the pool's values that
are refused or small, never a valid size past 3, and a worst-case ``--n``
range spans at most two agent counts.  The ``--budget`` pool also holds
``MAX_SEARCH_BUDGET + 1`` and ``2**64``, both refused at once.  Huge
sizes are refused by the memory check, which has its own test.
"""

import contextlib
import io
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from openrcd.cli import main
from openrcd.rules import MAX_ABS_BUDGET, MAX_AGENTS, MAX_KAPPA, MAX_SEARCH_BUDGET

#: each rule's limits: kappa and p_U in [1, MAX_KAPPA] and [0, 1], |b| at
#: most MAX_ABS_BUDGET, n in [2, MAX_AGENTS]
_LIMITS = [1.0, 0.0, MAX_KAPPA, MAX_ABS_BUDGET, -MAX_ABS_BUDGET]
_PAST = [math.nextafter(x, -math.inf) for x in (1.0, 0.0, -MAX_ABS_BUDGET)] + [
    math.nextafter(x, math.inf) for x in (1.0, MAX_KAPPA, MAX_ABS_BUDGET)
]
EDGES = (
    ["0", "-0", "5e-324", "1e-300", "1e300", "inf", "nan", "2.5", str(2**64), "1025"]
    + [repr(x) for x in _LIMITS + _PAST]
    + ["1", "2", str(MAX_AGENTS)]
)


def _is_size_past(raw, most):
    """Whether ``raw`` reads as an integer count above ``most``."""
    try:
        value = float(raw)
    except ValueError:
        return False
    return value.is_integer() and value > most


#: the pool's values that are refused as run sizes or run at most 3
_SMALL_SIZES = [raw for raw in EDGES if not _is_size_past(raw, 3)] + ["3"]
SIZES = st.sampled_from(_SMALL_SIZES)

#: search budgets: the small sizes and two past ``MAX_SEARCH_BUDGET``
BUDGETS = st.sampled_from(_SMALL_SIZES + [str(MAX_SEARCH_BUDGET + 1), str(2**64)])

edge = st.sampled_from(EDGES)


def _run(argv):
    """Run ``main(argv)``, an ``OUT`` argument naming a fresh directory,
    hold it to the rules above and return its exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = [out if arg == "OUT" else arg for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    status = main(argv)
                except SystemExit as exc:   # argparse refusing a flag
                    status = exc.code
        assert status in (0, 2, 3), (argv, status, stderr.getvalue())
        if status == 2:
            assert not os.path.exists(out), argv
        written = {}
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    written[name] = fh.read()
    # the "wrote PATH" lines name the random temporary directory, whose
    # name may itself contain "nan", as tmpnan7d4tr does
    assert "nan" not in stdout.getvalue().replace(tmp, "TMP"), argv
    for name, text in written.items():
        assert "nan" not in text, (argv, name)
    return status


def _perturbed(base, pools=None, lists=()):
    """``base``, a table of good flags or keys, with up to three of them
    set to an edge value or, rarely, dropped.  ``pools`` maps a key to its
    own strategy, and a key in ``lists`` may take two or three edges."""
    pools = pools or {}

    @st.composite
    def table(draw):
        values = dict(base)
        for key in draw(st.lists(st.sampled_from(sorted(base)), max_size=3, unique=True)):
            value = pools.get(key, st.sampled_from(EDGES + [None]))
            if key in lists:
                value |= st.lists(edge, min_size=2, max_size=3).map(",".join)
            values[key] = draw(value)
        return {key: value for key, value in values.items() if value is not None}

    return table()


SIMULATE_KEYS = {
    "n": "3", "alpha": "1", "beta": "2", "b": "1", "p_U": "0.5", "h": "0.25",
    "horizon": "3", "replications": "2", "seed": "0",
    "initial_state": "uniform_budget", "function_family": "quadratic",
}
SIMULATE_POOLS = {
    "horizon": SIZES,
    "replications": SIZES,
    "initial_state": st.sampled_from(["minimizer", "nowhere", "1,0,0"])
    | st.lists(edge, min_size=3, max_size=3).map(",".join),
    "function_family": st.sampled_from(["logcosh_quadratic", "cubic"]),
}


@settings(max_examples=300, deadline=None)
@given(_perturbed(SIMULATE_KEYS, SIMULATE_POOLS), st.sampled_from([None, "fig1"]))
def test_simulate_edges_exit_0_2_or_3(keys, preset):
    if preset:
        # the file keeps the preset's 10000 x 600 run small
        keys.setdefault("horizon", "3")
        keys.setdefault("replications", "2")
    text = "".join(f"{key} = {value}\n" for key, value in keys.items())
    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as fh:
        fh.write(text)
    try:
        argv = ["simulate", "--config", fh.name, "--out", "OUT"]
        _run(argv + (["--preset", preset] if preset else []))
    finally:
        os.unlink(fh.name)


def _argv(command, flags):
    return [command] + [part for flag, value in flags.items() for part in (f"--{flag}", value)]


@settings(max_examples=300, deadline=None)
@given(_perturbed({"n": "5", "kappa": "2", "b": "1", "pu": "0.9,0.95"}, lists=("pu",)))
def test_bounds_edges_exit_0_2_or_3(flags):
    _run(_argv("bounds", flags))


def _agent_range(flags):
    """Cap a worst-case ``--n`` range of two valid counts at two cells."""
    lo, _, hi = flags.get("n", "").partition(":")
    try:
        lo_v, hi_v = int(lo), int(hi)
    except ValueError:
        return flags
    if 2 <= lo_v <= hi_v <= MAX_AGENTS:
        flags["n"] = f"{lo}:{min(hi_v, lo_v + 1)}"
    return flags


@settings(max_examples=300, deadline=None)
@given(_perturbed({"n": "2:3", "kappa": "2", "b": "1", "budget": "2", "seed": "0"},
                  {"budget": BUDGETS}, lists=("kappa",)),
       st.sampled_from(["", ":", ":2", ":3", ":1024", ":1025", ":1"]))
# a lone agent count gives one curve point per series: at this kappa and b
# the search reads inf and the conjecture 5e100 alone spans no y range
@example({"n": "2", "kappa": "1e100", "b": "1e150", "budget": "3", "seed": "0"}, "")
@example({"n": "2:3", "kappa": "2", "b": "1", "budget": str(2**64), "seed": "0"}, "")
def test_worstcase_edges_exit_0_2_or_3(flags, upper):
    if ":" not in flags.get("n", ":"):
        flags["n"] += upper
    _run(_argv("worstcase", _agent_range(flags)) + ["--out", "OUT"])
