"""Command-line front end.

Subcommands::

    simulate  --config PATH [--preset fig1] [--out DIR]
    bounds    --n N --kappa K --b B --pu P1,P2,...
    worstcase --n LO:HI --kappa K1,K2 --b B --budget N --seed S
              [--preset fig2-analogue] [--out DIR]

Exit status: 0 on success, 2 on configuration or argument validation
failure (numbers by the library's own rules in :mod:`openrcd.rules`,
before ``--out`` is created), an unreadable ``--config`` or an unusable
``--out`` (the message names the offending key or flag), 3 on solver
failure (no convergence, or a run on either engine whose estimates or
minimizers miss its budget by more than ``FEASIBILITY_TOL * max(1, |b|)``).

File formats (stable schemas, UTF-8, LF line endings, floats printed
with 17 significant digits so they round-trip):

* ``trajectory.csv`` - single runs; columns ``k,event,C_k,subopt,min_shift``.
* ``ensemble.csv`` - replicated runs; columns ``k,mean_C,ci_lo,ci_hi,
  bound_general,bound_quadratic`` where the bound columns iterate the
  mean-error recursions (general and quadratic offsets) from the
  measured initial mean.
* ``worstcase.csv`` - sweep table; columns ``n,kappa,empirical_max,
  bound_general,bound_quadratic,conjecture``; the conjecture is a
  ``b = 1`` curve, the same at every ``--b``, and no cap for ``|b| > 1``.
* ``worstcase.svg`` - self-contained plot of the sweep (no plotting
  dependency).

Rerunning any subcommand with the same inputs reproduces every output
byte for byte.
"""

import argparse
import math
import os
import sys
from dataclasses import fields

from .allocation import FeasibilityError, NonConvergenceError
from .bounds import evaluate_bounds, recursion_envelope
from .config import SIMULATE_PRESETS, WORSTCASE_PRESETS, config_from_table, load_config
from .opensim import _check_footprint, run_ensemble, run_trajectory
from .rules import (
    MAX_SEARCH_BUDGET,
    ConfigError,
    _check_agents,
    _check_budget,
    _check_count,
    _check_kappa,
    _check_probability,
    _check_search_budget,
)
from .worstcase import SweepRow, sweep

__all__ = ["main", "cmd_simulate", "cmd_bounds", "cmd_worstcase"]


#: the ``%`` conversion of each CSV column kind
_CONVERSIONS = {"d": "%d", "s": "%s", "g": "%.17g"}


def _fmt(value):
    """A printed cell: ``yes``/``no`` for a flag, else a CSV float."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return _CONVERSIONS["g"] % value


def _write_csv(path, columns):
    """Write one ``(name, kind, values)`` triple per column; ``kind`` is a
    letter: ``d`` an int, ``s`` a string, ``g`` a float.  Each row is
    printed with one ``%``."""
    names, kinds, values = zip(*columns)
    line = ",".join(_CONVERSIONS[kind] for kind in kinds) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(line % row for row in zip(*values))


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", f"cannot create directory {path!r}: {exc.strerror}") from None


def _preset(name, presets):
    """The raw table of preset ``name`` in ``presets``; empty for no name."""
    if not name:
        return {}
    if name not in presets:
        raise ConfigError("preset", f"unknown preset {name!r}")
    return presets[name]


#: the value lines of a bound block: ``(label, BoundSet field)``
_BLOCK = (
    ("closed-system rate", "closed_rate"),
    ("open-system rate", "open_rate"),
    ("offset (general)", "offset_general"),
    ("offset (quadratic)", "offset_quadratic"),
    ("steady state (printed)", "steady_state_printed"),
    ("steady state (recursion)", "steady_state_fixed_point"),
    ("minimizer ball radius", "ball_radius"),
)


def _bound_block(bs, beta):
    """The printed lines of ``bs``, whose default step is ``1/beta``."""
    lines = [
        f"n={bs.n}  kappa={_fmt(bs.kappa)}  b={_fmt(bs.budget)}  "
        f"p_U={_fmt(bs.p_update)}  h={_fmt(bs.h)}",
        *(f"{label:<26}{_fmt(getattr(bs, field))}" for label, field in _BLOCK),
        f"stability: p_U > {_fmt(bs.min_update_probability)} "
        f"(replacement ratio < {_fmt(bs.max_replacement_ratio)}) -> "
        + ("stable" if bs.stable else "UNSTABLE"),
    ]
    if bs.h < 1.0 / beta:
        # only the closed-system rate follows h; the open-system calculators
        # take the paper's step
        lines.append(
            f"note: h < 1/beta = {_fmt(1.0 / beta)}; the open-system rate, offsets, "
            "steady states and stability are for h = 1/beta"
        )
    both = (bs.steady_state_printed, bs.steady_state_fixed_point)
    if all(math.isfinite(v) for v in both) and abs(both[0] - both[1]) > 1e-12 * max(
        1.0, abs(both[0]), abs(both[1])
    ):
        lines.append(
            "note: printed steady state and recursion fixed point differ; "
            "the recursion fixed point is the self-consistent value"
        )
    return lines


# ---------------------------------------------------------------------------
# SVG plotting (self-contained, no dependency)

_PALETTE = ("#1965b0", "#dc050c", "#4eb265", "#f1932d", "#882e72", "#777777")


def _span(lo, hi, pad=0.0):
    """The plotted range of an axis through ``lo`` and ``hi``: widened to
    ``max(1, |lo|)`` where it is too narrow for its ticks to advance (up,
    or down where up overflows), then padded by ``pad`` of its width at
    each end, short of overflow.  Widths are taken of halves, which keeps
    them finite and, for normal floats, their bits."""
    if not hi - lo >= 2.0**-40 * max(1.0, abs(lo), abs(hi)):
        width = max(1.0, abs(lo))
        lo, hi = (lo, lo + width) if lo + width < math.inf else (lo - width, lo)
    margin = pad * (hi / 2 - lo / 2) * 2
    return max(lo - margin, -sys.float_info.max), min(hi + margin, sys.float_info.max)


def _ticks(lo, hi):
    """About five round tick positions across ``[lo, hi]``."""
    lo, hi = _span(lo, hi)
    raw = (hi / 2 - lo / 2) / 5 * 2
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * magnitude:
            step = m * magnitude
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t, end = start, min(hi + 1e-9 * step, sys.float_info.max)
    while t <= end:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _text(x, y, size, body, anchor="middle", rest=""):
    """A sans-serif ``<text>``; ``x`` and ``y`` as they are to print."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{rest}>{body}</text>')


def _line(x1, y1, x2, y2, stroke="#dddddd", width=1, dash=""):
    """A ``<line>``; grid grey and 1 wide by default."""
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash}/>')


def _svg_line_plot(series, title, xlabel, ylabel):
    """Render polyline series to an SVG document string.

    ``series`` is a list of ``(label, xs, ys, dashed)`` tuples.
    """
    width, height = 720, 460
    margin_l, margin_r, margin_t, margin_b = 64, 16, 36, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    xs_all = [x for _, xs, _, _ in series for x in xs]
    ys_all = [y for _, _, ys, _ in series for y in ys if math.isfinite(y)]
    x_lo, x_hi = _span(min(xs_all), max(xs_all))
    y_lo, y_hi = _span(min(ys_all), max(ys_all), 0.05)

    def px(x):
        return margin_l + (x / 2 - x_lo / 2) / (x_hi / 2 - x_lo / 2) * plot_w

    def py(y):
        return margin_t + (y_hi / 2 - y / 2) / (y_hi / 2 - y_lo / 2) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _text(f"{width / 2:.1f}", 22, 15, title),
    ]
    # axes and grid
    for t in _ticks(x_lo, x_hi):
        if t < x_lo - 1e-12 or t > x_hi + 1e-12:
            continue
        x = f"{px(t):.2f}"
        parts.append(_line(x, margin_t, x, margin_t + plot_h))
        parts.append(_text(x, margin_t + plot_h + 18, 11, f"{t:g}"))
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(_line(margin_l, f"{y:.2f}", margin_l + plot_w, f"{y:.2f}"))
        parts.append(_text(margin_l - 6, f"{y + 4:.2f}", 11, f"{t:g}", "end"))
    parts.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(_text(f"{margin_l + plot_w / 2:.1f}", height - 12, 12, xlabel))
    mid = f"{margin_t + plot_h / 2:.1f}"
    parts.append(_text(18, mid, 12, ylabel, rest=f' transform="rotate(-90 18 {mid})"'))
    # series
    for idx, (label, xs, ys, dashed) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys) if math.isfinite(y)
        )
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash}/>'
        )
        ly = margin_t + 16 + 16 * idx
        lx = margin_l + plot_w - 160
        parts.append(_line(lx, ly - 4, lx + 24, ly - 4, color, 1.8, dash))
        parts.append(_text(lx + 30, ly, 11, label, None))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args):
    table = _preset(args.preset, SIMULATE_PRESETS)
    if args.config:
        try:
            config = load_config(args.config, defaults=table)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config", f"cannot read {args.config!r}: {exc}") from None
    elif table:
        config = config_from_table(table)
    else:
        raise ConfigError("config", "need --config PATH or --preset NAME")

    _check_footprint(config)
    _make_out_dir(args.out)
    bs = evaluate_bounds(
        config.n, config.alpha, config.beta, config.budget, config.p_update, config.h
    )
    for line in _bound_block(bs, config.beta):
        print(line)

    if config.replications == 1:
        record = run_trajectory(config)
        path = os.path.join(args.out, "trajectory.csv")
        _write_csv(path, [
            ("k", "d", record.k.tolist()),
            ("event", "s", record.event),
            ("C_k", "g", record.error),
            ("subopt", "g", record.suboptimality),
            ("min_shift", "g", record.minimizer_shift),
        ])
        print(f"wrote {path} ({record.k.size} rows)")
    else:
        stats = run_ensemble(config)
        mean, half = stats.mean_error, stats.ci_halfwidth
        path = os.path.join(args.out, "ensemble.csv")
        _write_csv(path, [
            ("k", "d", range(config.horizon + 1)),
            ("mean_C", "g", mean),
            ("ci_lo", "g", mean - half),
            ("ci_hi", "g", mean + half),
            ("bound_general", "g",
             recursion_envelope(mean[0], bs.open_rate, bs.offset_general, config.horizon)),
            ("bound_quadratic", "g",
             recursion_envelope(mean[0], bs.open_rate, bs.offset_quadratic, config.horizon)),
        ])
        print(
            f"wrote {path} ({config.horizon + 1} rows, "
            f"{stats.replications} replications, "
            f"{stats.replacement_count} replacements)"
        )
    return 0


def _float_list(raw, key):
    # an empty entry, as in "0.5,,0.6" or ",", does not parse either
    try:
        return [float(part) for part in raw.split(",")]
    except ValueError:
        raise ConfigError(key, f"cannot parse {raw!r} as a comma-separated float list")


#: the columns of the ``bounds`` table: ``(header, BoundSet field)``
_TABLE = (
    ("p_U", "p_update"),
    ("stable", "stable"),
    ("closed_rate", "closed_rate"),
    ("open_rate", "open_rate"),
    ("offset_general", "offset_general"),
    ("offset_quadratic", "offset_quadratic"),
    ("steady_printed", "steady_state_printed"),
    ("steady_recursion", "steady_state_fixed_point"),
)


def cmd_bounds(args):
    _check_agents("n", args.n)
    pu_values = [_check_probability("pu", pu) for pu in _float_list(args.pu, "pu")]
    _check_kappa("kappa", args.kappa)
    _check_budget("b", args.b)
    print("  ".join(f"{header:>18}" for header, _ in _TABLE))
    for pu in pu_values:
        bs = evaluate_bounds(args.n, 1.0, args.kappa, args.b, pu)
        print("  ".join(f"{_fmt(getattr(bs, field)):>18}" for _, field in _TABLE))
    print()
    for line in _bound_block(bs, args.kappa):
        print(line)
    return 0


def _parse_range(raw):
    lo, _, hi = raw.partition(":")
    try:
        lo_v, hi_v = int(lo), int(hi if hi else lo)
    except ValueError:
        raise ConfigError("n", f"cannot parse {raw!r} as LO:HI") from None
    return range(_check_agents("n", lo_v), _check_agents("n", hi_v, lo_v) + 1)


def cmd_worstcase(args):
    # defaults < preset < given flags; float() and int() read either form
    flags = {"budget": "64", "seed": "0", **_preset(args.preset, WORSTCASE_PRESETS)}
    for key in ("n", "kappa", "b", "budget", "seed"):
        if getattr(args, key) is not None:
            flags[key] = getattr(args, key)
        elif key not in flags:
            raise ConfigError(key, f"need --{key} or a preset")
    n_values = _parse_range(flags["n"])
    kappas = [_check_kappa("kappa", kappa) for kappa in _float_list(flags["kappa"], "kappa")]
    b = _check_budget("b", float(flags["b"]))
    budget = _check_search_budget("budget", int(flags["budget"]))
    seed = _check_count("seed", int(flags["seed"]), 0)

    _make_out_dir(args.out)
    rows = sweep(n_values, kappas, b, search_budget=budget, seed=seed)
    path = os.path.join(args.out, "worstcase.csv")
    # the header is SweepRow's field names
    _write_csv(path, [
        (field.name, kind, [getattr(r, field.name) for r in rows])
        for field, kind in zip(fields(SweepRow), "dggggg")
    ])
    print(f"wrote {path} ({len(rows)} rows)")

    series = []
    ns = list(n_values)
    for kappa in kappas:
        cells = [r for r in rows if r.kappa == float(kappa)]
        series.append((f"kappa={kappa:g} search", ns, [r.empirical_max for r in cells], False))
        series.append((f"kappa={kappa:g} conjecture", ns, [r.conjecture for r in cells], True))
    svg_path = os.path.join(args.out, "worstcase.svg")
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_svg_line_plot(series, "Worst single-replacement minimizer displacement",
                                "agents n", "squared displacement"))
    print(f"wrote {svg_path}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="openrcd",
        description="Pairwise coordinate descent in open multi-agent systems: "
        "simulation, bound tables, worst-case search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one experiment and write CSV logs")
    p_sim.add_argument("--config", help="key=value config file")
    p_sim.add_argument("--preset", help="named preset (fig1); --config overrides keys")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_b = sub.add_parser("bounds", help="print the bound table over a p_U grid")
    p_b.add_argument("--n", type=int, required=True)
    p_b.add_argument("--kappa", type=float, required=True)
    p_b.add_argument("--b", type=float, required=True)
    p_b.add_argument("--pu", required=True, help="comma-separated p_U grid")
    p_b.set_defaults(func=cmd_bounds)

    p_w = sub.add_parser(
        "worstcase",
        help="sweep the worst-displacement search",
        description="Sweep the worst-displacement search over n and kappa. The "
        "conjecture column and curve are the b = 1 conjecture, the same at every "
        "--b, and no cap for |b| > 1.",
    )
    p_w.add_argument("--n", help="agent range LO:HI (inclusive)")
    p_w.add_argument("--kappa", help="comma-separated condition ratios")
    p_w.add_argument("--b", type=float)
    p_w.add_argument("--budget", type=int,
                     help=f"ascent starts per grid cell, 1 to {MAX_SEARCH_BUDGET}")
    p_w.add_argument("--seed", type=int)
    p_w.add_argument("--preset", help="named preset (fig2-analogue)")
    p_w.add_argument("--out", default=".", help="output directory")
    p_w.set_defaults(func=cmd_worstcase)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads only -1 and -2.5 shapes as negative numbers, so it takes
    # a budget such as -1e6 or -inf for an option: attach it to its flag
    while "--b" in argv[:-1]:
        i = argv.index("--b")
        argv[i:i + 2] = ["--b=" + argv[i + 1]]
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergenceError, FeasibilityError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
