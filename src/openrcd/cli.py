"""Command-line front end.

Subcommands::

    simulate  --config PATH [--preset fig1] [--out DIR]
    bounds    --n N --kappa K --b B --pu P1,P2,...
    worstcase --n LO:HI --kappa K1,K2 --b B --budget N --seed S
              [--preset fig2-analogue] [--out DIR]

Exit status: 0 on success, 2 on configuration or argument validation
failure (numbers by the library's own rules in :mod:`openrcd.config`,
before ``--out`` is created), an unreadable ``--config`` or an unusable
``--out`` (the message names the offending key or flag), 3 on solver
failure (no convergence, or a scalar run drifting off its budget).

File formats (stable schemas, UTF-8, LF line endings, floats printed
with 17 significant digits so they round-trip):

* ``trajectory.csv`` - single runs; columns ``k,event,C_k,subopt,min_shift``.
* ``ensemble.csv`` - replicated runs; columns ``k,mean_C,ci_lo,ci_hi,
  bound_general,bound_quadratic`` where the bound columns iterate the
  mean-error recursions (general and quadratic offsets) from the
  measured initial mean.
* ``worstcase.csv`` - sweep table; columns ``n,kappa,empirical_max,
  bound_general,bound_quadratic,conjecture``.
* ``worstcase.svg`` - self-contained plot of the sweep (no plotting
  dependency).

Rerunning any subcommand with the same inputs reproduces every output
byte for byte.
"""

import argparse
import math
import os
import sys

from .allocation import FeasibilityError, NonConvergenceError
from .bounds import evaluate_bounds, recursion_envelope
from .config import (
    SIMULATE_PRESETS,
    WORSTCASE_PRESETS,
    ConfigError,
    _check_budget,
    _check_count,
    _check_kappa,
    _check_probability,
    config_from_table,
    load_config,
)
from .opensim import run_ensemble, run_trajectory
from .worstcase import sweep

__all__ = ["main", "cmd_simulate", "cmd_bounds", "cmd_worstcase"]


def _fmt(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def _make_out_dir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", f"cannot create directory {path!r}: {exc.strerror}") from None


def _bound_block(bs):
    lines = [
        f"n={bs.n}  kappa={_fmt(bs.kappa)}  b={_fmt(bs.budget)}  "
        f"p_U={_fmt(bs.p_update)}  h={_fmt(bs.h)}",
        f"closed-system rate        {_fmt(bs.closed_rate)}",
        f"open-system rate          {_fmt(bs.open_rate)}",
        f"offset (general)          {_fmt(bs.offset_general)}",
        f"offset (quadratic)        {_fmt(bs.offset_quadratic)}",
        f"steady state (printed)    {_fmt(bs.steady_state_printed)}",
        f"steady state (recursion)  {_fmt(bs.steady_state_fixed_point)}",
        f"minimizer ball radius     {_fmt(bs.ball_radius)}",
        f"stability: p_U > {_fmt(bs.min_update_probability)} "
        f"(replacement ratio < {_fmt(bs.max_replacement_ratio)}) -> "
        + ("stable" if bs.stable else "UNSTABLE"),
    ]
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


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / count
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * magnitude:
            step = m * magnitude
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _svg_line_plot(series, title, xlabel, ylabel, width=720, height=460):
    """Render polyline series to an SVG document string.

    ``series`` is a list of ``(label, xs, ys, dashed)`` tuples.
    """
    margin_l, margin_r, margin_t, margin_b = 64, 16, 36, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    xs_all = [x for _, xs, _, _ in series for x in xs]
    ys_all = [y for _, _, ys, _ in series for y in ys if math.isfinite(y)]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes and grid
    for t in _ticks(x_lo, x_hi):
        if t < x_lo - 1e-12 or t > x_hi + 1e-12:
            continue
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{margin_t}" x2="{x:.2f}" '
            f'y2="{margin_t + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{margin_t + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.2f}" x2="{margin_l + plot_w}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_l - 6}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    parts.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{margin_l + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{margin_t + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {margin_t + plot_h / 2:.1f})">{ylabel}</text>'
    )
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
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"{dash}/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_simulate(args):
    table = {}
    if args.preset:
        if args.preset not in SIMULATE_PRESETS:
            raise ConfigError("preset", f"unknown preset {args.preset!r}")
        table.update(SIMULATE_PRESETS[args.preset])
    if args.config:
        try:
            config = load_config(args.config, defaults=table)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config", f"cannot read {args.config!r}: {exc}") from None
    elif table:
        config = config_from_table(table)
    else:
        raise ConfigError("config", "need --config PATH or --preset NAME")

    _make_out_dir(args.out)
    bs = evaluate_bounds(
        config.n, config.alpha, config.beta, config.budget, config.p_update, config.h
    )
    for line in _bound_block(bs):
        print(line)

    if config.replications == 1:
        record = run_trajectory(config)
        path = os.path.join(args.out, "trajectory.csv")
        _write_csv(
            path,
            ("k", "event", "C_k", "subopt", "min_shift"),
            zip(
                record.k.tolist(),
                record.event,
                record.error,
                record.suboptimality,
                record.minimizer_shift,
            ),
        )
        print(f"wrote {path} ({record.k.size} rows)")
    else:
        stats = run_ensemble(config)
        envelope_general = recursion_envelope(
            stats.mean_error[0], bs.open_rate, bs.offset_general, config.horizon
        )
        envelope_quadratic = recursion_envelope(
            stats.mean_error[0], bs.open_rate, bs.offset_quadratic, config.horizon
        )
        path = os.path.join(args.out, "ensemble.csv")
        _write_csv(
            path,
            ("k", "mean_C", "ci_lo", "ci_hi", "bound_general", "bound_quadratic"),
            zip(
                range(config.horizon + 1),
                stats.mean_error,
                stats.mean_error - stats.ci_halfwidth,
                stats.mean_error + stats.ci_halfwidth,
                envelope_general,
                envelope_quadratic,
            ),
        )
        print(
            f"wrote {path} ({config.horizon + 1} rows, "
            f"{stats.replications} replications, "
            f"{stats.replacement_count} replacements)"
        )
    return 0


def _float_list(raw, key):
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(key, f"cannot parse {raw!r} as a comma-separated float list")
    if not values:
        raise ConfigError(key, "empty list")
    return values


def cmd_bounds(args):
    _check_count("n", args.n, 2)
    pu_values = [_check_probability("pu", pu) for pu in _float_list(args.pu, "pu")]
    _check_kappa("kappa", args.kappa)
    _check_budget("b", args.b)
    header = (
        "p_U",
        "stable",
        "closed_rate",
        "open_rate",
        "offset_general",
        "offset_quadratic",
        "steady_printed",
        "steady_recursion",
    )
    print("  ".join(f"{h:>18}" for h in header))
    last = None
    for pu in pu_values:
        bs = evaluate_bounds(args.n, 1.0, args.kappa, args.b, pu)
        row = (
            bs.p_update,
            bs.stable,
            bs.closed_rate,
            bs.open_rate,
            bs.offset_general,
            bs.offset_quadratic,
            bs.steady_state_printed,
            bs.steady_state_fixed_point,
        )
        print("  ".join(f"{_fmt(cell):>18}" for cell in row))
        last = bs
    print()
    for line in _bound_block(last):
        print(line)
    return 0


def _parse_range(raw):
    lo, _, hi = raw.partition(":")
    try:
        lo_v, hi_v = int(lo), int(hi if hi else lo)
    except ValueError:
        raise ConfigError("n", f"cannot parse {raw!r} as LO:HI") from None
    return range(_check_count("n", lo_v, 2), _check_count("n", hi_v, lo_v) + 1)


def cmd_worstcase(args):
    # defaults < preset < given flags; float() and int() read either form
    flags = {"budget": "64", "seed": "0"}
    if args.preset:
        if args.preset not in WORSTCASE_PRESETS:
            raise ConfigError("preset", f"unknown preset {args.preset!r}")
        flags.update(WORSTCASE_PRESETS[args.preset])
    for key in ("n", "kappa", "b", "budget", "seed"):
        if getattr(args, key) is not None:
            flags[key] = getattr(args, key)
        elif key not in flags:
            raise ConfigError(key, f"need --{key} or a preset")
    n_values = _parse_range(flags["n"])
    kappas = [_check_kappa("kappa", kappa) for kappa in _float_list(flags["kappa"], "kappa")]
    b = _check_budget("b", float(flags["b"]))
    budget = _check_count("budget", int(flags["budget"]), 1)
    seed = _check_count("seed", int(flags["seed"]), 0)

    _make_out_dir(args.out)
    rows = sweep(n_values, kappas, b, search_budget=budget, seed=seed)
    path = os.path.join(args.out, "worstcase.csv")
    _write_csv(
        path,
        ("n", "kappa", "empirical_max", "bound_general", "bound_quadratic", "conjecture"),
        (
            (r.n, r.kappa, r.empirical_max, r.bound_general, r.bound_quadratic, r.conjecture)
            for r in rows
        ),
    )
    print(f"wrote {path} ({len(rows)} rows)")

    series = []
    ns = list(n_values)
    for kappa in kappas:
        cells = [r for r in rows if r.kappa == float(kappa)]
        series.append(
            (f"kappa={kappa:g} search", ns, [r.empirical_max for r in cells], False)
        )
        series.append(
            (f"kappa={kappa:g} conjecture", ns, [r.conjecture for r in cells], True)
        )
    svg_path = os.path.join(args.out, "worstcase.svg")
    with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            _svg_line_plot(
                series,
                "Worst single-replacement minimizer displacement",
                "agents n",
                "squared displacement",
            )
        )
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

    p_w = sub.add_parser("worstcase", help="sweep the worst-displacement search")
    p_w.add_argument("--n", help="agent range LO:HI (inclusive)")
    p_w.add_argument("--kappa", help="comma-separated condition ratios")
    p_w.add_argument("--b", type=float)
    p_w.add_argument("--budget", type=int, help="ascent starts per grid cell")
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
