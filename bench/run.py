"""openrcd benchmark: four CLI workloads, timed end to end and traced per layer.

Every run of a workload is one fresh child process (``bench/child.py``)
that imports ``openrcd`` from this checkout's ``src/`` and calls
``openrcd.cli.main``, so import time and peak memory are measured per
run.  Runs are a closed loop: one at a time, the next starts when the
previous one has exited.  ``OPENRCD_THREADS`` is removed from the
child's environment, so the CLI's default (auto) thread setting is what
gets measured.

Two ways to call it::

    python3 bench/run.py --workload fig1 --seed 3 --seconds 38 --trace 0
    python3 bench/run.py [--seconds 38] [--out BENCH.json]

The first form measures one workload for ``--seconds`` and prints, as
its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The second form runs every
workload at its preset's own seed, untraced and then traced, prints
every metric by name with its unit, and writes the results with their
context to ``--out``.

Every run's outputs are checked (see ``_check_ensemble`` and
``_check_sweep``); a run fails on a nonzero exit status or a failed
check, and all runs of one workload in one call must write
byte-identical files.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import tracer as tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join("bench", "_work")  # relative to ROOT, where children run
CHILD = os.path.join(BENCH_DIR, "child.py")

#: a whole call must end well inside three minutes
HARD_DEADLINE_S = 170.0
MIN_UNTRACED_RUNS = 3
MIN_TRACED_RUNS = 2
#: import-only processes per untraced call, pooled with the full runs for setup_s
SETUP_PROBES = 6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int              # the preset's own seed
    config: dict = field(default_factory=dict)  # simulate keys over the fig1 preset
    envelope: str = ""             # ensemble column mean_C must stay under
    replications: int = 0
    horizon: int = 0
    p_update: float = 0.0
    cells: int = 0
    search_budget: int = 0

    @property
    def simulate(self):
        return self.cells == 0

    @property
    def work_units(self):
        """Row-steps (replications x horizon) or ascent starts (cells x budget)."""
        if self.simulate:
            return self.replications * self.horizon
        return self.cells * self.search_budget

    def cli_args(self, seed, work):
        """CLI arguments for one run; writes the generated config under ``work``."""
        out = os.path.join(work, "out")
        if not self.simulate:
            return ["worstcase", "--preset", "fig2-analogue", "--seed", str(seed),
                    "--out", out]
        path = os.path.join(work, "workload.cfg")
        keys = dict(self.config, replications=self.replications, horizon=self.horizon,
                    seed=seed)
        with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in keys.items())
        return ["simulate", "--preset", "fig1", "--config", path, "--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig1",
            "the paper's headline ensemble; batch engine and thread pool do all the work",
            default_seed=42, envelope="bound_quadratic",
            replications=10000, horizon=600, p_update=0.95,
        ),
        Workload(
            "wide",
            "same batch engine at n=200: per-step O(n) error and a longer tape dominate",
            default_seed=42, envelope="bound_general",
            config={"n": 200, "p_U": 0.999},
            replications=2048, horizon=2000, p_update=0.999,
        ),
        Workload(
            "logcosh",
            "scalar path only: step, pair step, Allocation, dual bisection per swap",
            default_seed=42, envelope="bound_general",
            config={"function_family": "logcosh_quadratic"},
            replications=64, horizon=600, p_update=0.95,
        ),
        Workload(
            "fig2",
            "worst-case displacement sweep; the only workload that reaches worstcase",
            default_seed=7, cells=22, search_budget=48,
        ),
    )
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
)

PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("config.parse_us", "us"),
    ("bounds.evaluate_s", "s"),
    ("opensim.ensemble_s", "s"),
    ("opensim.row_step_ns", "ns"),
    ("opensim.replacements", "count"),
    ("opensim.update_frac", "frac"),
    ("opensim.step_calls", "count"),
    ("opensim.step_us", "us"),
    ("opensim.trajectory_calls", "count"),
    ("opensim.trajectory_ms", "ms"),
    ("rcd.edges_calls", "count"),
    ("rcd.edges_us", "us"),
    ("rcd.pair_step_calls", "count"),
    ("rcd.pair_step_us", "us"),
    ("allocation.validate_calls", "count"),
    ("allocation.validate_us", "us"),
    ("allocation.dual_bisection_calls", "count"),
    ("allocation.dual_bisection_us", "us"),
    ("allocation.closed_form_calls", "count"),
    ("functions.gradient_calls", "count"),
    ("allocation.grad_evals_per_solve", "evals/solve"),
    ("worstcase.cells", "count"),
    ("worstcase.starts", "count"),
    ("worstcase.cell_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)


# ---------------------------------------------------------------------------
# output checks

def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite_floats(rows):
    for row in rows:
        for key, raw in row.items():
            if not math.isfinite(float(raw)):
                return f"non-finite {key}={raw!r} in row {row}"
    return None


def _check_ensemble(w, out):
    rows = _read_rows(os.path.join(out, "ensemble.csv"))
    if len(rows) != w.horizon + 1:
        return f"ensemble.csv has {len(rows)} rows, expected {w.horizon + 1}"
    problem = _finite_floats(rows)
    if problem:
        return problem
    for row in rows:
        if not float(row["mean_C"]) <= float(row[w.envelope]):
            return f"mean_C above {w.envelope} at k={row['k']}: {row}"
    return None


def _check_sweep(w, out):
    rows = _read_rows(os.path.join(out, "worstcase.csv"))
    if len(rows) != w.cells:
        return f"worstcase.csv has {len(rows)} rows, expected {w.cells}"
    problem = _finite_floats(rows)
    if problem:
        return problem
    for row in rows:
        cap = min(float(row["bound_general"]), float(row["bound_quadratic"]))
        if not float(row["empirical_max"]) <= cap:
            return f"empirical_max above min(bounds) at n={row['n']} kappa={row['kappa']}"
    return None


def _digest(out):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _bytes_written(out):
    return sum(os.path.getsize(os.path.join(out, name)) for name in os.listdir(out))


# ---------------------------------------------------------------------------
# one child run

def _child_env():
    env = dict(os.environ)
    env.pop("OPENRCD_THREADS", None)
    return env


def setup_probe(deadline):
    """Seconds a fresh process takes to import numpy and openrcd (nothing else runs)."""
    result_path = os.path.join(ROOT, WORK_DIR, "setup.json")
    subprocess.run([sys.executable, CHILD, result_path, "-"], cwd=ROOT, env=_child_env(),
                   check=True, timeout=max(5.0, deadline - time.monotonic()))
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)["setup_s"]


def invoke(w, seed, traced, deadline):
    """Run the CLI once in a fresh process; return a record with ``error`` set on failure."""
    work = os.path.join(WORK_DIR, w.name)
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    result_path = os.path.join(ROOT, work, "result.json")
    spans_path = os.path.join(ROOT, work, "spans.json") if traced else "-"
    cli_args = w.cli_args(seed, work)
    cmd = [sys.executable, CHILD, result_path, spans_path] + cli_args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "traced": traced}
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:]
        return {"error": f"exit status {proc.returncode}: {' '.join(tail)}", "traced": traced}
    with open(result_path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["traced"] = traced
    record["cli_args"] = cli_args
    src = os.path.join(ROOT, "src") + os.sep
    if not record["openrcd_file"].startswith(src):
        record["error"] = f"imported openrcd from {record['openrcd_file']}, not {src}"
        return record
    out = os.path.join(ROOT, work, "out")
    check = _check_ensemble if w.simulate else _check_sweep
    try:
        record["error"] = check(w, out)
    except (OSError, ValueError, KeyError) as exc:  # missing or malformed output file
        record["error"] = f"unreadable output: {exc!r}"
    record["digest"] = _digest(out)
    record["bytes_out"] = record["stdout_bytes"] + _bytes_written(out)
    if traced:
        with open(spans_path, encoding="utf-8") as fh:
            record["trace"] = tracing.summarize(json.load(fh))
    return record


# ---------------------------------------------------------------------------
# measurement loops

@dataclass
class Session:
    """All runs of one workload in one call."""

    workload: Workload
    seed: int
    records: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    setup_probes: list = field(default_factory=list)

    def run(self, traced, deadline):
        record = invoke(self.workload, self.seed, traced, deadline)
        self.records.append(record)
        if record["error"]:
            self.problems.append(f"{self.workload.name} run {len(self.records)}: "
                                 f"{record['error']}")

    def good(self, traced):
        return [r for r in self.records if r["traced"] == traced and not r["error"]]

    @property
    def failed(self):
        return sum(1 for r in self.records if r["error"])

    def check_digests(self):
        self.digests = sorted({r["digest"] for r in self.records if r.get("digest")})
        if len(self.digests) > 1:
            self.problems.append(f"{self.workload.name}: reruns wrote different files "
                                 f"({len(self.digests)} distinct digests)")


def measure(session, seconds, traced):
    """Closed loop for ``seconds``: untraced runs only, or untraced and traced alternately."""
    start = time.monotonic()
    deadline = start + HARD_DEADLINE_S
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    setup_probe(deadline)  # byte-compiles src/ and fills the file cache; not counted
    if not traced:
        session.setup_probes = [setup_probe(deadline) for _ in range(SETUP_PROBES)]
    while True:
        untraced = len(session.good(False))
        if traced:
            enough = untraced >= 1 and len(session.good(True)) >= MIN_TRACED_RUNS
        else:
            enough = untraced >= MIN_UNTRACED_RUNS
        if (enough and time.monotonic() - start >= seconds) or time.monotonic() > deadline:
            break
        if session.failed >= 3 and len(session.records) == session.failed:
            break  # every run fails; more runs add nothing
        session.run(traced and len(session.records) % 2 == 1, deadline)
    session.check_digests()


def _tail(values):
    """Highest percentile with at least ten samples beyond it, if there are enough."""
    n = len(values)
    if n < 20:
        return None
    k = n - 11
    return (100.0 * (k + 1) / n, sorted(values)[k])


def end_to_end(session):
    """Medians over the good untraced runs; ``work_per_s`` is total work over total time."""
    records = session.good(False)
    out = {}
    for name, unit in END_TO_END:
        if name == "work_per_s":
            busy = sum(r["wall_s"] for r in records)
            out[name] = {"value": session.workload.work_units * len(records) / busy if busy
                         else 0.0, "unit": unit, "samples": len(records), "tail": None}
            continue
        values = [r[name] for r in records]
        if name == "setup_s":
            values += session.setup_probes
        out[name] = {
            "value": statistics.median(values) if values else 0.0,
            "unit": unit,
            "samples": len(values),
            "tail": _tail(values),
        }
    return out


def _layer_metrics(trace, w, bytes_out):
    layers, counts, within = trace

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def self_per_call(name, scale):
        n = calls(name)
        return layers[name]["self_s"] / n * scale if n else 0.0

    row_steps = counts.get("opensim.row_steps", 0)
    replacements = counts.get("opensim.replacement_draws", 0) + counts.get(
        "opensim.event_replace", 0)
    solves = calls("allocation.dual_bisection")
    return {
        "cli.self_s": layers["cli.main"]["self_s"],
        "cli.bytes_out": bytes_out,
        "config.parse_us": self_per_call("config.parse", 1e6),
        "bounds.evaluate_s": total("bounds.evaluate"),
        "opensim.ensemble_s": total("opensim.ensemble"),
        "opensim.row_step_ns": total("opensim.ensemble") / row_steps * 1e9 if row_steps else 0.0,
        "opensim.replacements": replacements,
        "opensim.update_frac": 1.0 - replacements / row_steps if row_steps else 0.0,
        "opensim.step_calls": calls("opensim.step"),
        "opensim.step_us": self_per_call("opensim.step", 1e6),
        "opensim.trajectory_calls": calls("opensim.trajectory"),
        "opensim.trajectory_ms": self_per_call("opensim.trajectory", 1e3),
        "rcd.edges_calls": calls("rcd.edges"),
        "rcd.edges_us": self_per_call("rcd.edges", 1e6),
        "rcd.pair_step_calls": calls("rcd.pair_step"),
        "rcd.pair_step_us": self_per_call("rcd.pair_step", 1e6),
        "allocation.validate_calls": calls("allocation.validate"),
        "allocation.validate_us": self_per_call("allocation.validate", 1e6),
        "allocation.dual_bisection_calls": solves,
        "allocation.dual_bisection_us": self_per_call("allocation.dual_bisection", 1e6),
        "allocation.closed_form_calls": counts.get("allocation.closed_form", 0),
        "functions.gradient_calls": counts.get("functions.gradient", 0),
        "allocation.grad_evals_per_solve": (
            within.get(("functions.gradient", "allocation.dual_bisection"), 0) / solves
            if solves else 0.0),
        "worstcase.cells": calls("worstcase.cell"),
        "worstcase.starts": counts.get("worstcase.starts", 0),
        "worstcase.cell_ms": self_per_call("worstcase.cell", 1e3),
    }


def _count_signature(trace):
    layers, _, within = trace
    return (sorted((name, row["calls"]) for name, row in layers.items()),
            sorted(within.items()))


def _reconcile(w, m, counts):
    """Problems found by matching the traced counts against each other."""
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{w.name}: {label} = {got}, expected {want}")

    if not w.simulate:
        expect("worstcase.cells", m["worstcase.cells"], w.cells)
        expect("worstcase.starts", m["worstcase.starts"], w.work_units)
        return problems
    row_steps = w.work_units
    expect("opensim.row_steps", counts.get("opensim.row_steps", 0), row_steps)
    expect("opensim.replacements vs. replacements reported by run_ensemble",
           m["opensim.replacements"], counts.get("opensim.reported_replacements", 0))
    if m["opensim.step_calls"]:  # scalar path: every step is an update or a swap
        updates = counts.get("opensim.event_update", 0)
        expect("rcd.pair_step_calls", m["rcd.pair_step_calls"], updates)
        expect("rcd.pair_step_calls + opensim.replacements",
               m["rcd.pair_step_calls"] + m["opensim.replacements"], row_steps)
        expect("opensim.step_calls", m["opensim.step_calls"], row_steps)
        expect("opensim.trajectory_calls", m["opensim.trajectory_calls"], w.replications)
    sigma = math.sqrt(w.p_update * (1.0 - w.p_update) / row_steps)
    if abs(m["opensim.update_frac"] - w.p_update) > 6.0 * sigma + 1e-12:
        problems.append(f"{w.name}: realized update fraction {m['opensim.update_frac']} "
                        f"is more than 6 sigma from p_U={w.p_update}")
    return problems


def per_layer(session):
    traced = session.good(True)
    untraced = session.good(False)
    w = session.workload
    if not traced or not untraced:
        return {}
    per_run = [_layer_metrics(r["trace"], w, r["bytes_out"]) for r in traced]
    signatures = {json.dumps(_count_signature(r["trace"])) for r in traced}
    if len(signatures) != 1:
        session.problems.append(f"{w.name}: traced counts differ between traced runs")
    session.problems.extend(_reconcile(w, per_run[0], traced[0]["trace"][1]))
    metrics = {}
    for name, unit in PER_LAYER[:-1]:
        values = [m[name] for m in per_run]
        value = values[0] if unit == "count" else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    wall_traced = statistics.median(r["wall_s"] for r in traced)
    wall_plain = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.overhead_frac"] = {
        "value": (wall_traced - wall_plain) / wall_plain, "unit": "frac"}
    return metrics


# ---------------------------------------------------------------------------
# context and reporting

def context(session):
    first = next((r for r in session.records if "python" in r), {})
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, check=True,
                                    timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "commit": commit,
        "openrcd_threads_env": "unset (auto)",
        "effective_threads": first.get("effective_threads"),
        "workload": session.workload.name,
        "seed": session.seed,
        "cli_args": first.get("cli_args"),
    }


def _format(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_end_to_end(session, metrics):
    w = session.workload
    print(f"== {w.name} (seed {session.seed}): {w.why}")
    for name, unit in END_TO_END:
        m = metrics[name]
        tail = m["tail"]
        if name == "work_per_s":
            text = "total work / total wall time"
        elif tail:
            text = f"median; p{tail[0]:.0f} {_format(tail[1])}"
        else:
            text = "median; tail n/a (needs >= 20 samples)"
        print(f"  {name:<14} {_format(m['value']):>12} {unit:<4} n={m['samples']}  {text}")
    attempted = len([r for r in session.records if not r["traced"]])
    failed = sum(1 for r in session.records if not r["traced"] and r["error"])
    print(f"  {'failed_frac':<14} {failed}/{attempted}")


def print_per_layer(session, metrics):
    print(f"  per layer (traced, {len(session.good(True))} runs):")
    for name, unit in PER_LAYER:
        if name in metrics:
            print(f"    {name:<34} {_format(metrics[name]['value']):>14} {unit}")


def result_line(sessions, metrics):
    attempted = sum(len(s.records) for s in sessions)
    failed = sum(s.failed for s in sessions)
    correct = failed == 0 and not any(s.problems for s in sessions) and bool(metrics)
    out = {}
    for key, m in metrics.items():
        out[key] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({"correct": correct, "attempted": max(attempted, 1),
                       "failed": failed, "metrics": out})


def _check_checkout():
    if not os.path.isfile(os.path.join(ROOT, "src", "openrcd", "cli.py")):
        print(f"error: no openrcd source under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        sys.exit(2)


def run_one(name, seed, seconds, traced):
    w = WORKLOADS[name]
    session = Session(w, w.default_seed if seed is None else seed)
    measure(session, seconds, traced)
    if traced:
        metrics = per_layer(session)
    else:
        metrics = end_to_end(session)
    return session, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, help="workload seed (default: the preset's own)")
    parser.add_argument("--seconds", type=int, default=38, help="measuring time per phase")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (one workload)")
    parser.add_argument("--out", help="with --workload all: write results JSON here")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    _check_checkout()

    if args.workload != "all":
        if args.trace is None:
            parser.error("--trace is required with a single --workload")
        session, metrics = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            print_per_layer(session, metrics)
        else:
            print_end_to_end(session, metrics)
        print("context: " + json.dumps(context(session)))
        for problem in session.problems:
            print("problem: " + problem, file=sys.stderr)
        print(result_line([session], metrics))
        return 0

    results = {"workloads": {}}
    sessions, flat = [], {}
    for name in WORKLOADS:
        plain, e2e = run_one(name, args.seed, args.seconds, False)
        print_end_to_end(plain, e2e)
        traced, layers = run_one(name, args.seed, args.seconds, True)
        print_per_layer(traced, layers)
        digests = sorted(set(plain.digests + traced.digests))
        if len(digests) > 1:
            traced.problems.append(f"{name}: traced runs wrote other files than untraced runs")
        for problem in plain.problems + traced.problems:
            print("  problem: " + problem)
        sessions += [plain, traced]
        flat.update({f"{name}.{key}": m for key, m in e2e.items()})
        results["workloads"][name] = {
            "context": context(plain),
            "end_to_end": e2e,
            "failed_frac": plain.failed / max(len(plain.records), 1),
            "digests": digests,
            "per_layer": layers,
            "problems": plain.problems + traced.problems,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    print(result_line(sessions, flat))
    return 0


if __name__ == "__main__":
    sys.exit(main())
