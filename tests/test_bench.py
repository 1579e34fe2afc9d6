"""The benchmark's traced mode still finds every name it wraps."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def traced_counts(tmp_path, argv):
    """Run ``bench/child.py`` with the tracer on, require exit status 0
    and return the spans file's counts summed by name, with each span
    name's call count under ``"span:<name>"``."""
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    done = subprocess.run(
        [sys.executable, str(CHILD), str(result), str(spans), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    counts = Counter()
    doc = json.loads(spans.read_text(encoding="utf-8"))
    for name, _, amount in doc["counts"]:
        counts[name] += amount
    counts.update("span:" + name for name, *_ in doc["spans"])
    return counts


def test_traced_logcosh_simulate_reconciles_replacements(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "function_family = logcosh_quadratic\np_U = 0.6\nreplications = 8\nhorizon = 20\n",
        encoding="utf-8",
    )
    counts = traced_counts(tmp_path, ["simulate", "--preset", "fig1", "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
    assert counts["opensim.reported_replacements"] > 0
    assert counts["opensim.replacement_draws"] == counts["opensim.reported_replacements"]


def test_traced_worstcase_counts_its_starts(tmp_path):
    counts = traced_counts(tmp_path, ["worstcase", "--preset", "fig2-analogue", "--n", "2:3",
                                      "--budget", "4", "--out", str(tmp_path / "out")])
    assert counts["opensim.replacement_draws"] == counts["opensim.reported_replacements"]
    assert counts["worstcase.starts"] == 2 * 2 * 4   # n in 2:3, kappa in {2, 5}
    # the benchmark counts cells as calls of maximize_displacement
    assert counts["span:worstcase.cell"] == 2 * 2


def test_traced_single_replication_counts_the_scalar_path(tmp_path):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("replications = 1\nhorizon = 300\np_U = 0.8\n", encoding="utf-8")
    counts = traced_counts(tmp_path, ["simulate", "--preset", "fig1", "--config", str(cfg),
                                      "--out", str(tmp_path / "out")])
    assert counts["span:opensim.step"] == 300
    assert counts["span:rcd.pair_step"] == counts["opensim.event_update"]
    # one solve for the initial roster, then one per replacement
    assert counts["allocation.closed_form"] == 1 + counts["opensim.event_replace"]
