import csv
import hashlib
import math
import struct
import sys
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openrcd.cli import _CONVERSIONS, _fmt, _ticks, main
from openrcd.rules import MAX_SEARCH_BUDGET

SMALL_CFG = """
n = 4
alpha = 1.0
beta = 2.0
b = 1.0
p_U = 0.9
horizon = 50
replications = 200
seed = 3
"""


# numpy's pairwise sum is exactly 1, but the agent-order sum misses b = 1 by 1.1e-9
AGENT_SUM_MISSES_B = ("963485.023,736601.421,10991.927,986104.285,"
                      "343637.366,749019.8,-3895980.812000001,106141.99")


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CFG, encoding="utf-8")
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_ensemble_csv(cfg_file, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", cfg_file, "--out", out]) == 0
    rows = read_rows(f"{out}/ensemble.csv")
    assert len(rows) == 51
    assert list(rows[0]) == [
        "k", "mean_C", "ci_lo", "ci_hi", "bound_general", "bound_quadratic",
    ]
    for row in rows:
        assert float(row["ci_lo"]) <= float(row["mean_C"]) <= float(row["ci_hi"])
    # round-trippable floats and the bound columns seeded at mean_C[0]
    assert float(rows[0]["bound_general"]) == float(rows[0]["mean_C"])
    header = capsys.readouterr().out
    assert "open-system rate" in header
    assert "stable" in header


def test_simulate_single_run_trajectory(cfg_file, tmp_path):
    path = tmp_path / "single.cfg"
    path.write_text(SMALL_CFG.replace("replications = 200", "replications = 1"))
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", str(path), "--out", out]) == 0
    rows = read_rows(f"{out}/trajectory.csv")
    assert len(rows) == 51
    assert list(rows[0]) == ["k", "event", "C_k", "subopt", "min_shift"]
    assert rows[0]["event"] == "init"
    assert {row["event"] for row in rows[1:]} <= {"update", "replace"}


def test_simulate_preset_and_file_combine(cfg_file, tmp_path):
    out = str(tmp_path / "run")
    # preset fills every key; the tiny file then shrinks the run
    assert main(["simulate", "--preset", "fig1", "--config", cfg_file, "--out", out]) == 0
    rows = read_rows(f"{out}/ensemble.csv")
    assert len(rows) == 51


def test_simulate_requires_some_source(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path)]) == 2
    assert "config" in capsys.readouterr().err


def test_simulate_unknown_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_CFG + "mystery = 1\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "mystery" in capsys.readouterr().err


def test_simulate_rerun_is_byte_identical(cfg_file, tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["simulate", "--config", cfg_file, "--out", out_a])
    main(["simulate", "--config", cfg_file, "--out", out_b])
    with open(f"{out_a}/ensemble.csv", "rb") as fa, open(f"{out_b}/ensemble.csv", "rb") as fb:
        assert fa.read() == fb.read()


def test_bounds_table_prints_rows(capsys):
    assert main(["bounds", "--n", "5", "--kappa", "1.2", "--b", "1", "--pu", "0.9,0.95,0.8"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 4
    assert "UNSTABLE" in out            # the 0.8 row sits past the threshold
    assert "steady state (printed)" in out


def test_bounds_bad_pu_list_exits_2(capsys):
    assert main(["bounds", "--n", "5", "--kappa", "1.2", "--b", "1", "--pu", "a,b"]) == 2
    assert "pu" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["bounds", "--n", "1", "--kappa", "2", "--b", "1", "--pu", "0.9"], "n"),
        (["bounds", "--n", "5", "--kappa", "2", "--b", "1", "--pu", "1.5"], "pu"),
        (["bounds", "--n", "5", "--kappa", "2", "--b", "1", "--pu", "nan"], "pu"),
        (["bounds", "--n", "5", "--kappa", "nan", "--b", "1", "--pu", "0.9"], "kappa"),
        (["bounds", "--n", "5", "--kappa", "2", "--b", "inf", "--pu", "0.9"], "b"),
        (["bounds", "--n", "5", "--kappa", "2", "--b", "nan", "--pu", "0.9"], "b"),
        (["worstcase", "--n", "2:3", "--kappa", "0.5", "--b", "1"], "kappa"),
        (["worstcase", "--n", "2:3", "--kappa", "nan", "--b", "1"], "kappa"),
        (["worstcase", "--n", "2:3", "--kappa", "2", "--b", "nan"], "b"),
        (["worstcase", "--n", "2:3", "--kappa", "2", "--b", "inf"], "b"),
        (["worstcase", "--kappa", "2", "--b", "1"], "n"),
        (["worstcase", "--n", "", "--kappa", "2", "--b", "1"], "n"),
        (["worstcase", "--n", "2:3", "--b", "1"], "kappa"),
        # finite but too large for the bound formulas
        (["bounds", "--n", "5", "--kappa", "2", "--b", "1e300", "--pu", "0.9"], "b"),
        (["bounds", "--n", "5", "--kappa", "1e300", "--b", "1", "--pu", "0.9"], "kappa"),
        (["worstcase", "--n", "2:3", "--kappa", "2", "--b", "1e300"], "b"),
        (["worstcase", "--n", "2:3", "--kappa", "2,1e300", "--b", "1"], "kappa"),
        (["worstcase", "--n", "2:3", "--kappa", "2", "--b", "1", "--seed", "-1"], "seed"),
        (["worstcase", "--preset", "fig2-analogue", "--seed", "-5"], "seed"),
        (["worstcase", "--n", "2:3", "--kappa", "2", "--b", "1", "--budget", "0"], "budget"),
        # budgets past MAX_SEARCH_BUDGET used to search until killed
        (["worstcase", "--n", "2:3", "--kappa", "2", "--b", "1",
          "--budget", str(MAX_SEARCH_BUDGET + 1)], "budget"),
        (["worstcase", "--n", "2:3", "--kappa", "2", "--b", "1",
          "--budget", str(2**64)], "budget"),
        (["worstcase", "--n", "2:3", "--kappa", ",", "--b", "1"], "kappa"),
        (["worstcase", "--preset", "nope"], "preset"),
        (["simulate", "--preset", "nope"], "preset"),
        # argparse alone takes "-inf" for an option
        (["bounds", "--n", "5", "--kappa", "2", "--b", "-inf", "--pu", "0.9"], "b"),
        (["worstcase", "--n", "2:3", "--kappa", "2", "--b", "-inf"], "b"),
        # agent counts past MAX_AGENTS used to end in an OverflowError
        (["bounds", "--n", "1" + "0" * 400, "--kappa", "2", "--b", "1", "--pu", "0.9"], "n"),
        (["worstcase", "--n", "2:1" + "0" * 400, "--kappa", "2", "--b", "1"], "n"),
        # an empty entry used to be dropped and the rest run
        (["bounds", "--n", "5", "--kappa", "2", "--b", "1", "--pu", "0.5,,0.6"], "pu"),
        (["bounds", "--n", "5", "--kappa", "2", "--b", "1", "--pu", "0.5,"], "pu"),
        (["worstcase", "--n", "2:3", "--kappa", "2,,3", "--b", "1"], "kappa"),
    ],
)
def test_bad_numbers_exit_2_naming_the_flag(argv, key, tmp_path, capsys):
    if argv[0] == "worstcase":
        if "--budget" not in argv:
            argv = argv + ["--budget", "4"]
        argv = argv + ["--out", str(tmp_path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"config key '{key}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "5", "--kappa", "2", "--pu", "0.9"],
    ["worstcase", "--n", "2:3", "--kappa", "2", "--budget", "4"],
])
@pytest.mark.parametrize("value", ["-1e6", "-1e-3"])
def test_negative_exponent_values_read_as_numbers(argv, value, tmp_path, capsys):
    # argparse alone takes "-1e6" for an option and exits 2
    if argv[0] == "worstcase":
        argv = argv + ["--out", str(tmp_path)]
    assert main(argv + ["--b", value]) == 0
    spaced = capsys.readouterr().out
    assert main(argv + [f"--b={value}"]) == 0
    assert spaced == capsys.readouterr().out


def test_worstcase_csv_and_svg(tmp_path):
    out = str(tmp_path / "w")
    code = main([
        "worstcase", "--n", "2:4", "--kappa", "2,5", "--b", "1",
        "--budget", "8", "--seed", "7", "--out", out,
    ])
    assert code == 0
    rows = read_rows(f"{out}/worstcase.csv")
    assert len(rows) == 6
    assert list(rows[0]) == [
        "n", "kappa", "empirical_max", "bound_general", "bound_quadratic", "conjecture",
    ]
    for row in rows:
        assert float(row["empirical_max"]) <= float(row["bound_general"])
    tree = ET.parse(f"{out}/worstcase.svg")
    ns = "{http://www.w3.org/2000/svg}"
    polylines = tree.getroot().findall(f".//{ns}polyline")
    assert len(polylines) == 4          # per kappa: search line + conjecture overlay
    assert all(p.get("points") for p in polylines)


@pytest.mark.parametrize("n", ["2", "1024"])
def test_worstcase_svg_of_one_huge_point(n, tmp_path):
    # one n a kappa: each series is a lone point, the search's 2e300 and the
    # conjecture's 5e100 (n = 2) or 1e103; when the search read inf the
    # conjecture was plotted alone, and widening its lone y by 1.0 left no
    # range and ended in a math domain error after worstcase.csv was written
    out = tmp_path / "w"
    assert main(["worstcase", "--n", n, "--kappa", "1e100", "--b", "1e150",
                 "--budget", "3", "--out", str(out)]) == 0
    assert 1e300 < float(read_rows(out / "worstcase.csv")[0]["empirical_max"]) < math.inf
    tree = ET.parse(out / "worstcase.svg")
    for line in tree.getroot().findall(".//{http://www.w3.org/2000/svg}polyline"):
        points = line.get("points")
        assert len(points.split()) == 1 and "nan" not in points


def test_worstcase_is_exact_at_the_largest_budget(tmp_path):
    # at kappa = 1 the worst case 4(1 - 1/n) does not depend on b; this cell
    # used to write 0, 0, 0
    out = tmp_path / "w"
    assert main(["worstcase", "--n", "2:4", "--kappa", "1", "--b", "1e150",
                 "--budget", "3", "--out", str(out)]) == 0
    rows = read_rows(out / "worstcase.csv")
    assert [row["empirical_max"] for row in rows] == ["2", "2.6666666666666665", "3"]


@pytest.mark.parametrize("lo, hi", [
    (5e100, 5e100),
    (-1.7e308, 1.7e308),
    (0.0, 5e-324),
    (sys.float_info.max, sys.float_info.max),
    (-sys.float_info.max, -sys.float_info.max),
    (1e300, sys.float_info.max),
    (1.0, math.nextafter(1.0, 2.0)),
])
def test_ticks_span_any_finite_range(lo, hi):
    ticks = _ticks(lo, hi)
    assert 2 <= len(ticks) <= 7
    assert all(math.isfinite(t) for t in ticks)
    assert ticks == sorted(set(ticks))


def test_worstcase_preset(tmp_path):
    out = str(tmp_path / "w")
    assert main(["worstcase", "--preset", "fig2-analogue", "--n", "2:3",
                 "--budget", "8", "--out", out]) == 0
    rows = read_rows(f"{out}/worstcase.csv")
    assert {row["kappa"] for row in rows} == {"2", "5"}


def test_worstcase_fig2_preset_outputs_are_pinned(tmp_path):
    # digests of the full fig2-analogue sweep as the uncached ascent wrote it,
    # each value scored as a^2 (q0 + z0^2) at its witness's own sums
    out = tmp_path / "w"
    assert main(["worstcase", "--preset", "fig2-analogue", "--out", str(out)]) == 0
    expected = {
        "worstcase.csv": "2e631e10f31c3e5c8120f202fd33c3a583e2fbfa4581c2e868efb75251c1c8b4",
        "worstcase.svg": "8299254853fd49a6c4ddae5c4be86737d946f1a5019aba9a80f623f2a4f5bdcf",
    }
    for name, digest in expected.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("keys, name, digest", [
    # two batches of rows, three tape chunks
    ("replications = 2000\n", "ensemble.csv",
     "2c20fb1298e5c02f9f5722115b9095a2debe540b947f1e1747d4fedf48289acc"),
    ("replications = 1\nhorizon = 2000\n", "trajectory.csv",
     "71a01208eb8a6dc31366a788981261ecc41d8cb74f882f4ff5714968db31a59a"),
])
def test_simulate_fig1_outputs_are_pinned(keys, name, digest, tmp_path):
    # quadratic only: log-cosh runs go through np.tanh, whose last bit may
    # differ between numpy builds and CPUs
    path = tmp_path / "fig1.cfg"
    path.write_text(keys, encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "fig1", "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_bounds_stdout_is_pinned(capsys):
    assert main(["bounds", "--n", "5", "--kappa", "1.2", "--b", "1", "--pu", "0.9,0.95,0.8"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "0eaad77b7ffceb40d9a7ba5ee72cadcd198ddc1be845b567eebdd3d9094abd50")


def test_simulate_fig1_stdout_is_pinned(tmp_path, capsys):
    path = tmp_path / "fig1.cfg"
    path.write_text("replications = 2000\n", encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "fig1", "--config", str(path), "--out", str(out)]) == 0
    # the bound block, then "wrote OUT/ensemble.csv (...)"
    printed = capsys.readouterr().out.replace(str(out), "OUT").encode()
    assert hashlib.sha256(printed).hexdigest() == (
        "b08a3aafe69380b93d1b09a049d2b11b506d55d0891372e7eac132c122659cca")


@pytest.mark.parametrize("h, notes", [
    ("", 0),
    ("h = 0.8333333333333334\n", 0),      # 1/beta, written out
    ("h = 0.05\n", 1),
])
def test_bound_block_notes_a_step_below_one_over_beta(h, notes, tmp_path, capsys):
    # the open-system calculators take h = 1/beta; at h = 0.05 the recursion's
    # rate is 2 - p_U (1 + h alpha / (n - 1)) = 1.038, not the printed 0.852
    path = tmp_path / "fig1.cfg"
    path.write_text(h + "replications = 50\nhorizon = 5\n", encoding="utf-8")
    argv = ["simulate", "--preset", "fig1", "--config", str(path), "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "h = 1/beta" in line] == [
        "note: h < 1/beta = 0.83333333333333337; the open-system rate, offsets, "
        "steady states and stability are for h = 1/beta"] * notes
    assert "open-system rate          0.85208333333333353" in lines


# every bit pattern, every nan payload included
_ANY_DOUBLE = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


@settings(max_examples=2000, deadline=None)
@given(st.floats() | _ANY_DOUBLE)
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
@example(-5e-324)
@example(sys.float_info.max)
@example(-sys.float_info.max)
def test_csv_float_columns_print_as_fmt(x):
    # _write_csv prints a row with one % format; _fmt prints the stdout blocks
    # through the same conversion; both round-trip every float
    assert _CONVERSIONS["g"] % x == _fmt(x)
    assert _CONVERSIONS["g"] % np.float64(x) == _fmt(np.float64(x))
    assert math.isnan(x) or float(_fmt(x)) == x


def test_worstcase_rerun_is_byte_identical(tmp_path):
    args = ["worstcase", "--n", "2:3", "--kappa", "2", "--b", "1",
            "--budget", "8", "--seed", "5"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    for name in ("worstcase.csv", "worstcase.svg"):
        with open(tmp_path / "a" / name, "rb") as fa, open(tmp_path / "b" / name, "rb") as fb:
            assert fa.read() == fb.read()


def test_worstcase_bad_range_exits_2(capsys):
    assert main(["worstcase", "--n", "4:2", "--kappa", "2", "--b", "1"]) == 2
    assert "n" in capsys.readouterr().err


def test_solver_failure_exits_3(cfg_file, tmp_path, monkeypatch, capsys):
    from openrcd.allocation import NonConvergenceError
    import openrcd.cli as cli_mod

    def explode(config):
        raise NonConvergenceError("stuck bracket")

    monkeypatch.setattr(cli_mod, "run_ensemble", explode)
    assert main(["simulate", "--config", cfg_file, "--out", str(tmp_path)]) == 3
    assert "stuck bracket" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["b", "beta"])
def test_simulate_huge_finite_inputs_exit_2(key, tmp_path, capsys):
    path = tmp_path / "huge.cfg"
    path.write_text(SMALL_CFG + f"{key} = 1e300\n", encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"config key '{key}'" in captured.err
    assert captured.out == ""


def test_simulate_overflowing_cost_values_exit_2(tmp_path, capsys):
    # beta/2 (x - mu)^2 at b = -1e6 overflows: each roster value was inf,
    # and the trajectory's suboptimality inf - inf = nan in every row
    path = tmp_path / "huge.cfg"
    path.write_text("alpha = 1e300\nbeta = 1e300\nb = -1e6\nhorizon = 3\nreplications = 1\n",
                    encoding="utf-8")
    out = tmp_path / "run"
    assert main(["simulate", "--preset", "fig1", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "config key 'beta'" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("line, key", [
    ("seed = -1", "seed"),
    ("initial_state = nan,0,0,1", "initial_state"),
    ("initial_state = 1e300,-1e300,0,1", "initial_state"),
    # the batch and the scalar engine must both refuse it
    pytest.param("n = 8\ninitial_state = " + AGENT_SUM_MISSES_B, "initial_state",
                 id="agent-sum-misses-b-ensemble"),
    pytest.param("n = 8\nreplications = 1\ninitial_state = " + AGENT_SUM_MISSES_B,
                 "initial_state", id="agent-sum-misses-b-trajectory"),
])
def test_simulate_bad_seed_or_start_exits_2(line, key, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL_CFG + line + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"config key '{key}'" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "ensemble.csv").exists()
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--config", "{tmp}/missing.cfg"], "config"),
    (["simulate", "--config", "{tmp}"], "config"),
    (["simulate", "--config", "{tmp}/latin1.cfg"], "config"),
    (["simulate", "--preset", "fig1", "--out", "{tmp}/a_file"], "out"),
    (["worstcase", "--preset", "fig2-analogue", "--out", "{tmp}/a_file"], "out"),
], ids=["missing-config", "directory-config", "non-utf8-config",
        "simulate-out-is-a-file", "worstcase-out-is-a-file"])
def test_bad_paths_exit_2(argv, flag, tmp_path, capsys, monkeypatch):
    import openrcd.cli as cli_mod

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(cli_mod, "sweep", no_sweep)
    (tmp_path / "a_file").write_text("", encoding="utf-8")
    (tmp_path / "latin1.cfg").write_bytes(b"n = 4 # \xe9\n")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert f"config key '{flag}'" in captured.err
    assert captured.out == ""


def test_simulate_huge_budget_keeps_the_confidence_band_finite(tmp_path):
    # squared errors near 1e296 overflow when squared again inside std
    path = tmp_path / "huge.cfg"
    path.write_text("b = 1e150\nreplications = 50\nhorizon = 50\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--preset", "fig1", "--config", str(path),
                     "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "ensemble.csv")
    assert len(rows) == 51
    for row in rows:
        lo, mean, hi = float(row["ci_lo"]), float(row["mean_C"]), float(row["ci_hi"])
        assert math.isfinite(lo) and math.isfinite(hi)
        assert lo < mean < hi


@pytest.mark.parametrize("replications", [1, 4])
def test_feasibility_drift_exits_3(replications, tmp_path, capsys, monkeypatch):
    # a pair update biased by +2 on agent i moves sum(x) past the tolerance,
    # 1e-9 * |b| = 1 at b = 1e9, at its first step; the scalar path (one
    # replication) and the batch engine (four) both stop with exit 3
    from openrcd import opensim, rcd

    real = rcd._pair_update

    def biased(v, i, j, gi, gj, h):
        real(v, i, j, gi, gj, h)
        v[i] += 2.0

    # the one pair update, under the name each engine calls it by
    monkeypatch.setattr(rcd, "_pair_update", biased)
    monkeypatch.setattr(opensim, "_pair_update", biased)
    path = tmp_path / "drift.cfg"
    path.write_text(
        "n = 50\nalpha = 1.0\nbeta = 1.2\nb = 1e9\np_U = 0.999\n"
        f"horizon = 20000\nreplications = {replications}\n",
        encoding="utf-8",
    )
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "solver failure: sum(values) misses budget" in capsys.readouterr().err


@pytest.mark.parametrize("line, key", [
    # the default step h = 1/beta overflows: beta is named, not the unset h
    ("alpha = 5e-324\nbeta = 5e-324", "beta"),
    ("n = inf", "n"),
    ("horizon = inf", "horizon"),
    ("replications = -inf", "replications"),
    ("seed = inf", "seed"),
])
def test_simulate_infinite_values_exit_2(line, key, tmp_path, capsys):
    # float("inf") has no int, and 1/beta overflows at a subnormal beta: both
    # used to end in a traceback
    path = tmp_path / "inf.cfg"
    path.write_text(SMALL_CFG + line + "\n", encoding="utf-8")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"config key '{key}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("line, key", [
    # used to end in numpy's ArrayMemoryError at the error matrix
    ("replications = 1e15\nhorizon = 600", "replications"),
    # and at the trajectory's columns
    ("replications = 1\nhorizon = 1e14", "horizon"),
])
def test_simulate_runs_past_physical_memory_exit_2(line, key, tmp_path, capsys, monkeypatch):
    import openrcd.opensim as opensim

    def no_batch(*args, **kwargs):
        raise AssertionError("a batch was built")

    monkeypatch.setattr(opensim, "_Batch", no_batch)
    path = tmp_path / "huge.cfg"
    path.write_text(SMALL_CFG + line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"config key '{key}'" in captured.err
    assert "physical memory" in captured.err
    assert captured.out == ""
    assert not out.exists()
