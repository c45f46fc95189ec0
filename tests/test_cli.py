import csv
import importlib
import inspect
import json
import math
import os
import pkgutil
import random
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import gatekeep
from gatekeep.cli import MC_Z_LIMIT, QUAD_DELTA_LIMIT, _build_parser, main
from gatekeep.config import MODES
from gatekeep.welfare import SweepRecord

from economies import seeded
from families import economy

#: the directory that holds the gatekeep package, for child interpreters
SRC = os.path.dirname(os.path.dirname(gatekeep.__file__))

BASE = """\
[primitives]
sigma = 2.0
f = 0.15
f_n = 0.005
delta = 0.1

[schedule]
kind = power_bounded
f_b0 = 3.0
kappa = 2.0
alpha = 8.0

[run]
rho = 0.5
grid = 0.2:0.8:0.2
seed = 99
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE)
    return str(path)


def _read(path):
    with open(path, newline="") as fh:
        provenance = fh.readline()
        rows = list(csv.reader(fh))
    return provenance, rows[0], rows[1:]


def test_solve_writes_schema_row(cfg_path, tmp_path):
    out = str(tmp_path / "solve.csv")
    assert main(["solve", "--config", cfg_path, "--out", out, "--quiet"]) == 0
    provenance, header, rows = _read(out)
    assert provenance.startswith("# gatekeep ")
    assert "config_sha256=" in provenance and "seed=99" in provenance
    assert tuple(header) == SweepRecord.COLUMNS
    assert len(rows) == 1
    assert rows[0][0] == "0.5"
    assert rows[0][-1] == "ok"
    assert math.isfinite(float(rows[0][14]))


def test_solve_matches_golden_equilibrium(tmp_path):
    from golden_values import P_STAR, T_STAR

    path = tmp_path / "golden.cfg"
    path.write_text(BASE.replace("rho = 0.5", "rho = 0.89"))
    out = str(tmp_path / "golden.csv")
    assert main(["solve", "--config", str(path), "--out", out, "--quiet"]) == 0
    _, header, rows = _read(out)
    row = dict(zip(header, rows[0]))
    assert float(row["t_star"]) == pytest.approx(T_STAR, abs=1e-9)
    assert float(row["p_star"]) == pytest.approx(P_STAR, abs=1e-9)


def test_sweep_deterministic_bytes(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["sweep", "--config", cfg_path, "--out", out1, "--quiet"]) == 0
    assert main(["sweep", "--config", cfg_path, "--out", out2, "--quiet"]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_sweep_grid_override_and_svg(cfg_path, tmp_path):
    out = str(tmp_path / "sweep.csv")
    svg = str(tmp_path / "chart.svg")
    code = main([
        "sweep", "--config", cfg_path, "--out", out, "--svg", svg,
        "--grid", "0.3:0.7:0.1", "--quiet",
    ])
    assert code == 0
    _, header, rows = _read(out)
    assert len(rows) == 5
    assert [float(r[0]) for r in rows] == pytest.approx([0.3, 0.4, 0.5, 0.6, 0.7])
    text = open(svg).read()
    assert text.startswith("<?xml")
    assert text.count("<polyline") >= 3
    assert "legend" not in text  # legend is drawn with text/line elements
    assert "welfare" in text


@pytest.mark.parametrize("grid, polylines", [("0.5:0.505:0.01", 0), ("0.5:0.6:0.1", 3)])
def test_sweep_svg_draws_a_polyline_from_two_points(grid, polylines, cfg_path, tmp_path):
    # a one-point sweep still charts its legend, but no series has a line
    svg = tmp_path / "chart.svg"
    code = main([
        "sweep", "--config", cfg_path, "--out", str(tmp_path / "sweep.csv"),
        "--svg", str(svg), "--grid", grid, "--quiet",
    ])
    assert code == 0
    text = svg.read_text()
    assert text.count("<polyline") == polylines
    for name in ("welfare", "operating mass", "avg productivity"):
        assert f">{name}</text>" in text


def test_optimum_mode(cfg_path, tmp_path):
    out = str(tmp_path / "opt.csv")
    assert main(["optimum", "--config", cfg_path, "--out", out, "--quiet",
                 "--grid", "0.5:0.98:0.04"]) == 0
    _, header, rows = _read(out)
    assert header == ["rho_w", "W", "boundary"]
    rho_w = float(rows[0][0])
    assert 0.84 <= rho_w <= 0.94


def test_pigouvian_mode(cfg_path, tmp_path):
    path = tmp_path / "pig.cfg"
    path.write_text(BASE + "s_points = 11\n")
    out = str(tmp_path / "pig.csv")
    assert main(["pigouvian", "--config", str(path), "--out", out, "--quiet"]) == 0
    _, header, rows = _read(out)
    assert header == ["s", "W", "status"]
    assert len(rows) == 11
    welfare = {float(r[0]): float(r[1]) for r in rows}
    assert max(welfare, key=welfare.get) == 0.0


def test_sweep_reproduces_benchmark_figure_table(cfg_path, tmp_path):
    # full-resolution sweep through the CLI: interior welfare peak near 0.89
    out = str(tmp_path / "figure.csv")
    code = main([
        "sweep", "--config", cfg_path, "--out", out, "--quiet",
        "--grid", "0.05:0.98:0.01",
    ])
    assert code == 0
    _, header, rows = _read(out)
    assert len(rows) == 94
    idx_rho, idx_w = header.index("rho"), header.index("W")
    best = max(rows, key=lambda r: float(r[idx_w]))
    assert abs(float(best[idx_rho]) - 0.89) <= 0.03


def test_limits_mode(cfg_path, tmp_path):
    out = str(tmp_path / "lim.csv")
    assert main(["limits", "--config", cfg_path, "--out", out, "--quiet"]) == 0
    _, header, rows = _read(out)
    assert header[0] == "variant"
    variants = {r[0]: float(r[1]) for r in rows}
    assert variants["perfect_info"] > variants["zero_precision"]


def test_validate_mode_passes(cfg_path, tmp_path):
    path = tmp_path / "val.cfg"
    path.write_text(BASE + "mc_n = 200000\n")
    out = str(tmp_path / "val.csv")
    assert main(["validate", "--config", str(path), "--out", out, "--quiet"]) == 0
    _, header, rows = _read(out)
    assert header[0] == "quantity"
    names = [r[0] for r in rows]
    assert names == ["p_theta", "p_phi", "s_term", "pi_breve", "pi_tilde"]
    for row in rows:
        assert abs(float(row[4])) <= MC_Z_LIMIT  # z-score column
        assert abs(float(row[6])) <= QUAD_DELTA_LIMIT  # quadrature delta column


def test_validate_scores_the_aggregates_solve_prints(tmp_path):
    # benchmark.cfg at its rho = 0.89: validate's closed forms are solve's cells
    text = (Path(__file__).parents[1] / "benchmark.cfg").read_text(encoding="utf-8")
    path = tmp_path / "bench.cfg"
    path.write_text(text + "mc_n = 1000\n")
    solve_out, val_out = tmp_path / "solve.csv", tmp_path / "val.csv"
    assert main(["solve", "--config", str(path), "--out", str(solve_out), "--quiet"]) == 0
    main(["validate", "--config", str(path), "--out", str(val_out), "--quiet"])
    _, header, rows = _read(solve_out)
    solved = dict(zip(header, rows[0]))
    assert solved["rho"] == "0.89"
    closed = {row[0]: row[1] for row in _read(val_out)[2]}
    for quantity, column in (("p_theta", "P_theta"), ("p_phi", "P_phi"), ("s_term", "S"),
                             ("pi_breve", "pi_breve")):
        assert closed[quantity] == solved[column], quantity


def test_validate_csv_does_not_depend_on_blas_threads(tmp_path):
    # the standard errors are numpy sums; BLAS's dot summed them in an order
    # set by its thread count
    text = (Path(__file__).parents[1] / "benchmark.cfg").read_text(encoding="utf-8")
    path = tmp_path / "bench.cfg"
    path.write_text(text + "mc_n = 200000\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"val{threads}.csv"
        proc = _python(["-m", "gatekeep", "validate", "--config", str(path), "--out", str(out),
                        "--quiet"], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _assert_no_child_left():
    # validate reaps the child it forks on every path
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_validate_error_precedence(tmp_path, monkeypatch, capsys):
    # the two estimators run at once (the quadratures after them, in process,
    # since pytest has loaded numpy); their errors rank aggregates, then
    # pi_tilde, then quadrature. A forked child's error is tested below
    from gatekeep import oracle, quadrature
    from gatekeep.errors import TiltOverflowError, ToleranceNotMetError

    def failing(stage):
        def fail(*args, **kwargs):
            raise ToleranceNotMetError(stage)
        return fail

    path = tmp_path / "val.cfg"
    path.write_text(BASE + "mc_n = 2000\n")
    args = ["validate", "--config", str(path), "--out", str(tmp_path / "val.csv"), "--quiet"]

    def fails_with(line):
        assert main(args) == 2
        assert capsys.readouterr().err == f"solver failure: {line}\n"
        _assert_no_child_left()

    for module, stage, name in ((quadrature, "quadrature", "quadrature_reference"),
                                (oracle, "pi_tilde", "estimate_profit_given_signal"),
                                (oracle, "aggregates", "estimate_aggregates")):
        monkeypatch.setattr(module, name, failing(stage))
        fails_with(f"ToleranceNotMetError: {stage}")
    # the aggregates' Monte Carlo and a quadrature, pi_tilde's estimate passing
    monkeypatch.undo()
    monkeypatch.setattr(quadrature, "quadrature_reference", failing("quadrature"))
    monkeypatch.setattr(oracle, "estimate_aggregates", failing("aggregates"))
    fails_with("ToleranceNotMetError: aggregates")
    # two quadratures: the first in row order, each error with its class
    monkeypatch.undo()
    reference = quadrature.quadrature_reference

    def later_rows_fail(quantity, params):
        if quantity == "S":
            raise TiltOverflowError("S")
        if quantity == "pi_breve":
            raise ToleranceNotMetError("pi_breve")
        return reference(quantity, params)

    monkeypatch.setattr(quadrature, "quadrature_reference", later_rows_fail)
    fails_with("TiltOverflowError: S")


def test_validate_without_fork_writes_the_same_csv(tmp_path, monkeypatch):
    # where os.fork does not exist, the quadratures run in process; so they
    # do under pytest, which has loaded numpy (forked and in-process runs are
    # compared in a fresh interpreter below)
    path = tmp_path / "val.cfg"
    path.write_text(BASE + "mc_n = 70000\n")
    outputs = []
    for fork in (True, False):
        if not fork:
            monkeypatch.delattr(os, "fork")
        out = tmp_path / f"val_{fork}.csv"
        assert main(["validate", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        _assert_no_child_left()
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


#: validate in a fresh interpreter, whose forked child ends without a result
#: (killed, say) or sends back the error of a quadrature (argv[1])
CHILD_SCRIPT = """
import json, os, sys
from gatekeep import cli, quadrature
from gatekeep.errors import TiltOverflowError

reference = quadrature.quadrature_reference

def send_nothing(quantity, params):
    os._exit(1)

def fail_at_s(quantity, params):
    if quantity == "S":
        raise TiltOverflowError(quantity)
    return reference(quantity, params)

quadrature.quadrature_reference = {"nothing": send_nothing, "error": fail_at_s}[sys.argv[1]]
try:
    seen = {"code": cli.main(sys.argv[2:])}
except RuntimeError as exc:
    seen = {"error": str(exc)}
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    seen["reaped"] = True
print(json.dumps(seen))
"""


def _validate_with_child(tmp_path, child):
    # a fresh interpreter forks: pytest's own has loaded numpy, and would run
    # the quadratures, and a child's os._exit, in process
    path = tmp_path / "val.cfg"
    path.write_text(BASE + "mc_n = 2000\n")
    proc = _python(["-c", CHILD_SCRIPT, child, "validate", "--config", str(path),
                    "--out", str(tmp_path / "val.csv"), "--quiet"])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), proc.stderr


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks a child")
def test_validate_child_that_sends_nothing_is_an_error(tmp_path):
    # a child that ends without a result (killed, say) fails the run, reaped
    seen, stderr = _validate_with_child(tmp_path, "nothing")
    assert re.fullmatch(r"forked process \d+ ended without sending a result", seen.pop("error"))
    assert seen == {"reaped": True}
    assert stderr == ""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks a child")
def test_validate_child_error_is_the_runs_error(tmp_path):
    # the child's error comes back with its class and fails the run, reaped
    seen, stderr = _validate_with_child(tmp_path, "error")
    assert seen == {"code": 2, "reaped": True}
    assert stderr == "solver failure: TiltOverflowError: S\n"


FORK_THREADS_SCRIPT = """
import json, os, runpy, sys

fork, threads, codes = os.fork, [], []

def counted_fork():
    # num_threads, field 20 of /proc/self/stat
    with open("/proc/self/stat") as fh:
        threads.append(int(fh.read().rsplit(")", 1)[1].split()[17]))
    return fork()

os.fork = counted_fork
# one python -m gatekeep run per --out path given after the arguments
args, outs = sys.argv[1:sys.argv.index("--out")], sys.argv[sys.argv.index("--out") + 1:]
for out in outs:
    sys.argv = ["gatekeep", *args, "--out", out]
    try:
        runpy.run_module("gatekeep", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({"codes": codes, "threads": threads}))
"""


def _fork_threads(tmp_path, runs, *flags):
    path = tmp_path / "val.cfg"
    path.write_text(BASE + "mc_n = 20000\n")
    outs = [tmp_path / f"val{i}.csv" for i in range(runs)]
    proc = _python([*flags, "-c", FORK_THREADS_SCRIPT, "validate", "--config", str(path),
                    "--quiet", "--out", *map(str, outs)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), [out.read_bytes() for out in outs]


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads Linux's /proc")
def test_validate_forks_while_single_threaded(tmp_path):
    # a fresh python -m gatekeep validate forks before numpy loads, and with
    # it BLAS's threads: a child of a threaded process could inherit a lock
    # that no thread of its own releases (and Python 3.12+ warns). Python
    # 3.13 clears that warning even under -W error, so the count is read here
    seen, _ = _fork_threads(tmp_path, 1)
    assert seen == {"codes": [0], "threads": [1]}


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads Linux's /proc")
def test_second_validate_in_a_process_does_not_fork(tmp_path):
    # once numpy has loaded, validate runs its quadratures in process, and
    # writes the bytes that the forked run wrote
    flags = ["-W", "error::DeprecationWarning"] if sys.version_info >= (3, 12) else []
    seen, csvs = _fork_threads(tmp_path, 2, *flags)
    assert seen == {"codes": [0, 0], "threads": [1]}
    assert csvs[0] == csvs[1]


def test_validate_zero_standard_error_is_not_a_match(tmp_path):
    # one draw has no spread: pi_tilde's z-score follows the aggregate rows'
    # rule and reads inf when the estimate misses, never a perfect 0
    path = tmp_path / "one.cfg"
    path.write_text(BASE + "mc_n = 1\n")
    out = str(tmp_path / "one.csv")
    assert main(["validate", "--config", str(path), "--out", out, "--quiet"]) == 3
    _, header, rows = _read(out)
    row = dict(zip(header, rows[-1]))
    assert row["quantity"] == "pi_tilde"
    assert float(row["mc_std_error"]) == 0.0
    assert float(row["mc_mean"]) != float(row["closed_form"])
    assert row["z_score"] == "inf"


@pytest.mark.parametrize("column", ["quad_delta", "z_score"])
def test_validate_nan_cell_is_a_mismatch(column, tmp_path, monkeypatch):
    # one NaN cell, every other cell within its limit: a NaN is never the
    # largest |z| or delta, so the run must fail on the cell itself
    from gatekeep import oracle, quadrature

    reference, z_score = quadrature.quadrature_reference, oracle.z_score
    if column == "quad_delta":
        monkeypatch.setattr(quadrature, "quadrature_reference", lambda quantity, params: (
            math.nan if quantity == "pi_breve" else reference(quantity, params)))
    else:
        # pi_tilde's z-score is the one on the estimate of expected profit at a signal
        estimate, drawn = oracle.estimate_profit_given_signal, []
        monkeypatch.setattr(oracle, "estimate_profit_given_signal", lambda *args: (
            drawn.append(estimate(*args)) or drawn[-1]))
        monkeypatch.setattr(oracle, "z_score", lambda closed, est: (
            math.nan if est is drawn[0] else z_score(closed, est)))
    path = tmp_path / "val.cfg"
    path.write_text(BASE + "mc_n = 200000\n")
    out = str(tmp_path / "val.csv")
    assert main(["validate", "--config", str(path), "--out", out, "--quiet"]) == 3
    _, header, rows = _read(out)
    cells = [dict(zip(header, row)) for row in rows]
    assert [cell[column] for cell in cells].count("nan") == 1
    for cell in cells:
        for name, limit in (("z_score", MC_Z_LIMIT), ("quad_delta", QUAD_DELTA_LIMIT)):
            assert cell[name] == "nan" or abs(float(cell[name])) <= limit, cell


def test_solver_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BASE.replace("f_n = 0.005", "f_n = 1e30"))
    out = str(tmp_path / "bad.csv")
    assert main(["solve", "--config", str(path), "--out", out, "--quiet"]) == 2
    _, header, rows = _read(out)
    assert rows[0][-1].startswith("failed: BracketFailureError")
    assert capsys.readouterr().err.startswith("failed: BracketFailureError: ")


def test_missing_required_run_field(tmp_path):
    path = tmp_path / "norho.cfg"
    path.write_text(BASE.replace("rho = 0.5\n", ""))
    assert main(["solve", "--config", str(path), "--quiet"]) == 1


def test_config_errors_exit_one(tmp_path):
    missing = str(tmp_path / "nope.cfg")
    assert main(["solve", "--config", missing]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text(BASE.replace("sigma = 2.0", "sigma = 1.0"))
    assert main(["solve", "--config", str(bad)]) == 1


def test_bad_grid_flag(cfg_path):
    assert main(["sweep", "--config", cfg_path, "--grid", "0.1:0.9"]) == 1


@pytest.mark.parametrize("grid, message", [
    ("0.1:0.9", "grid must be start:stop:step, got '0.1:0.9'"),
    ("0.9:0.1:0.1", "grid must satisfy 0 < start < stop < 1, got 0.9:0.1:0.1"),
    # a grid of unbounded length, not an endless sweep
    ("0.1:0.9:inf", "grid step inf must be finite and take at most 100000 steps from 0.1 to 0.9"),
])
def test_bad_grid_flag_is_a_config_error(grid, message, cfg_path):
    proc = _python(["-m", "gatekeep", "sweep", "--config", cfg_path, "--grid", grid, "--quiet"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"config error: --grid: {message}\n"


def test_undecodable_config_exits_one(tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"[primitives]\nsigma = \xff\n")
    assert main(["solve", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("cannot read config: 'utf-8' codec can't decode")


def test_solve_row_matches_sweep_row(tmp_path):
    # rho = 0.4 is the second point of the 0.2:0.8:0.2 grid
    path = tmp_path / "row.cfg"
    path.write_text(BASE.replace("rho = 0.5", "rho = 0.4"))
    solve_out, sweep_out = tmp_path / "solve.csv", tmp_path / "sweep.csv"
    assert main(["solve", "--config", str(path), "--out", str(solve_out), "--quiet"]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(sweep_out), "--quiet"]) == 0
    solve_lines = solve_out.read_bytes().split(b"\r\n")
    sweep_lines = sweep_out.read_bytes().split(b"\r\n")
    assert solve_lines[1] == sweep_lines[1]
    assert solve_lines[2].startswith(b"0.4,")
    assert solve_lines[2] == sweep_lines[3]


@pytest.mark.parametrize("mode, flag", [("solve", "--out"), ("sweep", "--svg")])
def test_unwritable_output_exits_one(mode, flag, cfg_path, tmp_path):
    target = str(tmp_path / "missing" / "out")
    proc = _python(["-m", "gatekeep", mode, "--config", cfg_path, flag, target, "--quiet"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cannot write output: ")


@pytest.mark.parametrize("route", ["config", "flag"])
def test_negative_seed_is_a_config_error(route, tmp_path, capsys):
    path = tmp_path / "seed.cfg"
    text = BASE + "mc_n = 1000\n"
    path.write_text(text.replace("seed = 99", "seed = -5") if route == "config" else text)
    args = ["validate", "--config", str(path), "--quiet"]
    if route == "flag":
        args += ["--seed", "-5"]
    assert main(args) == 1
    assert "config error: run.seed must be non-negative, got -5" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("kappa = 2.0", "kappa must be nonnegative, got nan"),
    ("alpha = 8.0", "alpha must be positive, got nan"),
])
def test_nan_schedule_parameter_is_a_config_error(line, message, tmp_path, capsys):
    # refused when the config is read, not left to fail every point
    path = tmp_path / "nan.cfg"
    path.write_text(BASE.replace(line, line.split()[0] + " = nan"))
    assert main(["solve", "--config", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("args, message", [
    ([], "the following arguments are required: mode, --config"),
    (["dance", "--config", "x.cfg"], "argument mode: invalid choice: 'dance'"),
    (["solve"], "the following arguments are required: --config"),
    (["solve", "--config", "x.cfg", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
], ids=["no_arguments", "unknown_mode", "no_config", "seed_not_an_int"])
def test_usage_errors_exit_one(args, message):
    # exit code 2 is a solver failure, so a usage error must not take argparse's 2
    proc = _python(["-m", "gatekeep", *args])
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: gatekeep ")
    assert f"gatekeep: error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("mode", MODES)
def test_every_mode_takes_the_same_flags_in_any_order(mode):
    flags = ["--config", "c.cfg", "--out", "o.csv", "--svg", "s.svg", "--seed", "3",
             "--grid", "0.1:0.9:0.1", "--quiet"]
    parsed = {
        "config": "c.cfg", "out": "o.csv", "svg": "s.svg", "seed": 3,
        "grid": "0.1:0.9:0.1", "quiet": True, "mode": mode,
    }
    parser = _build_parser()
    assert vars(parser.parse_args([mode, *flags])) == parsed
    assert vars(parser.parse_args([*flags, mode])) == parsed


def _python(args, **env_vars):
    """Run a fresh interpreter that imports gatekeep from this tree, with env_vars set."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.update(env_vars)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("mode", ["sweep", "limits", "optimum", "pigouvian"])
def test_tilt_overflow_is_a_solver_failure(mode, tmp_path):
    # sigma = 60 (k = 59) pushes the tilted profit moments past exp's range
    path = tmp_path / "overflow.cfg"
    path.write_text(BASE.replace("sigma = 2.0", "sigma = 60.0"))
    out = str(tmp_path / "overflow.csv")
    proc = _python(["-m", "gatekeep", mode, "--config", str(path), "--out", out, "--quiet"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "TiltOverflowError" in proc.stderr
    if mode == "sweep":
        _, _, rows = _read(out)
        assert len(rows) == 4
        assert all(r[-1].startswith("failed: TiltOverflowError") for r in rows)
    if mode == "optimum":
        # every grid point failed with the overflow, so the optimum names it
        assert "solver failure: TiltOverflowError:" in proc.stderr
        assert "TiltOverflowError: 4" in proc.stderr
    if mode == "pigouvian":
        _, _, rows = _read(out)
        assert len(rows) == 41
        assert all(r[-1].startswith("failed: TiltOverflowError") for r in rows)
        lines = proc.stderr.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"s={float(r[0])!r}" for r in rows]
        assert all(": failed: TiltOverflowError: " in line for line in lines)


UNDERFLOW_CFG = """\
[primitives]
sigma = 1.456245236851979
f = 1e300
f_n = 10.094663522262515
delta = 0.7510590095111661
L = 846.1875432325069

[schedule]
kind = constant
f_b = 406.3804314241883

[run]
rho = 0.8959038320707119
"""

POWER_OVERFLOW_CFG = """\
[primitives]
sigma = 1.0013241373826147
f = 31.679549923991253
f_n = 0.0035853008899762386
delta = 0.4063948612096497
L = 84.03489347622663

[schedule]
kind = constant
f_b = 0.001908792875144275

[run]
rho = 0.8226039481423504
"""


#: the operating mass M underflows to the subnormal 5e-324, which puts the
#: variety-quality form of W = 9.7e-21 1.2% off the master and ratio forms
SUBNORMAL_MASS_CFG = """\
[primitives]
sigma = 10.006863942407314
f = 6.546258963027804e+293
f_n = 0.6180364713692482
delta = 0.9891313332417414
L = 4.8008666141417696e-29

[schedule]
kind = power_bounded
f_b0 = 0.0018579348075470788
kappa = 0.0
alpha = 1.0535369155525279e-256

[run]
rho = 0.46420090343104026
"""


@pytest.mark.parametrize("text, error", [
    # residuals near 1e-300 underflowed Brent's interpolation denominator
    # (ZeroDivisionError); the solved cutoffs then fail the free-entry identity
    (UNDERFLOW_CFG, "InconsistentEquilibriumError"),
    # m ** (1/k) at k = 0.0013 raised a bare OverflowError
    (POWER_OVERFLOW_CFG, "TiltOverflowError"),
    # W = 9.7e-21 is below 1, and the welfare cross-check is relative
    (SUBNORMAL_MASS_CFG, "InconsistentEquilibriumError"),
], ids=["brent_underflow", "welfare_power_overflow", "subnormal_mass"])
def test_float_range_edges_are_solver_failures(text, error, tmp_path):
    path = tmp_path / "edge.cfg"
    path.write_text(text)
    proc = _python(["-m", "gatekeep", "solve", "--config", str(path),
                    "--out", str(tmp_path / "edge.csv"), "--quiet"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"failed: {error}: ")


#: validate's S quadrature overflowed exp(k p) at k = 13.7 in a raw
#: OverflowError, while solve on the same economy succeeds
VALIDATE_OVERFLOW_CFG = """\
[primitives]
sigma = 14.701436259775718
f = 0.17545641192895872
f_n = 46.92677121197108
delta = 0.5925762096957752
L = 33.76691485681123

[schedule]
kind = piecewise_linear
rho_low = 0.0670832067059218
rho_high = 0.25979863215977494
f_low = 0.016189597404489782
f_high = 0.9989171416208602

[run]
rho = 0.4365866519567337
mc_n = 2000
seed = 3
"""


#: one of the two in 300 fuzz configs on which pi_breve's quadrature, with
#: 268 of its 854 inner integrals NaN, was reported as the number nan
NAN_QUADRATURE_CFG = """\
[primitives]
sigma = 3.0
f = 9.324281025749343e+299
f_n = 1.0
delta = 0.1491729864726037
L = 1.7689962138901264e+299

[schedule]
kind = piecewise_linear
rho_low = 0.7950520457726243
rho_high = 0.9580466006629399
f_low = 1.010128218189875e-116
f_high = 3.0708186799407375

[run]
rho = 0.32208074469434833
mc_n = 1286
seed = 61124
"""


def test_validate_reports_no_nan_quadrature(tmp_path, capsys):
    # the inner integrands fold inf * 0.0 in their far tails, so every inner
    # integral is finite; a NaN one would be refused. The run still fails:
    # no draw reaches a mass of 2.8e-300, so the z-scores are inf
    path = tmp_path / "nan.cfg"
    path.write_text(NAN_QUADRATURE_CFG)
    out = str(tmp_path / "nan.csv")
    assert main(["validate", "--config", str(path), "--out", out]) == 3
    summary = capsys.readouterr().out
    assert summary.endswith("max |z| = inf, max quadrature delta = 8.549e-14 -> MISMATCH\n")
    _, header, rows = _read(out)
    cells = {row[0]: dict(zip(header, row)) for row in rows}
    assert math.isfinite(float(cells["pi_breve"]["quad_value"]))
    assert abs(float(cells["pi_breve"]["quad_delta"])) <= QUAD_DELTA_LIMIT


@pytest.mark.parametrize("family", ["scaled", "scaled_down"])
def test_validate_moments_do_not_depend_on_the_cost_scale(family, tmp_path):
    # a domain economy with every cost and L near 1e300 (or 1e-250): the
    # oracle keeps its moments in units of a power of two, so the squared
    # deviations neither overflow (a numpy RuntimeWarning, an error here)
    # nor underflow to a standard error of 0. The scaled economy still
    # exits 3 on its absolute quadrature deltas (ROADMAP item 16)
    path, out = tmp_path / "scaled.cfg", tmp_path / "scaled.csv"
    path.write_text(economy(family, random.Random(4)))
    assert main(["validate", "--config", str(path), "--out", str(out), "--quiet"]) in (0, 3)
    _, header, rows = _read(str(out))
    se, z = header.index("mc_std_error"), header.index("z_score")
    assert len(rows) == 5
    for row in rows:
        assert 0.0 < float(row[se]) < math.inf, row
        assert abs(float(row[z])) <= MC_Z_LIMIT, row


def test_validate_quadrature_overflow_is_no_traceback(tmp_path, capsys):
    path = tmp_path / "overflow.cfg"
    path.write_text(VALIDATE_OVERFLOW_CFG)
    out = str(tmp_path / "overflow.csv")
    assert main(["validate", "--config", str(path), "--out", out, "--quiet"]) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_sweep_refuses_an_economy_whose_welfare_underflows(tmp_path):
    # at L = 5e-324 the entrant mass, and so welfare, underflow to 0.0 at
    # every point; such a point is no equilibrium, and no chart is drawn
    path = tmp_path / "tiny.cfg"
    path.write_text(BASE.replace("delta = 0.1\n", "delta = 0.1\nL = 5e-324\n"))
    out, svg = str(tmp_path / "tiny.csv"), tmp_path / "tiny.svg"
    proc = _python(["-m", "gatekeep", "sweep", "--config", str(path), "--out", out,
                    "--svg", str(svg), "--quiet"])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    _, _, rows = _read(out)
    assert len(rows) == 4
    assert all(r[-1].startswith("failed: InconsistentEquilibriumError: ") for r in rows)
    lines = proc.stderr.splitlines()
    assert len(lines) == 4
    assert all(": failed: InconsistentEquilibriumError: " in line for line in lines)
    assert not svg.exists()


#: (L / delta) S overflows the ratio form's float product at s = f_b/2,
#: where W = 1.6e31 is a double below W(0)
INF_PRODUCT_CFG = """\
[primitives]
sigma = 8.943326798492073
f = 0.9918483233357253
f_n = 1.7588614036134926
delta = 0.2951665975787614
L = 7.635766662987013e+299

[schedule]
kind = power_bounded
f_b0 = 5.803623377729946e+73
kappa = 2.981188230705238e+211
alpha = 2.1508116002336917e+290

[run]
rho = 0.47313280772649824
grid = 0.4:0.5:0.05
s_points = 11
"""


# config texts over the extreme ranges of every primitive and schedule key
_CONFIG_TEXTS = seeded("extreme")


@pytest.mark.parametrize("mode", MODES)
@given(text=_CONFIG_TEXTS)
@example(text=VALIDATE_OVERFLOW_CFG)
@example(text=INF_PRODUCT_CFG)
@settings(max_examples=12, derandomize=True, deadline=None)
def test_every_mode_exits_with_a_code_on_any_valid_config(mode, text, tmp_path_factory):
    root = tmp_path_factory.getbasetemp()
    path, out = root / "fuzz.cfg", root / "fuzz.csv"
    path.write_text(text)
    out.unlink(missing_ok=True)
    args = [mode, "--config", str(path), "--out", str(out), "--quiet"]
    if mode == "sweep":
        args += ["--svg", str(root / "fuzz.svg")]
    assert main(args) in (0, 1, 2, 3)
    if mode in ("solve", "sweep", "pigouvian") and out.exists():
        # a welfare reported as ok is a positive double, never inf or 0.0
        _, header, rows = _read(out)
        w, status = header.index("W"), header.index("status")
        assert all(0.0 < float(r[w]) < math.inf for r in rows if r[status] == "ok")


ORACLE_IMPORT_SCRIPT = """
import json, sys

def loaded(*packages):
    return sorted(m for m in sys.modules if m.split(".")[0] in packages)

import gatekeep.quadrature

seen = {"quadrature": loaded("numpy", "scipy"), "quadrature_modules": loaded("gatekeep")}
import gatekeep.oracle

seen["oracle_modules"] = loaded("gatekeep")
seen["oracle_numpy"] = "numpy" in sys.modules
from gatekeep.oracle import McEstimate, sample_log_population, z_score

seen["z_score"] = z_score(1.0, McEstimate(mean=0.5, std_error=0.25))
draws = sample_log_population(0.5, 10, 1)
seen["undrawn_numpy"] = "numpy" in sys.modules
blocks = draws.blocks()
next(blocks)
seen["drawn_numpy"] = "numpy" in sys.modules
blocks.close()
from gatekeep import cli

seen["oracle"] = loaded("scipy")
seen["validate_code"] = cli.main(["validate", "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"])
seen["validate"] = loaded("scipy")
print(json.dumps(seen))
"""


def test_oracle_import_loads_no_scipy(tmp_path):
    # the quadratures run on their own QUADPACK and ndtr ports, and need no
    # numpy; the Monte Carlo oracle loads numpy on its first draw, not at
    # import; neither oracle loads a solver module, not even for an annotation
    val_cfg = tmp_path / "val.cfg"
    val_cfg.write_text(BASE + "mc_n = 20000\n")
    proc = _python(["-c", ORACLE_IMPORT_SCRIPT, str(val_cfg), str(tmp_path / "out.csv")])
    assert proc.returncode == 0, proc.stderr
    quadrature_modules = ["gatekeep", "gatekeep.errors", "gatekeep.quadrature"]
    assert json.loads(proc.stdout) == {
        "quadrature": [], "quadrature_modules": quadrature_modules,
        "oracle_modules": sorted(quadrature_modules + ["gatekeep.oracle", "gatekeep.records"]),
        "oracle_numpy": False, "z_score": 2.0, "undrawn_numpy": False, "drawn_numpy": True,
        "oracle": [], "validate_code": 0, "validate": [],
    }


def test_every_annotation_resolves():
    # a name a module imports only inside a function is not there to resolve
    # an annotation (from __future__ import annotations keeps them as strings)
    unresolved = []
    for info in pkgutil.iter_modules(gatekeep.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"gatekeep.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            # a method, or the function behind a staticmethod, classmethod or property
            members = [getattr(m, "__func__", getattr(m, "fget", m)) for m in vars(obj).values()] \
                if inspect.isclass(obj) else [obj]
            for fn in filter(inspect.isfunction, members):
                try:
                    typing.get_type_hints(fn)
                except NameError as err:
                    unresolved.append(f"{fn.__module__}.{fn.__qualname__}: {err}")
    assert unresolved == []


COLD_IMPORT_SCRIPT = """
import json, sys

def numeric():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

def loaded():
    # what importing dataclasses would load, and the modules only some modes run
    names = ("dataclasses", "inspect", "ast", "dis", "tokenize", "gatekeep.svgchart",
             "gatekeep.policy")
    return [m for m in names if m in sys.modules]

def ours():
    return sorted(m for m in sys.modules if m.startswith("gatekeep."))

cfg, val_cfg, out, svg = sys.argv[1:]
import gatekeep
seen = {"package": loaded(), "package_modules": ours()}
from gatekeep import cli

seen["import"] = numeric()
seen["import_loaded"] = loaded()
seen["cli_modules"] = ours()
seen["sweep_code"] = cli.main(["sweep", "--config", cfg, "--out", out, "--svg", svg, "--quiet"])
seen["sweep"] = numeric()
seen["sweep_loaded"] = loaded()
seen["sweep_modules"] = ours()
# validate forks its quadrature child before numpy loads
import gatekeep.quadrature
seen["quadrature"] = numeric()
seen["quadrature_modules"] = ours()
seen["validate_code"] = cli.main(["validate", "--config", val_cfg, "--out", out, "--quiet"])
seen["validate"] = sorted({m.split(".")[0] for m in numeric()})
seen["validate_modules"] = ours()
seen["pigouvian_code"] = cli.main(["pigouvian", "--config", cfg, "--out", out, "--quiet"])
seen["pigouvian_modules"] = ours()
print(json.dumps(seen))
"""

#: what ``from gatekeep import cli`` loads: the solver and the config reader
CLI_MODULES = ["gatekeep.cli", "gatekeep.config", "gatekeep.economy", "gatekeep.equilibrium",
               "gatekeep.errors", "gatekeep.normal", "gatekeep.records", "gatekeep.welfare"]


def test_solve_paths_load_no_numpy_or_scipy(cfg_path, tmp_path):
    val_cfg = tmp_path / "val.cfg"
    val_cfg.write_text(BASE + "mc_n = 20000\n")
    proc = _python(["-c", COLD_IMPORT_SCRIPT, cfg_path, str(val_cfg), str(tmp_path / "out.csv"),
                    str(tmp_path / "out.svg")])
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    # the package holds only its version
    assert seen["package"] == []
    assert seen["package_modules"] == []
    assert seen["import"] == []
    assert seen["import_loaded"] == []
    assert seen["cli_modules"] == CLI_MODULES
    assert seen["sweep_code"] == 0
    assert seen["sweep"] == []
    # the chart module loads with the first chart, the two oracles with validate
    # (the quadratures with no numpy), and no mode loads policy but pigouvian
    assert seen["sweep_loaded"] == ["gatekeep.svgchart"]
    assert seen["sweep_modules"] == sorted(CLI_MODULES + ["gatekeep.svgchart"])
    assert seen["quadrature"] == []
    assert seen["quadrature_modules"] == sorted(seen["sweep_modules"] + ["gatekeep.quadrature"])
    assert seen["validate_code"] == 0
    assert seen["validate"] == ["numpy"]
    assert seen["validate_modules"] == sorted(
        seen["sweep_modules"] + ["gatekeep.oracle", "gatekeep.quadrature"]
    )
    assert seen["pigouvian_code"] == 0
    assert seen["pigouvian_modules"] == sorted(seen["validate_modules"] + ["gatekeep.policy"])


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        gatekeep.no_such_name
