import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gatekeep
from gatekeep.cli import _build_parser, main
from gatekeep.config import MODES
from gatekeep.welfare import SweepRecord

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
        assert abs(float(row[4])) <= 4.0  # z-score column
        assert abs(float(row[6])) <= 1e-8  # quadrature delta column


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


def test_validate_error_precedence(tmp_path, monkeypatch, capsys):
    # the two estimators run at once; their errors still rank aggregates,
    # then pi_tilde, then quadrature
    from gatekeep import oracle
    from gatekeep.errors import ToleranceNotMetError

    def failing(stage):
        def fail(*args, **kwargs):
            raise ToleranceNotMetError(stage)
        return fail

    path = tmp_path / "val.cfg"
    path.write_text(BASE + "mc_n = 2000\n")
    args = ["validate", "--config", str(path), "--out", str(tmp_path / "val.csv"), "--quiet"]
    for stage, name in (("quadrature", "quadrature_reference"),
                        ("pi_tilde", "estimate_profit_given_signal"),
                        ("aggregates", "estimate_aggregates")):
        monkeypatch.setattr(oracle, name, failing(stage))
        assert main(args) == 2
        assert capsys.readouterr().err == f"solver failure: ToleranceNotMetError: {stage}\n"


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
    from gatekeep import oracle

    quadrature, z_score = oracle.quadrature_reference, oracle.z_score
    if column == "quad_delta":
        monkeypatch.setattr(oracle, "quadrature_reference", lambda quantity, params: (
            math.nan if quantity == "pi_breve" else quadrature(quantity, params)))
    else:
        # pi_tilde's estimate is the one drawn at the config's seed + 1
        monkeypatch.setattr(oracle, "z_score", lambda closed, est: (
            math.nan if est.seed == 100 else z_score(closed, est)))
    path = tmp_path / "val.cfg"
    path.write_text(BASE + "mc_n = 200000\n")
    out = str(tmp_path / "val.csv")
    assert main(["validate", "--config", str(path), "--out", out, "--quiet"]) == 3
    _, header, rows = _read(out)
    cells = [dict(zip(header, row)) for row in rows]
    assert [cell[column] for cell in cells].count("nan") == 1
    for cell in cells:
        for name, limit in (("z_score", 4.0), ("quad_delta", 1e-8)):
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


def _positive(lo=-3.0, hi=1.0):
    # log-uniform on [10^lo, 10^hi], where economies tend to solve, and the
    # whole positive range with its extremes
    return st.one_of(
        st.floats(lo, hi).map(lambda e: 10.0 ** e),
        st.floats(5e-324, 1e300),
    )


_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_SIGMA = st.one_of(
    _positive(-1.0, 1.0).map(lambda x: 1.0 + x).filter(lambda s: s > 1.0),
    st.floats(1.0, 1e300, exclude_min=True),
)


@st.composite
def _config_texts(draw):
    """Config text over the whole domain of every primitive and schedule key."""
    primitives = {"sigma": draw(_SIGMA), "f": draw(_positive()), "f_n": draw(_positive()),
                  "delta": draw(_UNIT), "L": draw(_positive())}
    kind = draw(st.sampled_from(["constant", "power_bounded", "piecewise_linear", "hyperbolic"]))
    if kind == "constant":
        schedule = {"f_b": draw(_positive())}
    elif kind == "power_bounded":
        schedule = {"f_b0": draw(_positive()), "kappa": draw(st.one_of(st.just(0.0), _positive())),
                    "alpha": draw(_positive())}
    elif kind == "piecewise_linear":
        rho_low, rho_high = sorted(draw(st.lists(_UNIT, min_size=2, max_size=2, unique=True)))
        f_low, f_high = sorted((draw(_positive()), draw(_positive())))
        schedule = {"rho_low": rho_low, "rho_high": rho_high, "f_low": f_low, "f_high": f_high}
    else:
        schedule = {"f_b0": draw(_positive())}
    start, stop = sorted(draw(st.lists(_UNIT, min_size=2, max_size=2, unique=True)))
    # at most 5 grid points
    step = (stop - start) / draw(st.integers(1, 4))
    # validate's quadratures take seconds as the clamped rho nears 1 - 1e-6
    run = {"rho": draw(st.floats(0.0, 0.99, exclude_min=True)), "grid": f"{start}:{stop}:{step}",
           "s_points": 5, "mc_n": draw(st.integers(1, 5000)), "seed": draw(st.integers(0, 2**32))}
    for key in ("f_e0", "f_b_bar"):
        if draw(st.booleans()):
            run[key] = draw(_positive())
    lines = []
    for name, entries in (("primitives", primitives), ("schedule", {"kind": kind, **schedule}),
                          ("run", run)):
        # str of a float is its shortest round-tripping repr
        lines += [f"[{name}]", *(f"{key} = {value}" for key, value in entries.items())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", MODES)
@given(text=_config_texts())
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

def scipy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import gatekeep.oracle
from gatekeep import cli

seen = {"oracle": scipy()}
seen["validate_code"] = cli.main(["validate", "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"])
seen["validate"] = scipy()
print(json.dumps(seen))
"""


def test_oracle_import_loads_no_scipy(tmp_path):
    # the quadratures run on the oracle's own QUADPACK and ndtr ports
    val_cfg = tmp_path / "val.cfg"
    val_cfg.write_text(BASE + "mc_n = 20000\n")
    proc = _python(["-c", ORACLE_IMPORT_SCRIPT, str(val_cfg), str(tmp_path / "out.csv")])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"oracle": [], "validate_code": 0, "validate": []}


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
    # the chart module loads with the first chart, the oracle with validate, and no mode
    # loads policy but pigouvian
    assert seen["sweep_loaded"] == ["gatekeep.svgchart"]
    assert seen["sweep_modules"] == sorted(CLI_MODULES + ["gatekeep.svgchart"])
    assert seen["validate_code"] == 0
    assert seen["validate"] == ["numpy"]
    assert seen["validate_modules"] == sorted(seen["sweep_modules"] + ["gatekeep.oracle"])
    assert seen["pigouvian_code"] == 0
    assert seen["pigouvian_modules"] == sorted(seen["validate_modules"] + ["gatekeep.policy"])


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        gatekeep.no_such_name
