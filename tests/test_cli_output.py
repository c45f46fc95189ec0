"""What each CLI mode shows a user: exit code, stdout summary, stderr lines.

Every number a summary prints is checked against the CSV cell it reports,
and every expected failure line is built from the CSV's status cells or from
the library error, so nothing here pins a platform's last bits.
"""

import csv
import re

import pytest

from gatekeep.cli import main
from gatekeep.config import MODES, parse_config
from gatekeep.economy import Regime
from gatekeep.equilibrium import melitz_limit_zero, solve_equilibrium
from gatekeep.errors import GatekeepError
from gatekeep.welfare import find_optimal_precision
from test_cli import BASE

MC_N = 20000
CONFIGS = {
    "base": BASE + f"mc_n = {MC_N}\n",
    # k = 59 pushes the tilted profit moments past exp's range
    "overflow": BASE.replace("sigma = 2.0", "sigma = 60.0") + f"mc_n = {MC_N}\n",
    # an entry cost no firm can recoup: free entry has no root
    "no_entry": BASE.replace("f_n = 0.005", "f_n = 1e30") + f"mc_n = {MC_N}\n",
}


def _read_csv(path):
    with open(path, newline="") as fh:
        fh.readline()  # provenance
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _library_error(mode, config):
    """The error the library raises for a mode that reports one failure for the run."""
    prim, schedule = config.primitives, config.schedule
    try:
        if mode == "optimum":
            find_optimal_precision(prim, schedule, config.grid.points())
        elif mode == "limits":
            melitz_limit_zero(prim, prim.f_n + schedule.cost(1e-6))
        else:
            solve_equilibrium(prim, Regime(config.rho, schedule))
    except GatekeepError as exc:
        return f"solver failure: {type(exc).__name__}: {exc}"
    pytest.fail(f"{mode} did not fail")


def _expected(mode, config, header, rows):
    """(exit code, summary line or None, stderr lines) implied by the CSV."""
    if rows is None:
        return 2, None, [_library_error(mode, config)]
    col = {h: i for i, h in enumerate(header)}
    if mode in ("solve", "sweep", "pigouvian"):
        ok = [r for r in rows if r[-1] == "ok"]
        label = "" if mode == "solve" else ("rho=" if mode == "sweep" else "s=")
        errors = [f"{label}{r[0]}: {r[-1]}" if label else r[-1] for r in rows if r[-1] != "ok"]
        summary = None
        if ok and mode == "solve":
            r = ok[0]
            summary = (f"rho={r[col['rho']]} t_star={r[col['t_star']]} "
                       f"p_star={r[col['p_star']]} W={r[col['W']]}")
        elif ok:
            best = max(ok, key=lambda r: float(r[col["W"]]))
            summary = (
                f"{len(ok)}/{len(rows)} points solved; welfare argmax at rho={best[0]}"
                if mode == "sweep" else f"welfare argmax over transfers at s={best[0]}"
            )
        return (2 if errors else 0), summary, errors
    if mode == "optimum":
        (rho_w, _, boundary), = rows
        edge = " (grid boundary)" if boundary == "true" else ""
        return 0, f"welfare-maximizing precision rho_w={rho_w}{edge}", []
    if mode == "limits":
        p = {r[0]: r[col["p_star"]] for r in rows}
        gap = float(p["perfect_info"]) - float(p["zero_precision"])
        return 0, (f"zero-precision p*={p['zero_precision']}, perfect-information "
                   f"p*={p['perfect_info']} (selection gap {gap!r})"), []
    worst_z = max(abs(float(r[col["z_score"]])) for r in rows)
    worst_delta = max(abs(float(r[col["quad_delta"]])) for r in rows)
    passed = worst_z <= 4.0 and worst_delta <= 1e-8
    return (0 if passed else 3), (
        f"validation at rho={config.rho!r}, n={config.mc_n}: max |z| = {worst_z:.3f}, "
        f"max quadrature delta = {worst_delta:.3e} -> {'ok' if passed else 'MISMATCH'}"
    ), []


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("mode", MODES)
def test_mode_output_contract(mode, name, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIGS[name])
    out = tmp_path / "out.csv"
    code = main([mode, "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    header, rows = _read_csv(out) if out.exists() else (None, None)
    want_code, summary, errors = _expected(mode, parse_config(CONFIGS[name]), header, rows)
    assert code == want_code
    assert captured.out == ("" if summary is None else summary + "\n")
    assert captured.err.splitlines() == errors
    assert (name == "base") == (code == 0)


@pytest.mark.parametrize("mode", MODES)
def test_quiet_drops_only_the_summary(mode, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIGS["base"])
    loud, quiet = tmp_path / "loud.csv", tmp_path / "quiet.csv"
    assert main([mode, "--config", str(path), "--out", str(loud)]) == 0
    assert capsys.readouterr().out != ""
    assert main([mode, "--config", str(path), "--out", str(quiet), "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")
    assert loud.read_bytes() == quiet.read_bytes()


def test_csv_on_stdout_comes_before_the_summary(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIGS["base"])
    out = tmp_path / "solve.csv"
    assert main(["solve", "--config", str(path), "--out", str(out), "--quiet"]) == 0
    assert main(["solve", "--config", str(path)]) == 0
    text = capsys.readouterr().out
    csv_text = out.read_bytes().decode()
    assert text.startswith(csv_text)
    assert re.fullmatch(r"rho=0\.5 t_star=\S+ p_star=\S+ W=\S+\n", text[len(csv_text):])


def test_unwritable_svg_still_writes_the_csv(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIGS["base"])
    out = tmp_path / "sweep.csv"
    svg = tmp_path / "missing" / "chart.svg"
    assert main(["sweep", "--config", str(path), "--out", str(out), "--svg", str(svg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write output: ")
    assert len(captured.err.splitlines()) == 1
    header, rows = _read_csv(out)
    assert len(rows) == 4 and all(r[-1] == "ok" for r in rows)
    assert not svg.exists()
