"""Correctness gate of the benchmark (stdlib only).

Program outputs are compared against reference outputs frozen in
``reference/`` by ``freeze.py`` at the absolute tolerance the repository's
golden values are held to. Each check returns a reason string when the
output is wrong and ``None`` when it is right; a wrong output counts as a
failed op and never aborts a run.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import workloads

#: tolerance of tests/golden_values.py
REFERENCE_ABS_TOL = 1e-9
#: quadrature-oracle tolerance of ``gatekeep validate``
ORACLE_ABS_TOL = 1e-8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: numeric columns of a solve/sweep CSV row (the last column is the status)
SWEEP_FIELDS = (
    "rho", "t_star", "p_star", "a", "P_theta", "P_phi", "S", "B", "pi_breve",
    "r_bar", "pi_bar", "M_e", "M", "phi_tilde", "W",
)


def reference_key(workload: str, inp: dict) -> str:
    """Hash of the inputs a workload's reference depends on.

    The in-process workloads' references hold the default seed's outputs.
    The CLI workloads run the fixed calibration whatever the seed: the seed
    only picks the solve point, the mode order and the Monte Carlo stream.
    """
    if workload == "cli_cold":
        inp = {"economy": inp["economy"], "grid": workloads.SWEEP_GRID}
    elif workload == "validate":
        inp = {key: inp[key] for key in ("economy", "rho", "mc_n")}
    return workloads.input_hash(inp)


def load_reference(workload: str, inp: dict) -> dict:
    """The frozen reference for these inputs; exits if it was frozen for others."""
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    if ref["inputs_sha256"] != reference_key(workload, inp):
        raise SystemExit(f"{workload}: reference is for other inputs; re-run perfbench/freeze.py")
    return ref


def compare(values, expected, what: str, tol: float = REFERENCE_ABS_TOL) -> str | None:
    """Reason for the first value farther than ``tol`` from its reference."""
    values, expected = list(values), list(expected)
    if len(values) != len(expected):
        return f"{what}: {len(values)} values, reference has {len(expected)}"
    for i, (got, want) in enumerate(zip(values, expected)):
        if not abs(got - want) <= tol:
            return f"{what}[{i}]: {got!r} differs from reference {want!r} by more than {tol}"
    return None


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a gatekeep CSV, after its provenance comment."""
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("# gatekeep "):
            raise ValueError(f"missing provenance line, got {first[:40]!r}")
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _numbers(cells) -> list[float]:
    return [float(c) for c in cells]


def check_sweep_rows(rows, ref_rows, what: str) -> str | None:
    """Sweep rows: every status ``ok`` and every number at the reference."""
    for row in rows:
        if row[-1] != "ok":
            return f"{what}: rho={row[0]} {row[-1]}"
    if len(rows) != len(ref_rows):
        return f"{what}: {len(rows)} rows, reference has {len(ref_rows)}"
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        reason = compare(_numbers(row[:-1]), ref, f"{what} row {i}")
        if reason:
            return reason
    return None


def check_cli_output(mode: str, out_path, svg_path, ref: dict, solve_rho: float):
    """(points, reason) for one CLI op's outputs; points are the data rows."""
    try:
        header, rows = read_csv(out_path)
    except (OSError, ValueError, IndexError) as exc:
        return 0, f"{mode}: unreadable output: {exc}"
    if mode in ("solve", "sweep") and tuple(header) != SWEEP_FIELDS + ("status",):
        return 0, f"{mode}: unexpected header {header}"
    if mode == "sweep":
        reason = check_sweep_rows(rows, ref["sweep"], "sweep")
        if reason is None:
            try:
                with open(svg_path, encoding="utf-8") as fh:
                    if "<svg" not in fh.read(512):
                        reason = "sweep: chart is not an SVG document"
            except OSError as exc:
                reason = f"sweep: no chart: {exc}"
    elif mode == "solve":
        # a single-rho solve must reproduce the sweep row at the same rho
        index = min(range(len(ref["sweep"])), key=lambda i: abs(ref["sweep"][i][0] - solve_rho))
        reason = check_sweep_rows(rows, [ref["sweep"][index]], "solve")
    elif mode == "optimum":
        reason = compare(_numbers(rows[0][:2]), ref["optimum"], "optimum") if rows else "optimum: no row"
        if reason is None and rows[0][2] != ref["optimum_boundary"]:
            reason = f"optimum: boundary flag {rows[0][2]} != {ref['optimum_boundary']}"
    elif mode == "limits":
        if [r[0] for r in rows] != [name for name, _ in ref["limits"]]:
            reason = f"limits: variants {[r[0] for r in rows]}"
        else:
            reason = None
            for row, (name, want) in zip(rows, ref["limits"]):
                reason = reason or compare(_numbers(row[1:]), want, f"limits {name}")
    else:
        reason = f"unknown mode {mode!r}"
    return (0 if reason else len(rows)), reason


def check_validate_output(out_path, ref: dict):
    """(points, reason) for one validate op: closed forms and quadrature at the reference.

    The Monte Carlo columns depend on the seed; ``gatekeep validate`` itself
    holds them to |z| <= 4 and reports a mismatch through its exit code.
    """
    try:
        header, rows = read_csv(out_path)
    except (OSError, ValueError, IndexError) as exc:
        return 0, f"validate: unreadable output: {exc}"
    col = {name: i for i, name in enumerate(header)}
    got = {}
    for row in rows:
        got[row[col["quantity"]]] = [float(row[col["closed_form"]]), float(row[col["quad_value"]])]
    if sorted(got) != sorted(ref["rows"]):
        return 0, f"validate: quantities {sorted(got)} != {sorted(ref['rows'])}"
    for name, want in ref["rows"].items():
        reason = compare(got[name], want, f"validate {name}")
        if reason:
            return 0, reason
    return 1, None


def remove_outputs(paths: dict) -> None:
    """Delete an op's output files first, so a stale file never passes the gate."""
    for path in paths.values():
        Path(path).unlink(missing_ok=True)


def check_cli_result(mode: str, code: int, paths: dict, inp: dict, ref: dict):
    """(points, reason) for one CLI op from its exit code and output files."""
    if code != 0:
        return 0, f"{mode}: exit code {code}"
    if mode == "validate":
        return check_validate_output(paths["out"], ref)
    return check_cli_output(mode, paths["out"], paths["svg"], ref, inp["solve_rho"])
