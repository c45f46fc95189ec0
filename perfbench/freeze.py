"""Regenerate the frozen reference outputs in perfbench/reference/.

Each reference is the program's output on the benchmark's inputs for the
default seed. It is frozen only after every solved point passes the
quadrature-oracle cross-check of P_phi and S (as tests/oracles/
generate_goldens.py cross-checks the golden values), and after the validate
run's closed forms agree with quadrature. Run from the repository root:

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gatekeep import cli, economy, oracle, policy, welfare  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from worker import make_schedule, oracle_check, sweep_row  # noqa: E402

SEED = workloads.DEFAULT_SEED


def checked_sweep(prim, schedule, grid) -> list[list[float]]:
    records = welfare.sweep_records(prim, schedule, grid)
    for rec in records:
        if not rec.ok:
            raise SystemExit(f"rho={rec.rho!r}: {rec.status}")
        reason = oracle_check(oracle.quadrature_reference, prim, rec)
        if reason:
            raise SystemExit(reason)
    return [sweep_row(rec) for rec in records]


def freeze_solve_sweep() -> dict:
    inp = workloads.make_inputs("solve_sweep", SEED)
    rows = [
        checked_sweep(economy.Primitives(**e["primitives"]), make_schedule(economy, e["schedule"]), inp["grid"])
        for e in inp["economies"]
    ]
    return {"inputs_sha256": gate.reference_key("solve_sweep", inp), "economies": rows}


def freeze_pigouvian() -> dict:
    inp = workloads.make_inputs("pigouvian", SEED)
    prim = economy.Primitives(**inp["economy"]["primitives"])
    schedule = make_schedule(economy, inp["economy"]["schedule"])
    curves = []
    for rho in inp["rhos"]:
        regime = economy.Regime(rho, schedule)
        ws = [policy.pigouvian_welfare(prim, regime, s)
              for s in workloads.pigou_s_grid(regime.f_b, inp["s_points"])]
        # s = 0 is the untaxed equilibrium: cross-check it, and the peak there
        (base,) = checked_sweep(prim, schedule, [rho])
        mid = inp["s_points"] // 2
        if abs(ws[mid] - base[-1]) > 1e-8 * base[-1] or max(ws) != ws[mid]:
            raise SystemExit(f"rho={rho!r}: W(0) = {ws[mid]!r}, sweep W = {base[-1]!r}, max {max(ws)!r}")
        curves.append(ws)
    return {"inputs_sha256": gate.reference_key("pigouvian", inp), "W": curves}


def run_cli(inp: dict, i: int, tmp: str) -> list[list[str]]:
    mode, argv, paths = workloads.cli_op(inp, i, tmp)
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"gatekeep {mode} exited with {code}")
    return gate.read_csv(paths["out"])[1]


def freeze_cli(tmp: str) -> tuple[dict, dict]:
    inp = workloads.make_inputs("cli_cold", SEED)
    Path(tmp, "run.cfg").write_text(workloads.config_text(inp), encoding="utf-8")
    out = {}
    for i, mode in enumerate(inp["modes"]):
        out[mode] = run_cli(inp, i, tmp)
    prim = economy.Primitives(**inp["economy"]["primitives"])
    sweep = checked_sweep(prim, make_schedule(economy, inp["economy"]["schedule"]), workloads.sweep_grid())
    if [[float(c) for c in row[:-1]] for row in out["sweep"]] != sweep:
        raise SystemExit("CLI sweep rows differ from sweep_records")
    (rho_w, w, boundary), = out["optimum"]
    cli_ref = {
        "inputs_sha256": gate.reference_key("cli_cold", inp),
        "sweep": sweep,
        "optimum": [float(rho_w), float(w)],
        "optimum_boundary": boundary,
        "limits": [[row[0], [float(c) for c in row[1:]]] for row in out["limits"]],
    }

    inp = workloads.make_inputs("validate", SEED)
    Path(tmp, "run.cfg").write_text(workloads.config_text(inp), encoding="utf-8")
    rows = {}
    for row in run_cli(inp, 0, tmp):  # exit 0: |z| <= 4 and quadrature within 1e-8
        name, closed, quad = row[0], float(row[1]), float(row[5])
        if abs(closed - quad) > gate.ORACLE_ABS_TOL:
            raise SystemExit(f"validate {name}: closed form {closed!r} vs quadrature {quad!r}")
        rows[name] = [closed, quad]
    return cli_ref, {"inputs_sha256": gate.reference_key("validate", inp), "rows": rows}


def main() -> int:
    refs = {"solve_sweep": freeze_solve_sweep(), "pigouvian": freeze_pigouvian()}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="freeze-", dir=ROOT / ".perfbench")
    try:
        refs["cli_cold"], refs["validate"] = freeze_cli(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for workload, ref in refs.items():
        ref = {"seed": SEED, **ref}
        path = gate.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(ref) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
