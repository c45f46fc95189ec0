"""The benchmark workloads: seeded inputs, CLI ops and run length (stdlib only).

Every input is a plain JSON-able value drawn from ``random.Random(seed)``, so
the same seed always gives the same economies, and ``input_hash`` fingerprints
them. The worker turns these values into gatekeep objects; the harness never
imports gatekeep.
"""

from __future__ import annotations

import hashlib
import json
import random

DEFAULT_SEED = 0

#: the precision grid of ``benchmark.cfg`` (0.05:0.98:0.01), 94 points
SWEEP_GRID = (0.05, 0.98, 0.01)

#: the shipped benchmark calibration (``benchmark.cfg``)
CALIBRATION = {
    "primitives": {"sigma": 2.0, "f": 0.15, "f_n": 0.005, "delta": 0.1, "L": 1.0},
    "schedule": {"kind": "power_bounded", "f_b0": 3.0, "kappa": 2.0, "alpha": 8.0},
}

# Parameter box of ``solve_sweep``: the neighbourhood of the paper's calibration
# above. Each bound is fixed from the calibration or from the schedules the
# test suite already exercises, never from which draws happen to solve.
PRIMITIVE_BOX = {
    # +-25% around sigma = 2: keeps k = sigma - 1 near 1, where the tilted
    # moments are O(1) and the calibration's economics apply.
    "sigma": (1.5, 2.5),
    # +-1/3 around f = 0.15, the per-period operating requirement.
    "f": (0.10, 0.20),
    # 0.6x to 1.6x of f_n = 0.005: experimentation stays cheap next to f.
    "f_n": (0.003, 0.008),
    # +-30% around delta = 0.1, the exit rate.
    "delta": (0.07, 0.13),
}
# L only rescales welfare, so it stays at the calibration's 1.0.

SCHEDULE_BOXES = {
    # Flat cost around the calibration's base level f_b0 = 3.
    "constant": {"f_b": (2.0, 4.0)},
    # The calibration's own schedule, each parameter around (3, 2, 8).
    "power_bounded": {"f_b0": (2.0, 4.0), "kappa": (1.0, 3.0), "alpha": (4.0, 12.0)},
    # Around the suite's piecewise schedule (0.3, 0.9, 1, 5).
    "piecewise_linear": {
        "rho_low": (0.2, 0.4), "rho_high": (0.8, 0.95),
        "f_low": (0.7, 1.3), "f_high": (4.0, 6.0),
    },
    # Around the suite's hyperbolic schedules (f_b0 = 0.5 and 3): the cost
    # f_b0 / (1 - rho) diverges on the grid's top end, as in the paper.
    "hyperbolic": {"f_b0": (0.5, 3.0)},
}
SCHEDULE_KINDS = tuple(SCHEDULE_BOXES)

#: economies per ``solve_sweep`` cycle, the schedule kinds in rotation; enough that
#: the median op is not pinned to one economy
SWEEP_ECONOMIES = 32

# ``pigouvian`` draws one precision per stratum. The last stratum lies in
# bvn_cdf's |rho| >= 0.925 branch; the others span the low-correlation branch.
PIGOU_RHO_STRATA = ((0.2, 0.5), (0.5, 0.8), (0.8, 0.92), (0.93, 0.97))
#: transfer values per precision, as in the CLI's default ``s_points``
PIGOU_S_POINTS = 41

CLI_MODES = ("solve", "sweep", "optimum", "limits")

#: Monte Carlo draws of one ``validate`` op and its precision
VALIDATE_MC_N = 10_000_000
VALIDATE_RHO = 0.89


#: a run stops starting ops this long after its measuring time, even mid-cycle
OVERRUN_S = 60.0


def keep_going(i: int, cycle: int, elapsed: float, seconds: float) -> bool:
    """Whether a run starts op ``i``: it runs whole cycles until ``seconds`` have passed."""
    if elapsed >= seconds + OVERRUN_S:
        return False
    return i == 0 or i % cycle != 0 or elapsed < seconds


def sweep_grid() -> list[float]:
    """The 94 precisions of ``SWEEP_GRID``, built as ``GridSpec.points`` builds them."""
    start, stop, step = SWEEP_GRID
    out = []
    i = 0
    while start + i * step <= stop + 1e-9 * step:
        out.append(start + i * step)
        i += 1
    return out


def pigou_s_grid(f_b: float, n: int = PIGOU_S_POINTS) -> list[float]:
    """The CLI's symmetric transfer grid on [-f_b/2, f_b/2]; its midpoint is s = 0."""
    half = f_b / 2.0
    return [half * (2 * i - (n - 1)) / (n - 1) for i in range(n)]


def _draw(rng: random.Random, box: dict) -> dict:
    return {key: rng.uniform(lo, hi) for key, (lo, hi) in box.items()}


def make_inputs(workload: str, seed: int) -> dict:
    """All inputs of one workload run, as plain values."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve_sweep":
        economies = []
        for i in range(SWEEP_ECONOMIES):
            kind = SCHEDULE_KINDS[i % len(SCHEDULE_KINDS)]
            prim = dict(_draw(rng, PRIMITIVE_BOX), L=1.0)
            economies.append({
                "primitives": prim,
                "schedule": dict(kind=kind, **_draw(rng, SCHEDULE_BOXES[kind])),
                # the grid point checked against the quadrature oracle
                "check_index": rng.randrange(len(sweep_grid())),
            })
        return {"grid": sweep_grid(), "economies": economies}
    if workload == "pigouvian":
        return {
            "economy": CALIBRATION,
            "rhos": [rng.uniform(lo, hi) for lo, hi in PIGOU_RHO_STRATA],
            "s_points": PIGOU_S_POINTS,
        }
    if workload == "cli_cold":
        grid = sweep_grid()
        start = rng.randrange(len(CLI_MODES))
        return {
            "economy": CALIBRATION,
            "modes": [CLI_MODES[(start + i) % len(CLI_MODES)] for i in range(len(CLI_MODES))],
            # solve mode runs at one seeded point of the sweep grid, so its row
            # can be checked against the frozen sweep row at that precision
            "solve_rho": grid[rng.randrange(len(grid))],
            "seed": seed,
        }
    if workload == "validate":
        return {"economy": CALIBRATION, "rho": VALIDATE_RHO, "mc_n": VALIDATE_MC_N, "seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def input_hash(inputs: dict) -> str:
    """sha256 of the canonical JSON of a workload's inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_text(inputs: dict) -> str:
    """The gatekeep config of a CLI workload: the calibration plus its ``[run]`` keys."""
    economy = inputs["economy"]
    run = {"grid": "{}:{}:{}".format(*SWEEP_GRID), "seed": inputs["seed"]}
    if "solve_rho" in inputs:
        run["rho"] = repr(inputs["solve_rho"])
    else:
        run.update(rho=repr(inputs["rho"]), mc_n=inputs["mc_n"])
    lines = ["[primitives]"]
    lines += [f"{k} = {v!r}" for k, v in economy["primitives"].items()]
    lines += ["", "[schedule]", f"kind = {economy['schedule']['kind']}"]
    lines += [f"{k} = {v!r}" for k, v in economy["schedule"].items() if k != "kind"]
    lines += ["", "[run]"] + [f"{k} = {v}" for k, v in run.items()]
    return "\n".join(lines) + "\n"


def cli_op(inputs: dict, i: int, tmp: str) -> tuple[str, list[str], dict]:
    """Mode, ``gatekeep`` argv and output paths of op ``i`` of a CLI workload."""
    cfg = f"{tmp}/run.cfg"
    if "modes" in inputs:
        mode = inputs["modes"][i % len(inputs["modes"])]
        paths = {"out": f"{tmp}/{mode}.csv", "svg": f"{tmp}/sweep.svg"}
        argv = [mode, "--config", cfg, "--quiet", "--out", paths["out"]]
        if mode == "sweep":
            argv += ["--svg", paths["svg"]]
        return mode, argv, paths
    # validate: each op draws a fresh Monte Carlo stream from the run's seed
    paths = {"out": f"{tmp}/validate.csv"}
    seed = inputs["seed"] * 1000 + i
    return "validate", ["validate", "--config", cfg, "--quiet", "--out", paths["out"],
                        "--seed", str(seed)], paths
