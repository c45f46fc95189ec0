"""Benchmark worker: a fresh interpreter that imports gatekeep and runs one workload.

Started by ``run.py`` as ``worker.py <workload> <seed> <seconds> <trace> <tmp> <trace_file>``.
It imports gatekeep, builds the workload's inputs, prints ``ready`` and reads
one line from stdin: ``stop`` ends it, ``go`` runs the measured loop and
prints the result as one JSON line. The time from start to ``ready`` is the
workload's set-up time.

With trace 1 the loop first runs untraced for half the run, then one traced
cycle of ops with the span recorder installed, and the result carries the
per-layer metrics instead of the op latencies.

``run.py`` also imports this module for ``measure`` and ``CliOps``, which its
untraced CLI workloads share; gatekeep itself is imported only in ``main``
and in the workload classes' set-up.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

#: bvn_cdf switches to its high-correlation expansion at this |rho|
BVN_HIGH_RHO = 0.925


def make_schedule(economy, spec: dict):
    """A gatekeep cost schedule from its plain-value spec."""
    spec = dict(spec)
    kind = spec.pop("kind")
    cls = {
        "constant": economy.ConstantCost,
        "power_bounded": economy.PowerBoundedCost,
        "piecewise_linear": economy.PiecewiseLinearCost,
        "hyperbolic": economy.HyperbolicCost,
    }[kind]
    return cls(**spec)


def sweep_row(rec) -> list[float]:
    """The numeric columns of a sweep CSV row, from a ``SweepRecord``."""
    c, g = rec.eq.cutoffs, rec.agg
    return [rec.rho, c.t_star, c.p_star, c.a, g.p_theta, g.p_phi, g.s_term, g.b_term,
            g.pi_breve, g.r_bar, g.pi_bar, g.m_e, g.m, g.phi_tilde, g.welfare]


def oracle_check(quadrature, prim, rec) -> str | None:
    """P_phi and S of one solved point against ``quadrature``, the oracle's quadrature_reference."""
    c = rec.eq.cutoffs
    q_phi = quadrature("bvn", {"x": -c.p_star, "y": -c.t_star, "rho": rec.rho})
    q_s = quadrature("S", {"k": prim.k, "rho": rec.rho, "p_star": c.p_star, "t_star": c.t_star})
    return gate.compare([rec.agg.p_phi, rec.agg.s_term], [q_phi, q_s],
                        f"quadrature oracle at rho={rec.rho!r}", gate.ORACLE_ABS_TOL)


class SolveSweep:
    """One op: ``sweep_records`` over the 94-point grid for one seeded economy."""

    def __init__(self, inp: dict, seed: int, tmp: str):
        from gatekeep import economy, oracle, welfare

        self.welfare = welfare
        # The quadrature is deterministic and costs about as much as the op, so
        # a point solved again to the same cutoffs reuses it: every op's own
        # output is still compared, and more of the run goes to timed ops.
        memo: dict[tuple, float] = {}

        def quadrature(quantity: str, params: dict) -> float:
            key = (quantity, *sorted(params.items()))
            if key not in memo:
                memo[key] = oracle.quadrature_reference(quantity, params)
            return memo[key]

        self.quadrature = quadrature
        self.grid = inp["grid"]
        self.economies = [
            (economy.Primitives(**e["primitives"]), make_schedule(economy, e["schedule"]), e["check_index"])
            for e in inp["economies"]
        ]
        self.cycle = len(self.economies)
        self.ref = gate.load_reference("solve_sweep", inp) if seed == workloads.DEFAULT_SEED else None

    def op(self, i: int):
        prim, schedule, _ = self.economies[i % self.cycle]
        return self.welfare.sweep_records(prim, schedule, self.grid)

    def check(self, i: int, records):
        prim, _, check_index = self.economies[i % self.cycle]
        failed = [r for r in records if not r.ok]
        if failed:
            return 0, [(i, f"rho={failed[0].rho!r}: {failed[0].status}")]
        reason = None
        if self.ref is not None:
            ref_rows = self.ref["economies"][i % self.cycle]
            for j, (rec, want) in enumerate(zip(records, ref_rows)):
                reason = reason or gate.compare(sweep_row(rec), want, f"economy {i % self.cycle} row {j}")
        reason = reason or oracle_check(self.quadrature, prim, records[check_index])
        return (0, [(i, reason)]) if reason else (len(records), [])


class Pigouvian:
    """One op: ``pigouvian_welfare`` at one transfer of one seeded precision's grid."""

    def __init__(self, inp: dict, seed: int, tmp: str):
        from gatekeep import economy, policy

        self.policy = policy
        econ = inp["economy"]
        self.prim = economy.Primitives(**econ["primitives"])
        schedule = make_schedule(economy, econ["schedule"])
        self.regimes = [economy.Regime(rho, schedule) for rho in inp["rhos"]]
        self.n = inp["s_points"]
        self.grids = [workloads.pigou_s_grid(r.f_b, self.n) for r in self.regimes]
        self.cycle = self.n * len(self.regimes)
        self.ref = gate.load_reference("pigouvian", inp) if seed == workloads.DEFAULT_SEED else None
        self._w: dict[int, float] = {}  # W by op index, until its grid is checked

    def op(self, i: int):
        g, j = divmod(i % self.cycle, self.n)
        return self.policy.pigouvian_welfare(self.prim, self.regimes[g], self.grids[g][j])

    def check(self, i: int, w: float):
        g, j = divmod(i % self.cycle, self.n)
        bad = []
        if not math.isfinite(w):
            bad.append((i, f"W({self.grids[g][j]!r}) = {w!r}"))
        elif self.ref is not None:
            reason = gate.compare([w], [self.ref["W"][g][j]], f"W at rho index {g}, s index {j}")
            if reason:
                bad.append((i, reason))
        self._w[i] = w
        if j == self.n - 1:
            # welfare over transfers peaks at s = 0, the grid's midpoint
            first = i - j
            w0 = self._w.get(first + self.n // 2)
            for k in range(self.n):
                wk = self._w.get(first + k)
                if w0 is not None and wk is not None and not wk <= w0:
                    bad.append((first + k, f"W(s={self.grids[g][k]!r}) = {wk!r} > W(0) = {w0!r}"))
            self._w.clear()
        return (0 if any(k == i for k, _ in bad) else 1), bad


class CliOps:
    """cli_cold and validate: each op is one ``gatekeep`` invocation on the run's config.

    ``run(argv)`` executes it: a fresh process in untraced runs (``run.py``),
    the CLI's ``main`` in process in traced runs (``CliInProcess``).
    """

    def __init__(self, inp: dict, tmp: str):
        self.inp, self.tmp = inp, tmp
        self.cycle = len(inp.get("modes", [None]))
        self.ref = gate.load_reference("validate" if "mc_n" in inp else "cli_cold", inp)

    def run(self, argv: list[str]) -> int:
        raise NotImplementedError

    def op(self, i: int):
        mode, argv, paths = workloads.cli_op(self.inp, i, self.tmp)
        gate.remove_outputs(paths)
        return mode, self.run(argv), paths

    def check(self, i: int, result):
        mode, code, paths = result
        points, reason = gate.check_cli_result(mode, code, paths, self.inp, self.ref)
        return (points, [(i, reason)]) if reason else (points, [])


class CliInProcess(CliOps):
    """The CLI's ``main`` in process; set-up parses the config as a preflight."""

    def __init__(self, inp: dict, seed: int, tmp: str):
        from gatekeep import cli, config

        with open(f"{tmp}/run.cfg", encoding="utf-8") as fh:
            config.parse_config(fh.read())
        super().__init__(inp, tmp)
        self.cli = cli

    def run(self, argv: list[str]) -> int:
        return self.cli.main(argv)


WORKLOADS = {"solve_sweep": SolveSweep, "pigouvian": Pigouvian, "cli_cold": CliInProcess, "validate": CliInProcess}


def measure(work, seconds: float, recorder=None, calibrate: str | None = None) -> dict:
    """Run whole cycles of ops until ``seconds`` have passed; checks are untimed.

    With ``calibrate``, that calibration task of ``speed.py`` runs and is timed
    after each op and its check.
    """
    clock = time.perf_counter
    latencies: list[float] = []
    calibrations: list[float] = []
    failed: dict[int, str] = {}
    points = 0
    begin = clock()
    i = 0
    while workloads.keep_going(i, work.cycle, clock() - begin, seconds):
        if recorder is not None:
            recorder.current_op = i
            recorder.enabled = True
        t0 = clock()
        try:
            result = work.op(i)
        except Exception as exc:  # any exception is a failed op, never an aborted run
            latencies.append(clock() - t0)
            failed[i] = f"{type(exc).__name__}: {exc}"
        else:
            latencies.append(clock() - t0)
            if recorder is not None:
                recorder.enabled = False
            got, bad = work.check(i, result)
            points += got
            for j, reason in bad:
                failed.setdefault(j, reason)
        if calibrate is not None:
            calibrations.append(speed.time_task(calibrate))
        i += 1
    if recorder is not None:
        recorder.enabled = False
    return {
        "latencies": latencies,
        "calibrations": calibrations,
        "cycle": work.cycle,
        "points": points,
        "failed": len(failed),
        "reasons": [failed[j] for j in sorted(failed)][:5],
    }


def _install(rec) -> None:
    def bvn_branch(args, kwargs):
        rho = args[2] if len(args) > 2 else kwargs["rho"]
        return "normal.bvn_cdf." + ("high_rho" if abs(rho) >= BVN_HIGH_RHO else "low_rho")

    def quantity(args, kwargs):
        return "oracle.quadrature_reference." + (args[0] if args else kwargs["quantity"])

    def iterations(rec, sol):
        rec.add("equilibrium.brent_iters.ac", sol.iterations[0])
        rec.add("equilibrium.brent_iters.fe", sol.iterations[1])

    def draw_bytes(rec, draws):
        # computed from n: the kept p and t arrays hold n float64 values each
        rec.add("oracle.draw_bytes", 2 * 8 * draws.n)

    def peak_alloc(fn, args, kwargs):
        import tracemalloc

        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            key = "oracle.estimate_aggregates.peak_alloc_mb"
            rec.values[key] = max(rec.values.get(key, 0.0), peak)

    for module, attr, hooks in (
        ("config", "parse_config", {}),
        ("cli", "main", {}),
        ("svgchart", "line_chart_svg", {}),
        ("normal", "bvn_cdf", {"label": bvn_branch}),
        ("normal", "log_tilted_upper_tail2", {}),
        ("normal", "log_std_normal_cdf", {}),
        ("economy", "expected_profit_given_signal", {}),
        ("economy", "expected_joint_profit", {}),
        ("equilibrium", "solve_equilibrium", {"observe": iterations}),
        ("equilibrium", "activation_residual", {}),
        ("equilibrium", "fe_residual", {}),
        ("welfare", "compute_aggregates", {}),
        ("welfare", "sweep_records", {}),
        ("welfare", "find_optimal_precision", {}),
        ("policy", "pigouvian_welfare", {}),
        ("oracle", "sample_log_population", {"observe": draw_bytes}),
        ("oracle", "estimate_aggregates", {"around": peak_alloc}),
        ("oracle", "estimate_profit_given_signal", {}),
        ("oracle", "quadrature_reference", {"label": quantity}),
    ):
        rec.install(f"gatekeep.{module}", attr, f"{module}.{attr}", **hooks)


SOLVE = "equilibrium.solve_equilibrium"
PIGOU = "policy.pigouvian_welfare"
OPTIMUM = "welfare.find_optimal_precision"


def layer_metrics(rec, ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced cycle of ``ops`` ops; counts are per op."""
    stats = rec.summary(enclosing=(SOLVE, PIGOU, OPTIMUM))

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def per(name, field="total_s", scale=1.0, base=None):
        den = calls(name) if base is None else base
        return stats.get(name, {}).get(field, 0.0) * scale / den if den else 0.0

    solves = calls(SOLVE)
    m = {}
    for branch in ("low_rho", "high_rho"):
        name = f"normal.bvn_cdf.{branch}"
        m[f"{name}.calls"] = calls(name) / ops
        m[f"{name}.us_per_call"] = per(name, scale=1e6)
    m["normal.log_tilted_upper_tail2.calls"] = calls("normal.log_tilted_upper_tail2") / ops
    m["normal.log_tilted_upper_tail2.self_s"] = per("normal.log_tilted_upper_tail2", "self_s", base=ops)
    m["normal.log_std_normal_cdf.calls"] = calls("normal.log_std_normal_cdf") / ops
    for name in ("economy.expected_profit_given_signal", "economy.expected_joint_profit"):
        m[f"{name}.calls"] = calls(name) / ops
        m[f"{name}.self_s"] = per(name, "self_s", base=ops)
    m[f"{SOLVE}.us_per_solve"] = per(SOLVE, scale=1e6)
    m[f"{SOLVE}.self_s"] = per(SOLVE, "self_s", base=ops)
    for name in ("equilibrium.activation_residual", "equilibrium.fe_residual"):
        m[f"{name}.calls_per_solve"] = calls(f"{name} in {SOLVE}") / solves if solves else 0.0
    for stage in ("ac", "fe"):
        key = f"equilibrium.brent_iters.{stage}"
        m[key] = rec.values.get(key, 0.0) / solves if solves else 0.0
    m["welfare.compute_aggregates.us_per_call"] = per("welfare.compute_aggregates", scale=1e6)
    m["welfare.sweep_records.self_s"] = per("welfare.sweep_records", "self_s", base=ops)
    m[f"{OPTIMUM}.solves"] = calls(f"{SOLVE} in {OPTIMUM}") / calls(OPTIMUM) if calls(OPTIMUM) else 0.0
    m[f"{PIGOU}.ms_per_call"] = per(PIGOU, scale=1e3)
    m[f"{PIGOU}.self_s"] = per(PIGOU, "self_s", base=ops)
    m["policy.fe_residual.calls_per_transfer"] = (
        calls(f"equilibrium.fe_residual in {PIGOU}") / calls(PIGOU) if calls(PIGOU) else 0.0
    )
    m["config.parse_config_s"] = per("config.parse_config", base=ops)
    m["cli.self_s"] = per("cli.main", "self_s", base=ops)
    m["svgchart.line_chart_svg_s"] = per("svgchart.line_chart_svg", base=ops)
    for name in ("sample_log_population", "estimate_aggregates", "estimate_profit_given_signal"):
        m[f"oracle.{name}_s"] = per(f"oracle.{name}", base=ops)
    for q in ("bvn", "S", "pi_breve", "pi_tilde"):
        m[f"oracle.quadrature_reference_s.{q}"] = per(f"oracle.quadrature_reference.{q}", base=ops)
    m["oracle.draw_bytes"] = rec.values.get("oracle.draw_bytes", 0.0) / ops
    m["oracle.estimate_aggregates.peak_alloc_mb"] = rec.values.get(
        "oracle.estimate_aggregates.peak_alloc_mb", 0.0
    )
    return m


def traced(work, seconds: float, trace_path: str) -> dict:
    from spans import SpanRecorder

    base = measure(work, seconds / 2)
    rec = SpanRecorder("gatekeep")
    _install(rec)
    try:
        run = measure(work, 0.0, rec)
    finally:
        rec.uninstall()
    ops = len(run["latencies"])
    metrics = layer_metrics(rec, ops)
    # how many times slower an op runs with spans recorded
    metrics["trace.overhead_ratio"] = (sum(run["latencies"]) / ops) / (
        sum(base["latencies"]) / len(base["latencies"])
    )
    rec.write(trace_path)
    return {
        "attempted": len(base["latencies"]) + ops,
        "failed": base["failed"] + run["failed"],
        "reasons": base["reasons"] + run["reasons"],
        "traced_ops": ops,
        "spans": len(rec),
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, tmp, trace_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    protocol, sys.stdout = sys.stdout, sys.stderr  # program output must not reach the protocol
    import gatekeep  # noqa: F401  (the import is part of set-up)

    work = WORKLOADS[workload](workloads.make_inputs(workload, seed), seed, tmp)
    protocol.write("ready\n")
    protocol.flush()
    if sys.stdin.readline().strip() != "go":
        return 0
    if trace:
        result = traced(work, seconds, trace_path)
    else:
        result = measure(work, seconds, calibrate=speed.TASK[workload])
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
