"""gatekeep benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the program is loaded from its
``src/``. Workloads (see ``BASELINE.md`` for why each was chosen):

* ``cli_cold``: fresh ``python -m gatekeep`` processes, modes in rotation.
* ``solve_sweep``: in-process ``sweep_records`` on seeded economies.
* ``pigouvian``: in-process ``pigouvian_welfare`` over transfer grids.
* ``validate``: fresh ``python -m gatekeep validate`` processes at n = 1e7.

Each is a closed loop with one client and at most one child process at a
time. With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it makes a separate traced run and reports the per-layer
metrics. Every op's output goes through the correctness gate (``gate.py``).
End-to-end times are scaled to a reference host speed (``speed.py``).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The harness itself imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli_cold", "solve_sweep", "pigouvian", "validate")
#: workloads whose ops are fresh CLI processes
CLI_WORKLOADS = ("cli_cold", "validate")

#: set-ups per run; setup_s is their median
SETUP_TRIALS = 3
#: wall-clock limit of one CLI op or one worker set-up
CHILD_TIMEOUT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

IMPORT_LAYER = {
    "import.gatekeep_s": "s",
    "import.scipy_optimize_s": "s",
    "import.oracle_s": "s",
    "import.modules_loaded": "count",
}
PER_LAYER = {
    **IMPORT_LAYER,
    "config.parse_config_s": "s",
    "cli.self_s": "s",
    "svgchart.line_chart_svg_s": "s",
    "normal.bvn_cdf.low_rho.calls": "count",
    "normal.bvn_cdf.low_rho.us_per_call": "us",
    "normal.bvn_cdf.high_rho.calls": "count",
    "normal.bvn_cdf.high_rho.us_per_call": "us",
    "normal.log_tilted_upper_tail2.calls": "count",
    "normal.log_tilted_upper_tail2.self_s": "s",
    "normal.log_std_normal_cdf.calls": "count",
    "economy.expected_profit_given_signal.calls": "count",
    "economy.expected_profit_given_signal.self_s": "s",
    "economy.expected_joint_profit.calls": "count",
    "economy.expected_joint_profit.self_s": "s",
    "equilibrium.solve_equilibrium.us_per_solve": "us",
    "equilibrium.solve_equilibrium.self_s": "s",
    "equilibrium.activation_residual.calls_per_solve": "count",
    "equilibrium.fe_residual.calls_per_solve": "count",
    "equilibrium.brent_iters.ac": "count",
    "equilibrium.brent_iters.fe": "count",
    "welfare.compute_aggregates.us_per_call": "us",
    "welfare.sweep_records.self_s": "s",
    "welfare.find_optimal_precision.solves": "count",
    "policy.pigouvian_welfare.ms_per_call": "ms",
    "policy.pigouvian_welfare.self_s": "s",
    "policy.fe_residual.calls_per_transfer": "count",
    "oracle.sample_log_population_s": "s",
    "oracle.estimate_aggregates_s": "s",
    "oracle.estimate_profit_given_signal_s": "s",
    "oracle.quadrature_reference_s.bvn": "s",
    "oracle.quadrature_reference_s.S": "s",
    "oracle.quadrature_reference_s.pi_breve": "s",
    "oracle.quadrature_reference_s.pi_tilde": "s",
    "oracle.draw_bytes": "bytes_computed",
    "oracle.estimate_aggregates.peak_alloc_mb": "MiB",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for a child; return its exit code and its own peak RSS in MiB.

    ``os.wait4`` gives the rusage of this one child, not the running maximum
    over all children that ``RUSAGE_CHILDREN`` keeps.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Worker:
    """A ``worker.py`` process, driven through its stdin and stdout."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tmp: str, trace_path: str):
        self.stderr = open(Path(tmp) / "worker-stderr.txt", "w+", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
             "1" if trace else "0", tmp, trace_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr,
            env=child_env(), cwd=ROOT, text=True,
        )

    def _line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.stderr.seek(0)
            stderr = self.stderr.read()[-2000:]
            self.close()
            raise BenchError(f"worker gave no answer; stderr:\n{stderr}")
        return line

    def ready(self) -> None:
        if self._line(CHILD_TIMEOUT_S).strip() != "ready":
            raise BenchError("worker protocol error")

    def finish(self, command: str, seconds: float = 0.0) -> tuple[dict | None, float]:
        """Send ``go`` or ``stop``; return the result (for ``go``) and peak RSS."""
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        timeout = seconds + workloads.OVERRUN_S + CHILD_TIMEOUT_S
        result = json.loads(self._line(timeout)) if command == "go" else None
        self.proc.stdin.close()
        code, rss = reap(self.proc, CHILD_TIMEOUT_S)
        self.stderr.close()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        return result, rss

    def close(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            reap(self.proc, CHILD_TIMEOUT_S)
        self.stderr.close()


def set_up(workload: str, seed: int, seconds: float, trace: bool, inp: dict, tmp: str,
           trace_path: str = "", trials: int = SETUP_TRIALS) -> tuple[Worker, list[float]]:
    """Set up ``trials`` times, keeping the last worker; returns it and the set-up times.

    One set-up starts a fresh worker that imports gatekeep and builds the
    workload's objects. For a CLI workload it first writes the run's config,
    and the worker parses it, so a broken config stops the run before any op.
    The times are at reference speed (``speed.py``): each set-up is followed
    by a ``process`` calibration, which starts an interpreter and imports as
    a set-up does.
    """
    times, calibrations = [], []
    for trial in range(trials):
        t0 = time.perf_counter()
        if workload in CLI_WORKLOADS:
            (Path(tmp) / "run.cfg").write_text(workloads.config_text(inp), encoding="utf-8")
        child = Worker(workload, seed, seconds, trace, tmp, trace_path)
        try:
            child.ready()
        except BaseException:
            child.close()
            raise
        times.append(time.perf_counter() - t0)
        calibrations.append(speed.time_task("process"))
        if trial < trials - 1:
            child.finish("stop")
    return child, speed.scaled(times, calibrations, "process")


class CliProcesses(worker.CliOps):
    """Untraced CLI workloads: each op is a fresh ``python -m gatekeep`` process."""

    def __init__(self, inp: dict, tmp: str):
        super().__init__(inp, tmp)
        self.env = child_env()
        self.stderr_path = Path(tmp) / "cli-stderr.txt"
        self.peak_rss_mb = 0.0

    def run(self, argv: list[str]) -> int:
        with open(self.stderr_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen([sys.executable, "-m", "gatekeep", *argv],
                                    stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT)
            code, rss = reap(proc, CHILD_TIMEOUT_S)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code

    def check(self, i: int, result):
        points, bad = super().check(i, result)
        if bad:
            stderr = self.stderr_path.read_text(encoding="utf-8").strip()[-300:]
            bad = [(j, f"{reason} {stderr}".strip()) for j, reason in bad]
        return points, bad


#: the percentile reported as the tail, over the distinct ops of a cycle
TAIL_PERCENTILE = 95


def tail(samples: list[float], cycle: int) -> tuple[float, str]:
    """The tail latency: p95 over the distinct ops of the cycle, each the median of its instances.

    Op ``i`` runs the cycle's distinct op ``i % cycle`` (an economy, a transfer
    value, a CLI mode), once per cycle of the run. On a shared host the slowest
    few percent of single instances are the ones the host preempted or slowed
    (``BASELINE.md``, Noise), so the tail is taken over each distinct op's
    median instead: it shows the inputs the program is slowest on.
    """
    per_op = sorted(statistics.median(samples[j::cycle]) for j in range(min(cycle, len(samples))))
    idx = math.ceil(TAIL_PERCENTILE * len(per_op) / 100) - 1
    return per_op[idx], f"p{TAIL_PERCENTILE} of {len(per_op)} per-op medians"


def end_to_end(workload: str, seed: int, seconds: float, inp: dict, tmp: str) -> dict:
    child, times = set_up(workload, seed, seconds, False, inp, tmp)
    task = speed.TASK[workload]
    if workload in CLI_WORKLOADS:
        child.finish("stop")
        work = CliProcesses(inp, tmp)
        run = worker.measure(work, seconds, calibrate=task)
        peak = work.peak_rss_mb
    else:
        run, peak = child.finish("go", seconds)
    wall = run["latencies"]
    lat = speed.scaled(wall, run["calibrations"], task)
    n = len(lat)
    tail_value, tail_name = tail(lat, run["cycle"])
    metrics = {
        "setup_s": statistics.median(times),
        "op_s.p50": statistics.median(lat),
        "op_s.tail": tail_value,
        "points_per_s": run["points"] / sum(lat),
        "peak_rss_mb": peak,
    }
    notes = {
        "setup_s": f"median of {len(times)} set-ups: " + ", ".join(f"{t:.4f}" for t in times),
        "op_s.p50": f"n={n}, wall-clock {statistics.median(wall):.6g} s",
        "op_s.tail": f"{tail_name}, n={n}, wall-clock {tail(wall, run['cycle'])[0]:.6g} s",
        "points_per_s": (f"{run['points']} points in {sum(lat):.3f} s of ops, n={n}, "
                         f"wall-clock {run['points'] / sum(wall):.6g} 1/s"),
        "peak_rss_mb": (f"max over {n} CLI processes" if workload in CLI_WORKLOADS
                        else "the worker process"),
    }
    print(f"times at reference speed: {task} calibration median "
          f"{statistics.median(run['calibrations']):.4g} s, nominal {speed.NOMINAL_S[task]} s")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]} ({notes[name]})")
    print(f"failed_share = {run['failed'] / n:.4g} ({run['failed']}/{n} ops)")
    return {"attempted": n, "failed": run["failed"], "reasons": run["reasons"],
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def import_layer(passes: int = 3) -> dict[str, float]:
    """``python -X importtime`` of ``import gatekeep``: cumulative seconds (median of passes)."""
    runs = []
    for _ in range(passes):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import sys, gatekeep; print(len(sys.modules))"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"import gatekeep failed:\n{proc.stderr[-2000:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        runs.append({
            "import.gatekeep_s": cumulative["gatekeep"],
            "import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
            "import.oracle_s": cumulative.get("gatekeep.oracle", 0.0),
            "import.modules_loaded": int(proc.stdout.split()[-1]),
        })
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def traced(workload: str, seed: int, seconds: float, inp: dict, tmp: str) -> dict:
    metrics = import_layer()
    trace_path = str(ROOT / ".perfbench" / f"trace-{workload}.csv.gz")
    child, _ = set_up(workload, seed, seconds, True, inp, tmp, trace_path, trials=1)
    run, _ = child.finish("go", seconds)
    metrics.update(run["metrics"])
    print(f"traced ops: {run['traced_ops']}, spans: {run['spans']} (written to {trace_path})")
    for name, unit in PER_LAYER.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    return {"attempted": run["attempted"], "failed": run["failed"], "reasons": run["reasons"],
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}}


def environment() -> str:
    try:
        versions = f"numpy {metadata.version('numpy')}, scipy {metadata.version('scipy')}"
    except metadata.PackageNotFoundError:
        versions = "numpy/scipy not installed"
    cpu = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"Python {platform.python_version()}, {versions}, nproc {os.cpu_count()}, {cpu}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload's run: prints its metrics and returns the result object."""
    inp = workloads.make_inputs(workload, seed)
    print(f"workload {workload}, seed {seed}, input_sha256 {workloads.input_hash(inp)}")
    print(f"environment: {environment()}")
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench")
    try:
        run = (traced if trace else end_to_end)(workload, seed, seconds, inp, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for reason in run["reasons"]:
        print(f"failed op: {reason}")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gatekeep" / "__init__.py").is_file():
        print(f"no gatekeep sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
