"""Command-line front door.

Modes: solve, sweep, optimum, pigouvian, limits, validate. Each reads
a plain-text config and applies flag overrides; the mode then returns one
table, and ``run`` alone writes and reports it: an RFC-4180 style CSV whose
first line is a provenance comment
(``# gatekeep <version> config_sha256=<hash> seed=<seed>``), the sweep chart,
the summary line, and one stderr line per failed point. Given identical
config and seed the CSV bytes after the first line are identical across runs.

Exit codes: 0 success, 1 configuration error, 2 solver failure or a failed
point, 3 validation failure (oracle mismatch).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from collections import namedtuple

from . import __version__
from .config import GridSpec, MODES, RunConfig, config_hash, parse_config
from .economy import RHO_MIN, Regime, expected_profit_given_signal
from .equilibrium import melitz_limit_perfect, melitz_limit_zero, solve_equilibrium
from .errors import GatekeepError, ParseError, ValidationError
from .records import Record, replace
from .welfare import (
    SweepRecord, compute_aggregates, failure_status, find_optimal_precision, sweep_records,
)

MC_Z_LIMIT = 4.0
QUAD_DELTA_LIMIT = 1e-8


class _Parser(argparse.ArgumentParser):
    # usage errors must not collide with exit code 2 (solver failure)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(config: RunConfig, columns, rows, path: str | None) -> None:
    buffer = io.StringIO()
    buffer.write(
        f"# gatekeep {__version__} config_sha256={config_hash(config)} seed={config.seed}\r\n"
    )
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    text = buffer.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _require(config: RunConfig, attr: str, mode: str):
    value = getattr(config, attr)
    if value is None:
        raise ValidationError(f"run.{attr} is required for mode '{mode}'")
    return value


class _Table(Record, namedtuple(
    "_Table", "columns rows summary failures svg code", defaults=(None, (), None, 0)
)):
    """What one mode produced; ``run`` writes and reports it.

    code is the exit code when no point failed; failures holds one stderr
    line per failed point, and svg the chart text to write to ``config.svg``.
    """


def _run_solve(config: RunConfig) -> _Table:
    rho = _require(config, "rho", "solve")
    rec, = sweep_records(config.primitives, config.schedule, [rho])
    if not rec.ok:
        return _Table(SweepRecord.COLUMNS, [rec.row()], failures=(rec.status,))
    summary = (
        f"rho={rho!r} t_star={rec.eq.cutoffs.t_star!r} "
        f"p_star={rec.eq.cutoffs.p_star!r} W={rec.agg.welfare!r}"
    )
    return _Table(SweepRecord.COLUMNS, [rec.row()], summary)


def _run_sweep(config: RunConfig) -> _Table:
    grid = _require(config, "grid", "sweep")
    records = sweep_records(config.primitives, config.schedule, grid.points())
    ok = [r for r in records if r.ok]
    summary = svg = None
    if ok:
        best = max(ok, key=lambda r: r.agg.welfare)
        summary = f"{len(ok)}/{len(records)} points solved; welfare argmax at rho={best.rho!r}"
        if config.svg is not None:
            from .svgchart import line_chart_svg

            svg = line_chart_svg(ok)
    failures = tuple(f"rho={r.rho!r}: {r.status}" for r in records if not r.ok)
    return _Table(SweepRecord.COLUMNS, [r.row() for r in records], summary, failures, svg)


def _run_optimum(config: RunConfig) -> _Table:
    grid = _require(config, "grid", "optimum")
    result = find_optimal_precision(config.primitives, config.schedule, grid.points())
    edge = " (grid boundary)" if result.boundary else ""
    return _Table(
        ("rho_w", "W", "boundary"),
        [[result.rho_w, result.welfare, str(result.boundary).lower()]],
        f"welfare-maximizing precision rho_w={result.rho_w!r}{edge}",
    )


def _run_pigouvian(config: RunConfig) -> _Table:
    from .policy import pigouvian_welfare

    rho = _require(config, "rho", "pigouvian")
    regime = Regime(rho, config.schedule)
    half = regime.f_b / 2.0
    n = config.s_points
    rows = []
    for i in range(n):
        # symmetric form so the midpoint of an odd grid is exactly s = 0
        s = half * (2 * i - (n - 1)) / (n - 1)
        try:
            rows.append([s, pigouvian_welfare(config.primitives, regime, s), "ok"])
        except GatekeepError as exc:
            rows.append([s, math.nan, failure_status(exc)])
    solved = [(s, w) for s, w, status in rows if status == "ok"]
    summary = None
    if solved:
        best_s = max(solved, key=lambda r: r[1])[0]
        summary = f"welfare argmax over transfers at s={best_s!r}"
    failures = tuple(f"s={s!r}: {status}" for s, _, status in rows if status != "ok")
    return _Table(("s", "W", "status"), rows, summary, failures)


def _run_limits(config: RunConfig) -> _Table:
    prim = config.primitives
    f_low = config.f_b_bar if config.f_b_bar is not None else config.schedule.cost(RHO_MIN)
    f_e0 = config.f_e0 if config.f_e0 is not None else prim.f_n + f_low
    zero = melitz_limit_zero(prim, f_e0)
    perfect = melitz_limit_perfect(prim, f_low)
    return _Table(
        ("variant", "p_star", "effective_entry_cost", "effective_fixed_cost", "fe_residual"),
        [
            [lim.variant, lim.p_star, lim.effective_entry_cost, lim.effective_fixed_cost,
             lim.fe_residual]
            for lim in (zero, perfect)
        ],
        f"zero-precision p*={zero.p_star!r}, perfect-information p*={perfect.p_star!r} "
        f"(selection gap {perfect.p_star - zero.p_star!r})",
    )


def _run_validate(config: RunConfig) -> _Table:
    # numpy loads here, on the one mode that needs it
    from concurrent.futures import ThreadPoolExecutor

    from .oracle import (
        estimate_aggregates,
        estimate_profit_given_signal,
        quadrature_reference,
        sample_log_population,
        z_score,
    )

    prim = config.primitives
    regime = Regime(_require(config, "rho", "validate"), config.schedule)
    eq = solve_equilibrium(prim, regime)
    # the closed forms are the aggregates a solve reports
    agg = compute_aggregates(prim, regime, eq.cutoffs)
    rho, t_star, p_star = regime.rho, eq.cutoffs.t_star, eq.cutoffs.p_star
    # expected profit at one representative signal, against its own MC
    t_probe = t_star + 0.5
    # The two estimators run concurrently (numpy releases the GIL as it draws
    # and reduces): this thread draws t and forms the aggregates' estimates,
    # the sampler's helper thread draws their noise stream, and the pool
    # thread estimates pi_tilde. An error in the aggregates still takes
    # precedence.
    with ThreadPoolExecutor(1) as pool:
        pi_tilde = pool.submit(
            estimate_profit_given_signal, t_probe, prim, rho, p_star, config.mc_n, config.seed + 1
        )
        estimates = estimate_aggregates(
            sample_log_population(rho, config.mc_n, config.seed), prim, eq.cutoffs
        )
        estimates["pi_tilde"] = pi_tilde.result()
    at_cutoffs = {"rho": rho, "p_star": p_star, "t_star": t_star}
    checks = [
        ("p_theta", agg.p_theta,
         quadrature_reference("bvn", {"x": -t_star, "y": math.inf, "rho": rho})),
        ("p_phi", agg.p_phi,
         quadrature_reference("bvn", {"x": -p_star, "y": -t_star, "rho": rho})),
        ("s_term", agg.s_term, quadrature_reference("S", {"k": prim.k, **at_cutoffs})),
        ("pi_breve", agg.pi_breve, quadrature_reference("pi_breve", {"prim": prim, **at_cutoffs})),
        ("pi_tilde", expected_profit_given_signal(prim, rho, p_star, t_probe),
         quadrature_reference(
             "pi_tilde", {"prim": prim, "rho": rho, "p_star": p_star, "t": t_probe})),
    ]
    rows = []
    for name, closed, quad in checks:
        mc = estimates[name]
        z = z_score(closed, mc)
        rows.append([name, closed, mc.mean, mc.std_error, z, quad, closed - quad])
    worst_z = max(0.0, *(abs(row[4]) for row in rows))
    worst_delta = max(0.0, *(abs(row[6]) for row in rows))
    # each cell is tested, so a NaN z or delta fails the run
    passed = all(abs(row[4]) <= MC_Z_LIMIT and abs(row[6]) <= QUAD_DELTA_LIMIT for row in rows)
    return _Table(
        ("quantity", "closed_form", "mc_mean", "mc_std_error", "z_score", "quad_value", "quad_delta"),
        rows,
        f"validation at rho={rho!r}, n={config.mc_n}: max |z| = {worst_z:.3f}, "
        f"max quadrature delta = {worst_delta:.3e} -> {'ok' if passed else 'MISMATCH'}",
        code=0 if passed else 3,
    )


_RUNNERS = {
    "solve": _run_solve,
    "sweep": _run_sweep,
    "optimum": _run_optimum,
    "pigouvian": _run_pigouvian,
    "limits": _run_limits,
    "validate": _run_validate,
}


def run(config: RunConfig, quiet: bool = False) -> int:
    """Execute a validated config; writes the CSV, then the chart, the summary
    (unless quiet) and the failure lines, and returns the process exit code."""
    try:
        table = _RUNNERS[config.mode](config)
        _write_csv(config, table.columns, table.rows, config.out)
        if table.svg is not None:
            with open(config.svg, "w") as fh:
                fh.write(table.svg)
        if table.summary is not None and not quiet:
            print(table.summary)
        for line in table.failures:
            print(line, file=sys.stderr)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except GatekeepError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return 2 if table.failures else table.code


def _build_parser() -> _Parser:
    parser = _Parser(prog="gatekeep", description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=MODES, help="what to compute")
    parser.add_argument("--config", required=True, help="path to the run config")
    parser.add_argument("--out", help="CSV output path (default: config value or stdout)")
    parser.add_argument("--svg", help="optional SVG chart path (sweep mode)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--grid", help="override the rho grid, start:stop:step")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"mode": args.mode}
    for key in ("out", "svg", "seed"):
        if getattr(args, key) is not None:
            overrides[key] = getattr(args, key)
    try:
        if args.grid is not None:
            overrides["grid"] = GridSpec.parse(args.grid)
        with open(args.config, encoding="utf-8") as fh:
            config = replace(parse_config(fh.read()), **overrides)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as exc:
        # a --grid that did not parse is named; every other error names its key
        flag = "--grid: " if args.grid is not None and "grid" not in overrides else ""
        print(f"config error: {flag}{exc}", file=sys.stderr)
        return 1
    return run(config, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
