"""Run a seeded sample of economies through the CLI and tabulate the outcomes.

    python3 .github/scripts/census.py FAMILY N SEED [--mc-n M]

Economy i is the i-th config text that tests/families.py's
economy(FAMILY, rng) draws from one random.Random(SEED), counting from 0.
Each runs in this process through gatekeep.cli.main in three modes: solve,
pigouvian (its 5 transfers, -f_b/2 to f_b/2) and validate, at its own mc_n
or at M. The table lists:
- the exit codes of each mode, the error classes its stderr names, and the
  runs that printed a Python warning;
- validate's failing cells by row and cause: the quadrature delta, a
  standard error of 0 (no draw in the set), or |z| above the limit;
- each transfer whose W(s) exceeds W(0) (1 + 1e-12).
It exits 0 whatever the economies do, and nonzero only if a run ends in a
Python exception that the CLI does not map to an exit code.
"""

import argparse
import collections
import contextlib
import csv
import io
import random
import re
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from families import economy  # noqa: E402
from gatekeep.cli import MC_Z_LIMIT, QUAD_DELTA_LIMIT, main  # noqa: E402

MODES = ("solve", "pigouvian", "validate")
CAUSES = ("quadrature", "se = 0", f"|z| > {MC_Z_LIMIT:g}")


def run(mode, text, work):
    """(exit code, stderr text, warning count, CSV rows as dicts) of one CLI run."""
    config, out = work / "census.cfg", work / "census.csv"
    config.write_text(text, encoding="utf-8")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([mode, "--config", str(config), "--out", str(out), "--quiet"])
    rows = []
    if out.exists():
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return code, err.getvalue(), len(caught), rows


def failing_causes(cell):
    """The causes for which one validate CSV row fails."""
    causes = []
    if not abs(float(cell["quad_delta"])) <= QUAD_DELTA_LIMIT:
        causes.append(CAUSES[0])
    if not abs(float(cell["z_score"])) <= MC_Z_LIMIT:
        causes.append(CAUSES[1] if float(cell["mc_std_error"]) == 0.0 else CAUSES[2])
    return causes


def main_census(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family", choices=("domain", "scaled", "scaled_down", "extreme"))
    parser.add_argument("n", type=int)
    parser.add_argument("seed", type=int)
    parser.add_argument("--mc-n", type=int, help="validate's sample size for every economy")
    args = parser.parse_args(argv)

    codes = {mode: collections.Counter() for mode in MODES}
    classes = {mode: collections.Counter() for mode in MODES}
    warned = collections.Counter()
    cells = collections.Counter()
    # validate's rows, in CSV order
    rows_seen = {}
    beats = []
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.n):
            text = economy(args.family, rng)
            if args.mc_n is not None:
                text = re.sub(r"^mc_n = \d+$", f"mc_n = {args.mc_n}", text, flags=re.M)
            for mode in MODES:
                try:
                    code, err, n_warnings, rows = run(mode, text, Path(tmp))
                except Exception:
                    print(f"economy {i}, {mode}: the CLI raised", file=sys.stderr)
                    raise
                codes[mode][code] += 1
                classes[mode].update(set(re.findall(r"\b(\w+Error): ", err)))
                if code == 1:
                    classes[mode]["config error"] += 1
                warned[mode] += n_warnings > 0
                if mode == "validate":
                    for cell in rows:
                        rows_seen[cell["quantity"]] = None
                        cells.update((cell["quantity"], cause) for cause in failing_causes(cell))
                if mode == "pigouvian":
                    ok = {float(r["s"]): float(r["W"]) for r in rows if r["status"] == "ok"}
                    w0 = ok.get(0.0)
                    beats += [(i, s, w / w0 - 1.0) for s, w in ok.items()
                              if w0 is not None and w > w0 * (1.0 + 1e-12)]

    mc_n = "its own mc_n" if args.mc_n is None else f"mc_n = {args.mc_n}"
    print(f"census: {args.n} {args.family} economies, random.Random({args.seed}), "
          f"validate at {mc_n}")
    print("\nmode       exit codes                      error classes (runs)")
    for mode in MODES:
        exits = ", ".join(f"{code}: {count}" for code, count in sorted(codes[mode].items()))
        named = ", ".join(f"{name} {count}" for name, count in classes[mode].most_common())
        print(f"{mode:<10} {exits:<31} {named or '-'}")
        if warned[mode]:
            print(f"{'':<10} {warned[mode]} runs printed a Python warning")
    print("\nvalidate's failing cells")
    print(f"{'row':<10}" + "".join(f"{cause:>12}" for cause in CAUSES))
    for row in rows_seen:
        print(f"{row:<10}" + "".join(f"{cells[row, cause]:>12}" for cause in CAUSES))
    print(f"\ntransfers with W(s) > W(0) (1 + 1e-12): {len(beats)}")
    for i, s, excess in beats:
        print(f"  economy {i}: s = {s!r}, W(s) / W(0) - 1 = {excess:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main_census())
