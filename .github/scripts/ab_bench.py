"""A/B benchmark of the working tree against a parent revision.

    python3 .github/scripts/ab_bench.py PARENT_REV LABEL --workload W [W ...]
        [--seeds 0 7] [--pairs 10] [--seconds 20]

The parent is built from ``git archive PARENT_REV``; the change is a copy of
the working tree (every tracked file and every untracked one that git does
not ignore). Both go to a temporary directory, and every run is a fresh
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` from
its own tree, whose last stdout line is the run's JSON result. The runs come
in pairs that alternate which side goes first: pair 1 runs the parent first,
pair 2 the change, and so on. After the timed pairs, up to five alternating
pairs of ``--trace 1 --seconds 0`` runs per workload (at the first seed)
give the per-layer metrics of one cycle of ops on each side.

It writes ``BENCH_<LABEL>.json`` at the repository root, with:
- ``summary["W/seedS"][metric]``: both sides' quartiles, the relative change
  of the median, the parent's IQR, the pairs the change won, and a verdict
  against the metric's ``BENCHMARK.json`` bound;
- ``runs["W/seedS"]``: every run's end-to-end metrics, op counts and
  correctness, and the seconds each ran;
- ``traced["W"]``: each per-layer metric's median on both sides, the
  traced pairs in which the change read lower, and which counts are equal
  in every traced run;
- ``parent``, ``change_tree``, ``command``, ``protocol`` and
  ``environment``.
``change_tree`` is a SHA-256 over the change tree's file names and bytes,
leaving out the Markdown documents and the ``BENCH_*.json`` results at the
root, which no run reads. Where the file exists with the same parent and
the same ``change_tree``, the entries of the workloads and seeds measured
now replace their old ones and the rest are kept, so a claim workload and
the other workloads can be run at different pair counts; otherwise the old
file is discarded whole.

A metric improves where it was measured in at least 10 pairs, the change
wins at least 9 of every 10 of them, and its median beats the parent's by
more than the parent's IQR; with fewer pairs the gain rule is not
evaluated, and the summary says so. It regresses
where its median is worse than the parent's by more than the bound. The
script exits 0 when every run was correct, 1 when some run reported a
failed op, and 2 when a run could not be made. It edits nothing in either
tree.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = ("cli_cold", "solve_sweep", "pigouvian", "validate")
#: the share of pairs the change must win for a metric to improve
WIN_SHARE = 0.9
#: the fewest pairs from which a metric can read "improved"
MIN_GAIN_PAIRS = 10
#: traced pairs per workload at most; a traced cycle's times vary from run to run
TRACE_PAIRS = 5
RUN_TIMEOUT_S = 1800.0


class AbError(RuntimeError):
    """A tree could not be built or a run could not be made."""


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3] by ``statistics.quantiles(method='inclusive')``."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def metric_summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's paired comparison and its verdict.

    ``parent[i]`` and ``change[i]`` are the two runs of pair i; ``better`` is
    ``"lower"`` or ``"higher"``, and ``bound`` the relative worsening that
    counts as a regression.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "lower" else -1.0
    p_q, c_q = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    iqr = p_q[2] - p_q[0]
    gap = sign * (p_q[1] - c_q[1])
    gain_rule_evaluated = len(parent) >= MIN_GAIN_PAIRS
    improved = gain_rule_evaluated and wins >= math.ceil(WIN_SHARE * len(parent)) and gap > iqr
    regressed = -gap > bound * abs(p_q[1])
    # a parent spread wider than the bound cannot show "unchanged", unless
    # every run of the change reads better than every run of the parent
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    unresolved = iqr > bound * abs(p_q[1]) and not all_better
    return {
        "parent_q1_median_q3": p_q,
        "change_q1_median_q3": c_q,
        "median_change": round(c_q[1] / p_q[1] - 1.0, 5) if p_q[1] else None,
        "parent_iqr": iqr,
        "change_better_in_pairs": f"{wins}/{len(parent)}",
        "bound": bound,
        "better": better,
        "gain_rule_evaluated": gain_rule_evaluated,
        "verdict": ("regressed" if regressed else "improved" if improved
                    else "unresolved" if unresolved else "within bound"),
    }


def summarize(runs: dict, end_to_end: list[dict]) -> dict:
    """``metric_summary`` of every ``BENCHMARK.json`` end-to-end metric."""
    return {
        spec["name"]: metric_summary(
            [r[spec["name"]] for r in runs["parent"]],
            [r[spec["name"]] for r in runs["change"]],
            spec["better"], spec["bound"],
        )
        for spec in end_to_end
    }


def pair_order(i: int) -> tuple[str, str]:
    """The sides of pair i (from 0) in the order they run."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def git(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        raise AbError(f"git {' '.join(args)} failed: {proc.stderr.decode(errors='replace').strip()}")
    return proc


def build_trees(parent_rev: str, work: Path) -> tuple[str, dict]:
    """The parent's full hash, and the two trees: ``git archive`` and a working-tree copy."""
    rev = git("rev-parse", "--verify", f"{parent_rev}^{{commit}}").stdout.decode().strip()
    trees = {"parent": work / "parent", "change": work / "change"}
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev).stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(trees["parent"], filter="data")
        else:
            tar.extractall(trees["parent"])
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout.decode()
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():
            dst = trees["change"] / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return rev, trees


def tree_digest(tree: Path) -> str:
    """SHA-256 over the names and bytes of ``tree``'s files, bar Markdown and root ``BENCH_*.json``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        name = path.relative_to(tree).as_posix()
        if path.suffix == ".md" or ("/" not in name and name.startswith("BENCH_") and name.endswith(".json")):
            continue
        digest.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def same_trees(old: dict, rev: str, change_tree: str) -> bool:
    """Whether an earlier ``BENCH_*.json`` measured this parent against this change tree."""
    return old.get("parent") == rev and old.get("change_tree") == change_tree


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """One ``perfbench/run.py`` run from ``tree``: its JSON result and its stdout."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise AbError(f"{tree.name}: {' '.join(cmd[1:])} ran past {RUN_TIMEOUT_S:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AbError(f"{tree.name}: {' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(lines[-1]), proc.stdout
    except json.JSONDecodeError as exc:
        raise AbError(f"{tree.name}: the last stdout line is not JSON: {lines[-1][:200]}") from exc


def run_record(result: dict) -> dict:
    record = {name: m["value"] for name, m in result["metrics"].items()}
    record.update(attempted=result["attempted"], failed=result["failed"], correct=result["correct"])
    return record


def environment(stdout: str) -> str:
    """run.py's own environment line, with this process's bytecode setting."""
    line = next((ln for ln in stdout.splitlines() if ln.startswith("environment: ")), "environment: ?")
    setting = os.environ.get("PYTHONDONTWRITEBYTECODE", "unset")
    return f"{line[len('environment: '):]}, PYTHONDONTWRITEBYTECODE={setting}"


def traced_comparison(parent: list[dict], change: list[dict]) -> dict:
    """Each per-layer metric's median over paired traced runs, and which counts agree."""
    metrics, counts_equal, counts_differ = {}, [], []
    for name, spec in parent[0]["metrics"].items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        lower = sum(b < a for a, b in zip(p, c))
        metrics[name] = {"parent": statistics.median(p), "change": statistics.median(c),
                         "unit": spec["unit"], "change_lower_in_pairs": f"{lower}/{len(p)}"}
        if spec["unit"] == "count":
            (counts_equal if len(set(p + c)) == 1 else counts_differ).append(name)
    return {
        "correct": {"parent": all(r["correct"] for r in parent),
                    "change": all(r["correct"] for r in change)},
        "metrics": metrics,
        "counts_equal": counts_equal,
        "counts_differ": counts_differ,
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev", metavar="PARENT_REV")
    parser.add_argument("label", metavar="LABEL")
    parser.add_argument("--workload", nargs="+", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 7])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = spec["end_to_end"]
    if args.pairs < 1 or not args.seconds >= 0.0:
        parser.error("--pairs must be at least 1 and --seconds nonnegative")

    out_path = ROOT / f"BENCH_{args.label}.json"
    work = Path(tempfile.mkdtemp(prefix="ab_bench-"))
    try:
        rev, trees = build_trees(args.parent_rev, work)
        change_tree = tree_digest(trees["change"])
        old = json.loads(out_path.read_text(encoding="utf-8")) if out_path.exists() else {}
        if old and not same_trees(old, rev, change_tree):
            log(f"discarding {out_path.name}: it measured another parent or change tree")
            old = {}
        doc = dict(
            parent=rev,
            change_tree=change_tree,
            command=f"{' '.join(spec['command'])} --workload <w> --seed <s> --seconds <t> "
                    "--trace 0 (last stdout line)",
            protocol=(
                f"parent from git archive of {rev[:7]}, change from a copy of the working tree, "
                "each run from its own directory; pairs alternate which side runs first "
                "(pair 1 the parent); quartiles by statistics.quantiles(method='inclusive'); "
                "median_change = change median / parent median - 1; a metric improves where "
                f"it was measured in at least {MIN_GAIN_PAIRS} pairs, the change wins at least "
                f"{WIN_SHARE:.0%} of them and its median beats the parent's by more than the "
                "parent's IQR (gain_rule_evaluated says whether there were enough pairs), and "
                "regresses where its median "
                "is worse by more than its BENCHMARK.json bound; traced: min(pairs, "
                f"{TRACE_PAIRS}) alternating pairs of --trace 1 --seconds 0 runs at the "
                "first seed, medians compared"
            ),
            summary=old.get("summary", {}),
            runs=old.get("runs", {}),
            traced=old.get("traced", {}),
        )
        env = None
        for workload in args.workload:
            for seed in args.seeds:
                key = f"{workload}/seed{seed}"
                runs = {"parent": [], "change": []}
                for i in range(args.pairs):
                    for side in pair_order(i):
                        result, stdout = bench(trees[side], workload, seed, args.seconds, 0)
                        env = env or environment(stdout)
                        runs[side].append(run_record(result))
                        log(f"{key} pair {i + 1}/{args.pairs} {side}: "
                            + ", ".join(f"{m['name']} {runs[side][-1][m['name']]:.6g}" for m in end_to_end))
                failed_ops = {side: f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"
                              for side, rs in runs.items()}
                doc["runs"][key] = {"seconds": args.seconds, "failed_ops": failed_ops, **runs}
                doc["summary"][key] = summarize(runs, end_to_end)
            seed = args.seeds[0]
            traced = {"parent": [], "change": []}
            for i in range(min(args.pairs, TRACE_PAIRS)):
                for side in pair_order(i):
                    traced[side].append(bench(trees[side], workload, seed, 0.0, 1)[0])
            doc["traced"][workload] = {"seed": seed, **traced_comparison(traced["parent"], traced["change"])}
        doc["environment"] = env
    except AbError as exc:
        log(f"ab_bench: {exc}")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    log(f"wrote {out_path}")
    for key, metrics in doc["summary"].items():
        for name, s in metrics.items():
            log(f"{key} {name}: {s['parent_q1_median_q3'][1]:.6g} -> {s['change_q1_median_q3'][1]:.6g} "
                f"({s['median_change']:+.2%}), {s['change_better_in_pairs']} pairs, {s['verdict']}"
                if s["median_change"] is not None else f"{key} {name}: {s['verdict']}")
    correct = [r["correct"] for entry in doc["runs"].values() for side in ("parent", "change")
               for r in entry[side]]
    correct += [ok for entry in doc["traced"].values() for ok in entry["correct"].values()]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
