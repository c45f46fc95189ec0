#!/usr/bin/env bash
# Compare every output of every CLI mode between two source trees.
#
#   bash .github/scripts/compare_outputs.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Runs the six gatekeep modes from each tree's src/ on configs that one
# Python table below writes:
# - the head tree's benchmark.cfg and seven variants of it: sigma = 60 and
#   f_n = 1e30; rho = 0.95 with 401 transfers (about 200 of them negative,
#   so pigouvian bisects in bvn_cdf's high-correlation branch); three
#   validate sample sizes at the edges of the oracle's 65536-draw block
#   buffers (mc_n = 1000, narrower than one block; mc_n = 65537, one full
#   block then a one-draw block; and mc_n = 131072, two full blocks, so the
#   noise stream's prefetch has no next block to fill); and a one-point
#   sweep grid, whose chart has legend entries but no polyline;
# - DOMAIN_CONFIGS economies drawn by random.Random(SEED): half over the
#   domain of tests/economies.py, half over the extreme ranges of
#   tests/test_cli.py's fuzz configs (any positive double, sigma up to
#   1e300), which reach the overflow paths of the closed forms and the
#   oracle. Each has a sweep grid of at most 5 points, 5 transfers,
#   rho <= 0.99 and mc_n <= 5000, so validate's quadratures stay short;
# - then SCALED_DOWN_CONFIGS domain economies from the same generator with
#   every cost and L near 1e-250, whose outputs must not depend on that
#   scale.
# It then requires the same set of files on both sides: every CSV, SVG,
# stdout and stderr byte-identical (a warning's source location aside), and
# every exit code equal. A Python
# traceback in any stderr of the head tree fails the comparison whatever
# the base printed.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$3
rm -rf "$work"
mkdir -p "$work/configs"
cfgs="$work/configs"

python3 - "$head/benchmark.cfg" "$cfgs" <<'EOF'
import math
import random
import re
import sys
from pathlib import Path

DOMAIN_CONFIGS = 48
FAMILIES = ("domain", "scaled", "extreme")
# drawn after the 48 above, so that each of those keeps its text
SCALED_DOWN_CONFIGS = 8
SEED = 20261019

bench_path, out = Path(sys.argv[1]), Path(sys.argv[2])
bench = bench_path.read_text(encoding="utf-8")


def variant(pattern, line):
    """benchmark.cfg with the one line that matches pattern replaced."""
    text, count = re.subn(pattern, line, bench, flags=re.M)
    assert count == 1, (pattern, count)
    return text


configs = {
    "benchmark": bench,
    "sigma60": variant(r"^sigma = 2\.0$", "sigma = 60.0"),
    "no_entry": variant(r"^f_n = 0\.005$", "f_n = 1e30"),
    "high_rho": variant(r"^rho = 0\.89$", "rho = 0.95\ns_points = 401"),
    "mc_n_1000": bench + "mc_n = 1000\n",
    "mc_n_65537": bench + "mc_n = 65537\n",
    "mc_n_131072": bench + "mc_n = 131072\n",
    "one_point": variant(r"^grid = .*$", "grid = 0.5:0.505:0.01"),
}

rng = random.Random(SEED)


def log_uniform(lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def unit():
    return rng.uniform(0.01, 0.99)


def extreme_positive():
    # typical, anywhere in the double range, or near its top
    return rng.choice([
        lambda: log_uniform(1e-3, 10.0),
        lambda: max(5e-324, 10.0 ** rng.uniform(-323.0, 300.0)),
        lambda: 10.0 ** rng.uniform(290.0, 300.0),
    ])()


def economy(family):
    # "domain": tests/economies.py's ranges; "scaled": a domain economy with
    # every cost and L at a level near the double limit, which leaves its
    # cutoffs where they were and puts its profits near 1e300; "extreme": the
    # fuzz configs' ranges, each draw on its own; "scaled_down": a domain
    # economy with every cost and L near 1e-250
    if family == "extreme":
        cost = number = extreme_positive
        sigma = 1.0 + rng.choice([log_uniform(0.1, 10.0), 10.0 ** rng.uniform(-15.0, 300.0)])
        primitives = {"sigma": sigma, "f": cost(), "f_n": cost(),
                      "delta": rng.uniform(1e-9, 1.0 - 1e-9), "L": cost()}
    else:
        if family == "scaled":
            level = 10.0 ** rng.uniform(250.0, 299.0)
        elif family == "scaled_down":
            level = 10.0 ** rng.uniform(-260.0, -240.0)
        else:
            level = 1.0
        number = lambda: log_uniform(1e-3, 10.0)
        cost = lambda: level * number()
        primitives = {"sigma": rng.uniform(1.2, 8.0), "f": cost(),
                      "f_n": level * log_uniform(1e-5, 1.0), "delta": rng.uniform(0.01, 0.5),
                      "L": level}
    kind = rng.choice(["constant", "power_bounded", "piecewise_linear", "hyperbolic"])
    if kind == "constant":
        schedule = {"f_b": cost()}
    elif kind == "power_bounded":
        schedule = {"f_b0": cost(), "kappa": rng.choice([0.0, number()]), "alpha": number()}
    elif kind == "piecewise_linear":
        rho_low, rho_high = sorted((unit(), unit()))
        f_low, f_high = sorted((cost(), cost()))
        schedule = {"rho_low": rho_low, "rho_high": rho_high, "f_low": f_low, "f_high": f_high}
    else:
        schedule = {"f_b0": cost()}
    start, stop = sorted((unit(), unit()))
    run = {"rho": rng.uniform(0.0, 0.99) if family == "extreme" else rng.uniform(0.05, 0.97),
           "grid": f"{start}:{stop}:{(stop - start) / rng.randint(1, 4)}",
           "s_points": 5, "mc_n": rng.randint(1, 5000), "seed": rng.randint(0, 2**32)}
    for key in ("f_e0", "f_b_bar"):
        if rng.random() < 0.5:
            run[key] = cost()
    lines = []
    for name, entries in (("primitives", primitives), ("schedule", {"kind": kind, **schedule}),
                          ("run", run)):
        # str of a float is its shortest round-tripping repr
        lines += [f"[{name}]", *(f"{key} = {value}" for key, value in entries.items())]
    return "\n".join(lines) + "\n"


for i in range(DOMAIN_CONFIGS):
    family = FAMILIES[i % len(FAMILIES)]
    configs[f"{family}_{i // len(FAMILIES):02d}"] = economy(family)
for i in range(SCALED_DOWN_CONFIGS):
    configs[f"scaled_down_{i:02d}"] = economy("scaled_down")

for name, text in configs.items():
    (out / f"{name}.cfg").write_text(text, encoding="utf-8")
EOF

for side in base head; do
  tree=${!side}
  # each side must run its own tree, not an installed copy
  PYTHONPATH="$tree/src" python3 -c 'import gatekeep, sys; print(gatekeep.__file__)' \
    | grep -q "^$tree/src/gatekeep/"
  for path in "$cfgs"/*.cfg; do
    cfg=$(basename "$path" .cfg)
    dir="$work/$side/$cfg"
    mkdir -p "$dir"
    for mode in solve sweep optimum pigouvian limits validate; do
      svg=()
      if [ "$mode" = sweep ]; then svg=(--svg sweep.svg); fi
      status=0
      (cd "$dir" && PYTHONPATH="$tree/src" python3 -m gatekeep "$mode" \
        --config "$path" --out "$mode.csv" "${svg[@]}") \
        > "$dir/$mode.stdout" 2> "$dir/$mode.stderr" || status=$?
      echo "$status" > "$dir/$mode.code"
      # a Python warning's location names the tree and moves with any edit
      # above it: keep its category and message, drop its file:line prefix
      # and the source line printed under it
      sed -E -i '/^[^ ].*\.py:[0-9]+: [A-Za-z]*Warning: /{s/^.*\.py:[0-9]+: //;n;/^  /d}' \
        "$dir/$mode.stderr"
    done
  done
done

if grep -l Traceback "$work"/head/*/*.stderr >&2; then
  echo "the head tree printed a traceback" >&2
  exit 1
fi
diff <(cd "$work/base" && find . -type f | sort) <(cd "$work/head" && find . -type f | sort)
failed=0
while read -r file; do
  cmp "$work/base/$file" "$work/head/$file" || failed=1
done < <(cd "$work/base" && find . -type f | sort)
count=$(cd "$work/base" && find . -type f | wc -l)
configs=$(find "$cfgs" -name '*.cfg' | wc -l)
if [ "$failed" -ne 0 ]; then
  echo "outputs differ from the base commit" >&2
  exit 1
fi
echo "all $count output files of $configs configs identical to the base commit"
