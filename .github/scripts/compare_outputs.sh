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
# - DOMAIN_CONFIGS economies drawn from random.Random(SEED) by the head
#   tree's tests/families.py, a third each of its domain, scaled and extreme
#   families, then SCALED_DOWN_CONFIGS of its scaled_down family from the
#   same generator; the outputs of a scaled economy must not depend on its
#   scale.
# It then requires the same set of files on both sides: every CSV, SVG,
# stdout and stderr byte-identical (a warning's source location aside), and
# every exit code equal. A Python
# traceback in any stderr of the head tree fails the comparison whatever
# the base printed. Each config and mode whose files moved is then listed
# with its base and head exit codes and the head's first stderr line.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$3
rm -rf "$work"
mkdir -p "$work/configs"
cfgs="$work/configs"

python3 - "$head/benchmark.cfg" "$cfgs" "$head/tests" <<'EOF'
import random
import re
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[3])
from families import economy

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

for i in range(DOMAIN_CONFIGS):
    family = FAMILIES[i % len(FAMILIES)]
    configs[f"{family}_{i // len(FAMILIES):02d}"] = economy(family, rng)
for i in range(SCALED_DOWN_CONFIGS):
    configs[f"scaled_down_{i:02d}"] = economy("scaled_down", rng)

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
moved=()
while read -r file; do
  if ! cmp "$work/base/$file" "$work/head/$file"; then
    failed=1
    # config/mode: each mode's files are named <mode>.<kind>
    name=$(basename "$file")
    moved+=("$(dirname "${file#./}")/${name%%.*}")
  fi
done < <(cd "$work/base" && find . -type f | sort)
for run in $(printf '%s\n' "${moved[@]}" | sort -u); do
  echo "moved $run: exit $(cat "$work/base/$run.code") -> $(cat "$work/head/$run.code"):" \
    "$(head -n 1 "$work/head/$run.stderr")"
done
count=$(cd "$work/base" && find . -type f | wc -l)
configs=$(find "$cfgs" -name '*.cfg' | wc -l)
if [ "$failed" -ne 0 ]; then
  echo "outputs differ from the base commit" >&2
  exit 1
fi
echo "all $count output files of $configs configs identical to the base commit"
