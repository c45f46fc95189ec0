#!/usr/bin/env bash
# Compare every output of every CLI mode between two source trees.
#
#   bash .github/scripts/compare_outputs.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Runs the six gatekeep modes from each tree's src/ on the head tree's
# benchmark.cfg, on its sigma = 60 and f_n = 1e30 variants, on a
# rho = 0.95 variant with 401 transfers (about 200 of them negative, so
# pigouvian bisects in bvn_cdf's high-correlation branch), on two
# validate sample sizes at the edges of the oracle's 65536-draw block
# buffers (mc_n = 1000, narrower than one block, and mc_n = 65537, one full
# block then a one-draw block) and on a one-point sweep grid, whose chart
# has legend entries but no polyline. It then requires the same set of files on
# both sides: every CSV, SVG, stdout and stderr byte-identical, and every
# exit code equal. A Python traceback in any stderr of the head tree fails
# the comparison whatever the base printed.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$3
rm -rf "$work"
mkdir -p "$work/configs"
cfgs="$work/configs"
cp "$head/benchmark.cfg" "$cfgs/benchmark.cfg"
sed 's/^sigma = 2.0$/sigma = 60.0/' "$head/benchmark.cfg" > "$cfgs/sigma60.cfg"
sed 's/^f_n = 0.005$/f_n = 1e30/' "$head/benchmark.cfg" > "$cfgs/no_entry.cfg"
sed 's/^rho = 0.89$/rho = 0.95\ns_points = 401/' "$head/benchmark.cfg" > "$cfgs/high_rho.cfg"
grep -q '^sigma = 60.0$' "$cfgs/sigma60.cfg"
grep -q '^f_n = 1e30$' "$cfgs/no_entry.cfg"
grep -q '^rho = 0.95$' "$cfgs/high_rho.cfg"
grep -q '^s_points = 401$' "$cfgs/high_rho.cfg"
{ cat "$head/benchmark.cfg"; echo "mc_n = 1000"; } > "$cfgs/mc_n_1000.cfg"
{ cat "$head/benchmark.cfg"; echo "mc_n = 65537"; } > "$cfgs/mc_n_65537.cfg"
grep -q '^mc_n = 1000$' "$cfgs/mc_n_1000.cfg"
grep -q '^mc_n = 65537$' "$cfgs/mc_n_65537.cfg"
sed 's/^grid = .*$/grid = 0.5:0.505:0.01/' "$head/benchmark.cfg" > "$cfgs/one_point.cfg"
grep -q '^grid = 0.5:0.505:0.01$' "$cfgs/one_point.cfg"

for side in base head; do
  tree=${!side}
  # each side must run its own tree, not an installed copy
  PYTHONPATH="$tree/src" python3 -c 'import gatekeep, sys; print(gatekeep.__file__)' \
    | grep -q "^$tree/src/gatekeep/"
  for cfg in benchmark sigma60 no_entry high_rho mc_n_1000 mc_n_65537 one_point; do
    dir="$work/$side/$cfg"
    mkdir -p "$dir"
    for mode in solve sweep optimum pigouvian limits validate; do
      svg=()
      if [ "$mode" = sweep ]; then svg=(--svg sweep.svg); fi
      status=0
      (cd "$dir" && PYTHONPATH="$tree/src" python3 -m gatekeep "$mode" \
        --config "$cfgs/$cfg.cfg" --out "$mode.csv" "${svg[@]}") \
        > "$dir/$mode.stdout" 2> "$dir/$mode.stderr" || status=$?
      echo "$status" > "$dir/$mode.code"
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
if [ "$failed" -ne 0 ]; then
  echo "outputs differ from the base commit" >&2
  exit 1
fi
echo "all $count output files identical to the base commit"
