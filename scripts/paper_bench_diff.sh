#!/usr/bin/env bash
# Paper-bench diff: builds the paper-figure/table benches (bench_fig*,
# bench_table*, bench_ablation_*) at BASE and in the working tree, runs
# each, and diffs their output. These benches run the simulated cost model
# with fixed seeds, so a change that leaves the model alone prints
# byte-identical output; any difference shows which figure moved.
#
# Usage: scripts/paper_bench_diff.sh [BASE]    (default: HEAD)
#   Both trees build in a temp dir (tests, examples and CLI off), so the
#   repo's own build directories are left alone. stderr of the benches is
#   not compared.
# Exit:  0 identical, 1 the outputs differ, 2 a build or run failure.
set -uo pipefail

cd "$(dirname "$0")/.."
BASE="${1:-HEAD}"
JOBS="$(nproc)"

work="$(mktemp -d "${TMPDIR:-/tmp}/paper_bench_diff.XXXXXX")"
trap 'rm -rf "$work"' EXIT

fail() {
  echo "paper_bench_diff: $*" >&2
  exit 2
}

# run_tree SRC NAME: builds SRC's paper benches under $work/NAME and runs
# each into $work/out/NAME/<bench>.txt.
run_tree() {
  local src="$1" name="$2"
  local build="$work/$name" out="$work/out/$name" log="$work/$name.log"
  local benches=() f b
  for f in "$src"/bench/bench_fig*.cpp "$src"/bench/bench_table*.cpp \
           "$src"/bench/bench_ablation_*.cpp; do
    [[ -e "$f" ]] && benches+=("$(basename "$f" .cpp)")
  done
  [[ ${#benches[@]} -gt 0 ]] || fail "no paper benches under $src/bench"
  echo "== $name: building ${#benches[@]} paper benches"
  if ! cmake -S "$src" -B "$build" -DCMAKE_BUILD_TYPE=Release \
         -DSMARTSTORE_BUILD_TESTS=OFF -DSMARTSTORE_BUILD_EXAMPLES=OFF \
         -DSMARTSTORE_BUILD_CLI=OFF >"$log" 2>&1 ||
     ! cmake --build "$build" -j "$JOBS" --target "${benches[@]}" \
         >>"$log" 2>&1; then
    tail -n 30 "$log" >&2
    fail "$name: build failed"
  fi
  mkdir -p "$out"
  for b in "${benches[@]}"; do
    "$build/bench/$b" >"$out/$b.txt" 2>>"$log" || {
      tail -n 30 "$log" >&2
      fail "$name: $b exited nonzero"
    }
  done
}

mkdir -p "$work/src-base" "$work/out"
git archive "$BASE" | tar -x -C "$work/src-base" ||
  fail "cannot archive $BASE"
run_tree "$work/src-base" base
run_tree "$PWD" change

# A bench present in only one tree counts as a difference.
total=0
same=0
for b in $(cd "$work/out" && find base change -name '*.txt' -printf '%f\n' |
             sort -u); do
  total=$((total + 1))
  if cmp -s "$work/out/base/$b" "$work/out/change/$b"; then
    same=$((same + 1))
  else
    echo "differs: ${b%.txt}"
  fi
done
echo "paper benches: $same/$total identical to $BASE"
[[ $same -eq $total ]] && exit 0
(cd "$work/out" && diff -ru base change)
exit 1
