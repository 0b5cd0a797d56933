#!/usr/bin/env bash
# Compare the stdout of two builds of this repo, program by program.
#
# Runs every benchmark binary (bench/bench_*) except bench_hotpath, whose
# numbers are wall-clock timings, and every example (examples/*) from both
# build trees with PLWG_BENCH_BIG=0, and diffs what each prints. The exit
# status is compared too. bench_wan_scale's wall-s-per-sim-s and
# peak-rss-MB columns measure the host, not the protocol, and are dropped
# before the diff. A program that exists in only one build is listed as
# added or removed, not compared.
#
# Usage: scripts/compare_outputs.sh PARENT_BUILD CHANGE_BUILD
#   PARENT_BUILD, CHANGE_BUILD  build trees (e.g. Release builds of the
#                               parent commit and of the change)
# Exits 0 when every program common to both builds prints the same output,
# 1 on any difference, 2 on bad usage.
set -euo pipefail

if [[ $# -ne 2 || ! -d "$1" || ! -d "$2" ]]; then
  echo "usage: $0 PARENT_BUILD CHANGE_BUILD (two build directories)" >&2
  exit 2
fi
PARENT=$1
CHANGE=$2
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
export PLWG_BENCH_BIG=0

# Program paths relative to a build tree.
list_programs() {
  local f
  for f in "$1"/bench/bench_* "$1"/examples/*; do
    [[ -f "$f" && -x "$f" ]] || continue
    [[ "$(basename "$f")" == bench_hotpath ]] && continue
    echo "${f#"$1"/}"
  done
}

# Drop the host-measured columns from every table whose header names them.
drop_host_columns() {
  awk '
    $0 ~ /wall-s-per-sim-s|peak-rss-MB/ {
      ncols = NF
      delete drop
      for (i = 1; i <= NF; i++)
        if ($i == "wall-s-per-sim-s" || $i == "peak-rss-MB") drop[i] = 1
    }
    ncols > 0 && NF != ncols { ncols = 0 }
    ncols > 0 {
      line = ""
      for (i = 1; i <= NF; i++) if (!(i in drop)) line = line " " $i
      print substr(line, 2)
      next
    }
    { print }'
}

# run BUILD PROGRAM OUTFILE: stdout plus the exit status.
run() {
  local status=0
  "$1/$2" < /dev/null > "$3" 2> /dev/null || status=$?
  echo "exit status: $status" >> "$3"
  if [[ "$2" == bench/bench_wan_scale ]]; then
    drop_host_columns < "$3" > "$3.filtered"
    mv "$3.filtered" "$3"
  fi
}

differ=0
compared=0
while read -r p; do
  if [[ ! -x "$PARENT/$p" ]]; then
    echo "added (not compared): $p"
    continue
  fi
  if [[ ! -x "$CHANGE/$p" ]]; then
    echo "removed (not compared): $p"
    continue
  fi
  name=${p//\//_}
  # The two builds run side by side; each program is single-threaded.
  run "$PARENT" "$p" "$OUT/$name.parent" &
  run "$CHANGE" "$p" "$OUT/$name.change"
  wait
  compared=$((compared + 1))
  if diff -u --label "parent/$p" --label "change/$p" \
       "$OUT/$name.parent" "$OUT/$name.change"; then
    echo "same: $p"
  else
    echo "DIFFERS: $p"
    differ=1
  fi
done < <({ list_programs "$PARENT"; list_programs "$CHANGE"; } | sort -u)

if (( differ )); then
  echo "compare_outputs: outputs differ" >&2
  exit 1
fi
echo "compare_outputs: $compared programs, identical output"
