#!/usr/bin/env bash
# Quick hot-path benchmark smoke run.
#
# Builds the Release tree and runs bench_hotpath with a short min-time,
# printing google-benchmark's console table. Pass extra benchmark flags
# after --, e.g.
#   scripts/bench_smoke.sh -- --benchmark_filter=Codec
# Single runs are noisy; compare two trees with interleaved runs, and use
# perfbench/ (BENCHMARK.json) for end-to-end numbers.
#
# Note: this google-benchmark build wants a plain number for
# --benchmark_min_time (no "s" suffix).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
MIN_TIME=${MIN_TIME:-0.05}

extra_args=()
if [[ "${1:-}" == "--" ]]; then
  shift
  extra_args=("$@")
fi

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_hotpath

"$BUILD_DIR/bench/bench_hotpath" \
  --benchmark_min_time="$MIN_TIME" \
  "${extra_args[@]}"
