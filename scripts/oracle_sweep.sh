#!/usr/bin/env bash
# Parallel oracle chaos sweep.
#
# The 1,000-seed campaign is embarrassingly parallel — every seed builds an
# independent world — so this shards the seed range across worker processes
# with the test binary's PLWG_SWEEP_FIRST / PLWG_SWEEP_SEEDS knobs and fails
# if any shard reports an oracle violation.
#
# Usage: scripts/oracle_sweep.sh [total_seeds] [first_seed]
#   total_seeds  default 1000
#   first_seed   default 1
# Env:
#   BUILD_DIR            build tree holding tests/test_oracle (default: build)
#   JOBS                 worker count (default: nproc)
#   PLWG_SWEEP_RESTARTS  passed through (0 = crashes stay permanent)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
TOTAL=${1:-1000}
FIRST=${2:-1}
JOBS=${JOBS:-$(nproc)}
BIN="$BUILD_DIR/tests/test_oracle"

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (cmake --build $BUILD_DIR --target test_oracle)" >&2
  exit 2
fi
if (( JOBS > TOTAL )); then JOBS=$TOTAL; fi

log_dir=$(mktemp -d)
trap 'rm -rf "$log_dir"' EXIT

echo "sweeping seeds [$FIRST, $((FIRST + TOTAL - 1))] across $JOBS workers"
start_ts=$SECONDS
pids=()
starts=()
counts=()
base=$(( TOTAL / JOBS ))
rem=$(( TOTAL % JOBS ))
next=$FIRST
for (( w = 0; w < JOBS; w++ )); do
  count=$(( base + (w < rem ? 1 : 0) ))
  (( count == 0 )) && continue
  PLWG_SWEEP_FIRST=$next PLWG_SWEEP_SEEDS=$count \
    "$BIN" --gtest_filter='*ChaosSweepLeavesOracleClean*' \
    > "$log_dir/shard-$w.log" 2>&1 &
  pids+=($!)
  starts+=($next)
  counts+=($count)
  next=$(( next + count ))
done

failed=0
for i in "${!pids[@]}"; do
  if wait "${pids[$i]}"; then
    echo "  shard $i: seeds ${starts[$i]}..$(( starts[$i] + counts[$i] - 1 )) clean"
  else
    failed=1
    echo "  shard $i: seeds ${starts[$i]}..$(( starts[$i] + counts[$i] - 1 )) FAILED"
    sed 's/^/    /' "$log_dir/shard-$i.log"
  fi
done

echo "swept $TOTAL seeds in $(( SECONDS - start_ts ))s"
exit $failed
