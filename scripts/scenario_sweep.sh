#!/usr/bin/env bash
# Adversarial scenario-corpus sweep.
#
# Replays every corpus file under scenarios/ across a seed range with the
# protocol oracle as judge, sharding the seed range across worker processes
# via the test binary's PLWG_SWEEP_FIRST / PLWG_SWEEP_SEEDS knobs. Every
# (file, seed) episode must form, converge after quiesce, and leave the
# oracle clean; failures write per-episode oracle JSON artifacts when
# PLWG_ORACLE_REPORT_DIR is set.
#
# Usage: scripts/scenario_sweep.sh [--list] [total_seeds] [first_seed]
#   --list       dry run: print the corpus files and seed plan, run nothing
#   total_seeds  default 25
#   first_seed   default 1
# Env:
#   BUILD_DIR          build tree holding tests/test_scenarios (default: build)
#   JOBS               worker count (default: nproc)
#   PLWG_SCENARIO_DIR  corpus directory override (default: scenarios/ in the
#                      source tree, compiled into the binary)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
LIST_ONLY=0
if [[ "${1:-}" == "--list" ]]; then
  LIST_ONLY=1
  shift
fi
TOTAL=${1:-25}
FIRST=${2:-1}
JOBS=${JOBS:-$(nproc)}
BIN="$BUILD_DIR/tests/test_scenarios"
CORPUS_DIR=${PLWG_SCENARIO_DIR:-scenarios}

if [[ ! -d "$CORPUS_DIR" ]]; then
  echo "error: scenario corpus directory '$CORPUS_DIR' does not exist" \
       "(set PLWG_SCENARIO_DIR or run from the repo root)" >&2
  exit 2
fi
corpus_files=("$CORPUS_DIR"/*.json)
if [[ ! -e "${corpus_files[0]}" ]]; then
  echo "error: scenario corpus '$CORPUS_DIR' holds no *.json files —" \
       "nothing to sweep" >&2
  exit 2
fi

if (( LIST_ONLY )); then
  echo "corpus: ${#corpus_files[@]} files under $CORPUS_DIR"
  for f in "${corpus_files[@]}"; do
    echo "  $f"
  done
  echo "plan: seeds [$FIRST, $((FIRST + TOTAL - 1))] across" \
       "$JOBS workers (dry run, nothing executed)"
  exit 0
fi

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not built (cmake --build $BUILD_DIR --target test_scenarios)" >&2
  exit 2
fi
if (( JOBS > TOTAL )); then JOBS=$TOTAL; fi

log_dir=$(mktemp -d)
trap 'rm -rf "$log_dir"' EXIT

echo "sweeping scenario corpus over seeds [$FIRST, $((FIRST + TOTAL - 1))]" \
     "across $JOBS workers"
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
    "$BIN" --gtest_filter='*EveryCorpusFileIsOracleCleanAcrossSeeds*' \
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

echo "swept $TOTAL seeds over the corpus in $(( SECONDS - start_ts ))s"
exit $failed
