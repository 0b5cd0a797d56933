#!/usr/bin/env bash
# Regenerate tests/golden_digests.txt, the golden trace-digest table that
# tests/golden_digest_test.cpp checks.
#
# Run this only for a deliberate behaviour change, and review the table diff
# with the change: a digest that moves is a simulation that now runs
# differently.
#
# The digests are libstdc++-specific until VsyncHost's unordered_map walks
# (tick(), groups()) are made ordered: per-tick send order follows the
# standard library's hash layout, so another library may produce another
# table.
#
#   scripts/rebless_digests.sh        # builds into $BUILD_DIR (default build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
TABLE=tests/golden_digests.txt

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)" --target test_golden

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
# The test fails wherever the old table disagrees; only its GOLDEN lines
# matter here.
"$BUILD_DIR/tests/test_golden" > "$tmp" || true
{
  echo "# Golden trace digests: <case> <digest>. Checked by"
  echo "# tests/golden_digest_test.cpp; regenerate with"
  echo "# scripts/rebless_digests.sh. libstdc++-specific (see the script)."
  grep '^GOLDEN ' "$tmp" | cut -d' ' -f2- | sort
} > "$TABLE"
echo "wrote $(grep -vc '^#' "$TABLE") digests to $TABLE"
