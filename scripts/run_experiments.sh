#!/usr/bin/env bash
# Regenerates every experiment table (DESIGN.md Section 3 / EXPERIMENTS.md).
# Usage: scripts/run_experiments.sh [build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found; build first:" >&2
  echo "  cmake -B $BUILD_DIR -G Ninja && cmake --build $BUILD_DIR" >&2
  exit 1
fi

for b in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$b" ] || continue
  case "$b" in
    *bench_micro_ops) "$b" --benchmark_min_time=0.05 ;;
    *) "$b" ;;
  esac
done
