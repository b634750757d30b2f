#!/usr/bin/env bash
# Perf smoke: build Release, run the kernel benchmarks, and fail if SIMD
# kernel throughput regressed against the tracked baseline. Also prints the
# transport cost of a task-sized exchange (bench_transport); raw µs depend
# on the host, so they are reported, not gated.
#
#   scripts/bench_smoke.sh [BUILD_DIR]
#
# BUILD_DIR defaults to build-bench. Environment knobs:
#   FDML_BENCH_TOLERANCE   allowed fractional regression (default 0.2)
#   FDML_BENCH_ABSOLUTE=1  also compare raw patterns/s against the baseline
#                          (only meaningful when the baseline was produced
#                          on this host; by default only the host-portable
#                          speedup-vs-scalar ratios and the >= 2x headline
#                          contract are checked)
#   FDML_BENCH_UPDATE=1    rewrite BENCH_kernels.json from this run instead
#                          of checking against it (refresh the baseline on
#                          a quiet machine, then commit the file)
#
# Artifacts land in BUILD_DIR/BENCH_kernels.json; the tracked baseline is
# BENCH_kernels.json at the repository root.
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build-bench}
BASELINE=BENCH_kernels.json
TOLERANCE=${FDML_BENCH_TOLERANCE:-0.2}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target bench_kernels bench_transition_cache \
  bench_transport

echo "== transition-cache counters =="
"$BUILD_DIR/bench/bench_transition_cache" --passes=2 --evals=5000

echo "== transport exchange (reported, not gated) =="
"$BUILD_DIR/bench/bench_transport" --exchanges=5000

echo "== SIMD kernel sweep =="
if [[ "${FDML_BENCH_UPDATE:-0}" == "1" ]]; then
  "$BUILD_DIR/bench/bench_kernels" --json="$BASELINE"
  echo "baseline $BASELINE rewritten; review and commit it"
else
  CHECK_FLAGS=(--json="$BUILD_DIR/BENCH_kernels.json" --check="$BASELINE"
               --tolerance="$TOLERANCE")
  if [[ "${FDML_BENCH_ABSOLUTE:-0}" == "1" ]]; then
    CHECK_FLAGS+=(--check-absolute)
  fi
  "$BUILD_DIR/bench/bench_kernels" "${CHECK_FLAGS[@]}"
fi
