#!/usr/bin/env bash
# End-to-end checks of the fastdnamlpp command line; ctest passes the built
# program as $1.
#   * Serial and --workers=2 runs write byte-identical --out result files:
#     the Newick line, then the lnL line.
#   * --resume at a checkpoint of another dataset exits 1 with "cannot
#     resume" instead of aborting.
#   * --chaos without an in-process cluster exits 2 instead of running a
#     fault drill with nothing injected.
#   * A --workers=2 search of data/sample24.phy at seed 3 with a 1 ms
#     deadline, below many task times, requeues tasks (the "cluster:" line
#     counts them) and still writes data/sample24_seed3.out exactly.
#   * A serial search of data/sample24.phy at seed 3 writes exactly the
#     committed reference data/sample24_seed3.out on every SIMD backend
#     (FDML_SIMD=scalar, sse2, avx2, avx512) this build and CPU run. A
#     backend that is not compiled in or that the CPU lacks falls back
#     silently, so each pin is confirmed through --version first and
#     skipped otherwise. A change that moves the result (say, a new
#     smoothing order) re-records it on purpose.
set -u

BIN=$1
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "test_cli: FAIL: $*" >&2
  exit 1
}

COMMON=(--taxa=10 --sites=200 --seed=3 --quiet)
"$BIN" "${COMMON[@]}" --out="$WORK/serial.out" > "$WORK/serial.log" \
    || fail "serial run exited $?"
"$BIN" "${COMMON[@]}" --workers=2 --out="$WORK/workers.out" \
    > "$WORK/workers.log" || fail "--workers=2 run exited $?"
[ "$(wc -l < "$WORK/serial.out")" -eq 2 ] || fail "result file is not 2 lines"
grep -q '^lnL -[0-9]*\.[0-9]\{6\}$' "$WORK/serial.out" || fail "no lnL line"
cmp "$WORK/serial.out" "$WORK/workers.out" \
    || fail "serial and --workers=2 result files differ"

"$BIN" "${COMMON[@]}" --checkpoint="$WORK/run.ckpt" > /dev/null \
    || fail "checkpointed run exited $?"
"$BIN" --taxa=11 --sites=200 --seed=3 --resume="$WORK/run.ckpt" \
    > "$WORK/resume.log" 2>&1
status=$?
[ "$status" -eq 1 ] || fail "resume from another dataset exited $status, not 1"
grep -q "cannot resume" "$WORK/resume.log" || fail "no 'cannot resume' message"

"$BIN" "${COMMON[@]}" --chaos="chaos-plan v1 seed=7 drop=0.05" \
    > /dev/null 2>&1
status=$?
[ "$status" -eq 2 ] || fail "--chaos without --workers exited $status, not 2"

"$BIN" "$ROOT/data/sample24.phy" --seed=3 --quiet --workers=2 --timeout-ms=1 \
    --out="$WORK/hostile.out" > "$WORK/hostile.log" 2>&1 \
    || fail "--timeout-ms=1 run exited $?"
cmp "$WORK/hostile.out" "$ROOT/data/sample24_seed3.out" \
    || fail "--timeout-ms=1 result differs from data/sample24_seed3.out"
grep -q '^cluster: .* [1-9][0-9]* requeues' "$WORK/hostile.log" \
    || fail "--timeout-ms=1 run requeued nothing: $(grep '^cluster:' "$WORK/hostile.log")"

for backend in scalar sse2 avx2 avx512; do
  if ! FDML_SIMD=$backend "$BIN" --version \
      | grep -q "simd backend: $backend (active)"; then
    echo "test_cli: $backend backend not available, skipping its sample24 run"
    continue
  fi
  FDML_SIMD=$backend "$BIN" "$ROOT/data/sample24.phy" --seed=3 --quiet \
      --out="$WORK/sample24.$backend.out" > /dev/null \
      || fail "sample24 run on $backend exited $?"
  cmp "$WORK/sample24.$backend.out" "$ROOT/data/sample24_seed3.out" \
      || fail "sample24 seed 3 result on $backend differs from data/sample24_seed3.out"
done
echo "test_cli: ok"
