#!/usr/bin/env bash
# End-to-end checks of the fastdnamlpp command line; ctest passes the built
# program as $1.
#   * Serial and --workers=2 runs write byte-identical --out result files:
#     the Newick line, then the lnL line.
#   * --resume at a checkpoint of another dataset exits 1 with "cannot
#     resume" instead of aborting.
#   * --chaos without an in-process cluster exits 2 instead of running a
#     fault drill with nothing injected.
set -u

BIN=$1
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
echo "test_cli: ok"
