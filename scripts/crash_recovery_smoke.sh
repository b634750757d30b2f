#!/usr/bin/env bash
# Crash-recovery smoke test: kill -9 a checkpointed parallel search at a
# random moment, resume it, and require the resumed run to produce exactly
# the tree and likelihood of an uninterrupted run.
#
#   scripts/crash_recovery_smoke.sh [BINARY] [ITERATIONS]
#
# BINARY defaults to build/apps/fastdnamlpp, ITERATIONS to 10.
# Exit 0 = every kill/resume cycle converged to the reference result.
set -u

BINARY=${1:-build/apps/fastdnamlpp}
ITERATIONS=${2:-10}
TAXA=${TAXA:-16}
SITES=${SITES:-300}
SEED=${SEED:-3}
WORKERS=${WORKERS:-4}

if [[ ! -x "$BINARY" ]]; then
  echo "error: $BINARY not found or not executable" >&2
  exit 2
fi

WORKDIR=$(mktemp -d)
trap 'rm -rf "$WORKDIR"' EXIT

COMMON=(--workers="$WORKERS" --taxa="$TAXA" --sites="$SITES" --seed="$SEED")

echo "== reference run (uninterrupted) =="
"$BINARY" "${COMMON[@]}" --out="$WORKDIR/reference.out" >/dev/null || {
  echo "FAIL: reference run exited $?" >&2
  exit 1
}

# Time the reference so the kill lands somewhere inside the run, not after.
START=$(date +%s%N)
"$BINARY" "${COMMON[@]}" >/dev/null
REFERENCE_NS=$(( $(date +%s%N) - START ))
REFERENCE_MS=$(( REFERENCE_NS / 1000000 ))
echo "reference wall time: ${REFERENCE_MS} ms"

FAILURES=0
for i in $(seq 1 "$ITERATIONS"); do
  CKPT="$WORKDIR/run$i.ckpt"
  OUT="$WORKDIR/run$i.out"
  rm -f "$WORKDIR"/run"$i".ckpt*

  # Kill between 10% and 90% of the reference wall time (bash RANDOM is
  # fine here: the checkpoint machinery must cope with ANY kill point).
  KILL_MS=$(( REFERENCE_MS / 10 + RANDOM % (REFERENCE_MS * 8 / 10 + 1) ))

  "$BINARY" "${COMMON[@]}" --checkpoint="$CKPT" >/dev/null &
  PID=$!
  # Sleep in ms via the only portable trick: fractional seconds.
  sleep "$(printf '0%d.%03d' $(( KILL_MS / 1000 )) $(( KILL_MS % 1000 )))"
  if kill -9 "$PID" 2>/dev/null; then
    wait "$PID" 2>/dev/null
    STATE="killed at ${KILL_MS} ms"
  else
    wait "$PID" 2>/dev/null
    STATE="finished before the ${KILL_MS} ms kill"
  fi

  # A committed generation is <ckpt>.gen-<N>; a <ckpt>.gen-<N>.tmp staging
  # file left by a kill during the first commit is not one.
  if [[ -e "$CKPT" ]] || ls "$CKPT".gen-* 2>/dev/null | grep -qE '\.gen-[0-9]+$'; then
    "$BINARY" "${COMMON[@]}" --resume="$CKPT" --out="$OUT" >/dev/null || {
      echo "iteration $i: FAIL (resume exited $?; $STATE)"
      FAILURES=$(( FAILURES + 1 ))
      continue
    }
  else
    # Killed before the first checkpoint committed: a fresh run must still
    # reproduce the reference.
    "$BINARY" "${COMMON[@]}" --out="$OUT" >/dev/null || {
      echo "iteration $i: FAIL (rerun exited $?; $STATE)"
      FAILURES=$(( FAILURES + 1 ))
      continue
    }
  fi

  if cmp -s "$WORKDIR/reference.out" "$OUT"; then
    echo "iteration $i: OK ($STATE)"
  else
    echo "iteration $i: FAIL (result differs from reference; $STATE)"
    diff "$WORKDIR/reference.out" "$OUT" | head -4
    FAILURES=$(( FAILURES + 1 ))
  fi
done

if (( FAILURES > 0 )); then
  echo "crash-recovery smoke: $FAILURES/$ITERATIONS iterations FAILED"
  exit 1
fi
echo "crash-recovery smoke: all $ITERATIONS iterations recovered exactly"
