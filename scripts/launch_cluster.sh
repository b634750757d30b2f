#!/usr/bin/env bash
# Stands up one multi-process socket-transport run: spawns SIZE OS processes
# (rank 0 = master/hub, 1 = foreman, 2 = monitor, 3+ = workers), each the
# given BINARY with --transport=socket --rank=R --port=P --fabric-size=SIZE
# appended, and exits with rank 0's exit code.
#
#   scripts/launch_cluster.sh [options] -- BINARY [binary args...]
#
#   --size=N          total process count (default 6: 3 workers)
#   --port=P          hub TCP port (default: random in 20000..39999)
#   --logdir=DIR      per-rank stdout/stderr logs (default: a mktemp dir)
#   --kill-rank=R     kill -9 rank R after --kill-after seconds (fault drill)
#   --kill-after=S    delay before the kill (default 1)
#
# Examples:
#   scripts/launch_cluster.sh --size=6 -- \
#       build/apps/fastdnamlpp --taxa=12 --sites=300 --out=best.nwk
#   scripts/launch_cluster.sh --size=7 --kill-rank=4 --kill-after=2 -- \
#       build/apps/fastdnamlpp --taxa=16 --sites=500 --timeout-ms=5000
set -u

SIZE=6
PORT=$((20000 + RANDOM % 20000))
LOGDIR=""
KILL_RANK=""
KILL_AFTER=1

while [ $# -gt 0 ]; do
  case "$1" in
    --size=*)       SIZE="${1#*=}" ;;
    --size)         SIZE="$2"; shift ;;
    --port=*)       PORT="${1#*=}" ;;
    --port)         PORT="$2"; shift ;;
    --logdir=*)     LOGDIR="${1#*=}" ;;
    --logdir)       LOGDIR="$2"; shift ;;
    --kill-rank=*)  KILL_RANK="${1#*=}" ;;
    --kill-rank)    KILL_RANK="$2"; shift ;;
    --kill-after=*) KILL_AFTER="${1#*=}" ;;
    --kill-after)   KILL_AFTER="$2"; shift ;;
    --) shift; break ;;
    *) echo "launch_cluster.sh: unknown option $1" >&2; exit 2 ;;
  esac
  shift
done

if [ $# -lt 1 ]; then
  echo "usage: launch_cluster.sh [--size=N] [--port=P] [--logdir=DIR]" >&2
  echo "           [--kill-rank=R --kill-after=S] -- BINARY [args...]" >&2
  exit 2
fi
BINARY=$1
shift

if [ "$SIZE" -lt 4 ]; then
  echo "launch_cluster.sh: --size must be >= 4 (master+foreman+monitor+worker)" >&2
  exit 2
fi
if [ -z "$LOGDIR" ]; then
  LOGDIR=$(mktemp -d /tmp/fdml_cluster.XXXXXX)
fi
mkdir -p "$LOGDIR"

echo "launch_cluster: $SIZE processes on port $PORT, logs in $LOGDIR" >&2

# Each rank runs in its own session (= its own process group) via setsid,
# so a rank that forks helpers can still be reaped as a unit: killing the
# negated pid reaches the whole group, not just the direct child. Without
# this, a wedged rank 0 used to leave orphaned peer processes behind on CI.
declare -a PIDS
sweep() {
  # TERM the whole group of every rank, give them a moment, then KILL.
  for pid in "${PIDS[@]:-}"; do
    kill -TERM -- "-$pid" 2>/dev/null || kill -TERM "$pid" 2>/dev/null || true
  done
  for _ in 1 2 3 4 5; do
    local alive=0
    for pid in "${PIDS[@]:-}"; do
      kill -0 "$pid" 2>/dev/null && alive=1
    done
    [ "$alive" -eq 0 ] && break
    sleep 0.2
  done
  for pid in "${PIDS[@]:-}"; do
    kill -KILL -- "-$pid" 2>/dev/null || kill -KILL "$pid" 2>/dev/null || true
  done
}
trap sweep EXIT INT TERM

# Non-master ranks first (they retry the connect until the hub binds, so
# launch order does not actually matter — this just shortens rendezvous).
for ((r = 1; r < SIZE; ++r)); do
  setsid "$BINARY" "$@" --transport=socket --rank="$r" --port="$PORT" \
      --fabric-size="$SIZE" > "$LOGDIR/rank$r.log" 2>&1 &
  PIDS[$r]=$!
done

setsid "$BINARY" "$@" --transport=socket --rank=0 --port="$PORT" \
    --fabric-size="$SIZE" > "$LOGDIR/rank0.log" 2>&1 &
RANK0_PID=$!
PIDS[0]=$RANK0_PID

if [ -n "$KILL_RANK" ]; then
  (
    sleep "$KILL_AFTER"
    # The process may have finished already; a failed kill is not an error.
    # Direct -9 to the single pid: this is the fault drill, not cleanup.
    kill -9 "${PIDS[$KILL_RANK]}" 2>/dev/null || true
  ) &
fi

wait "$RANK0_PID"
STATUS=$?

if [ "$STATUS" -ne 0 ]; then
  # Rank 0 failed: do not wait politely for peers that may now never hear a
  # shutdown — reap every rank's process group immediately.
  echo "launch_cluster: rank 0 failed ($STATUS); sweeping peer groups" >&2
  sweep
else
  # Give the peers a moment to drain off the hub's EOF, then sweep them.
  for ((r = 1; r < SIZE; ++r)); do
    for _ in 1 2 3 4 5 6 7 8 9 10; do
      kill -0 "${PIDS[$r]}" 2>/dev/null || break
      sleep 0.2
    done
  done
  sweep
fi
trap - EXIT INT TERM

cat "$LOGDIR/rank0.log"
echo "launch_cluster: rank 0 exited $STATUS" >&2
exit $STATUS
