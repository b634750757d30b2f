#!/usr/bin/env bash
# Chaos soak for the fdmld service.
#
# Stands up a 6-rank socket deployment in which every non-master rank dials
# the hub through a seeded ChaosProxy (injected latency, byte corruption,
# mid-stream closes, and one transient partition), then pushes more
# concurrent jobs at the service than admission control will hold while a
# worker is kill -9'd and restarted mid-run.
#
# Passes iff:
#   * every admitted job completes with a tree bit-for-bit equal to the
#     serial reference for its seed (zero jobs lost),
#   * at least one submission is shed by admission control and the shed
#     count shows up in the hub's rank-0 series of a scrape and in the
#     drain summary,
#   * mid-run Prometheus scrapes (fdmld --mode=scrape) show live nonzero
#     kernel counters for every worker rank, the killed worker goes stale
#     within one telemetry window, and a later scrape shows monotonic
#     counters plus advancing per-job progress (check_metrics.py),
#   * the rotating --trace-dir segments stitch back into one valid
#     timeline (trace_report --stitch-out + check_trace.py),
#   * the SIGTERM'd service drains cleanly with zero jobs in flight.
#
#   scripts/service_soak.sh [BUILD_DIR]
set -u

BUILD_DIR=${1:-build}
FDMLD=$BUILD_DIR/apps/fdmld
FASTDNAMLPP=$BUILD_DIR/apps/fastdnamlpp
for program in "$FDMLD" "$FASTDNAMLPP"; do
  if [ ! -x "$program" ]; then
    echo "service_soak: $program not built" >&2
    exit 2
  fi
done

TAXA=16
SITES=400
SIZE=6
JOBS=13           # capacity is max_active=2 + max_queued=8, so >=3 shed
MAX_ACTIVE=2
MAX_QUEUED=8
VICTIM_RANK=4     # a worker (ranks 3+ are workers)
TELEMETRY_MS=250  # per-rank metric shipping period (stale after 2x this)
HUB_PORT=$((20000 + RANDOM % 10000))
PROXY_PORT=$((HUB_PORT + 10000))
SVC_PORT=$((HUB_PORT + 15000))
# Deterministic socket-layer fault plan: background latency/corruption/close
# chaos plus a 600 ms partition window that severs every rank from the hub.
PLAN="chaos-plan v1 seed=101 sock_latency=0.08 delay_min_ms=1 delay_max_ms=4"
PLAN="$PLAN sock_corrupt=0.0005 sock_close=0.001"
PLAN="$PLAN sock_partition_at_ms=4500 sock_partition_ms=600"

WORKDIR=$(mktemp -d /tmp/fdml_soak.XXXXXX)
echo "service_soak: hub=$HUB_PORT proxy=$PROXY_PORT service=$SVC_PORT workdir=$WORKDIR" >&2

declare -a PIDS
sweep() {
  for pid in "${PIDS[@]:-}"; do
    kill -TERM -- "-$pid" 2>/dev/null || kill -TERM "$pid" 2>/dev/null || true
  done
  sleep 0.5
  for pid in "${PIDS[@]:-}"; do
    kill -KILL -- "-$pid" 2>/dev/null || kill -KILL "$pid" 2>/dev/null || true
  done
}
trap sweep EXIT INT TERM

# A failure prints the foreman's log lines (rank 1 logs at info): each
# requeue, and each task sent out again with its worker and deadline, so a
# stalled round shows where its lost task went.
fail() {
  echo "service_soak: FAIL: $*" >&2
  if [ -f "$WORKDIR/rank1.log" ]; then
    echo "service_soak: foreman lines from rank 1:" >&2
    grep '] foreman: ' "$WORKDIR/rank1.log" >&2
  fi
  echo "service_soak: logs in $WORKDIR" >&2
  exit 1
}

# Poll a log file until a line matches (the service and proxy announce
# readiness on stdout), so launch order never races the first submission.
wait_for_line() {
  local file=$1 pattern=$2 deadline=$((SECONDS + ${3:-30}))
  while [ "$SECONDS" -lt "$deadline" ]; do
    grep -q "$pattern" "$file" 2>/dev/null && return 0
    sleep 0.2
  done
  return 1
}

# --- serial references, one per seed, before any chaos exists ------------
for ((i = 0; i < JOBS; ++i)); do
  seed=$((11 + i))
  "$FASTDNAMLPP" --taxa=$TAXA --sites=$SITES --seed=$seed --quiet \
      --out="$WORKDIR/ref$seed.nwk" > /dev/null \
      || fail "reference run for seed $seed"
done

# --- server: fabric hub + scheduler + service endpoint -------------------
setsid "$FDMLD" --mode=serve --port=$HUB_PORT --fabric-size=$SIZE \
    --service-port=$SVC_PORT --taxa=$TAXA --sites=$SITES \
    --max-active=$MAX_ACTIVE --max-queued=$MAX_QUEUED \
    --round-retries=4 --watchdog-ms=5000 \
    --telemetry-ms=$TELEMETRY_MS \
    --trace-dir="$WORKDIR/trace" --trace-segment-bytes=8192 \
    --trace-segments=4096 \
    --checkpoint-dir="$WORKDIR/ckpts" \
    > "$WORKDIR/serve.log" 2>&1 &
SERVE_PID=$!
PIDS+=("$SERVE_PID")

# --- chaos proxy between every non-master rank and the hub ---------------
setsid "$FDMLD" --mode=proxy --listen-port=$PROXY_PORT \
    --target-port=$HUB_PORT --chaos="$PLAN" \
    > "$WORKDIR/proxy.log" 2>&1 &
PIDS+=("$!")
wait_for_line "$WORKDIR/proxy.log" "chaos proxy ready" 10 \
    || fail "proxy never came up"

# --- the other ranks, reconnect-hardened, dialing through the proxy ------
# A rank is a fastdnamlpp socket rank; its default model (F84, ts/tv 2,
# uniform rates) is the one fdmld --mode=serve fixes.
role() {
  local rank=$1 log=$2 level=$3
  setsid "$FASTDNAMLPP" --transport=socket --rank=$rank --port=$PROXY_PORT \
      --fabric-size=$SIZE --taxa=$TAXA --sites=$SITES \
      --reconnect --reconnect-budget-ms=20000 --heartbeat-ms=250 \
      --telemetry-ms=$TELEMETRY_MS --log-level=$level \
      --timeout-ms=2000 > "$log" 2>&1 &
  echo $!
}
declare -a ROLE_PIDS
for ((r = 1; r < SIZE; ++r)); do
  level=warn
  [ "$r" -eq 1 ] && level=info  # the foreman, for fail()
  ROLE_PIDS[$r]=$(role "$r" "$WORKDIR/rank$r.log" "$level")
  PIDS+=("${ROLE_PIDS[$r]}")
done

wait_for_line "$WORKDIR/serve.log" "service ready" 30 \
    || fail "service never became ready (see serve.log)"

# --- submit a burst that overflows admission -----------------------------
declare -a SUBMIT_PIDS
for ((i = 0; i < JOBS; ++i)); do
  seed=$((11 + i))
  (
    "$FDMLD" --mode=submit --service-port=$SVC_PORT --seed=$seed \
        --taxa=$TAXA --sites=$SITES --wait-timeout-ms=120000 \
        --out="$WORKDIR/job$seed.nwk" > "$WORKDIR/submit$seed.log" 2>&1
    echo $? > "$WORKDIR/submit$seed.rc"
  ) &
  SUBMIT_PIDS+=("$!")
done

# --- telemetry drill 1: mid-soak scrape, all worker ranks live -----------
# Every worker rank must ship nonzero kernel counters once it has had a
# task, and per-job progress must be visible. Under the chaos plan a rank
# may get its first task several telemetry periods in, so scrape until every
# rank shows a series (at most ~10 s), then check that scrape in full.
SCRAPE_DEADLINE=$((SECONDS + 10))
while :; do
  "$FDMLD" --mode=scrape --service-port=$SVC_PORT \
      --out="$WORKDIR/scrape1.prom" || fail "mid-soak scrape 1"
  python3 scripts/check_metrics.py "$WORKDIR/scrape1.prom" \
      --require-worker-ranks 3,4,5 2> /dev/null && break
  [ "$SECONDS" -lt "$SCRAPE_DEADLINE" ] || break
  sleep 0.25
done
python3 scripts/check_metrics.py "$WORKDIR/scrape1.prom" \
    --require-worker-ranks 3,4,5 \
    || fail "scrape 1 rejected by check_metrics.py"

# --- fault drills while the jobs run -------------------------------------
# 1) kill -9 the victim worker; before reviving it, a scrape must show the
#    rank marked stale (dead ranks are flagged, never silently frozen).
#    Then restart it with the same rank; the foreman must walk it through
#    suspect -> probation -> healthy.
#    (The transient partition fires on the proxy's own clock, from PLAN.)
echo "service_soak: kill -9 worker rank $VICTIM_RANK" >&2
kill -9 "${ROLE_PIDS[$VICTIM_RANK]}" 2>/dev/null || true
sleep 1.2   # > stale_after (2 x telemetry period) before the scrape
"$FDMLD" --mode=scrape --service-port=$SVC_PORT \
    --out="$WORKDIR/scrape_stale.prom" || fail "stale-window scrape"
python3 scripts/check_metrics.py "$WORKDIR/scrape_stale.prom" \
    --require-stale-ranks $VICTIM_RANK \
    || fail "killed rank $VICTIM_RANK not marked stale in scrape"
ROLE_PIDS[$VICTIM_RANK]=$(role "$VICTIM_RANK" "$WORKDIR/rank${VICTIM_RANK}b.log" warn)
PIDS+=("${ROLE_PIDS[$VICTIM_RANK]}")

# --- telemetry drill 2: later scrape, counters monotonic, progress moves --
# A round stalled on the killed rank makes no progress until the master's
# 5 s watchdog trips and retries it, so scrape until the progress check
# accepts, with a deadline past that watchdog plus its first retry (12 s),
# then check that last scrape in full.
SCRAPE_DEADLINE=$((SECONDS + 12))
while :; do
  sleep 0.5
  "$FDMLD" --mode=scrape --service-port=$SVC_PORT \
      --out="$WORKDIR/scrape2.prom" || fail "mid-soak scrape 2"
  python3 scripts/check_metrics.py "$WORKDIR/scrape2.prom" \
      --advance-from "$WORKDIR/scrape1.prom" 2> /dev/null && break
  [ "$SECONDS" -lt "$SCRAPE_DEADLINE" ] || break
done
python3 scripts/check_metrics.py "$WORKDIR/scrape2.prom" \
    --advance-from "$WORKDIR/scrape1.prom" \
    || fail "scrape 2 rejected by check_metrics.py"

for pid in "${SUBMIT_PIDS[@]}"; do wait "$pid"; done

# --- tally: every job either completed correctly or was shed -------------
DONE=0
SHED=0
LOST=0
for ((i = 0; i < JOBS; ++i)); do
  seed=$((11 + i))
  rc=$(cat "$WORKDIR/submit$seed.rc" 2>/dev/null || echo 99)
  case "$rc" in
    0)
      cmp -s "$WORKDIR/job$seed.nwk" "$WORKDIR/ref$seed.nwk" \
          || fail "seed $seed tree differs from serial reference"
      DONE=$((DONE + 1)) ;;
    3) SHED=$((SHED + 1)) ;;
    *) echo "service_soak: seed $seed exit $rc" >&2; LOST=$((LOST + 1)) ;;
  esac
done
echo "service_soak: $DONE done (all bit-for-bit), $SHED shed, $LOST lost" >&2
[ "$LOST" -eq 0 ] || fail "$LOST jobs lost or failed"
[ "$DONE" -ge 8 ] || fail "only $DONE jobs completed (need >= 8)"
[ "$SHED" -ge 1 ] || fail "admission control never shed a job"

# --- live scrape: shed count visible, nothing still in flight ------------
metric() {  # metric FILE NAME -> the hub's NAME{rank="0"} value (0 if absent)
  local v
  v=$(grep -m 1 "^$2{rank=\"0\"} " "$1" | cut -d ' ' -f 2)
  echo "${v:-0}"
}
"$FDMLD" --mode=scrape --service-port=$SVC_PORT --out="$WORKDIR/final.prom" \
    || fail "final scrape"
REJECTED=$(metric "$WORKDIR/final.prom" fdml_service_jobs_rejected_full)
ACTIVE=$(metric "$WORKDIR/final.prom" fdml_service_jobs_active)
COMPLETED=$(metric "$WORKDIR/final.prom" fdml_service_jobs_completed)
echo "service_soak: scrape: completed=$COMPLETED rejected_full=$REJECTED active=$ACTIVE" >&2
[ "$REJECTED" -ge 1 ] || fail "metrics do not report the shed jobs"
[ "$COMPLETED" -eq "$DONE" ] || fail "metrics completed=$COMPLETED, submitters saw $DONE"

# --- graceful drain ------------------------------------------------------
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_STATUS=$?
DRAINED=$(grep -m 1 "drained;" "$WORKDIR/serve.log")
[ -n "$DRAINED" ] || fail "no drain line in serve.log"
[ "$SERVE_STATUS" -eq 0 ] || fail "serve exited $SERVE_STATUS (jobs in flight?)"
SHED_FINAL=$(echo "$DRAINED" | grep -o '[0-9]* shed' | cut -d ' ' -f 1)
[ "${SHED_FINAL:-0}" -ge 1 ] || fail "drain summary lost the shed count: $DRAINED"

# --- rotating trace segments stitch back into one valid timeline ---------
SEGMENTS=$(ls "$WORKDIR/trace"/segment-*.json 2>/dev/null | wc -l)
echo "service_soak: $SEGMENTS trace segment(s) in $WORKDIR/trace" >&2
[ "$SEGMENTS" -ge 2 ] || fail "expected >= 2 rotated trace segments, got $SEGMENTS"
"$BUILD_DIR/apps/trace_report" "$WORKDIR/trace" \
    --stitch-out="$WORKDIR/stitched.json" > "$WORKDIR/trace_report.txt" \
    || fail "trace_report could not stitch the segment directory"
python3 scripts/check_trace.py "$WORKDIR/stitched.json" \
    || fail "stitched trace rejected by check_trace.py"

sweep
trap - EXIT INT TERM
grep "chunks" "$WORKDIR/proxy.log" >&2 || true
echo "service_soak: PASS ($DONE jobs bit-for-bit, $SHED shed, clean drain)" >&2
exit 0
