#!/usr/bin/env bash
# Loopback smoke test of the remote-estimation binaries. A flag check comes
# first: fj_server --history-seconds -1 must exit 2 (usage) before it trains.
# Then four phases:
#
#  1. train-and-serve: start fj_server on an ephemeral port, connect
#     fj_client --verify from a second process, require bit-identical
#     estimates (the original remote-estimation acceptance check);
#
#  2. snapshot multi-model serving: train two differently configured
#     models with --save-model/--save-only, restart fj_server with two
#     --load-model entries (no retraining), and run fj_client --model X
#     --verify against each — proving a snapshot save/load round trip
#     and protocol-v2 model routing are bit-exact across processes.
#
#  3. observability: restart fj_server with --metrics-port 0, scrape
#     /metrics before and after a traced client run that also sends one
#     NotifyUpdate, and assert the expected metric families are present,
#     the request counters moved and the epoch and update counters read 1;
#     also checks /metrics.json and the fj_client --trace output.
#
#  4. health under overload: restart fj_server with an SLO spec, confirm
#     /healthz reports ok at idle, drive a burst of three parallel
#     fj_loadgen connections far past saturation, assert the health state
#     machine leaves ok and the /debug/traces flight dump is non-empty,
#     then wait for recovery back to ok once the burst drains. Skipped
#     when no fj_loadgen path is given.
#
# Registered as the ctest "net_smoke" test.
#
#   usage: net_smoke.sh <fj_server> <fj_client> [fj_loadgen] [snapshot-keep-path]
#
# When [snapshot-keep-path] is given, one of the phase-2 snapshot files is
# copied there (CI uploads it as a sample artifact).
set -euo pipefail

SERVER_BIN=${1:?usage: net_smoke.sh <fj_server> <fj_client> [fj_loadgen] [snapshot-keep-path]}
CLIENT_BIN=${2:?usage: net_smoke.sh <fj_server> <fj_client> [fj_loadgen] [snapshot-keep-path]}
LOADGEN_BIN=${3:-}
KEEP_SNAPSHOT=${4:-}

# Small IMDB-JOB-style workload (the acceptance scenario: cyclic templates,
# self joins, LIKE) — both sides must use identical flags so the client can
# rebuild the server's deterministic workload and model. BASE_FLAGS holds
# everything but the bin budget; phase 2 trains two models that differ only
# in --bins.
BASE_FLAGS=(--workload imdb --scale 0.05 --queries 3)
WORKLOAD_FLAGS=("${BASE_FLAGS[@]}" --bins 32)

WORKDIR=$(mktemp -d)
SERVER_LOG="$WORKDIR/server.log"
SERVER_PID=""

cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

# Starts $SERVER_BIN with the given args, waits for the startup line, and
# sets PORT to the resolved ephemeral port.
start_server() {
  : > "$SERVER_LOG"
  "$SERVER_BIN" "$@" --port 0 > "$SERVER_LOG" 2>&1 &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 600); do
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "net_smoke: server exited early:" >&2
      cat "$SERVER_LOG" >&2
      exit 1
    fi
    PORT=$(sed -n 's/^fj_server: listening on .*:\([0-9]\{1,\}\)$/\1/p' "$SERVER_LOG" | head -n1)
    [[ -n "$PORT" ]] && break
    sleep 0.1
  done
  if [[ -z "$PORT" ]]; then
    echo "net_smoke: server never reported a listening port:" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
  echo "net_smoke: server (pid $SERVER_PID) listening on port $PORT"
}

stop_server() {
  kill "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
  echo "net_smoke: server log:"
  cat "$SERVER_LOG"
}

# ------------------------------------------------------------- flag check
# A negative count is a usage error: exit 2 before any training.
STATUS=0
"$SERVER_BIN" "${WORKLOAD_FLAGS[@]}" --port 0 --history-seconds -1 \
  > "$SERVER_LOG" 2>&1 || STATUS=$?
if [[ $STATUS -ne 2 ]] || grep -q "^fj_server: trained" "$SERVER_LOG"; then
  echo "net_smoke: --history-seconds -1 exited $STATUS, want 2:" >&2
  cat "$SERVER_LOG" >&2; exit 1
fi
echo "net_smoke: flag check (--history-seconds -1 exits 2) OK"

# ---------------------------------------------------------- phase 1: train
start_server "${WORKLOAD_FLAGS[@]}"
"$CLIENT_BIN" "${WORKLOAD_FLAGS[@]}" --port "$PORT" --verify
stop_server
echo "net_smoke: phase 1 (train-and-serve verify) OK"

# ------------------------------------------------------- phase 2: snapshot
# Train two models with different bin budgets and persist them; --save-only
# exits without serving (the "trainer job" mode).
SNAP32="$WORKDIR/imdb_bins32.fjsnap"
SNAP48="$WORKDIR/imdb_bins48.fjsnap"
"$SERVER_BIN" "${BASE_FLAGS[@]}" --bins 32 --save-model "$SNAP32" --save-only
"$SERVER_BIN" "${BASE_FLAGS[@]}" --bins 48 --save-model "$SNAP48" --save-only
for f in "$SNAP32" "$SNAP48"; do
  [[ -s "$f" ]] || { echo "net_smoke: snapshot $f missing/empty" >&2; exit 1; }
done
if [[ -n "$KEEP_SNAPSHOT" ]]; then
  cp "$SNAP32" "$KEEP_SNAPSHOT"
  echo "net_smoke: kept sample snapshot at $KEEP_SNAPSHOT"
fi

# One restarted server, two loaded models, no retraining. Each model is
# then verified bit-for-bit by a client that trains the matching
# configuration locally — the cross-process snapshot acceptance check.
start_server "${BASE_FLAGS[@]}" \
  --load-model "m32=$SNAP32" --load-model "m48=$SNAP48"
grep -q "loaded model m32" "$SERVER_LOG" || {
  echo "net_smoke: server did not report loading m32" >&2; exit 1; }
"$CLIENT_BIN" "${BASE_FLAGS[@]}" --bins 32 --port "$PORT" --model m32 --verify
"$CLIENT_BIN" "${BASE_FLAGS[@]}" --bins 48 --port "$PORT" --model m48 --verify
stop_server
echo "net_smoke: phase 2 (snapshot save/load + multi-model verify) OK"

# Waits for the "metrics on" startup line and sets METRICS_URL.
resolve_metrics_url() {
  METRICS_URL=""
  for _ in $(seq 1 100); do
    METRICS_URL=$(sed -n 's#^fj_server: metrics on \(http://[^ ]*\)$#\1#p' "$SERVER_LOG" | head -n1)
    [[ -n "$METRICS_URL" ]] && break
    sleep 0.1
  done
  if [[ -z "$METRICS_URL" ]]; then
    echo "net_smoke: server never reported a metrics URL:" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
  echo "net_smoke: metrics endpoint at $METRICS_URL"
}

# -------------------------------------------------- phase 3: observability
start_server "${WORKLOAD_FLAGS[@]}" --metrics-port 0 --slow-log-micros 1
resolve_metrics_url

BEFORE="$WORKDIR/metrics_before.txt"
AFTER="$WORKDIR/metrics_after.txt"
curl -sSf "$METRICS_URL" > "$BEFORE"

# The scrape must carry the core metric families, with the per-model label.
for name in \
  'fj_subplan_requests_total{model="default"}' \
  'fj_cache_hits_total{model="default"}' \
  'fj_request_latency_micros_bucket' \
  'fj_request_latency_micros_count' \
  'fj_server_connections_accepted_total' \
  'fj_server_bytes_received_total'; do
  grep -qF "$name" "$BEFORE" || {
    echo "net_smoke: metric '$name' missing from scrape:" >&2
    cat "$BEFORE" >&2
    exit 1
  }
done

# A traced client run: the --trace breakdown must come back, and the slow
# log (threshold 1us) must emit at least one line into the server log. The
# run also sends one NotifyUpdate through the binaries.
CLIENT_OUT="$WORKDIR/client_trace.log"
"$CLIENT_BIN" "${WORKLOAD_FLAGS[@]}" --port "$PORT" --trace --update title \
  | tee "$CLIENT_OUT"
grep -q "fj_client: trace: remote request total=" "$CLIENT_OUT" || {
  echo "net_smoke: client --trace printed no remote breakdown" >&2; exit 1; }

curl -sSf "$METRICS_URL" > "$AFTER"

# Counters must have moved across the client run.
metric_value() {  # metric_value <file> <exact-series-prefix>
  awk -v m="$2" 'index($0, m) == 1 { print $NF; exit }' "$1"
}
SUBPLANS_BEFORE=$(metric_value "$BEFORE" 'fj_subplan_requests_total{model="default"}')
SUBPLANS_AFTER=$(metric_value "$AFTER" 'fj_subplan_requests_total{model="default"}')
if ! awk -v a="$SUBPLANS_BEFORE" -v b="$SUBPLANS_AFTER" \
    'BEGIN { exit !(b > a) }'; then
  echo "net_smoke: fj_subplan_requests_total did not advance" \
       "($SUBPLANS_BEFORE -> $SUBPLANS_AFTER)" >&2
  exit 1
fi
# The one NotifyUpdate moved the epoch, which the update counter reads.
for series in 'fj_epoch{model="default"}' \
    'fj_updates_notified_total{model="default"}'; do
  VALUE=$(metric_value "$AFTER" "$series")
  if ! awk -v v="$VALUE" 'BEGIN { exit !(v != "" && v + 0 == 1) }'; then
    echo "net_smoke: $series is '$VALUE' after one NotifyUpdate, want 1" >&2
    cat "$AFTER" >&2
    exit 1
  fi
done
grep -qF 'fj_slow_suppressed_total{model="default"}' "$AFTER" || {
  echo "net_smoke: fj_slow_suppressed_total missing from scrape:" >&2
  cat "$AFTER" >&2
  exit 1
}
# Tracing was requested, so per-stage histograms must now be populated.
grep -qF 'fj_stage_latency_micros_count{model="default",stage="estimate"}' "$AFTER" || {
  echo "net_smoke: per-stage histogram missing after traced run:" >&2
  cat "$AFTER" >&2
  exit 1
}

# The JSON view must be non-empty and mention the same family.
curl -sSf "${METRICS_URL%/metrics}/metrics.json" | grep -qF '"fj_subplan_requests_total"' || {
  echo "net_smoke: /metrics.json missing fj_subplan_requests_total" >&2
  exit 1
}

stop_server
grep -q "fj_slow_request" "$SERVER_LOG" || {
  echo "net_smoke: no fj_slow_request line in server log" >&2; exit 1; }
echo "net_smoke: phase 3 (metrics endpoint + trace + slow log) OK"

# --------------------------------------- phase 4: health under overload
if [[ -z "$LOADGEN_BIN" ]]; then
  echo "net_smoke: no fj_loadgen path given; skipping phase 4"
else
  # Two workers keep the capacity low enough that the burst below is far
  # past saturation on any machine; the SLO spec arms the burn-rate gauges.
  start_server "${WORKLOAD_FLAGS[@]}" --metrics-port 0 --threads 2 \
    --slo p99=5ms,avail=99.9
  resolve_metrics_url
  BASE_URL="${METRICS_URL%/metrics}"

  # Idle server: healthy, HTTP 200.
  HEALTH=$(curl -sSf "$BASE_URL/healthz")
  grep -q '"state":"ok"' <<<"$HEALTH" || {
    echo "net_smoke: idle /healthz not ok: $HEALTH" >&2; exit 1; }

  # Burst far past capacity: open-loop constant schedules at 200k req/s
  # each, over three connections. One connection is bound by the server's
  # one reader thread per connection and may never fill the queue; three
  # readers outrun the two workers, so the service queue fills (queue
  # occupancy >= 0.9) and queue waits blow past the overload bar, and the
  # monitor must leave ok within a few of its 1s ticks.
  LOADGEN_PIDS=()
  for i in 1 2 3; do
    "$LOADGEN_BIN" "${WORKLOAD_FLAGS[@]}" --port "$PORT" --remote \
      --schedule const:200000 --ops 100000 > "$WORKDIR/loadgen$i.log" 2>&1 &
    LOADGEN_PIDS+=($!)
  done
  burst_running() {
    local pid
    for pid in "${LOADGEN_PIDS[@]}"; do
      if kill -0 "$pid" 2>/dev/null; then return 0; fi
    done
    return 1
  }
  # /healthz answers 503 while overloaded, so its body is read whatever the
  # status (no -f): the monitor can go from ok straight to overloaded.
  left_ok() { grep -qE '"state":"(degraded|overloaded)"' <<<"$1"; }
  NONOK=""
  for _ in $(seq 1 300); do
    H=$(curl -s "$BASE_URL/healthz" || true)
    if left_ok "$H"; then
      NONOK="$H"
      break
    fi
    if ! burst_running; then
      # Burst already drained; one last look before giving up.
      H=$(curl -s "$BASE_URL/healthz" || true)
      if left_ok "$H"; then NONOK="$H"; fi
      break
    fi
    sleep 0.1
  done
  if [[ -z "$NONOK" ]]; then
    echo "net_smoke: health never left ok under a 3 x 200k req/s burst" >&2
    cat "$WORKDIR"/loadgen*.log >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi
  echo "net_smoke: health under burst: $NONOK"

  # Fetch with a few retries: the metrics listener is single-threaded and
  # a probe can land while it is mid-response to another scrape.
  fetch() {
    local url=$1 out=$2
    for _ in 1 2 3 4 5; do
      if curl -sf "$url" > "$out"; then return 0; fi
      sleep 0.2
    done
    echo "net_smoke: could not fetch $url" >&2
    return 1
  }

  # The flight recorder must hold what was on the floor during the burst.
  fetch "$BASE_URL/debug/traces" "$WORKDIR/traces.json"
  grep -q '"recent":\[{' "$WORKDIR/traces.json" || {
    echo "net_smoke: /debug/traces empty after the burst:" >&2
    cat "$WORKDIR/traces.json" >&2
    exit 1
  }
  grep -q '"dominant_stage"' "$WORKDIR/traces.json" || {
    echo "net_smoke: flight dump lacks dominant_stage:" >&2
    cat "$WORKDIR/traces.json" >&2
    exit 1
  }
  # The time-series ring must have windows by now.
  fetch "$BASE_URL/metrics/history" "$WORKDIR/history.json"
  grep -q '"windows":\[{' "$WORKDIR/history.json" || {
    echo "net_smoke: /metrics/history has no windows" >&2; exit 1; }
  # The SLO gauges must be exported once a spec is armed.
  fetch "$METRICS_URL" "$WORKDIR/scrape.txt"
  grep -q 'fj_slo_fast_burn' "$WORKDIR/scrape.txt" || {
    echo "net_smoke: fj_slo_fast_burn missing from scrape" >&2; exit 1; }

  for i in 1 2 3; do
    wait "${LOADGEN_PIDS[$((i - 1))]}" || {
      echo "net_smoke: fj_loadgen burst $i failed:" >&2
      cat "$WORKDIR/loadgen$i.log" >&2
      exit 1
    }
  done

  # Recovery: with the burst drained, de-escalation (5 clean ticks per
  # level) brings the state back to ok within ~15s; the budget is 60s to
  # absorb slow machines and parallel-ctest contention.
  RECOVERED=""
  for _ in $(seq 1 600); do
    H=$(curl -sf "$BASE_URL/healthz" || true)
    if grep -q '"state":"ok"' <<<"$H"; then RECOVERED=1; break; fi
    sleep 0.1
  done
  if [[ -z "$RECOVERED" ]]; then
    echo "net_smoke: health never recovered to ok after the burst" >&2
    cat "$SERVER_LOG" >&2
    exit 1
  fi

  stop_server
  grep -q "fj_server: health ok ->" "$SERVER_LOG" || {
    echo "net_smoke: no health transition line in server log" >&2; exit 1; }
  echo "net_smoke: phase 4 (healthz + overload burst + flight dump + recovery) OK"
fi
echo "net_smoke: OK"
