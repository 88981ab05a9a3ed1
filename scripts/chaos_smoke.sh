#!/usr/bin/env bash
# Chaos drill for the resilience layer, used by the CI `chaos` job and
# runnable locally: starts qre_serve with fault-injection failpoints armed
# (build with -DQRE_FAILPOINTS=ON, the default), hammers the endpoint
# surface while errors, delays, and cancellations fire, then proves the
# invariants that matter:
#
#   - the daemon never crashes (healthz answers throughout),
#   - requestsTotal stays monotone across probes,
#   - a DELETE on a running job reaches the terminal "cancelled" state,
#   - a crash failpoint between temp-write and rename kills the process
#     but leaves the persistent store fully readable (corruptRecords == 0),
#   - a clean restart over the same store serves again and drains with
#     exit 0,
#   - a 100 KB run of '[' is a 400 invalid-json, not a crash: the parser's
#     nesting cap holds on the live daemon.
#
# usage: scripts/chaos_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR=${1:-build}
REPO_DIR=$(cd "$(dirname "$0")/.." && pwd)
SERVE="$REPO_DIR/$BUILD_DIR/qre_serve"
CLI="$REPO_DIR/$BUILD_DIR/qre_cli"
JOB="$REPO_DIR/examples/fig4_sweep_job.json"
WORK_DIR=$(mktemp -d)
SERVER_PID=""

cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill -KILL "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# curl with retries: the read-fault failpoint intentionally drops a slice
# of connections, so any single probe may fail without meaning anything.
# All the retried requests here are idempotent or safely repeatable.
rcurl() {
  local attempt
  for attempt in $(seq 1 10); do
    if curl -fsS --max-time 30 "$@" 2>/dev/null; then
      return 0
    fi
    sleep 0.1
  done
  echo "rcurl: giving up after 10 attempts: $*" >&2
  return 1
}

start_server() {  # start_server <port-file> [extra args...]
  local port_file=$1
  shift
  "$SERVE" --port 0 --port-file "$port_file" --job-workers 1 \
    --cache-dir "$CACHE_DIR" "$@" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || fail "qre_serve died during startup"
    sleep 0.1
  done
  [[ -s "$port_file" ]] || fail "port file never appeared"
  BASE="http://127.0.0.1:$(cat "$port_file")"
}

stop_server() {  # graceful TERM, exit must be 0
  kill -TERM "$SERVER_PID"
  for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
  done
  if wait "$SERVER_PID"; then
    SERVER_PID=""
  else
    fail "qre_serve exited non-zero after SIGTERM"
  fi
}

[[ -x "$SERVE" ]] || fail "$SERVE not built"
[[ -x "$CLI" ]] || fail "$CLI not built"

if ! "$SERVE" --help | grep -q -- '--failpoints'; then
  fail "qre_serve lacks --failpoints (built from an old tree?)"
fi

CACHE_DIR="$WORK_DIR/cache"

# --- leg 1: error + delay injection under load ----------------------------
# A quarter of estimate evaluations throw, every store persist stalls a
# little, and connection reads occasionally fail. The daemon must shrug all
# of it off: errors isolate per item, broken connections close cleanly.
start_server "$WORK_DIR/port1" --failpoints \
  'engine.evaluate.before=25%error;store.persist.before_write=delay(10);server.conn.before_read=5%error'
echo "chaos: serving at $BASE with error/delay schedule"

rcurl "$BASE/healthz" | jq -e '.status == "ok"' > /dev/null || fail "healthz (pre)"

PREV_TOTAL=0
for round in $(seq 1 6); do
  # Sync estimates: 4xx/5xx-free transport is NOT guaranteed per request
  # (injected read faults drop connections), so retry-loop with curl's
  # non-fatal mode and only require overall progress.
  curl -sS -X POST --data-binary "@$JOB" "$BASE/v2/estimate" > /dev/null 2>&1 || true
  # Async submit + poll to a terminal state (failed is fine — 25% of items
  # throw — crashed or stuck is not).
  ID=$(curl -sS -X POST --data-binary "@$JOB" "$BASE/v2/jobs" | jq -er '.id' 2>/dev/null) \
    || ID=""
  if [[ -n "$ID" ]]; then
    for _ in $(seq 1 200); do
      STATE=$(curl -sS "$BASE/v2/jobs/$ID" | jq -er '.status' 2>/dev/null) || STATE=""
      case "$STATE" in succeeded|failed|cancelled) break ;; esac
      sleep 0.1
    done
    case "$STATE" in
      succeeded|failed|cancelled) ;;
      *) fail "async job $ID never reached a terminal state (last: '$STATE')" ;;
    esac
  fi

  kill -0 "$SERVER_PID" 2>/dev/null || fail "qre_serve crashed during round $round"
  TOTAL=$(rcurl "$BASE/metrics" | jq -er '.server.requestsTotal') \
    || fail "metrics unreadable in round $round"
  [[ "$TOTAL" -ge "$PREV_TOTAL" ]] || fail "requestsTotal went backwards ($PREV_TOTAL -> $TOTAL)"
  PREV_TOTAL=$TOTAL
done

rcurl "$BASE/metrics" | jq -e '.failpoints.triggered | length >= 1' > /dev/null \
  || fail "no failpoint ever triggered — schedule not armed?"

# --- leg 2: cancel a running job mid-sweep --------------------------------
# Re-arm over the live process is not possible (failpoints arm at startup),
# but the delay schedule already makes sweeps slow enough to catch running.
ID=$(rcurl -X POST --data-binary "@$JOB" "$BASE/v2/jobs" | jq -er '.id') \
  || fail "cancel-drill submit"
for _ in $(seq 1 100); do
  STATE=$(rcurl "$BASE/v2/jobs/$ID" | jq -er '.status') || STATE=""
  [[ -n "$STATE" && "$STATE" != "queued" ]] && break
  sleep 0.05
done
CODE=$(curl -sS -o "$WORK_DIR/cancel.json" -w '%{http_code}' -X DELETE "$BASE/v2/jobs/$ID")
case "$CODE" in
  200|202) ;;  # queued-cancel or running-cancel, both fine
  409) ;;      # the job beat us to a terminal state — acceptable in chaos
  *) fail "DELETE /v2/jobs/$ID answered HTTP $CODE" ;;
esac
if [[ "$CODE" == "200" || "$CODE" == "202" ]]; then
  for _ in $(seq 1 200); do
    STATE=$(rcurl "$BASE/v2/jobs/$ID" | jq -er '.status') || STATE=""
    [[ "$STATE" == "cancelled" ]] && break
    sleep 0.05
  done
  [[ "$STATE" == "cancelled" ]] || fail "cancelled job stuck in '$STATE'"
fi

stop_server
echo "chaos: error/delay leg survived; store at $CACHE_DIR"

# --- leg 3: crash between temp-write and rename ---------------------------
# Seed a fresh dir with the leg-1 snapshot, then run a batch the store has
# never seen: the new records make the persist dirty, the armed crash kills
# the process (exit 42) mid-persist, and the seeded snapshot must survive
# byte-identical.
[[ -s "$CACHE_DIR/estimates.qrestore" ]] || fail "no store snapshot after leg 1"
CRASH_DIR="$WORK_DIR/crash-cache"
mkdir -p "$CRASH_DIR"
cp "$CACHE_DIR/estimates.qrestore" "$CRASH_DIR/estimates.qrestore"
cp "$CACHE_DIR/estimates.qrestore" "$WORK_DIR/before_crash.qrestore"
cat > "$WORK_DIR/crash_job.json" <<'EOF'
{
  "schemaVersion": 2,
  "logicalCounts": {"numQubits": 12, "tCount": 500},
  "qubitParams": {"name": "qubit_gate_ns_e3"},
  "items": [
    {"errorBudget": 0.01},
    {"errorBudget": 0.001}
  ]
}
EOF

set +e
QRE_FAILPOINTS='store.persist.before_rename=crash' \
  "$CLI" --cache-dir "$CRASH_DIR" "$WORK_DIR/crash_job.json" > /dev/null 2>&1
CRASH_EXIT=$?
set -e
[[ "$CRASH_EXIT" == "42" ]] \
  || fail "crash failpoint did not fire (exit $CRASH_EXIT, expected 42)"

cmp -s "$CRASH_DIR/estimates.qrestore" "$WORK_DIR/before_crash.qrestore" \
  || fail "crash mutated the live snapshot"
"$CLI" store info "$CRASH_DIR/estimates.qrestore" \
  | jq -e '.corruptRecords == 0 and .records >= 1' > /dev/null \
  || fail "store corrupt after crash drill"

# --- leg 4: clean restart over the survived store -------------------------
start_server "$WORK_DIR/port2"
echo "chaos: restarted cleanly at $BASE"
curl -fsS "$BASE/healthz" | jq -e '.status == "ok"' > /dev/null || fail "healthz (restart)"
curl -fsS "$BASE/metrics" | jq -e '.store.enabled == true and .store.loaded >= 1' \
  > /dev/null || fail "restart did not load the survived store"
STATUS=$(curl -sS -o /dev/null -w '%{http_code}' \
              -X POST --data-binary "@$JOB" "$BASE/v2/estimate")
[[ "$STATUS" == "200" ]] || fail "estimate after restart returned HTTP $STATUS"

# --- leg 5: deep nesting ---------------------------------------------------
# Without the parser's depth cap, 100 KB of '[' would recurse off the
# stack; with it the body must get a structured 400 and leave the daemon up.
head -c 102400 /dev/zero | tr '\0' '[' > "$WORK_DIR/deep.json"
STATUS=$(curl -sS -o "$WORK_DIR/deep_response.json" -w '%{http_code}' \
              -X POST --data-binary "@$WORK_DIR/deep.json" "$BASE/v2/estimate") \
  || fail "deep-nesting POST got no response (daemon crashed?)"
[[ "$STATUS" == "400" ]] || fail "deep-nesting POST returned HTTP $STATUS, expected 400"
jq -e '.error.code == "invalid-json"' "$WORK_DIR/deep_response.json" > /dev/null \
  || fail "deep-nesting POST did not answer invalid-json"
kill -0 "$SERVER_PID" 2>/dev/null || fail "qre_serve died on the deep-nesting body"
curl -fsS "$BASE/healthz" | jq -e '.status == "ok"' > /dev/null || fail "healthz (deep nesting)"
stop_server

echo "chaos: OK"
