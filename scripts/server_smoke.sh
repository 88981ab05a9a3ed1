#!/usr/bin/env bash
# End-to-end smoke test of the qre_serve daemon, used by CI and runnable
# locally: starts the server on an ephemeral port, exercises the endpoint
# surface with curl (health, version, profiles, validate, sync estimate of
# the checked-in Figure 4 sweep, the same sweep from 4 concurrent clients,
# a sweep the plan composes no input for against the same grid as an items
# batch, async job lifecycle, NDJSON streaming, metrics), then checks that SIGTERM drains gracefully with exit code 0.
#
# usage: scripts/server_smoke.sh [build-dir]   (default: build)
#
# The observability surface is part of the contract: the first daemon runs
# with --trace-file and --access-log, and the script asserts the Prometheus
# exposition parses, X-Request-Id round-trips into the access log, GET
# /v2/trace exports spans, and the drain writes a loadable trace file.
#
# The last leg restarts the daemon against the same --cache-dir and checks
# that every previously seen job is answered from the persistent store:
# byte-identical response, zero raw estimates in the fresh process.
set -euo pipefail

BUILD_DIR=${1:-build}
REPO_DIR=$(cd "$(dirname "$0")/.." && pwd)
SERVE="$REPO_DIR/$BUILD_DIR/qre_serve"
CLI="$REPO_DIR/$BUILD_DIR/qre_cli"
JOB="$REPO_DIR/examples/fig4_sweep_job.json"
FRONTIER_JOB="$REPO_DIR/examples/frontier_job.json"
WORK_DIR=$(mktemp -d)
PORT_FILE="$WORK_DIR/port"
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

[[ -x "$SERVE" ]] || fail "$SERVE not built"
[[ -x "$CLI" ]] || fail "$CLI not built"

CACHE_DIR="$WORK_DIR/cache"
TRACE_FILE="$WORK_DIR/trace.json"
ACCESS_LOG="$WORK_DIR/access.log"
"$SERVE" --port 0 --port-file "$PORT_FILE" --job-workers 1 --jobs 4 --cache-dir "$CACHE_DIR" \
         --trace-file "$TRACE_FILE" --access-log "$ACCESS_LOG" &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "qre_serve died during startup"
  sleep 0.1
done
[[ -s "$PORT_FILE" ]] || fail "port file never appeared"
BASE="http://127.0.0.1:$(cat "$PORT_FILE")"
echo "smoke: serving at $BASE"

# --- probes ---------------------------------------------------------------
curl -fsS "$BASE/healthz" | jq -e '.status == "ok"' > /dev/null || fail "healthz"
curl -fsS "$BASE/version" | jq -e '.schemaVersion == 2 and (.version | length > 0)' \
  > /dev/null || fail "version"
curl -fsS "$BASE/v2/profiles" | jq -e '.qubitParams | length >= 6' > /dev/null \
  || fail "profiles"

# --- validate + sync estimate of the Figure 4 sweep ---------------------
# A sweep caches a grid point only when it misses it a second time, so
# this first sweep fills the store but not the cache, and the concurrent
# repeats below cache each of its 18 points once.
cache_size() { curl -fsS "$BASE/metrics" | jq -e '.estimateCache.size'; }
SIZE_BEFORE_SWEEPS=$(cache_size) || fail "metrics before the sweeps"
curl -fsS -X POST --data-binary "@$JOB" "$BASE/v2/validate" \
  | jq -e '.valid == true' > /dev/null || fail "validate"
STATUS=$(curl -sS -o "$WORK_DIR/estimate.json" -w '%{http_code}' \
              -X POST --data-binary "@$JOB" "$BASE/v2/estimate")
[[ "$STATUS" == "200" ]] || fail "estimate returned HTTP $STATUS"
jq -e '.success == true and (.result.results | length == 18)' \
  "$WORK_DIR/estimate.json" > /dev/null || fail "estimate payload"
SIZE_AFTER_SWEEP=$(cache_size) || fail "metrics after the sweep"
[[ "$SIZE_AFTER_SWEEP" == "$SIZE_BEFORE_SWEEPS" ]] \
  || fail "a first sweep grew the estimate cache from $SIZE_BEFORE_SWEEPS to $SIZE_AFTER_SWEEP entries"

# --- concurrent sweeps on one daemon share the batch worker pool ----------
jq -c '.result.results' "$WORK_DIR/estimate.json" > "$WORK_DIR/results.json"
CLIENT_PIDS=()
for c in 1 2 3 4; do
  curl -fsS -o "$WORK_DIR/concurrent$c.json" -X POST --data-binary "@$JOB" \
       "$BASE/v2/estimate" &
  CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid" || fail "concurrent estimate request"
done
for c in 1 2 3 4; do
  jq -c '.result.results' "$WORK_DIR/concurrent$c.json" | cmp -s - "$WORK_DIR/results.json" \
    || fail "concurrent sweep $c differs from the single request"
done
SIZE_AFTER_SWEEPS=$(cache_size) || fail "metrics after the sweeps"
[[ "$SIZE_AFTER_SWEEPS" == "$((SIZE_BEFORE_SWEEPS + 18))" ]] \
  || fail "repeated sweeps grew the estimate cache from $SIZE_BEFORE_SWEEPS to $SIZE_AFTER_SWEEPS entries, not by 18"

# --- a sweep the plan composes no input for ------------------------------
# A qecScheme axis is outside the sections the sweep plan composes, so every
# item runs the per-item runner on its on-demand document. The results must
# equal the same grid posted as an items batch (built with qre_cli --sweep)
# and run by a fresh qre_cli process without a cache.
cat > "$WORK_DIR/uncomposed.json" <<'EOF'
{"logicalCounts": {"numQubits": 20, "tCount": 5000},
 "sweep": {"qecScheme.maxCodeDistance": [25, 51], "errorBudget": [0.001, 0.01]}}
EOF
"$CLI" --sweep "$WORK_DIR/uncomposed.json" | jq -cs '{items: .}' \
  > "$WORK_DIR/uncomposed_items.json" || fail "qre_cli --sweep"
curl -fsS -X POST --data-binary "@$WORK_DIR/uncomposed.json" "$BASE/v2/estimate" \
  > "$WORK_DIR/uncomposed_sweep.json" || fail "uncomposed sweep request"
jq -e '.success == true and (.result.results | length == 4)
       and (.result.batchStats | has("batchKernel") | not)' \
  "$WORK_DIR/uncomposed_sweep.json" > /dev/null || fail "uncomposed sweep payload"
curl -fsS -X POST --data-binary "@$WORK_DIR/uncomposed_items.json" "$BASE/v2/estimate" \
  | jq -c '.result.results' > "$WORK_DIR/uncomposed_items_results.json" \
  || fail "items batch request"
jq -c '.result.results' "$WORK_DIR/uncomposed_sweep.json" \
  | cmp -s - "$WORK_DIR/uncomposed_items_results.json" \
  || fail "uncomposed sweep differs from the same grid as an items batch"
"$CLI" --no-cache "$WORK_DIR/uncomposed_items.json" | jq -c '.results' \
  | cmp -s - "$WORK_DIR/uncomposed_items_results.json" \
  || fail "uncomposed sweep differs from qre_cli on the items batch"

# --- frontier job kind (sync + NDJSON probe stream) -----------------------
STATUS=$(curl -sS -o "$WORK_DIR/frontier.json" -w '%{http_code}' \
              -X POST --data-binary "@$FRONTIER_JOB" "$BASE/v2/estimate")
[[ "$STATUS" == "200" ]] || fail "frontier estimate returned HTTP $STATUS"
jq -e '.success == true and (.result.frontier | length >= 3)
       and (.result.frontierStats.numProbes >= 3)' \
  "$WORK_DIR/frontier.json" > /dev/null || fail "frontier payload"
curl -fsS -X POST -H 'Accept: application/x-ndjson' --data-binary "@$FRONTIER_JOB" \
     "$BASE/v2/estimate" > "$WORK_DIR/frontier.ndjson" || fail "frontier ndjson"
head -n 1 "$WORK_DIR/frontier.ndjson" | jq -e '.item == 0 and (.result.result != null)' \
  > /dev/null || fail "frontier probe stream"
tail -n 1 "$WORK_DIR/frontier.ndjson" | jq -e '.frontierStats.numPoints >= 3' \
  > /dev/null || fail "frontier stats line"

# --- async job lifecycle --------------------------------------------------
JOB_ID=$(curl -fsS -X POST --data-binary "@$JOB" "$BASE/v2/jobs" | jq -er '.id') \
  || fail "submit"
for _ in $(seq 1 300); do
  STATE=$(curl -fsS "$BASE/v2/jobs/$JOB_ID" | jq -er '.status')
  [[ "$STATE" != "queued" && "$STATE" != "running" ]] && break
  sleep 0.1
done
[[ "$STATE" == "succeeded" ]] || fail "async job ended as '$STATE'"
curl -fsS "$BASE/v2/jobs/$JOB_ID" | jq -e '.response.success == true' > /dev/null \
  || fail "async job payload"

# --- NDJSON streaming -----------------------------------------------------
curl -fsS -X POST -H 'Accept: application/x-ndjson' --data-binary "@$JOB" \
     "$BASE/v2/estimate" > "$WORK_DIR/stream.ndjson" || fail "ndjson request"
LINES=$(wc -l < "$WORK_DIR/stream.ndjson")
[[ "$LINES" == "19" ]] || fail "expected 19 NDJSON lines (18 items + stats), got $LINES"
head -n 1 "$WORK_DIR/stream.ndjson" | jq -e '.item == 0' > /dev/null || fail "ndjson order"
tail -n 1 "$WORK_DIR/stream.ndjson" | jq -e '.batchStats.numItems == 18' > /dev/null \
  || fail "ndjson stats line"

# --- metrics reflect the traffic ------------------------------------------
curl -fsS "$BASE/metrics" | jq -e '
  .server.requestsTotal >= 8 and
  .estimateCache.misses > 0 and
  .jobs.succeeded >= 1' > /dev/null || fail "metrics"
# The section layout servebench and the restart leg below read.
SECTIONS=$(curl -fsS "$BASE/metrics" | jq -c 'keys_unsorted')
EXPECTED='["server","estimateCache","factoryCache","store","jobs","client","failpoints","trace"]'
[ "$SECTIONS" = "$EXPECTED" ] || fail "metrics sections: $SECTIONS"

# --- prometheus exposition ------------------------------------------------
curl -fsS -D "$WORK_DIR/prom_headers" "$BASE/metrics?format=prometheus" \
  > "$WORK_DIR/prom.txt" || fail "prometheus scrape"
grep -qi '^content-type: text/plain; version=0.0.4' "$WORK_DIR/prom_headers" \
  || fail "prometheus content type"
# Every non-empty line must be a comment or a qre_-prefixed sample. (The
# label block is matched greedily: route labels like "GET /v2/jobs/{id}"
# contain literal braces.)
if grep -vE '^($|#|qre_[a-z_]+(\{.*\})? -?[0-9])' "$WORK_DIR/prom.txt" \
     | grep -q .; then
  fail "prometheus exposition has malformed lines"
fi
grep -q '^qre_requests_total ' "$WORK_DIR/prom.txt" || fail "prometheus counter"
grep -q 'le="+Inf"' "$WORK_DIR/prom.txt" || fail "prometheus histogram +Inf"
grep -q 'qre_requests_by_route_total{route="POST /v2/estimate"}' \
  "$WORK_DIR/prom.txt" || fail "prometheus route labels"

# --- request ids: echoed when supplied, generated otherwise ---------------
curl -fsS -D "$WORK_DIR/reqid_headers" -H 'X-Request-Id: smoke-req-1' \
     "$BASE/healthz" > /dev/null || fail "request-id probe"
grep -qi '^x-request-id: smoke-req-1' "$WORK_DIR/reqid_headers" \
  || fail "supplied X-Request-Id not echoed"
curl -fsS -D "$WORK_DIR/genid_headers" "$BASE/healthz" > /dev/null \
  || fail "generated-id probe"
grep -qi '^x-request-id: qre-' "$WORK_DIR/genid_headers" \
  || fail "no generated X-Request-Id"

# --- live trace export (--trace-file implies --trace) ---------------------
curl -fsS "$BASE/v2/trace" > "$WORK_DIR/trace_live.json" || fail "trace endpoint"
jq -e 'type == "array" and (map(select(.name == "server.request")) | length > 0)
       and (map(select(.name == "api.run")) | length > 0)' \
  "$WORK_DIR/trace_live.json" > /dev/null || fail "trace export spans"

# --- graceful shutdown ----------------------------------------------------
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

# --- drain artifacts: trace file + access log -----------------------------
[[ -s "$TRACE_FILE" ]] || fail "drain did not write the trace file"
jq -e 'type == "array" and length > 0' "$TRACE_FILE" > /dev/null \
  || fail "trace file is not a Chrome-trace event array"
[[ -s "$ACCESS_LOG" ]] || fail "no access log written"
jq -es 'length > 0' "$ACCESS_LOG" > /dev/null || fail "access log lines not JSON"
jq -es 'map(select(.id == "smoke-req-1" and .route == "GET /healthz"
                   and .status == 200)) | length == 1' "$ACCESS_LOG" > /dev/null \
  || fail "supplied request id missing from access log"
jq -es 'map(select(.route == "POST /v2/estimate" and .status == 200))
        | length >= 2' "$ACCESS_LOG" > /dev/null \
  || fail "estimate requests missing from access log"
jq -es 'all(.ts != "" and .id != "" and .latencyMs >= 0)' "$ACCESS_LOG" \
  > /dev/null || fail "access log entries incomplete"

# --- restart reuse: the store survives the process -------------------------
[[ -s "$CACHE_DIR/estimates.qrestore" ]] || fail "drain did not persist the store"
PORT_FILE2="$WORK_DIR/port2"
"$SERVE" --port 0 --port-file "$PORT_FILE2" --job-workers 1 --cache-dir "$CACHE_DIR" &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$PORT_FILE2" ]] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "qre_serve died during restart"
  sleep 0.1
done
[[ -s "$PORT_FILE2" ]] || fail "port file never appeared after restart"
BASE="http://127.0.0.1:$(cat "$PORT_FILE2")"
echo "smoke: restarted at $BASE with cache dir $CACHE_DIR"

STATUS=$(curl -sS -o "$WORK_DIR/estimate2.json" -w '%{http_code}' \
              -X POST --data-binary "@$JOB" "$BASE/v2/estimate")
[[ "$STATUS" == "200" ]] || fail "warm estimate returned HTTP $STATUS"
cmp -s "$WORK_DIR/estimate.json" "$WORK_DIR/estimate2.json" \
  || fail "warm response is not byte-identical to the cold one"

# All 18 sweep items came from the store; the fresh process never designed
# a T-factory, i.e. ran zero raw estimates.
curl -fsS "$BASE/metrics" | jq -e '
  .store.enabled == true and
  .store.loaded >= 18 and
  .store.hits >= 18 and
  .store.misses == 0 and
  .factoryCache.misses == 0' > /dev/null || fail "store metrics after restart"

kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if wait "$SERVER_PID"; then
  SERVER_PID=""
else
  fail "restarted qre_serve exited non-zero after SIGTERM"
fi

echo "smoke: OK"
