#!/usr/bin/env bash
# Serve-mode smoke test: boot `itdb serve` against a real workload, drive
# every endpoint over plain HTTP, shut down gracefully with SIGINT, and
# validate the artifacts (metrics exposition, /events capture, /query
# payloads, /debug introspection bodies, slow-query log) with
# ci/validate_observability.py --serve.
#
# All artifacts land under target/ci-artifacts/serve-smoke/ — never the
# repository root.
#
# Three server sessions because each server materialises its workload
# once, on the first /query (or /facts), and serves every read from that
# model; none of them has a WAL, so /facts batches live in memory:
#   1. the convergent Example 4.1 workload answers `complete`, and a
#      /facts batch shows up in the next /query;
#   1b. the same workload with the flight recorder disabled (--flight 0)
#       must answer byte-identically — the recorder observes, never
#       participates;
#   2. a diverging workload booted with `--fuel 3`: the first request
#      materialises and trips (the partial-result-loss regression: it
#      must still answer the sound partial model), concurrent reads all
#      see that same model, and the full request-id diagnosis chain
#      holds: the tripping request's id appears in its response, in the
#      access log, in the slow-query log, and on the flight dump the
#      trip captured; the partial model refuses /facts with 422.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-target/release/itdb}
PORT_A=${PORT_A:-7471}
PORT_B=${PORT_B:-7472}
PORT_C=${PORT_C:-7473}
ART=target/ci-artifacts/serve-smoke
rm -rf "$ART"
mkdir -p "$ART"

wait_healthy() {
    local port=$1
    for _ in $(seq 1 100); do
        if curl -fsS "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: server on port $port never became healthy" >&2
    return 1
}

graceful_stop() {
    # SIGINT must drain and exit 0 — a non-zero status means the serve
    # loop failed or shutdown lost work.
    local pid=$1
    kill -INT "$pid"
    wait "$pid"
}

# ---- Session 1: convergent workload -------------------------------------
"$BIN" serve --addr "127.0.0.1:$PORT_A" ci/serve_workload.itdb \
    > "$ART/serve_a.log" 2>&1 &
SRV_A=$!
trap 'kill "$SRV_A" 2>/dev/null || true' EXIT
wait_healthy "$PORT_A"

curl -fsS "http://127.0.0.1:$PORT_A/healthz" | grep -q '^ok$'

curl -fsS -X POST --data 'problems[t, t + 2](database)' \
    "http://127.0.0.1:$PORT_A/query" > "$ART/serve_query_complete.json"
grep -q '"status":"complete"' "$ART/serve_query_complete.json"

# Closed-form generalized tuples in the answers, not ground expansions.
grep -q '168n' "$ART/serve_query_complete.json"

# Client-error paths answer with typed JSON errors, not 500s.
test "$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT_A/nope")" = 404
test "$(curl -s -o /dev/null -w '%{http_code}' -X POST --data 'ghost[t]' \
    "http://127.0.0.1:$PORT_A/query")" = 422

# Without a WAL the server still maintains its model: a /facts batch is
# accepted and the next /query answers from the model that holds it.
COURSE='{"facts":[{"pred":"course","tuple":"(168n+30, 168n+32; compilers) : T2 = T1 + 2"}]}'
curl -fsS -X POST --data "$COURSE" "http://127.0.0.1:$PORT_A/facts" \
    > "$ART/serve_facts_accepted.json"
grep -q '"status":"accepted"' "$ART/serve_facts_accepted.json"
curl -fsS -X POST --data 'problems[t, t + 2](C)' \
    "http://127.0.0.1:$PORT_A/query" > "$ART/serve_query_after_facts.json"
grep -q 'compilers' "$ART/serve_query_after_facts.json" || {
    echo "FAIL: the /query after /facts does not see the new course" >&2
    exit 1
}

graceful_stop "$SRV_A"

# ---- Session 1b: flight recorder off, answers byte-identical -------------
"$BIN" serve --addr "127.0.0.1:$PORT_C" --flight 0 --no-access-log \
    ci/serve_workload.itdb > "$ART/serve_c.log" 2>&1 &
SRV_C=$!
trap 'kill "$SRV_C" 2>/dev/null || true' EXIT
wait_healthy "$PORT_C"
curl -fsS -X POST --data 'problems[t, t + 2](database)' \
    "http://127.0.0.1:$PORT_C/query" > "$ART/serve_query_noflight.json"
graceful_stop "$SRV_C"
# Strip the wall-clock-bearing tail (stats and the minted request id
# after it): everything else must match byte for byte.
diff <(sed 's/,"stats":.*//' "$ART/serve_query_complete.json") \
     <(sed 's/,"stats":.*//' "$ART/serve_query_noflight.json") || {
    echo "FAIL: disabling the flight recorder changed a query answer" >&2
    exit 1
}

# ---- Session 2: diverging workload, tripped materialisation, id chain -----
"$BIN" serve --addr "127.0.0.1:$PORT_B" --fuel 3 \
    --slow-query-ms 0 --slow-log "$ART/serve_slow.jsonl" \
    ci/serve_diverging.itdb > "$ART/serve_access.log" 2>&1 &
SRV_B=$!
trap 'kill "$SRV_B" 2>/dev/null || true' EXIT
wait_healthy "$PORT_B"

# Live /events capture for the whole session (ends when the server does).
curl -sN --max-time 60 "http://127.0.0.1:$PORT_B/events" \
    > "$ART/serve_events.jsonl" &
EVENTS=$!
sleep 0.5

# The first request, with an explicit request id, materialises the
# diverging workload under --fuel 3: the governor trips, the response
# must still carry the sound partial model, and the id must come back in
# the response header and in the JSON body.
curl -fsS -D "$ART/serve_trip_headers.txt" -X POST \
    -H 'X-Itdb-Request-Id: smoke-trip-1' --data 'p[t]' \
    "http://127.0.0.1:$PORT_B/query" > "$ART/serve_query_interrupted.json"
grep -q '"status":"interrupted"' "$ART/serve_query_interrupted.json"
grep -qi '^x-itdb-request-id: smoke-trip-1' "$ART/serve_trip_headers.txt" || {
    echo "FAIL: request id not echoed in the response headers" >&2
    exit 1
}
grep -q '"request_id":"smoke-trip-1"' "$ART/serve_query_interrupted.json" || {
    echo "FAIL: request id not echoed in the response JSON" >&2
    exit 1
}

# Eight concurrent requests: all must come back 200 with the same answer
# as the tripping request — one model, computed once, serves them all.
pids=()
for i in 1 2 3 4 5 6 7 8; do
    curl -fsS -X POST --data 'p[t]' \
        "http://127.0.0.1:$PORT_B/query" > "$ART/serve_q_$i.json" &
    pids+=("$!")
done
for pid in "${pids[@]}"; do wait "$pid"; done
# (the bodies carry no trailing newline — add one per file before sort)
distinct=$(for f in "$ART"/serve_q_*.json "$ART/serve_query_interrupted.json"; do
    sed 's/,"stats":.*//' "$f"
    echo
done | sort -u | grep -c .)
test "$distinct" -eq 1 || {
    echo "FAIL: expected 8 concurrent answers identical to the first, got $distinct distinct" >&2
    exit 1
}

# The /debug introspection bodies: the trip above must have captured a
# flight dump attributed to smoke-trip-1, the span profile must cover
# /query, and the in-flight table answers (showing at least itself).
curl -fsS "http://127.0.0.1:$PORT_B/debug/flight" > "$ART/serve_flight.json"
grep -q '"reason":"governor_trip"' "$ART/serve_flight.json" || {
    echo "FAIL: governor trip captured no flight dump" >&2
    exit 1
}
grep -q '"request_id":"smoke-trip-1"' "$ART/serve_flight.json" || {
    echo "FAIL: flight dump not attributed to the tripped request" >&2
    exit 1
}
# A partial model cannot be maintained: writes are refused with 422.
test "$(curl -s -o "$ART/serve_facts_refused.json" -w '%{http_code}' -X POST \
    --data '{"facts":[{"pred":"seed","tuple":"(n) : T1 = 5"}]}' \
    "http://127.0.0.1:$PORT_B/facts")" = 422 || {
    echo "FAIL: the tripped model accepted /facts" >&2
    exit 1
}
curl -fsS "http://127.0.0.1:$PORT_B/debug/profile" > "$ART/serve_profile.json"
grep -q '"route":"/query"' "$ART/serve_profile.json"
curl -fsS "http://127.0.0.1:$PORT_B/debug/requests" > "$ART/serve_requests.json"
grep -q '"route":"/debug/requests"' "$ART/serve_requests.json"

curl -fsS "http://127.0.0.1:$PORT_B/metrics" > "$ART/serve_metrics.prom"

graceful_stop "$SRV_B"
wait "$EVENTS" 2>/dev/null || true
trap - EXIT

# The rest of the id chain, readable after drain: the tripped request's
# id is in the access log and keys a slow-query record (threshold 0 ms
# makes every query slow by definition).
grep -q '"log":"access".*"request_id":"smoke-trip-1"' "$ART/serve_access.log" || {
    echo "FAIL: tripped request missing from the access log" >&2
    exit 1
}
grep -q '"log":"slow_query".*"request_id":"smoke-trip-1"' "$ART/serve_slow.jsonl" || {
    echo "FAIL: tripped request missing from the slow-query log" >&2
    exit 1
}

python3 ci/validate_observability.py --serve "$ART/serve_metrics.prom" \
    "$ART/serve_events.jsonl" "$ART/serve_query_complete.json" \
    "$ART/serve_query_interrupted.json" "$ART/serve_flight.json" \
    "$ART/serve_profile.json" "$ART/serve_requests.json" \
    "$ART/serve_slow.jsonl"

echo "serve smoke: OK"
