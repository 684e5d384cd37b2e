#!/usr/bin/env bash
# Chaos soak (the `chaos-soak` CI job): boot `itdb serve` built with the
# test-only `chaos` feature, drive real HTTP traffic through a
# deterministic fault schedule — worker panics, worker deaths — then
# SIGKILL the server mid-flight and prove the restart answers
# byte-identically to a fresh reference server.
#
# The schedule is env-driven (ITDB_CHAOS_*) and counter-based, so the
# same schedule against the same request sequence injects the same
# faults: the assertions below are exact, not probabilistic.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${BIN:-target/release/itdb}   # must be built with --features chaos
PORT=${PORT:-7481}
PORT_REF=${PORT_REF:-7482}
ART=target/ci-artifacts/chaos-soak
QUERY='problems[t, t + 2](database)'
N=${N:-60}

if [ ! -x "$BIN" ]; then
    echo "FAIL: $BIN not built (run: cargo build --release -p itdb-cli --features chaos)" >&2
    exit 1
fi
rm -rf "$ART"
mkdir -p "$ART"

# Pulls an unlabeled counter's value out of an exposition file (0 when
# the family never fired).
metric() {
    awk -v m="$2" '$1 == m {v = $2} END {print v + 0}' "$1"
}

# /metrics fetches also consume the chaos schedule, so a scrape can
# itself be the panicking request; retry past injected 500s.
scrape() {
    local port=$1 out=$2
    for _ in $(seq 1 30); do
        if curl -fsS "http://127.0.0.1:$port/metrics" > "$out" 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: /metrics on port $port never answered 200" >&2
    return 1
}

wait_healthy() {
    local port=$1
    for _ in $(seq 1 100); do
        # -f would fail the whole script on an injected 500; any HTTP
        # response at all means the listener is up.
        code=$(curl -s -o /dev/null -w '%{http_code}' \
            "http://127.0.0.1:$port/healthz" || echo 000)
        if [ "$code" != 000 ]; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: server on port $port never came up" >&2
    return 1
}

# ---- Phase 1: soak under chaos ------------------------------------------
export ITDB_CHAOS_PANIC_EVERY=7
export ITDB_CHAOS_KILL_EVERY=13
"$BIN" serve --addr "127.0.0.1:$PORT" \
    ci/serve_workload.itdb > "$ART"/chaos_server.log 2>&1 &
SRV=$!
trap 'kill -9 "$SRV" 2>/dev/null || true' EXIT
wait_healthy "$PORT"
grep -q 'CHAOS INJECTION ENABLED' "$ART"/chaos_server.log || {
    echo "FAIL: binary lacks the chaos feature (no injection banner)" >&2
    exit 1
}

ok=0; faulted=0
for _ in $(seq 1 "$N"); do
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data "$QUERY" \
        "http://127.0.0.1:$PORT/query" || echo 000)
    case "$code" in
        200) ok=$((ok + 1)) ;;
        *)   faulted=$((faulted + 1)) ;;
    esac
done
echo "soak: $ok/$N served, $faulted met an injected fault"
test "$faulted" -ge 1 || { echo "FAIL: schedule injected nothing" >&2; exit 1; }
test "$ok" -ge $((N / 2)) || {
    echo "FAIL: under half the requests survived the soak" >&2
    exit 1
}

scrape "$PORT" "$ART"/chaos_metrics.prom
panics=$(metric "$ART"/chaos_metrics.prom itdb_worker_panics_total)
respawns=$(metric "$ART"/chaos_metrics.prom itdb_worker_respawns_total)
echo "soak: $panics panics, $respawns respawns"
test "$panics" -ge 1 || { echo "FAIL: no worker panic recorded" >&2; exit 1; }
test "$respawns" -ge 1 || { echo "FAIL: no worker respawned" >&2; exit 1; }

# Every caught panic snapshotted the flight rings: the recorder's dumps
# are retrievable over /debug/flight (retrying past injected 500s) and
# counted in the metrics.
for _ in $(seq 1 30); do
    if curl -fsS "http://127.0.0.1:$PORT/debug/flight" \
        > "$ART"/chaos_flight.json 2>/dev/null; then
        break
    fi
    sleep 0.1
done
grep -q '"reason":"worker_panic"' "$ART"/chaos_flight.json || {
    echo "FAIL: caught panics left no flight dump" >&2
    exit 1
}
dumps=$(metric "$ART"/chaos_metrics.prom itdb_flight_dumps_total)
test "$dumps" -ge 1 || { echo "FAIL: flight dumps not counted" >&2; exit 1; }

# The pool must be back to full strength. The probes themselves consume
# the chaos schedule (~1/7 panic, ~1/13 kill), so individual 500s are
# expected — but a dead pool would answer (close to) nothing. Half of
# eight probes succeeding distinguishes "alive with injected faults"
# from "not respawned".
healthy=0
for _ in $(seq 1 8); do
    if curl -fsS "http://127.0.0.1:$PORT/healthz" >/dev/null 2>&1; then
        healthy=$((healthy + 1))
    fi
done
test "$healthy" -ge 4 || { echo "FAIL: pool not restored after soak ($healthy/8 probes answered)" >&2; exit 1; }

# ---- Phase 2: SIGKILL, restart, compare ---------------------------------
# No drain, no flush: the model is a function of the workload alone, so
# the restarted server must answer exactly like a fresh reference server.
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
unset ITDB_CHAOS_PANIC_EVERY ITDB_CHAOS_KILL_EVERY

"$BIN" serve --addr "127.0.0.1:$PORT" \
    ci/serve_workload.itdb > "$ART"/chaos_resume.log 2>&1 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT
wait_healthy "$PORT"

curl -fsS -X POST --data "$QUERY" "http://127.0.0.1:$PORT/query" \
    | sed 's/,"stats":.*//' > "$ART"/chaos_answer.json
"$BIN" serve --addr "127.0.0.1:$PORT_REF" ci/serve_workload.itdb \
    > "$ART"/chaos_ref.log 2>&1 &
REF=$!
trap 'kill "$SRV" "$REF" 2>/dev/null || true' EXIT
wait_healthy "$PORT_REF"
curl -fsS -X POST --data "$QUERY" "http://127.0.0.1:$PORT_REF/query" \
    | sed 's/,"stats":.*//' > "$ART"/chaos_reference.json
diff -u "$ART"/chaos_reference.json "$ART"/chaos_answer.json || {
    echo "FAIL: resumed server's answer diverges from the reference" >&2
    exit 1
}

kill -INT "$SRV" "$REF"
wait "$SRV" "$REF" 2>/dev/null || true
trap - EXIT

# ---- Phase 3: WAL-backed ingestion under SIGKILL ------------------------
# POST /facts batches are made durable in the write-ahead log before
# their 202; a SIGKILL mid-stream must lose nothing. The recovered
# server, plus the remainder of the fact stream, must answer
# byte-identically to a fresh server that ingested the same stream
# uninterrupted. The WAL segments are left under $ART for upload.
WAL=$ART/wal
WAL_REF=$ART/wal-ref
QUERY_INGEST='problems[t1, t2](C)'

fact_body() {
    # $1: offset, $2: datum
    echo "{\"facts\":[{\"pred\":\"course\",\"tuple\":\"(168n+$1, 168n+$(($1 + 2)); $2) : T2 = T1 + 2\"}]}"
}

post_fact() {
    # $1: port, $2: request id, $3: body; echoes the response body
    curl -fsS -X POST -H "X-Itdb-Request-Id: $2" --data "$3" \
        "http://127.0.0.1:$1/facts"
}

"$BIN" serve --addr "127.0.0.1:$PORT" --wal "$WAL" \
    ci/serve_workload.itdb > "$ART"/wal_server.log 2>&1 &
SRV=$!
trap 'kill -9 "$SRV" 2>/dev/null || true' EXIT
wait_healthy "$PORT"

for i in 1 2 3; do
    out=$(post_fact "$PORT" "soak-$i" "$(fact_body $((20 + 10 * i)) "batch$i")")
    echo "$out" | grep -q '"status":"accepted"' || {
        echo "FAIL: POST /facts soak-$i not accepted: $out" >&2
        exit 1
    }
done

# SIGKILL with three acknowledged batches in the log and no checkpoint.
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true

"$BIN" serve --addr "127.0.0.1:$PORT" --wal "$WAL" \
    ci/serve_workload.itdb > "$ART"/wal_resume.log 2>&1 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT
wait_healthy "$PORT"
grep -q 'WAL records replayed' "$ART"/wal_resume.log || {
    echo "FAIL: restart did not report WAL replay" >&2
    exit 1
}
scrape "$PORT" "$ART"/wal_resume_metrics.prom
replayed=$(metric "$ART"/wal_resume_metrics.prom itdb_wal_replayed_records_total)
test "$replayed" -ge 3 || {
    echo "FAIL: expected >= 3 replayed WAL records, got $replayed" >&2
    exit 1
}

# A pre-crash request id retried after recovery answers from the
# replayed dedup window instead of double-applying.
out=$(post_fact "$PORT" "soak-1" "$(fact_body 30 batch1)")
echo "$out" | grep -q '"duplicate_request":true' || {
    echo "FAIL: replayed dedup window missed a pre-crash request id: $out" >&2
    exit 1
}

# Finish the stream post-recovery, then capture the answer.
for i in 4 5; do
    out=$(post_fact "$PORT" "soak-$i" "$(fact_body $((20 + 10 * i)) "batch$i")")
    echo "$out" | grep -q '"status":"accepted"' || {
        echo "FAIL: POST /facts soak-$i not accepted after recovery: $out" >&2
        exit 1
    }
done
curl -fsS -X POST --data "$QUERY_INGEST" "http://127.0.0.1:$PORT/query" \
    | sed 's/,"stats":.*//' > "$ART"/wal_answer.json

# Fresh reference: same five batches, no crash, group-commit fsync to
# exercise the batch policy (the graceful drain flushes the tail).
"$BIN" serve --addr "127.0.0.1:$PORT_REF" --wal "$WAL_REF" --wal-fsync batch:2 \
    ci/serve_workload.itdb > "$ART"/wal_ref.log 2>&1 &
REF=$!
trap 'kill "$SRV" "$REF" 2>/dev/null || true' EXIT
wait_healthy "$PORT_REF"
for i in 1 2 3 4 5; do
    post_fact "$PORT_REF" "soak-$i" "$(fact_body $((20 + 10 * i)) "batch$i")" > /dev/null
done
curl -fsS -X POST --data "$QUERY_INGEST" "http://127.0.0.1:$PORT_REF/query" \
    | sed 's/,"stats":.*//' > "$ART"/wal_reference.json
diff -u "$ART"/wal_reference.json "$ART"/wal_answer.json || {
    echo "FAIL: recovered ingestion diverges from the uninterrupted reference" >&2
    exit 1
}
grep -q '"answers":\[\]' "$ART"/wal_answer.json && {
    echo "FAIL: ingested stream produced no derived answers" >&2
    exit 1
}

kill -INT "$SRV" "$REF"
wait "$SRV" "$REF" 2>/dev/null || true
trap - EXIT
ingested=$(ls "$WAL" "$WAL_REF" 2>/dev/null | grep -c '\.itdbw$' || true)
echo "wal ingestion: 5 batches, $replayed replayed after SIGKILL, $ingested segment files retained in artifacts"

# ---- Phase 4: retraction in the stream, SIGKILL mid-retraction ----------
# A mixed insert/retract stream: the server is SIGKILLed immediately
# after acknowledging a retraction, with no checkpoint covering it. The
# restart must replay the retraction from the log — the retracted fact's
# derived consequences stay gone — and answer byte-identically to a
# reference server that ingested the same mixed stream uninterrupted.
WAL_RET=$ART/wal-retract
WAL_RET_REF=$ART/wal-retract-ref

retract_body() {
    # $1: offset, $2: datum
    echo "{\"facts\":[{\"op\":\"retract\",\"pred\":\"course\",\"tuple\":\"(168n+$1, 168n+$(($1 + 2)); $2) : T2 = T1 + 2\"}]}"
}

"$BIN" serve --addr "127.0.0.1:$PORT" --wal "$WAL_RET" --dedup-window 64 \
    ci/serve_workload.itdb > "$ART"/retract_server.log 2>&1 &
SRV=$!
trap 'kill -9 "$SRV" 2>/dev/null || true' EXIT
wait_healthy "$PORT"

for i in 1 2 3; do
    out=$(post_fact "$PORT" "mix-$i" "$(fact_body $((20 + 10 * i)) "batch$i")")
    echo "$out" | grep -q '"status":"accepted"' || {
        echo "FAIL: POST /facts mix-$i not accepted: $out" >&2
        exit 1
    }
done
out=$(post_fact "$PORT" "mix-retract" "$(retract_body 40 batch2)")
echo "$out" | grep -q '"retracted":1' || {
    echo "FAIL: retraction not acknowledged: $out" >&2
    exit 1
}

# SIGKILL with the acknowledged retraction only in the log.
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true

"$BIN" serve --addr "127.0.0.1:$PORT" --wal "$WAL_RET" --dedup-window 64 \
    ci/serve_workload.itdb > "$ART"/retract_resume.log 2>&1 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT
wait_healthy "$PORT"
scrape "$PORT" "$ART"/retract_resume_metrics.prom
re_replayed=$(metric "$ART"/retract_resume_metrics.prom itdb_wal_replayed_records_total)
re_retracted=$(metric "$ART"/retract_resume_metrics.prom itdb_facts_retracted_total)
test "$re_replayed" -ge 4 || {
    echo "FAIL: expected >= 4 replayed WAL records, got $re_replayed" >&2
    exit 1
}
test "$re_retracted" -ge 1 || {
    echo "FAIL: replay lost the retraction (itdb_facts_retracted_total=$re_retracted)" >&2
    exit 1
}

# The pre-crash retraction's request id still dedups, and dedup answers
# carry seq null (nothing re-logged).
out=$(post_fact "$PORT" "mix-retract" "$(retract_body 40 batch2)")
echo "$out" | grep -q '"duplicate_request":true' || {
    echo "FAIL: replayed dedup window missed the retraction id: $out" >&2
    exit 1
}
echo "$out" | grep -q '"seq":null' || {
    echo "FAIL: deduplicated retraction should report seq null: $out" >&2
    exit 1
}

# Finish the mixed stream post-recovery: one more insert, one more
# retraction, then capture the answer.
post_fact "$PORT" "mix-4" "$(fact_body 60 batch4)" > /dev/null
out=$(post_fact "$PORT" "mix-retract-2" "$(retract_body 30 batch1)")
echo "$out" | grep -q '"retracted":1' || {
    echo "FAIL: post-recovery retraction not applied: $out" >&2
    exit 1
}
curl -fsS -X POST --data "$QUERY_INGEST" "http://127.0.0.1:$PORT/query" \
    | sed 's/,"stats":.*//' > "$ART"/retract_answer.json
grep -q 'batch2' "$ART"/retract_answer.json && {
    echo "FAIL: retracted fact's consequences survived the SIGKILL replay" >&2
    exit 1
}
grep -q 'batch3' "$ART"/retract_answer.json || {
    echo "FAIL: non-retracted facts lost" >&2
    exit 1
}

# Fresh reference: identical mixed stream, no crash.
"$BIN" serve --addr "127.0.0.1:$PORT_REF" --wal "$WAL_RET_REF" \
    ci/serve_workload.itdb > "$ART"/retract_ref.log 2>&1 &
REF=$!
trap 'kill "$SRV" "$REF" 2>/dev/null || true' EXIT
wait_healthy "$PORT_REF"
for i in 1 2 3; do
    post_fact "$PORT_REF" "mix-$i" "$(fact_body $((20 + 10 * i)) "batch$i")" > /dev/null
done
post_fact "$PORT_REF" "mix-retract" "$(retract_body 40 batch2)" > /dev/null
post_fact "$PORT_REF" "mix-4" "$(fact_body 60 batch4)" > /dev/null
post_fact "$PORT_REF" "mix-retract-2" "$(retract_body 30 batch1)" > /dev/null
curl -fsS -X POST --data "$QUERY_INGEST" "http://127.0.0.1:$PORT_REF/query" \
    | sed 's/,"stats":.*//' > "$ART"/retract_reference.json
diff -u "$ART"/retract_reference.json "$ART"/retract_answer.json || {
    echo "FAIL: recovered mixed stream diverges from the uninterrupted reference" >&2
    exit 1
}

kill -INT "$SRV" "$REF"
wait "$SRV" "$REF" 2>/dev/null || true
trap - EXIT
echo "retraction stream: $re_replayed records replayed (>=1 retraction), answers byte-identical"
echo "chaos soak: OK"
