#!/usr/bin/env python3
"""Validate the observability artifacts the CI workloads produce.

Usage:
  validate_observability.py TRACE.jsonl METRICS.prom
  validate_observability.py --serve METRICS.prom EVENTS.jsonl \\
      COMPLETE.json INTERRUPTED.json

Shell mode checks, line by line:
  * every trace line is a JSON object with a known `event` discriminator,
    a non-negative integer `t_us`, and the per-kind payload fields of the
    documented schema (DESIGN.md section 9);
  * span enters and exits balance, and the stream contains derivation
    events, at least one insert carrying source facts, and (because the
    workload ends in a fuel-limited divergence) a governor_trip;
  * every metrics line is a HELP/TYPE comment or a `name{labels} value`
    sample whose name was TYPE-declared and whose value parses as a float.

Serve mode (`--serve`, DESIGN.md sections 11 and 14) checks the
artifacts of one `itdb serve` session instead:
  * the /metrics exposition is well-formed and carries the folded
    engine counters, the server's own HTTP/query/events/debug families
    and the model holder's fact/retraction families, but none of the
    WAL's (the session runs without one);
  * the captured /events JSONL stream (cut off mid-flight, so spans need
    not balance; blank keepalive lines are allowed) contains evaluation
    events including a governor_trip from the fuel-starved
    materialisation, and every governor_trip on the stream carries the
    `request_id` of the request whose read triggered it;
  * the /query JSON responses have the documented shape, the complete one
    answered `complete`, and the one served from the fuel-starved model
    answered `interrupted` **with a non-empty partial answer set** — the
    bug this repository's serve mode exists to guard against is
    partial-result loss on trips;
  * optionally (four extra arguments), the /debug introspection bodies
    and the slow-query log: the flight snapshot's dumps and ring windows
    re-validate against the event schema, the per-route span profile
    covers /query, the in-flight table is well-formed, and every
    slow-query record carries id, pattern, status, stats and profile.

Any event in any mode may carry an optional `request_id` (non-empty
string): the id of the serve request whose evaluation emitted it.

Exits nonzero with a pointed message on the first violation.
"""

import json
import re
import sys

SPAN_KINDS = {"evaluate", "stratum", "iteration", "rule", "op"}

# event discriminator -> required payload fields and their types
SCHEMAS = {
    "span_enter": {"kind": str, "label": str, "depth": int},
    "span_exit": {
        "kind": str,
        "label": str,
        "depth": int,
        "total_us": int,
        "self_us": int,
    },
    "tuple_derived": {"pred": str, "rule": int},
    "tuple_inserted": {"pred": str, "rule": int, "tuple": str, "sources": list},
    "tuple_subsumed": {"pred": str, "rule": int, "tuple": str},
    "governor_trip": {"reason": str},
    "index_lookup": {"candidates": int, "scanned": int},
    "message": {"text": str},
    "checkpoint_written": {"generation": int, "bytes": int, "write_us": int},
    "checkpoint_restored": {"generation": int, "stratum": int, "iteration": int},
    "checkpoint_recovery": {"generation": int, "error": str},
    "worker_panic": {"worker": int, "detail": str},
    "worker_respawn": {"worker": int},
    "request_shed": {"waited_us": int, "retry_after_s": int},
}


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_event_fields(obj, event, where):
    """Per-kind required payload fields plus the optional request_id."""
    for field, ftype in SCHEMAS[event].items():
        value = obj.get(field)
        if not isinstance(value, ftype):
            fail(f"{where}: {event}.{field} should be "
                 f"{ftype.__name__}, got {value!r}")
    if "request_id" in obj:
        rid = obj["request_id"]
        if not isinstance(rid, str) or not rid:
            fail(f"{where}: request_id should be a non-empty string, "
                 f"got {rid!r}")


def validate_trace(path):
    counts = {name: 0 for name in SCHEMAS}
    with_sources = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not JSON ({e}): {line!r}")
            if not isinstance(obj, dict):
                fail(f"{path}:{lineno}: not an object")
            event = obj.get("event")
            if event not in SCHEMAS:
                fail(f"{path}:{lineno}: unknown event {event!r}")
            t_us = obj.get("t_us")
            if not isinstance(t_us, int) or t_us < 0:
                fail(f"{path}:{lineno}: bad t_us {t_us!r}")
            check_event_fields(obj, event, f"{path}:{lineno}")
            counts[event] += 1
            if event in ("span_enter", "span_exit") and obj["kind"] not in SPAN_KINDS:
                fail(f"{path}:{lineno}: unknown span kind {obj['kind']!r}")
            if event == "span_exit" and obj["self_us"] > obj["total_us"]:
                fail(f"{path}:{lineno}: self_us exceeds total_us")
            if event == "index_lookup" and obj["candidates"] > obj["scanned"]:
                fail(f"{path}:{lineno}: index lookup widened the scan")
            if event == "tuple_inserted":
                for s in obj["sources"]:
                    if not (isinstance(s, dict)
                            and isinstance(s.get("pred"), str)
                            and isinstance(s.get("tuple"), str)):
                        fail(f"{path}:{lineno}: malformed source fact {s!r}")
                if obj["sources"]:
                    with_sources += 1

    if counts["span_enter"] != counts["span_exit"]:
        fail(
            f"{path}: {counts['span_enter']} span enters vs "
            f"{counts['span_exit']} exits"
        )
    for required in (
        "span_enter",
        "tuple_derived",
        "tuple_inserted",
        "governor_trip",
        "checkpoint_written",
        "checkpoint_restored",
    ):
        if counts[required] == 0:
            fail(f"{path}: no {required} events (workload not traced?)")
    if with_sources == 0:
        fail(f"{path}: no insert carries source facts")
    total = sum(counts.values())
    print(f"ok: {path}: {total} events, {with_sources} inserts with provenance")


SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*)\})?'
    r" (?P<value>\S+)$"
)


SHELL_REQUIRED_FAMILIES = (
    "itdb_tuples_derived_total",
    "itdb_tuples_inserted_total",
    "itdb_elapsed_seconds",
    "itdb_stratum_iterations",
    "itdb_rule_self_seconds",
    "itdb_trace_dropped_events_total",
    "itdb_checkpoints_written_total",
)

# The serve aggregate folds per-request stats, so per-stratum/per-rule
# families (a per-evaluation notion) are absent; the server's own
# HTTP/query/events families must be present instead.
SERVE_REQUIRED_FAMILIES = (
    "itdb_tuples_derived_total",
    "itdb_tuples_inserted_total",
    "itdb_elapsed_seconds",
    "itdb_trace_dropped_events_total",
    "itdb_queries_total",
    "itdb_queries_interrupted_total",
    "itdb_http_requests_total",
    "itdb_http_request_seconds",
    "itdb_http_queue_depth",
    "itdb_http_service_time_ewma_seconds",
    "itdb_worker_panics_total",
    "itdb_worker_respawns_total",
    "itdb_http_requests_shed_total",
    "itdb_events_subscribers",
    "itdb_events_dropped_total",
    "itdb_slow_queries_total",
    "itdb_flight_dumps_total",
    "itdb_http_in_flight",
    "itdb_events_streamers",
)

# The model holder exports its fact/retraction families once it exists,
# with or without a WAL; the WAL's own families only with one. The smoke's
# servers run without a WAL and scrape after the model was materialised.
SERVE_FACT_FAMILIES = (
    "itdb_facts_ingested_total",
    "itdb_facts_duplicate_total",
    "itdb_facts_retracted_total",
    "itdb_retraction_overdeleted_total",
    "itdb_retraction_rederived_total",
    "itdb_retraction_overdeletion_ratio",
    "itdb_ingest_batches_tripped_total",
    "itdb_ingest_queue_depth",
)
WAL_FAMILIES = (
    "itdb_wal_appends_total",
    "itdb_wal_fsyncs_total",
    "itdb_wal_replayed_records_total",
    "itdb_wal_truncated_tails_total",
    "itdb_wal_segment_bytes",
    "itdb_ingest_checkpoint_writes_total",
    "itdb_ingest_checkpoint_failures_total",
)

# Histogram sample names are the family name plus one of these suffixes;
# only the base name gets a TYPE line.
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def typed_family(name, typed):
    if name in typed:
        return True
    return any(
        name.endswith(suffix) and name[: -len(suffix)] in typed
        for suffix in HISTOGRAM_SUFFIXES
    )


def validate_prom(path, required_families=SHELL_REQUIRED_FAMILIES,
                  absent_families=()):
    typed = set()
    samples = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                parts = line.split(" ", 3)
                if len(parts) < 4:
                    fail(f"{path}:{lineno}: truncated comment: {line!r}")
                if parts[1] == "TYPE":
                    typed.add(parts[2])
                continue
            if line.startswith("#"):
                fail(f"{path}:{lineno}: unexpected comment form: {line!r}")
            m = SAMPLE_RE.match(line)
            if not m:
                fail(f"{path}:{lineno}: not a sample line: {line!r}")
            if not typed_family(m.group("name"), typed):
                fail(f"{path}:{lineno}: sample {m.group('name')} has no TYPE")
            try:
                float(m.group("value"))
            except ValueError:
                fail(f"{path}:{lineno}: bad value {m.group('value')!r}")
            samples += 1
    for required in required_families:
        if required not in typed:
            fail(f"{path}: metric {required} missing")
    for absent in absent_families:
        if absent in typed:
            fail(f"{path}: metric {absent} exported by a server without a WAL")
    print(f"ok: {path}: {samples} samples, {len(typed)} metric families")


def validate_serve_events(path):
    """A /events capture: same per-line schema as a trace file, but the
    stream was cut off mid-flight (no span balance) and idle keepalives
    appear as blank lines."""
    counts = {name: 0 for name in SCHEMAS}
    stamped = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue  # keepalive
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not JSON ({e}): {line!r}")
            event = obj.get("event")
            if event not in SCHEMAS:
                fail(f"{path}:{lineno}: unknown event {event!r}")
            check_event_fields(obj, event, f"{path}:{lineno}")
            # Every serve-side evaluation runs for some request (the
            # read that materialised the model), so a trip without an id
            # would be an unattributable incident.
            if event == "governor_trip" and "request_id" not in obj:
                fail(f"{path}:{lineno}: governor_trip carries no request_id")
            counts[event] += 1
            if "request_id" in obj:
                stamped += 1
    for required in ("span_enter", "tuple_derived", "tuple_inserted",
                     "governor_trip"):
        if counts[required] == 0:
            fail(f"{path}: no {required} events in the /events capture")
    if stamped == 0:
        fail(f"{path}: no event carries a request_id")
    total = sum(counts.values())
    print(f"ok: {path}: {total} streamed events "
          f"({stamped} request-stamped), "
          f"{counts['governor_trip']} governor trips")


def validate_query_response(path, expected_status):
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not JSON ({e})")
    for field, ftype in (("predicate", str), ("status", str),
                        ("answers", list), ("stats", dict)):
        if not isinstance(obj.get(field), ftype):
            fail(f"{path}: field {field} should be {ftype.__name__}, "
                 f"got {obj.get(field)!r}")
    if obj["status"] != expected_status:
        fail(f"{path}: status {obj['status']!r}, expected {expected_status!r}")
    if expected_status == "interrupted" and not isinstance(obj.get("trip"), str):
        fail(f"{path}: interrupted response carries no trip reason")
    # Both the complete and the governor-tripped response must answer:
    # a trip yields a sound partial model, not an empty one.
    if not obj["answers"]:
        fail(f"{path}: empty answer set (partial results lost?)")
    if not all(isinstance(a, str) for a in obj["answers"]):
        fail(f"{path}: non-string answer tuple")
    rid = obj.get("request_id")
    if not isinstance(rid, str) or not rid:
        fail(f"{path}: response carries no request_id (got {rid!r})")
    print(f"ok: {path}: status={obj['status']} answers={len(obj['answers'])} "
          f"request_id={rid}")


def load_json(path):
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not JSON ({e})")


def validate_thread_flight(t, path, what):
    """One per-thread ring window inside a flight snapshot or dump."""
    if not isinstance(t.get("thread"), str):
        fail(f"{path}: {what}: thread should be str, got {t.get('thread')!r}")
    if not isinstance(t.get("dropped"), int) or t["dropped"] < 0:
        fail(f"{path}: {what}: bad dropped count {t.get('dropped')!r}")
    events = t.get("events")
    if not isinstance(events, list):
        fail(f"{path}: {what}: events should be a list")
    for i, e in enumerate(events):
        event = e.get("event") if isinstance(e, dict) else None
        if event not in SCHEMAS:
            fail(f"{path}: {what}: events[{i}]: unknown event {event!r}")
        check_event_fields(e, event, f"{path}: {what}: events[{i}]")


def validate_flight(path):
    """A GET /debug/flight body: live ring windows plus retained dumps,
    each re-validated against the trace event schema."""
    obj = load_json(path)
    if not isinstance(obj.get("dumps_total"), int):
        fail(f"{path}: dumps_total should be int")
    for section in ("live", "dumps"):
        if not isinstance(obj.get(section), list):
            fail(f"{path}: {section} should be a list")
    for i, t in enumerate(obj["live"]):
        validate_thread_flight(t, path, f"live[{i}]")
    reasons = set()
    for i, d in enumerate(obj["dumps"]):
        for field, ftype in (("seq", int), ("reason", str), ("at_ms", int),
                            ("threads", list)):
            if not isinstance(d.get(field), ftype):
                fail(f"{path}: dumps[{i}].{field} should be "
                     f"{ftype.__name__}, got {d.get(field)!r}")
        reasons.add(d["reason"])
        for j, t in enumerate(d["threads"]):
            validate_thread_flight(t, path, f"dumps[{i}].threads[{j}]")
    if obj["dumps_total"] < len(obj["dumps"]):
        fail(f"{path}: dumps_total {obj['dumps_total']} below retained "
             f"{len(obj['dumps'])}")
    if "governor_trip" not in reasons:
        fail(f"{path}: no governor_trip dump retained (reasons: "
             f"{sorted(reasons)})")
    print(f"ok: {path}: {len(obj['live'])} live rings, "
          f"{len(obj['dumps'])} dumps ({obj['dumps_total']} total)")


def validate_profile(path):
    """A GET /debug/profile body: per-route span aggregates."""
    obj = load_json(path)
    routes = obj.get("routes")
    if not isinstance(routes, list):
        fail(f"{path}: routes should be a list")
    seen = set()
    for i, r in enumerate(routes):
        if not isinstance(r.get("route"), str):
            fail(f"{path}: routes[{i}].route should be str")
        if not isinstance(r.get("requests"), int) or r["requests"] < 1:
            fail(f"{path}: routes[{i}].requests should be a positive int")
        spans = r.get("spans")
        if not isinstance(spans, list):
            fail(f"{path}: routes[{i}].spans should be a list")
        for j, s in enumerate(spans):
            for field, ftype in (("kind", str), ("label", str),
                                ("count", int), ("total_us", int),
                                ("self_us", int)):
                if not isinstance(s.get(field), ftype):
                    fail(f"{path}: routes[{i}].spans[{j}].{field} should "
                         f"be {ftype.__name__}, got {s.get(field)!r}")
            if s["kind"] not in SPAN_KINDS:
                fail(f"{path}: routes[{i}].spans[{j}]: unknown span kind "
                     f"{s['kind']!r}")
        seen.add(r["route"])
    if "/query" not in seen:
        fail(f"{path}: no /query profile (routes: {sorted(seen)})")
    print(f"ok: {path}: span profiles for {sorted(seen)}")


def validate_requests(path):
    """A GET /debug/requests body: the in-flight table. The request that
    fetched it registers itself, so the table is never empty."""
    obj = load_json(path)
    table = obj.get("in_flight")
    if not isinstance(table, list):
        fail(f"{path}: in_flight should be a list")
    if not table:
        fail(f"{path}: empty in-flight table (the fetch itself should "
             f"be registered)")
    for i, e in enumerate(table):
        for field, ftype in (("id", str), ("route", str), ("age_us", int)):
            if not isinstance(e.get(field), ftype):
                fail(f"{path}: in_flight[{i}].{field} should be "
                     f"{ftype.__name__}, got {e.get(field)!r}")
    print(f"ok: {path}: {len(table)} requests in flight")


def validate_slow_log(path):
    """A slow-query JSONL log: one self-contained record per line."""
    records = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{lineno}: not JSON ({e}): {line!r}")
            if obj.get("log") != "slow_query":
                fail(f"{path}:{lineno}: log should be 'slow_query', got "
                     f"{obj.get('log')!r}")
            for field, ftype in (("request_id", str), ("pattern", str),
                                ("status", str), ("elapsed_us", int),
                                ("stats", dict), ("profile", list)):
                if not isinstance(obj.get(field), ftype):
                    fail(f"{path}:{lineno}: {field} should be "
                         f"{ftype.__name__}, got {obj.get(field)!r}")
            for i, s in enumerate(obj["profile"]):
                for field, ftype in (("kind", str), ("label", str),
                                    ("count", int), ("total_us", int),
                                    ("self_us", int)):
                    if not isinstance(s.get(field), ftype):
                        fail(f"{path}:{lineno}: profile[{i}].{field} "
                             f"should be {ftype.__name__}, got "
                             f"{s.get(field)!r}")
            records += 1
    if records == 0:
        fail(f"{path}: no slow-query records")
    print(f"ok: {path}: {records} slow-query records")


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "--serve":
        if len(sys.argv) not in (6, 10):
            fail("usage: validate_observability.py --serve METRICS.prom "
                 "EVENTS.jsonl COMPLETE.json INTERRUPTED.json "
                 "[FLIGHT.json PROFILE.json REQUESTS.json SLOW.jsonl]")
        validate_prom(sys.argv[2],
                      SERVE_REQUIRED_FAMILIES + SERVE_FACT_FAMILIES,
                      WAL_FAMILIES)
        validate_serve_events(sys.argv[3])
        validate_query_response(sys.argv[4], "complete")
        validate_query_response(sys.argv[5], "interrupted")
        if len(sys.argv) == 10:
            validate_flight(sys.argv[6])
            validate_profile(sys.argv[7])
            validate_requests(sys.argv[8])
            validate_slow_log(sys.argv[9])
        return
    if len(sys.argv) != 3:
        fail("usage: validate_observability.py TRACE.jsonl METRICS.prom "
             "(or --serve …)")
    validate_trace(sys.argv[1])
    validate_prom(sys.argv[2])


if __name__ == "__main__":
    main()
