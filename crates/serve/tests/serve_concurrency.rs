//! End-to-end concurrency tests over real sockets: keep-alive, admission
//! control, shutdown, bounded-queue behavior for stalled `/events`
//! subscribers, and the per-request observability surface. (Concurrent
//! answers against the once-materialised model are pinned down by
//! `one_read_path.rs`.)

#![allow(clippy::unwrap_used, clippy::expect_used)]

use itdb_core::{parse_workload, CancelToken, ServiceDefaults};
use itdb_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

const WORKLOAD: &str = "\
    # Example 4.1 plus a diverging predicate for trip tests.\n\
    tuple course (168n+8, 168n+10; database) : T2 = T1 + 2\n\
    rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).\n\
    rule problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).\n\
    tuple seed (n) : T1 = 0\n\
    rule p[t] <- seed[t].\n\
    rule p[t + 1] <- p[t].\n";

struct TestServer {
    addr: SocketAddr,
    shutdown: CancelToken,
    handle: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(config: ServeConfig) -> TestServer {
        let workload = parse_workload(WORKLOAD).unwrap();
        let server = Server::bind("127.0.0.1:0", workload, config).unwrap();
        let addr = server.local_addr();
        let shutdown = CancelToken::new();
        let token = shutdown.clone();
        let handle = thread::spawn(move || server.run(&token));
        TestServer {
            addr,
            shutdown,
            handle: Some(handle),
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown.cancel();
        if let Some(h) = self.handle.take() {
            h.join().unwrap().unwrap();
        }
    }
}

/// One raw HTTP exchange: send `request`, read the whole response. Reads
/// to EOF, so the request is rewritten to opt out of keep-alive.
fn exchange(addr: SocketAddr, request: &str) -> String {
    let request = request.replacen("Host: t\r\n", "Host: t\r\nConnection: close\r\n", 1);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

/// Reads exactly one response (headers + `Content-Length` body) off a
/// keep-alive connection, leaving the stream open for the next one.
fn read_one_response(reader: &mut BufReader<TcpStream>) -> String {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "connection closed mid-headers: {head:?}");
        head.push_str(&line);
        if line == "\r\n" {
            break;
        }
    }
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    head + &String::from_utf8(body).unwrap()
}

fn post_query(addr: SocketAddr, pattern: &str) -> String {
    exchange(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{pattern}",
            pattern.len()
        ),
    )
}

/// A server whose one materialisation runs on `fuel`: the diverging
/// predicate trips it.
fn starved(fuel: u64) -> ServeConfig {
    ServeConfig {
        defaults: ServiceDefaults {
            fuel: Some(fuel),
            timeout: None,
        },
        ..ServeConfig::default()
    }
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap()
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

/// The deterministic prefix of a /query JSON body: everything up to the
/// (wall-clock-bearing) stats object.
fn deterministic_part(body: &str) -> &str {
    body.split(",\"stats\":").next().unwrap_or(body)
}

#[test]
fn healthz_and_404_and_405() {
    let ts = TestServer::start(ServeConfig::default());
    let ok = exchange(ts.addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&ok), 200);
    assert_eq!(body_of(&ok), "ok\n");
    let missing = exchange(ts.addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&missing), 404);
    let wrong = exchange(ts.addr, "GET /query HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&wrong), 405);
}

#[test]
fn query_rejections_are_typed_not_500s() {
    let ts = TestServer::start(ServeConfig::default());
    // Empty body.
    let empty = exchange(
        ts.addr,
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
    );
    assert_eq!(status_of(&empty), 400);
    // Unknown predicate.
    let unknown = post_query(ts.addr, "ghost[t]");
    assert_eq!(status_of(&unknown), 422);
    assert!(body_of(&unknown).contains("unknown predicate"), "{unknown}");
    // Unparseable pattern.
    let garbled = post_query(ts.addr, "p[[");
    assert_eq!(status_of(&garbled), 422, "{garbled}");
}

/// A stalled `/events` subscriber fills its bounded
/// queue and loses events — visible in `/metrics` — while queries keep
/// being answered and a healthy subscriber keeps receiving.
#[test]
fn stalled_events_subscriber_drops_bounded_and_counted() {
    let ts = TestServer::start(ServeConfig {
        workers: 4,
        events_queue_cap: 4,
        events_keepalive: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    // A subscriber that never reads: its queue (cap 4) must overflow.
    let mut stalled = TcpStream::connect(ts.addr).unwrap();
    stalled
        .write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    // A healthy subscriber that drains continuously.
    let healthy = TcpStream::connect(ts.addr).unwrap();
    healthy
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    {
        let mut h = healthy.try_clone().unwrap();
        h.write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
    }
    let drained: Arc<std::sync::Mutex<Vec<String>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let drained2 = Arc::clone(&drained);
    let reader = thread::spawn(move || {
        let mut lines = BufReader::new(healthy);
        let mut line = String::new();
        while let Ok(n) = lines.read_line(&mut line) {
            if n == 0 {
                break;
            }
            drained2.lock().unwrap().push(line.trim().to_string());
            line.clear();
        }
    });
    // Give both subscriptions time to register, then generate plenty of
    // trace events: the first query materialises the model.
    thread::sleep(Duration::from_millis(300));
    for _ in 0..3 {
        let resp = post_query(ts.addr, "p[t]");
        assert_eq!(status_of(&resp), 200, "{resp}");
    }
    // Wait until the healthy subscriber observed evaluation events.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let seen = drained
            .lock()
            .unwrap()
            .iter()
            .filter(|l| l.contains("\"event\""))
            .count();
        if seen > 0 || Instant::now() > deadline {
            assert!(seen > 0, "healthy subscriber saw no events");
            break;
        }
        thread::sleep(Duration::from_millis(50));
    }
    // The stalled subscriber's drops are counted in /metrics.
    let metrics = exchange(ts.addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&metrics), 200);
    let body = body_of(&metrics);
    let dropped: f64 = body
        .lines()
        .find(|l| l.starts_with("itdb_events_dropped_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(dropped > 0.0, "expected counted drops, got:\n{body}");
    assert!(
        body.contains("itdb_http_requests_total"),
        "http families missing:\n{body}"
    );
    assert!(
        body.contains("itdb_queries_total 3"),
        "query counter missing:\n{body}"
    );
    drop(stalled);
    drop(ts); // shutdown ends the healthy stream
    reader.join().unwrap();
}

/// HTTP/1.1 keep-alive: one connection serves several requests, the
/// per-connection bound closes it, and `Connection: close` is honored.
#[test]
fn keep_alive_reuses_one_connection_up_to_the_bound() {
    let ts = TestServer::start(ServeConfig {
        max_requests_per_conn: 3,
        ..ServeConfig::default()
    });
    let stream = TcpStream::connect(ts.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // Two requests ride the same connection...
    for _ in 0..2 {
        writer
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let resp = read_one_response(&mut reader);
        assert_eq!(status_of(&resp), 200);
        assert!(resp.contains("Connection: keep-alive\r\n"), "{resp}");
        assert!(resp.ends_with("ok\n"), "{resp}");
    }
    // ...and the third hits max_requests_per_conn: answered, then closed.
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let resp = read_one_response(&mut reader);
    assert_eq!(status_of(&resp), 200);
    assert!(resp.contains("Connection: close\r\n"), "{resp}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "server kept talking after close: {rest}");

    // An explicit `Connection: close` on a fresh connection closes at
    // once, well under the bound.
    let resp = exchange(ts.addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(resp.contains("Connection: close\r\n"), "{resp}");
}

/// A keep-alive connection that goes idle is closed by the server after
/// `keepalive_idle`, silently (no error response).
#[test]
fn idle_keep_alive_connections_are_reaped() {
    let ts = TestServer::start(ServeConfig {
        keepalive_idle: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let stream = TcpStream::connect(ts.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let resp = read_one_response(&mut reader);
    assert_eq!(status_of(&resp), 200);
    // Send nothing more: the server must hang up on its own, without
    // writing anything else.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "idle close was not silent: {rest}");
}

/// Admission control: with a zero queue deadline, requests are shed with
/// a fast 503 carrying `Retry-After`, and the shed counter shows it.
#[test]
fn expiring_requests_are_shed_with_retry_after() {
    let ts = TestServer::start(ServeConfig {
        workers: 2,
        queue_deadline: Duration::ZERO,
        ..ServeConfig::default()
    });
    let mut shed = Vec::new();
    let mut served = 0u32;
    for _ in 0..10 {
        let resp = post_query(ts.addr, "p[t]");
        match status_of(&resp) {
            503 => shed.push(resp),
            200 => served += 1,
            other => panic!("unexpected status {other}: {resp}"),
        }
    }
    // The first request may squeak through while the EWMA is still zero,
    // but once it is seeded every later one must shed.
    assert!(!shed.is_empty(), "nothing shed with a zero deadline");
    assert!(served <= 1, "EWMA admission let {served} through");
    for resp in &shed {
        assert!(resp.contains("Retry-After: "), "{resp}");
        assert!(body_of(resp).contains("overloaded"), "{resp}");
    }
    // (The shed counter itself can't be scraped here — with a zero
    // deadline the /metrics request would be shed too. Its rendering is
    // covered by the HttpMetrics unit tests and the chaos soak.)
}

/// The latency histogram replaces the plain seconds counter: `_bucket`,
/// `_sum` and `_count` samples per (method, route, status).
#[test]
fn metrics_expose_latency_histogram_per_route() {
    let ts = TestServer::start(ServeConfig::default());
    let resp = post_query(ts.addr, "p[t]");
    assert_eq!(status_of(&resp), 200);
    let metrics = exchange(ts.addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    let body = body_of(&metrics);
    assert!(
        body.contains("# TYPE itdb_http_request_seconds histogram"),
        "{body}"
    );
    let labels = "method=\"POST\",route=\"/query\",status=\"200\"";
    assert!(
        body.contains(&format!(
            "itdb_http_request_seconds_bucket{{{labels},le=\"+Inf\"}} 1"
        )),
        "{body}"
    );
    assert!(
        body.contains(&format!("itdb_http_request_seconds_count{{{labels}}} 1")),
        "{body}"
    );
    assert!(
        body.contains(&format!("itdb_http_request_seconds_sum{{{labels}}}")),
        "{body}"
    );
    assert!(
        !body.contains("itdb_http_request_seconds_total"),
        "replaced family still present:\n{body}"
    );
    // Admission-control gauges ride along on /metrics.
    assert!(body.contains("itdb_http_queue_depth"), "{body}");
    assert!(
        body.contains("itdb_http_service_time_ewma_seconds"),
        "{body}"
    );
}

/// Graceful shutdown: cancelling the token ends `run` and the port stops
/// accepting; queued work completes first.
#[test]
fn shutdown_drains_and_returns() {
    let ts = TestServer::start(ServeConfig::default());
    let resp = post_query(ts.addr, "problems[t, t + 2](database)");
    assert_eq!(status_of(&resp), 200);
    let addr = ts.addr;
    drop(ts); // cancels + joins in Drop, asserting run() returned Ok
              // The listener is gone: a fresh connection must fail (or be refused
              // on first use).
    let gone = TcpStream::connect_timeout(&addr, Duration::from_millis(500));
    if let Ok(mut s) = gone {
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        let mut buf = String::new();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let r = s.read_to_string(&mut buf);
        assert!(
            r.is_err() || buf.is_empty(),
            "server still answering: {buf}"
        );
    }
}

/// `/metrics` exposes the engine counters of the materialisation, which
/// ran on a pooled worker — they reflect work done on *another* thread,
/// which only works because the service folds evaluation stats
/// explicitly.
#[test]
fn metrics_reflect_cross_thread_evaluation_stats() {
    let ts = TestServer::start(ServeConfig::default());
    for _ in 0..2 {
        let resp = post_query(ts.addr, "problems[t, t + 2](database)");
        assert_eq!(status_of(&resp), 200);
    }
    let metrics = exchange(ts.addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    let body = body_of(&metrics);
    let derived: f64 = body
        .lines()
        .find(|l| l.starts_with("itdb_tuples_derived_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(derived > 0.0, "folded engine counters missing:\n{body}");
    let checks: f64 = body
        .lines()
        .find(|l| l.starts_with("itdb_subsumption_checks_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(checks > 0.0, "thread-local counters not folded:\n{body}");
}

/// Request identity over real sockets: inbound ids are honored and echoed
/// (header + JSON, after `stats`), minted ids are unique, and every trace
/// event streamed over `/events` carries the id of the request that
/// emitted it — the first query's, whose read materialised the model.
#[test]
fn request_ids_are_minted_echoed_and_stamped_on_events() {
    let ts = TestServer::start(ServeConfig {
        events_keepalive: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    // A draining /events subscriber capturing the stream.
    let subscriber = TcpStream::connect(ts.addr).unwrap();
    subscriber
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    {
        let mut w = subscriber.try_clone().unwrap();
        w.write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
    }
    let captured: Arc<std::sync::Mutex<Vec<String>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let captured2 = Arc::clone(&captured);
    let reader = thread::spawn(move || {
        let mut lines = BufReader::new(subscriber);
        let mut line = String::new();
        while let Ok(n) = lines.read_line(&mut line) {
            if n == 0 {
                break;
            }
            captured2.lock().unwrap().push(line.trim().to_string());
            line.clear();
        }
    });
    thread::sleep(Duration::from_millis(300));

    // Inbound id: echoed in the response header and in the JSON body,
    // rendered after `stats` so deterministic_part() is id-free.
    let resp = exchange(
        ts.addr,
        "POST /query HTTP/1.1\r\nHost: t\r\nX-Itdb-Request-Id: client-id-7\r\n\
         Content-Length: 4\r\n\r\np[t]",
    );
    assert_eq!(status_of(&resp), 200, "{resp}");
    assert!(
        resp.contains("X-Itdb-Request-Id: client-id-7\r\n"),
        "{resp}"
    );
    assert!(
        body_of(&resp).ends_with(",\"request_id\":\"client-id-7\"}"),
        "{resp}"
    );
    assert!(
        !deterministic_part(body_of(&resp)).contains("request_id"),
        "id must not disturb byte-comparison harnesses: {resp}"
    );

    // Minted ids: present and unique when the client sends none.
    let id_of = |resp: &str| -> String {
        resp.lines()
            .find_map(|l| l.strip_prefix("X-Itdb-Request-Id: "))
            .map(|v| v.trim().to_string())
            .unwrap_or_else(|| panic!("no request id header: {resp}"))
    };
    let a = post_query(ts.addr, "p[t]");
    let b = post_query(ts.addr, "p[t]");
    let (ida, idb) = (id_of(&a), id_of(&b));
    assert_ne!(ida, idb, "minted ids must be unique");
    assert!(
        body_of(&a).contains(&format!("\"request_id\":\"{ida}\"")),
        "{a}"
    );

    // A data-constant pattern narrows its lookup to one index bucket; the
    // lookup's `index_lookup` event carries the id of the read.
    let narrowed = exchange(
        ts.addr,
        "POST /query HTTP/1.1\r\nHost: t\r\nX-Itdb-Request-Id: lookup-id-9\r\n\
         Content-Length: 24\r\n\r\ncourse[t1, t2](database)",
    );
    assert_eq!(status_of(&narrowed), 200, "{narrowed}");
    assert!(body_of(&narrowed).contains("\"answers\":[\""), "{narrowed}");

    // Every evaluation event on the stream is stamped with some request
    // id, and the explicit client ids show up on their requests' events.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let lines = captured.lock().unwrap().clone();
        let events: Vec<&String> = lines.iter().filter(|l| l.contains("\"event\"")).collect();
        let has_client_id = events
            .iter()
            .any(|l| l.contains("\"request_id\":\"client-id-7\""));
        let has_lookup_id = events.iter().any(|l| {
            l.contains("\"event\":\"index_lookup\"") && l.contains("\"request_id\":\"lookup-id-9\"")
        });
        if (has_client_id && has_lookup_id && events.len() >= 3) || Instant::now() > deadline {
            assert!(!events.is_empty(), "no events captured");
            assert!(has_client_id, "client id missing from events: {events:#?}");
            assert!(
                has_lookup_id,
                "narrowed lookup's index_lookup event missing or unstamped: {events:#?}"
            );
            for e in &events {
                assert!(
                    e.contains("\"request_id\":\""),
                    "unstamped event on the stream: {e}"
                );
            }
            break;
        }
        thread::sleep(Duration::from_millis(50));
    }
    drop(ts);
    reader.join().unwrap();
}

/// The `/debug` family over real sockets: `/debug/requests` shows its own
/// in-flight request, `/debug/profile` aggregates the `/query` span
/// profile, and `/debug/flight` serves live rings plus retained dumps —
/// including one captured automatically when the read that materialised
/// the model tripped, keyed by that read's id.
#[test]
fn debug_endpoints_expose_requests_profile_and_trip_dumps() {
    let ts = TestServer::start(starved(2));

    // The first query materialises under fuel 2, trips on the diverging
    // predicate, and captures a flight dump tagged governor_trip + its
    // request id.
    let tripped = exchange(
        ts.addr,
        "POST /query HTTP/1.1\r\nHost: t\r\nX-Itdb-Request-Id: trip-me\r\n\
         Content-Length: 4\r\n\r\np[t]",
    );
    assert!(
        body_of(&tripped).contains("\"status\":\"interrupted\""),
        "{tripped}"
    );

    // /debug/requests registers itself, so the table shows its own id.
    let reqs = exchange(
        ts.addr,
        "GET /debug/requests HTTP/1.1\r\nHost: t\r\nX-Itdb-Request-Id: debug-self\r\n\r\n",
    );
    assert_eq!(status_of(&reqs), 200);
    let body = body_of(&reqs);
    assert!(body.starts_with("{\"in_flight\":["), "{body}");
    assert!(body.contains("\"id\":\"debug-self\""), "{body}");
    assert!(body.contains("\"route\":\"/debug/requests\""), "{body}");
    assert!(body.contains("\"age_us\":"), "{body}");

    // /debug/profile has folded the query's span profile under /query.
    let prof = exchange(ts.addr, "GET /debug/profile HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&prof), 200);
    let body = body_of(&prof);
    assert!(body.contains("\"route\":\"/query\""), "{body}");
    assert!(body.contains("\"requests\":1"), "{body}");
    assert!(body.contains("\"total_us\":"), "{body}");

    // /debug/flight: live per-worker rings hold recent events, and the
    // trip's dump was retained with reason + request id.
    let flight = exchange(ts.addr, "GET /debug/flight HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&flight), 200);
    let body = body_of(&flight);
    assert!(body.starts_with("{\"dumps_total\":"), "{body}");
    assert!(
        !body.contains("\"dumps_total\":0"),
        "no dump captured: {body}"
    );
    assert!(body.contains("\"reason\":\"governor_trip\""), "{body}");
    assert!(body.contains("\"request_id\":\"trip-me\""), "{body}");
    assert!(body.contains("\"live\":["), "{body}");
    assert!(body.contains("\"thread\":\""), "{body}");
    // The dump's ring window contains the tripped request's own events.
    assert!(body.contains("\"event\":\"governor_trip\""), "{body}");

    // Wrong methods on debug routes are 405s, not 404s.
    let wrong = exchange(ts.addr, "POST /debug/flight HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&wrong), 405);
}

/// Slow-query logging end to end: with a zero threshold every `/query`
/// writes one JSONL record — request id, pattern, status, evaluation
/// stats, span profile — to the configured file.
#[test]
fn slow_query_log_records_round_trip_through_the_file() {
    let dir = std::env::temp_dir().join(format!("itdb_serve_slow_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("slow.jsonl");
    let ts = TestServer::start(ServeConfig {
        slow_query_ms: Some(0),
        slow_log: Some(path.clone()),
        ..ServeConfig::default()
    });
    let resp = exchange(
        ts.addr,
        "POST /query HTTP/1.1\r\nHost: t\r\nX-Itdb-Request-Id: slow-1\r\n\
         Content-Length: 4\r\n\r\np[t]",
    );
    assert_eq!(status_of(&resp), 200, "{resp}");
    // /metrics sees the slow-query counter and the new gauges.
    let metrics = exchange(ts.addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    let mbody = body_of(&metrics).to_string();
    assert!(mbody.contains("itdb_slow_queries_total 1"), "{mbody}");
    assert!(mbody.contains("itdb_flight_dumps_total"), "{mbody}");
    assert!(mbody.contains("itdb_events_streamers"), "{mbody}");
    assert!(mbody.contains("itdb_http_in_flight"), "{mbody}");
    drop(ts); // run() flushes the slow log on drain
    let text = std::fs::read_to_string(&path).unwrap();
    let line = text
        .lines()
        .next()
        .unwrap_or_else(|| panic!("empty slow log"));
    assert!(line.starts_with("{\"log\":\"slow_query\""), "{line}");
    assert!(line.contains("\"request_id\":\"slow-1\""), "{line}");
    assert!(line.contains("\"pattern\":\"p[t]\""), "{line}");
    assert!(line.contains("\"status\":\"diverged\""), "{line}");
    assert!(!line.contains("\"governor\""), "{line}");
    assert!(line.contains("\"stats\":{"), "{line}");
    assert!(line.contains("\"profile\":["), "{line}");
    assert!(line.ends_with("]}"), "{line}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `/events` streams no longer occupy query workers: with a single
/// worker, a live subscriber and queries proceed concurrently, and the
/// streamer gauge tracks the dedicated thread.
#[test]
fn events_streamers_run_off_the_worker_pool() {
    let ts = TestServer::start(ServeConfig {
        workers: 1,
        events_keepalive: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let subscriber = TcpStream::connect(ts.addr).unwrap();
    subscriber
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    {
        let mut w = subscriber.try_clone().unwrap();
        w.write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
    }
    // Let the subscription land on the lone worker, then prove the worker
    // is free again: queries still answer.
    thread::sleep(Duration::from_millis(300));
    let resp = post_query(ts.addr, "p[t]");
    assert_eq!(status_of(&resp), 200, "{resp}");
    let metrics = exchange(ts.addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    let body = body_of(&metrics);
    let streamers: f64 = body
        .lines()
        .find(|l| l.starts_with("itdb_events_streamers"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(streamers >= 1.0, "dedicated streamer not counted:\n{body}");
    drop(subscriber);
}
