//! End-to-end streaming ingestion over real sockets: `POST /facts`
//! batches are durable in the WAL, visible to `/query` immediately
//! (closed-form reads from the resident model), idempotent under
//! request-id retries, and byte-identically recovered after a restart
//! from checkpoint + WAL replay.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use itdb_core::{parse_workload, CancelToken};
use itdb_serve::{IngestConfig, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

const WORKLOAD: &str = "\
    tuple course (168n+8, 168n+10; database) : T2 = T1 + 2\n\
    rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).\n\
    rule problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).\n";

struct TestServer {
    addr: SocketAddr,
    shutdown: CancelToken,
    handle: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(config: ServeConfig) -> TestServer {
        TestServer::start_with(WORKLOAD, config)
    }

    fn start_with(workload: &str, config: ServeConfig) -> TestServer {
        let workload = parse_workload(workload).unwrap();
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

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "itdb_ingest_e2e_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ingest_config(dir: &PathBuf) -> ServeConfig {
    ServeConfig {
        ingest: Some(IngestConfig::new(dir)),
        ..ServeConfig::default()
    }
}

/// One exchange with `Connection: close`; reads the whole response.
fn exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
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

fn post_facts(addr: SocketAddr, request_id: &str, body: &str) -> String {
    exchange(
        addr,
        &format!(
            "POST /facts HTTP/1.1\r\nHost: t\r\nX-Itdb-Request-Id: {request_id}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
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

/// The deterministic prefix of a /query JSON body (strips wall-clock
/// stats).
fn deterministic_part(body: &str) -> &str {
    body.split(",\"stats\":").next().unwrap_or(body)
}

const NEW_COURSE: &str =
    r#"{"facts":[{"pred":"course","tuple":"(168n+30, 168n+32; compilers) : T2 = T1 + 2"}]}"#;

/// Without a WAL the server still accepts `/facts`: the first write
/// materialises the model, the next read sees the batch, and a retry
/// under the same request id is answered from the dedup window.
#[test]
fn facts_apply_without_a_wal() {
    let ts = TestServer::start(ServeConfig::default());
    let resp = post_facts(ts.addr, "req-1", NEW_COURSE);
    assert_eq!(status_of(&resp), 202, "{resp}");
    assert!(body_of(&resp).contains("\"applied\":1"), "{resp}");
    assert!(body_of(&resp).contains("\"seq\":1"), "{resp}");
    let after = post_query(ts.addr, "problems[t1, t2](C)");
    assert_eq!(status_of(&after), 200);
    assert!(body_of(&after).contains("compilers"), "{after}");
    let retry = post_facts(ts.addr, "req-1", NEW_COURSE);
    assert_eq!(status_of(&retry), 202);
    assert!(
        body_of(&retry).contains("\"duplicate_request\":true"),
        "{retry}"
    );
    assert!(body_of(&retry).contains("\"seq\":null"), "{retry}");
}

/// A model whose materialisation tripped the server's fuel is partial:
/// it refuses writes with 422 and keeps serving its reads `interrupted`.
#[test]
fn tripped_model_without_a_wal_refuses_facts() {
    let diverging = "tuple seed (n) : T1 = 0\n\
                     rule p[t] <- seed[t].\n\
                     rule p[t + 1] <- p[t].\n";
    let mut config = ServeConfig::default();
    config.defaults.fuel = Some(3);
    let ts = TestServer::start_with(diverging, config);
    let before = post_query(ts.addr, "p[t]");
    assert!(
        body_of(&before).contains("\"status\":\"interrupted\""),
        "{before}"
    );
    let resp = post_facts(
        ts.addr,
        "req-1",
        r#"{"facts":[{"pred":"seed","tuple":"(n) : T1 = 5"}]}"#,
    );
    assert_eq!(status_of(&resp), 422, "{resp}");
    assert!(body_of(&resp).contains("partial model"), "{resp}");
    let after = post_query(ts.addr, "p[t]");
    assert_eq!(
        deterministic_part(body_of(&after)),
        deterministic_part(body_of(&before)),
        "the refused batch left the model as it was"
    );
}

/// Subscribes to `/events`, runs `act`, and collects the streamed event
/// lines until `done` holds for them (or ten seconds pass).
fn events_around<T>(
    addr: SocketAddr,
    act: impl FnOnce() -> T,
    done: impl Fn(&[String]) -> bool,
) -> (T, Vec<String>) {
    let subscriber = TcpStream::connect(addr).unwrap();
    subscriber
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut w = subscriber.try_clone().unwrap();
    w.write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(subscriber);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut line = String::new();
    // The response head arrives once the subscription is live.
    while line != "\r\n" && Instant::now() < deadline {
        line.clear();
        let _ = reader.read_line(&mut line);
    }
    let out = act();
    let mut lines = Vec::new();
    line.clear();
    while !done(&lines) && Instant::now() < deadline {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if line.contains("\"event\"") {
                    lines.push(line.trim().to_string());
                }
                line.clear();
            }
            // Read timeout: keep any partial line and poll again.
            Err(_) => {}
        }
    }
    (out, lines)
}

#[test]
fn facts_accepted_visible_and_idempotent() {
    let dir = temp_dir("visible");
    let ts = TestServer::start(ingest_config(&dir));

    // Before the batch: the derived relation has no `compilers` row.
    let before = post_query(ts.addr, "problems[t1, t2](C)");
    assert_eq!(status_of(&before), 200);
    assert!(!body_of(&before).contains("compilers"));

    // The batch's maintenance events stream over `/events` stamped with
    // its request id.
    let (accepted, events) = events_around(
        ts.addr,
        || post_facts(ts.addr, "req-1", NEW_COURSE),
        |lines| {
            lines
                .iter()
                .any(|l| l.contains("\"event\":\"facts_ingested\""))
        },
    );
    let inserted: Vec<&String> = events
        .iter()
        .filter(|l| l.contains("\"event\":\"tuple_inserted\""))
        .collect();
    assert_eq!(inserted.len(), 7, "one per derived tuple: {events:#?}");
    for e in &events {
        assert!(e.ends_with(",\"request_id\":\"req-1\"}"), "unstamped: {e}");
    }
    assert_eq!(status_of(&accepted), 202);
    let body = body_of(&accepted);
    assert!(body.contains("\"status\":\"accepted\""), "{body}");
    assert!(body.contains("\"applied\":1"), "{body}");
    assert!(body.contains("\"duplicate_request\":false"), "{body}");
    assert!(body.contains("\"request_id\":\"req-1\""), "{body}");

    // The derived consequence is visible immediately, closed-form.
    let after = post_query(ts.addr, "problems[t1, t2](C)");
    assert_eq!(status_of(&after), 200);
    assert!(body_of(&after).contains("compilers"), "{after}");
    assert!(body_of(&after).contains("\"status\":\"complete\""));

    // Retrying the same request id is answered from the dedup window.
    let retried = post_facts(ts.addr, "req-1", NEW_COURSE);
    assert_eq!(status_of(&retried), 202);
    assert!(body_of(&retried).contains("\"duplicate_request\":true"));
    assert!(
        body_of(&retried).contains("\"applied\":1"),
        "remembered first-application count: {retried}"
    );

    // Malformed batches are typed 400s, not 500s.
    let bad = post_facts(ts.addr, "req-2", r#"{"facts":[{"pred":"course"}]}"#);
    assert_eq!(status_of(&bad), 400);
    let not_json = post_facts(ts.addr, "req-3", "not json");
    assert_eq!(status_of(&not_json), 400);
    // Facts for an intensional predicate are rejected, and the server
    // stays healthy.
    let idb = post_facts(
        ts.addr,
        "req-4",
        r#"{"facts":[{"pred":"problems","tuple":"(6n+1, 6n+3; x) : T2 = T1 + 2"}]}"#,
    );
    assert_eq!(status_of(&idb), 422);
    let health = exchange(ts.addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&health), 200);

    // /metrics exposes the ingest families.
    let metrics = exchange(ts.addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    let mbody = body_of(&metrics);
    assert!(mbody.contains("itdb_facts_ingested_total 1"), "{mbody}");
    assert!(mbody.contains("itdb_wal_appends_total"), "{mbody}");
    assert!(mbody.contains("itdb_ingest_queue_depth"), "{mbody}");

    drop(ts);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retraction_end_to_end_and_survives_restart() {
    let dir = temp_dir("retract");
    let reference = {
        let ts = TestServer::start(ingest_config(&dir));
        let accepted = post_facts(ts.addr, "a-1", NEW_COURSE);
        assert_eq!(status_of(&accepted), 202);
        let visible = post_query(ts.addr, "problems[t1, t2](C)");
        assert!(body_of(&visible).contains("compilers"), "{visible}");

        // Retract the course: its derived consequences disappear too.
        let retracted = post_facts(
            ts.addr,
            "r-1",
            r#"{"facts":[{"op":"retract","pred":"course","tuple":"(168n+30, 168n+32; compilers) : T2 = T1 + 2"}]}"#,
        );
        assert_eq!(status_of(&retracted), 202, "{retracted}");
        let body = body_of(&retracted);
        assert!(body.contains("\"retracted\":1"), "{body}");
        assert!(body.contains("\"applied\":0"), "{body}");
        assert!(body.contains("\"seq\":2"), "{body}");
        let after = post_query(ts.addr, "problems[t1, t2](C)");
        assert_eq!(status_of(&after), 200);
        assert!(
            !body_of(&after).contains("compilers"),
            "derived consequences of a retracted fact must be gone: {after}"
        );
        assert!(body_of(&after).contains("\"status\":\"complete\""));

        // Retrying the retraction is answered from the dedup window, and
        // `seq` is null — nothing was re-logged.
        let retried = post_facts(
            ts.addr,
            "r-1",
            r#"{"facts":[{"op":"retract","pred":"course","tuple":"(168n+30, 168n+32; compilers) : T2 = T1 + 2"}]}"#,
        );
        assert_eq!(status_of(&retried), 202);
        assert!(body_of(&retried).contains("\"duplicate_request\":true"));
        assert!(body_of(&retried).contains("\"seq\":null"), "{retried}");
        assert!(body_of(&retried).contains("\"retracted\":1"), "{retried}");

        // Retracting a derived predicate is a typed 422 with guidance.
        let idb = post_facts(
            ts.addr,
            "r-2",
            r#"{"facts":[{"op":"retract","pred":"problems","tuple":"(6n+1, 6n+3; x) : T2 = T1 + 2"}]}"#,
        );
        assert_eq!(status_of(&idb), 422, "{idb}");
        assert!(body_of(&idb).contains("intensional"), "{idb}");
        // Unknown ops never reach the model.
        let bad_op = post_facts(
            ts.addr,
            "r-3",
            r#"{"facts":[{"op":"upsert","pred":"course","tuple":"(6n+1, 6n+3; x) : T2 = T1 + 2"}]}"#,
        );
        assert_eq!(status_of(&bad_op), 400, "{bad_op}");

        // /metrics exposes the retraction families.
        let metrics = exchange(ts.addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        let mbody = body_of(&metrics);
        assert!(mbody.contains("itdb_facts_retracted_total 1"), "{mbody}");
        assert!(
            mbody.contains("itdb_retraction_overdeleted_total"),
            "{mbody}"
        );
        assert!(mbody.contains("itdb_retraction_rederived_total"), "{mbody}");
        assert!(
            mbody.contains("itdb_retraction_overdeletion_ratio"),
            "{mbody}"
        );

        let answer = post_query(ts.addr, "problems[t1, t2](C)");
        deterministic_part(body_of(&answer)).to_string()
    };

    // Restart: the replayed retraction keeps the consequences gone and
    // the answer byte-identical.
    let ts = TestServer::start(ingest_config(&dir));
    let recovered = post_query(ts.addr, "problems[t1, t2](C)");
    assert_eq!(status_of(&recovered), 200);
    assert_eq!(deterministic_part(body_of(&recovered)), reference);
    assert!(!body_of(&recovered).contains("compilers"));
    drop(ts);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tripped_ingest_answers_503_and_heals_without_restart() {
    // A recursion that needs ~7 iterations per seed tuple, governed to 3:
    // any batch on `e` trips and rolls back; batches on `f` are fine.
    let trip_workload = "\
        rule p[t + 2](C) <- e[t](C).\n\
        rule p[t + 48](C) <- p[t](C).\n\
        rule q[t](C) <- f[t](C).\n";
    let dir = temp_dir("tripped");
    let mut ingest = IngestConfig::new(&dir);
    ingest.eval.max_iterations = 3;
    let ts = TestServer::start_with(
        trip_workload,
        ServeConfig {
            ingest: Some(ingest),
            ..ServeConfig::default()
        },
    );
    let tripped = post_facts(
        ts.addr,
        "trip-1",
        r#"{"facts":[{"pred":"e","tuple":"(168n+1; x)"}]}"#,
    );
    assert_eq!(status_of(&tripped), 503, "{tripped}");
    assert!(
        tripped.contains("Retry-After:"),
        "tripped responses carry a retry hint: {tripped}"
    );
    assert!(
        body_of(&tripped).contains("rolled back"),
        "the body says the model is unchanged: {tripped}"
    );
    // The same server keeps accepting unrelated work — no restart needed.
    let ok = post_facts(
        ts.addr,
        "ok-1",
        r#"{"facts":[{"pred":"f","tuple":"(24n+1; y)"}]}"#,
    );
    assert_eq!(status_of(&ok), 202, "healed without restart: {ok}");
    let q = post_query(ts.addr, "q[t](C)");
    assert_eq!(status_of(&q), 200);
    assert!(body_of(&q).contains("24n+1"), "{q}");
    let health = exchange(ts.addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert_eq!(status_of(&health), 200);
    let metrics = exchange(ts.addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(
        body_of(&metrics).contains("itdb_ingest_batches_tripped_total 1"),
        "{metrics}"
    );
    drop(ts);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_replays_wal_and_preserves_answers() {
    let dir = temp_dir("restart");

    let reference = {
        let ts = TestServer::start(ingest_config(&dir));
        for (i, course) in ["compilers", "networks", "databases2"].iter().enumerate() {
            let body = format!(
                r#"{{"facts":[{{"pred":"course","tuple":"(168n+{}, 168n+{}; {course}) : T2 = T1 + 2"}}]}}"#,
                30 + 10 * i,
                32 + 10 * i
            );
            let resp = post_facts(ts.addr, &format!("req-{i}"), &body);
            assert_eq!(status_of(&resp), 202, "{resp}");
        }
        let answer = post_query(ts.addr, "problems[t1, t2](C)");
        assert_eq!(status_of(&answer), 200);
        deterministic_part(body_of(&answer)).to_string()
        // TestServer::drop: graceful shutdown (flushes WAL + checkpoint).
    };
    assert!(reference.contains("networks"), "{reference}");

    // Restart from the same WAL dir: answers are byte-identical.
    let ts = TestServer::start(ingest_config(&dir));
    let recovered = post_query(ts.addr, "problems[t1, t2](C)");
    assert_eq!(status_of(&recovered), 200);
    assert_eq!(deterministic_part(body_of(&recovered)), reference);

    // A pre-restart request id retried after recovery is still deduped.
    let replayed = post_facts(
        ts.addr,
        "req-1",
        r#"{"facts":[{"pred":"course","tuple":"(168n+40, 168n+42; networks) : T2 = T1 + 2"}]}"#,
    );
    assert_eq!(status_of(&replayed), 202);
    assert!(
        body_of(&replayed).contains("\"duplicate_request\":true"),
        "dedup window survives restart: {replayed}"
    );

    drop(ts);
    let _ = std::fs::remove_dir_all(&dir);
}
