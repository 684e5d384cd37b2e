//! The chaos soak: a live server under a **deterministic** fault
//! schedule — handler panics, worker deaths, and a stalled `/events`
//! client — must keep every invariant:
//!
//! - every accepted request gets exactly one response (none lost, none
//!   duplicated);
//! - the worker pool is restored after every injected death;
//! - `/metrics` counters stay monotone across the soak;
//! - after a restart the server answers byte-identically to a fresh
//!   reference server, and its counters start again from zero.
//!
//! Compiled only with `--features chaos` (see `[[test]]` in Cargo.toml).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use itdb_core::{parse_workload, CancelToken, ServiceDefaults};
use itdb_serve::chaos::ChaosConfig;
use itdb_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

const WORKLOAD: &str = "\
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

/// One exchange with `Connection: close`; reads the whole response.
fn exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

fn post_query(addr: SocketAddr, pattern: &str) -> String {
    exchange(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{pattern}",
            pattern.len()
        ),
    )
}

fn get(addr: SocketAddr, path: &str) -> String {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn body_of(response: &str) -> &str {
    response.split("\r\n\r\n").nth(1).unwrap_or("")
}

fn deterministic_part(body: &str) -> &str {
    body.split(",\"stats\":").next().unwrap_or(body)
}

/// Fetches `/metrics`, retrying past injected chaos 500s.
fn fetch_metrics(addr: SocketAddr) -> String {
    for _ in 0..20 {
        let resp = get(addr, "/metrics");
        if status_of(&resp) == 200 {
            return body_of(&resp).to_string();
        }
    }
    panic!("no 200 from /metrics in 20 attempts");
}

fn counter_samples(metrics: &str) -> BTreeMap<String, f64> {
    metrics
        .lines()
        .filter(|l| !l.starts_with('#') && l.contains("_total"))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// The main soak: scheduled panics and worker deaths while a stalled
/// `/events` client hangs off the server.
#[test]
fn soak_survives_scheduled_panics_and_deaths() {
    let ts = TestServer::start(ServeConfig {
        workers: 4,
        chaos: Some(ChaosConfig {
            panic_every: Some(7),
            kill_every: Some(13),
        }),
        ..ServeConfig::default()
    });

    // A stalled subscriber that never reads: must not starve the soak.
    let mut stalled = TcpStream::connect(ts.addr).unwrap();
    stalled
        .write_all(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();

    const N: usize = 60;
    let mut statuses = Vec::with_capacity(N);
    for i in 0..N {
        let resp = if i % 2 == 0 {
            post_query(ts.addr, "p[t]")
        } else {
            get(ts.addr, "/healthz")
        };
        // Exactly one response per request: none lost, none duplicated.
        assert_eq!(
            resp.matches("HTTP/1.1 ").count(),
            1,
            "request {i} got {resp:?}"
        );
        let status = status_of(&resp);
        assert!(
            status == 200 || status == 500,
            "request {i}: unexpected status {status}: {resp}"
        );
        statuses.push(status);
    }
    let failures = statuses.iter().filter(|&&s| s == 500).count();
    let successes = statuses.iter().filter(|&&s| s == 200).count();
    assert!(failures > 0, "the chaos schedule injected nothing");
    assert!(
        successes > N / 2,
        "pool did not stay healthy: {successes}/{N} succeeded"
    );

    // Supervision is visible: panics were caught, dead workers replaced.
    let m1 = fetch_metrics(ts.addr);
    assert!(
        counter(&m1, "itdb_worker_panics_total") >= 1.0,
        "no caught panics:\n{m1}"
    );
    assert!(
        counter(&m1, "itdb_worker_respawns_total") >= 1.0,
        "no respawns:\n{m1}"
    );

    // Counters stay monotone across more chaos.
    for _ in 0..10 {
        let _ = post_query(ts.addr, "p[t]");
    }
    let m2 = fetch_metrics(ts.addr);
    let (c1, c2) = (counter_samples(&m1), counter_samples(&m2));
    for (name, v1) in &c1 {
        if let Some(v2) = c2.get(name) {
            assert!(v2 >= v1, "counter {name} went backwards: {v1} -> {v2}");
        }
    }

    // The pool is restored: the full worker count answers in parallel.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let addr = ts.addr;
            thread::spawn(move || get(addr, "/healthz"))
        })
        .collect();
    let mut parallel_ok = 0;
    for h in handles {
        if status_of(&h.join().unwrap()) == 200 {
            parallel_ok += 1;
        }
    }
    assert!(
        parallel_ok >= 3,
        "pool not restored: only {parallel_ok}/4 parallel probes answered 200"
    );

    drop(stalled);
    drop(ts);
}

/// Restart equivalence: a server that served queries under chaos and
/// was stopped answers, once restarted, byte-identically to a reference
/// server that never ran — the model is a function of the workload
/// alone — and its counters start again from zero.
#[test]
fn restart_answers_like_a_fresh_server() {
    let queries = 6u64;
    {
        let ts = TestServer::start(ServeConfig {
            workers: 2,
            chaos: Some(ChaosConfig {
                panic_every: Some(4),
                kill_every: None,
            }),
            ..ServeConfig::default()
        });
        let mut served = 0;
        for _ in 0..queries {
            if status_of(&post_query(ts.addr, "p[t]")) == 200 {
                served += 1;
            }
        }
        assert!(served >= 1, "chaos swallowed every query");
    }

    let ts = TestServer::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let m = fetch_metrics(ts.addr);
    assert_eq!(counter(&m, "itdb_queries_total"), 0.0, "{m}");
    let reference = TestServer::start(ServeConfig::default());
    let after = post_query(ts.addr, "p[t]");
    let fresh = post_query(reference.addr, "p[t]");
    assert_eq!(status_of(&after), 200);
    assert_eq!(
        deterministic_part(body_of(&after)),
        deterministic_part(body_of(&fresh)),
        "restart changed query answers"
    );
    let m2 = fetch_metrics(ts.addr);
    assert_eq!(counter(&m2, "itdb_queries_total"), 1.0, "{m2}");
    assert!(counter(&m2, "itdb_tuples_derived_total") > 0.0, "{m2}");
}

/// Fetches a path, retrying past injected chaos 500s.
fn fetch_ok(addr: SocketAddr, path: &str) -> String {
    for _ in 0..20 {
        let resp = get(addr, path);
        if status_of(&resp) == 200 {
            return body_of(&resp).to_string();
        }
    }
    panic!("no 200 from {path} in 20 attempts");
}

/// Flight recorder under chaos: a governor trip mid-soak leaves a
/// retained dump — tagged with the id of the read whose materialisation
/// tripped and holding the ring's recent events — retrievable over
/// `/debug/flight` while panics keep landing, and counted in
/// `itdb_flight_dumps_total`.
#[test]
fn induced_trip_leaves_a_flight_dump_under_chaos() {
    let ts = TestServer::start(ServeConfig {
        workers: 2,
        // The server-level budget the one materialisation runs on: fuel
        // 2 trips on the diverging predicate.
        defaults: ServiceDefaults {
            fuel: Some(2),
            timeout: None,
        },
        chaos: Some(ChaosConfig {
            panic_every: Some(5),
            kill_every: None,
        }),
        ..ServeConfig::default()
    });
    // Let chaos panics fire before any query (each captures a
    // worker_panic dump of its own).
    for _ in 0..12 {
        let _ = get(ts.addr, "/healthz");
    }
    // The first query to reach the handler materialises and trips, with
    // an explicit id so the dump is attributable. Chaos may 500 it before
    // the handler runs; retry until it answers.
    let mut tripped = String::new();
    for _ in 0..20 {
        tripped = exchange(
            ts.addr,
            "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             X-Itdb-Request-Id: chaos-trip\r\n\
             Content-Length: 4\r\n\r\np[t]",
        );
        if status_of(&tripped) == 200 {
            break;
        }
    }
    assert!(
        body_of(&tripped).contains("\"status\":\"interrupted\""),
        "{tripped}"
    );
    let flight = fetch_ok(ts.addr, "/debug/flight");
    assert!(
        flight.contains("\"reason\":\"governor_trip\""),
        "no trip dump retained:\n{flight}"
    );
    assert!(
        flight.contains("\"request_id\":\"chaos-trip\""),
        "dump not attributed to the tripped request:\n{flight}"
    );
    assert!(
        flight.contains("\"event\":\"governor_trip\""),
        "dump's ring window lost the trip event:\n{flight}"
    );
    let metrics = fetch_metrics(ts.addr);
    assert!(
        counter(&metrics, "itdb_flight_dumps_total") >= 1.0,
        "dumps not counted:\n{metrics}"
    );
    // Chaos panics were captured as dumps too, reason worker_panic.
    if counter(&metrics, "itdb_worker_panics_total") >= 1.0 {
        assert!(
            flight.contains("\"reason\":\"worker_panic\""),
            "panic left no dump:\n{flight}"
        );
    }
    drop(ts);
}
