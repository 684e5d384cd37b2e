//! One read path: every `/query` is a lookup in a model computed once,
//! and its answer must equal the per-request-evaluation oracle
//! (`Service::run_query`) byte for byte, up to the `,"stats":` field.
//!
//! Covered: every predicate of the convergent CI workload in the one
//! model holder, without a WAL (the model the first read materialises,
//! `Ingest::in_memory`) and with one (the model `Ingest::open` recovers
//! at boot); the diverging CI workload at the default
//! budget (`diverged`) and under a starved server budget (`interrupted`,
//! with a non-empty sound partial model); and, over real sockets, eight
//! concurrent first reads racing the materialisation against sequential
//! reads.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use itdb_core::{
    parse_atom, parse_workload, CancelToken, QueryRequest, QueryResponse, QueryStatus,
    ResidentModel, Service, ServiceDefaults, Workload,
};
use itdb_serve::{Ingest, IngestConfig, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

const CONVERGENT: &str = include_str!("../../../ci/serve_workload.itdb");
const DIVERGING: &str = include_str!("../../../ci/serve_diverging.itdb");

fn prefix(json: &str) -> &str {
    json.split(",\"stats\":").next().unwrap_or(json)
}

/// A pattern asking for the whole relation: one distinct variable per
/// column.
fn full_pattern(model: &ResidentModel, pred: &str) -> String {
    let schema = model.relation(pred).unwrap().schema();
    let temporal: Vec<String> = (0..schema.temporal).map(|i| format!("t{i}")).collect();
    let data: Vec<String> = (0..schema.data).map(|i| format!("X{i}")).collect();
    if data.is_empty() {
        format!("{pred}[{}]", temporal.join(", "))
    } else {
        format!("{pred}[{}]({})", temporal.join(", "), data.join(", "))
    }
}

/// Every predicate the model answers for: derived first, then stored.
fn patterns(model: &ResidentModel) -> Vec<String> {
    let preds: Vec<String> = model
        .idb()
        .keys()
        .cloned()
        .chain(model.edb().iter().map(|(p, _)| p.to_string()))
        .collect();
    preds.iter().map(|p| full_pattern(model, p)).collect()
}

fn oracle(service: &Service, pattern: &str) -> QueryResponse {
    service
        .run_query(&QueryRequest {
            pattern: pattern.to_string(),
            fuel: None,
            timeout: None,
            request_id: None,
        })
        .unwrap()
}

/// Asserts the lookup answers of `model` equal `service`'s per-request
/// evaluation for every pattern, and returns the shared status.
fn assert_matches_oracle(model: &ResidentModel, service: &Service, extra: &[&str]) -> QueryStatus {
    let mut all = patterns(model);
    all.extend(extra.iter().map(|p| p.to_string()));
    for pattern in &all {
        let looked_up = model.answer(&parse_atom(pattern).unwrap()).unwrap();
        let evaluated = oracle(service, pattern);
        assert_eq!(
            prefix(&looked_up.to_json()),
            prefix(&evaluated.to_json()),
            "lookup and per-request evaluation disagree on `{pattern}`"
        );
    }
    model.status().clone()
}

fn workload(text: &str) -> Workload {
    parse_workload(text).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itdb_one_read_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The holder a server without a WAL builds on its first read, and the
/// lookup-vs-oracle status of every pattern in it.
fn in_memory_status(text: &str, defaults: ServiceDefaults, extra: &[&str]) -> QueryStatus {
    let service = Service::new(workload(text), defaults);
    let ingest = Ingest::in_memory(&service).unwrap();
    ingest.with_model(|model| assert_matches_oracle(model, &service, extra))
}

#[test]
fn convergent_lookups_match_per_request_evaluation_without_a_wal() {
    let service = Service::new(workload(CONVERGENT), ServiceDefaults::default());
    let ingest = Ingest::in_memory(&service).unwrap();
    assert!(service.totals().stats.tuples_derived > 0, "stats folded");
    let status = ingest.with_model(|model| {
        assert!(
            patterns(model).len() >= 2,
            "course and problems both covered"
        );
        assert_matches_oracle(model, &service, &["problems[t, t + 2](database)"])
    });
    assert_eq!(status, QueryStatus::Complete);
}

#[test]
fn convergent_lookups_match_per_request_evaluation_with_a_wal() {
    let dir = temp_dir("wal");
    let ingest = Ingest::open(IngestConfig::new(&dir), &workload(CONVERGENT)).unwrap();
    let service = Service::new(workload(CONVERGENT), ServiceDefaults::default());
    let status = ingest.with_model(|model| {
        assert_matches_oracle(model, &service, &["problems[t, t + 2](database)"])
    });
    assert_eq!(status, QueryStatus::Complete);
    drop(ingest);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diverging_workload_answers_diverged_at_the_default_budget() {
    assert_eq!(
        in_memory_status(DIVERGING, ServiceDefaults::default(), &[]),
        QueryStatus::Diverged
    );
}

#[test]
fn starved_server_budget_answers_interrupted_with_a_partial_model() {
    let starved = ServiceDefaults {
        fuel: Some(3),
        timeout: None,
    };
    let status = in_memory_status(DIVERGING, starved.clone(), &[]);
    assert!(matches!(status, QueryStatus::Interrupted(_)), "{status:?}");
    let service = Service::new(workload(DIVERGING), starved);
    let p = Ingest::in_memory(&service)
        .unwrap()
        .with_model(|model| model.answer(&parse_atom("p[t]").unwrap()).unwrap());
    assert!(
        !p.answers.is_empty(),
        "a trip still answers the sound partial model"
    );
}

struct TestServer {
    addr: SocketAddr,
    shutdown: CancelToken,
    handle: Option<thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(text: &str, config: ServeConfig) -> TestServer {
        let server = Server::bind("127.0.0.1:0", workload(text), config).unwrap();
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
    let resp = exchange(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{pattern}",
            pattern.len()
        ),
    );
    assert!(resp.starts_with("HTTP/1.1 200 "), "{resp}");
    prefix(resp.split("\r\n\r\n").nth(1).unwrap_or("")).to_string()
}

fn counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Eight concurrent reads race the first materialisation; they and eight
/// later sequential reads all see the same model, byte for byte, and
/// only the one read that materialised (and tripped) captured a dump.
#[test]
fn eight_concurrent_queries_match_sequential_byte_for_byte() {
    let ts = TestServer::start(
        DIVERGING,
        ServeConfig {
            workers: 10,
            defaults: ServiceDefaults {
                fuel: Some(3),
                timeout: None,
            },
            ..ServeConfig::default()
        },
    );
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let addr = ts.addr;
            thread::spawn(move || post_query(addr, "p[t]"))
        })
        .collect();
    let concurrent: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let sequential: Vec<String> = (0..8).map(|_| post_query(ts.addr, "p[t]")).collect();
    assert!(
        concurrent[0].contains("\"status\":\"interrupted\""),
        "{}",
        concurrent[0]
    );
    assert!(
        !concurrent[0].contains("\"answers\":[]"),
        "{}",
        concurrent[0]
    );
    for answer in concurrent.iter().chain(&sequential) {
        assert_eq!(answer, &concurrent[0]);
    }
    let metrics = exchange(
        ts.addr,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(counter(&metrics, "itdb_queries_total"), 16.0, "{metrics}");
    assert_eq!(counter(&metrics, "itdb_queries_interrupted_total"), 16.0);
    assert_eq!(
        counter(&metrics, "itdb_flight_dumps_total"),
        1.0,
        "only the materialising read dumps: {metrics}"
    );
}
