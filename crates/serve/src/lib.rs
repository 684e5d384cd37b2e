//! # itdb-serve — long-running HTTP serve mode
//!
//! A zero-dependency HTTP/1.1 server (hand-rolled over
//! `std::net::TcpListener`, since the workspace builds offline) that keeps
//! one workload resident and answers every query by looking it up in a
//! model computed once:
//!
//! | Endpoint        | What it does                                          |
//! |-----------------|-------------------------------------------------------|
//! | `GET /healthz`  | liveness probe, `200 ok`                              |
//! | `GET /metrics`  | Prometheus text: engine counters + HTTP families      |
//! | `POST /query`   | body = query pattern, answered from the materialised model (without a WAL the first `/query` or `/facts` materialises it under the server's `--fuel`/`--timeout-ms`); `X-Itdb-Request-Id` honored or generated, echoed in JSON and headers; JSON answer with the model's status `complete` / `diverged` / `interrupted` |
//! | `POST /facts`   | apply a batch of assert/retract operations to the resident model, logged durably first with a WAL |
//! | `GET /events`   | live JSONL stream of trace events (chunked), bounded per-client queues, served by dedicated streamer threads |
//! | `GET /debug/flight` | flight-recorder snapshot: live per-thread event rings + dumps retained from trips/panics/sheds |
//! | `GET /debug/profile` | per-route span-profile aggregates |
//! | `GET /debug/requests` | in-flight request table (id, route, age) |
//!
//! The interesting invariants live in [`server`]'s module docs: fan-out
//! sinks are installed per worker thread (the trace registry is
//! thread-local), there is one read path, and evaluation statistics are
//! folded into the aggregate explicitly rather than read from
//! thread-local counters at `/metrics` render time.
//!
//! ```no_run
//! use itdb_serve::{ServeConfig, Server};
//! use itdb_core::{parse_workload, CancelToken};
//!
//! let workload = parse_workload("tuple sched (24n)\nrule p[t] <- sched[t].").unwrap();
//! let server = Server::bind("127.0.0.1:7464", workload, ServeConfig::default()).unwrap();
//! let shutdown = CancelToken::new();
//! server.run(&shutdown).unwrap(); // Ctrl-C handler cancels `shutdown`
//! ```

#![warn(missing_docs)]

#[cfg(feature = "chaos")]
pub mod chaos;
pub mod debug;
pub mod http;
pub mod ingest;
pub mod metrics;
pub mod server;
pub mod shed;

pub use debug::DebugState;
pub use ingest::{Ingest, IngestConfig, IngestError, IngestOutcome};
// Re-exported so embedders (and the `itdb` binary) can configure the WAL
// without depending on `itdb-store` directly.
pub use itdb_store::{FsyncPolicy, WalOptions};
pub use metrics::HttpMetrics;
pub use server::{ServeConfig, Server};
pub use shed::{Admission, AdmissionControl};
