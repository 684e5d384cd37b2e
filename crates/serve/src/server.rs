//! The serve loop: a `TcpListener`, a supervised worker pool, and the
//! endpoints (`/healthz`, `/metrics`, `/query`, `/events`, `/debug/*`).
//!
//! ## Concurrency model
//!
//! One acceptor thread hands sockets to a bounded queue drained by
//! `workers` threads; when the queue is full the acceptor answers `503`
//! immediately instead of letting connections pile up. Each worker
//! installs the shared [`FanoutSink`] on its **own** thread — the trace
//! registry is thread-local, so installation from the acceptor would
//! observe nothing — which is how `/events` subscribers see the typed
//! events of evaluations running on any worker. `GET /events` itself is
//! handed off to a **dedicated streamer thread** (counted in the
//! `itdb_events_streamers` gauge), so a long-lived subscriber never
//! occupies a query worker.
//!
//! Reads never wait for writes. `POST /facts` writers are serialised
//! among themselves inside [`Ingest`], and each publishes the next model
//! version with one swap; a `/query` reads the version published when it
//! started and holds no lock while it answers.
//!
//! ## Per-request observability
//!
//! Every request gets an `X-Itdb-Request-Id` (the inbound header is
//! honored, otherwise one is generated), which becomes the thread's
//! trace context for the evaluation — every event the engine emits
//! carries the id — and is echoed in the `/query` response JSON and headers.
//! Workers keep an always-on bounded flight-recorder ring
//! ([`itdb_trace::flight`]) of recent events; governor trips, worker
//! panics, and sheds snapshot every ring into a retained dump
//! (`GET /debug/flight`, `itdb_flight_dumps_total`). Requests slower
//! than `slow_query_ms` are written to the slow-query log with their
//! span profile. `GET /debug/requests` lists in-flight requests;
//! `GET /debug/profile` serves per-route span aggregates. With
//! `access_log` on, every request prints one structured JSONL line.
//!
//! ## Self-healing
//!
//! The acceptor doubles as a **supervisor**: every pass over the accept
//! loop it checks each worker's `JoinHandle::is_finished()` and respawns
//! dead workers in place (counted in `itdb_worker_respawns_total`, traced
//! as `worker_respawn`). Inside a worker, each connection is handled
//! under `catch_unwind`: a panicking handler answers `500`, bumps
//! `itdb_worker_panics_total`, and the worker lives on. A panic can
//! therefore degrade one request, never the pool.
//!
//! ## Admission control
//!
//! Accepted connections are stamped on enqueue. When a worker pops one,
//! [`AdmissionControl`] compares time-already-waited plus the EWMA of
//! observed service times against `queue_deadline`: requests that would
//! expire in line are shed with a fast `503` and a computed
//! `Retry-After`.
//!
//! ## One read path
//!
//! Every `/query` is a closed-form lookup in a materialised model
//! ([`itdb_core::ResidentModel::answer`]); no request evaluates anything
//! of its own. The model has one holder, [`Ingest`], which `POST /facts`
//! maintains; the WAL only decides whether that holder is durable. With
//! a WAL, boot recovery builds the model. Without one, the **first**
//! `/query` or `/facts` evaluates the workload once under `defaults`
//! (fuel, deadline) and every later request shares the result, so
//! `bind` itself evaluates nothing. A workload that diverges or trips
//! that one budget is served as its sound partial model: every answer
//! carries that status until restart, every write is refused with `422`,
//! and the request that tripped captures the `governor_trip` flight dump.
//!
//! The lookup is the atom kernel (`itdb_lrp::pattern`) through
//! [`itdb_core::query()`]: a pattern whose data terms are all constants
//! scans only that data vector's index bucket. The whole lookup runs under
//! the request's id, so its `index_lookup` events, and a first read's
//! materialisation, carry the id.
//!
//! Graceful shutdown: cancelling the token stops the acceptor, closes the
//! queue, and lets workers finish their in-flight requests.

#![deny(clippy::unwrap_used, clippy::expect_used)]

#[cfg(feature = "chaos")]
use crate::chaos::{Chaos, ChaosAction};
use crate::debug::{self, DebugState};
use crate::http::{self, ParseError, Request};
use crate::ingest::{parse_facts_body, Ingest, IngestConfig, IngestError};
use crate::metrics::HttpMetrics;
use crate::shed::{Admission, AdmissionControl};
use itdb_core::{
    parse_atom, write_metrics_into, CancelToken, QueryResponse, QueryStatus, Service,
    ServiceDefaults, Workload,
};
use itdb_trace::prom::PromText;
use itdb_trace::{EventKind, FanoutSink, Sink};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server`]; `Default` is sized for CI and small
/// deployments.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling requests. `/events` streams run on their
    /// own dedicated threads and do not occupy workers.
    pub workers: usize,
    /// Accepted-but-unhandled connections held before the acceptor starts
    /// answering `503 Service Unavailable`.
    pub max_queued: usize,
    /// Socket read timeout (request parsing). Bounds **one** socket read;
    /// see `header_deadline` for the overall bound.
    pub read_timeout: Duration,
    /// Overall wall-clock budget for reading one request (line, headers,
    /// and body). The per-read `read_timeout` alone lets a slowloris
    /// client drip one byte per read and hold a worker forever; this
    /// deadline reaps such connections after at most
    /// `header_deadline + read_timeout`.
    pub header_deadline: Duration,
    /// Socket write timeout (response writing, per write).
    pub write_timeout: Duration,
    /// Budget (fuel, deadline) of the one materialisation the first
    /// `/query` or `/facts` runs when there is no WAL, and of every batch
    /// applied to that model. Unused with `ingest` set: the model is then
    /// evaluated under `IngestConfig::eval`.
    pub defaults: ServiceDefaults,
    /// Bounded per-subscriber `/events` queue depth; a stalled client
    /// loses events (counted) instead of stalling evaluation.
    pub events_queue_cap: usize,
    /// How often an idle `/events` stream emits a blank keepalive line
    /// (also bounds how fast a dead client is noticed).
    pub events_keepalive: Duration,
    /// Total time a request may spend queued plus (expected) in service
    /// before admission control sheds it with `503` + `Retry-After`.
    pub queue_deadline: Duration,
    /// Requests served per keep-alive connection before the server closes
    /// it (bounds how long one client can monopolise a worker).
    pub max_requests_per_conn: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it silently.
    pub keepalive_idle: Duration,
    /// `/query` requests slower than this (wall clock, milliseconds) are
    /// written to the slow-query log with their span profile. `None`
    /// disables the log.
    pub slow_query_ms: Option<u64>,
    /// Where slow-query JSONL records append; `None` = stdout.
    pub slow_log: Option<PathBuf>,
    /// Per-worker flight-recorder ring capacity (recent events retained
    /// for `/debug/flight` dumps). `0` disables the recorder.
    pub flight_capacity: usize,
    /// Print one structured JSONL access-log line per request to stdout.
    pub access_log: bool,
    /// Durability for the model holder: WAL directory, flush policy,
    /// dedup window and checkpoint cadence. `Some` builds the model at
    /// boot, from checkpoint plus log, and logs every `POST /facts`
    /// batch. `None` keeps everything in memory: the first read or write
    /// materialises the model, and a restart forgets the batches.
    pub ingest: Option<IngestConfig>,
    /// Fault-injection schedule (chaos testing only).
    #[cfg(feature = "chaos")]
    pub chaos: Option<crate::chaos::ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 8,
            max_queued: 64,
            read_timeout: Duration::from_secs(10),
            header_deadline: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            defaults: ServiceDefaults::default(),
            events_queue_cap: 1024,
            events_keepalive: Duration::from_secs(5),
            queue_deadline: Duration::from_secs(5),
            max_requests_per_conn: 32,
            keepalive_idle: Duration::from_secs(5),
            slow_query_ms: None,
            slow_log: None,
            flight_capacity: 256,
            access_log: false,
            ingest: None,
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

/// The HTTP server: a bound listener plus the shared state every worker
/// sees.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    service: Arc<Service>,
    fanout: Arc<FanoutSink>,
    metrics: Arc<HttpMetrics>,
    admission: Arc<AdmissionControl>,
    /// The one model holder, or the error building it hit: opened at bind
    /// with a WAL, built by the first read or write without one.
    ingest: OnceLock<itdb_lrp::Result<Arc<Ingest>>>,
    debug: Arc<DebugState>,
    #[cfg(feature = "chaos")]
    chaos: Option<Arc<Chaos>>,
    config: ServeConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7464`, or port `0` for an ephemeral
    /// port in tests) and prepares the workload for serving. With a WAL,
    /// boot recovery builds the resident model here; without one nothing
    /// is evaluated until the first `/query`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        workload: Workload,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Boot recovery for streaming ingestion happens before the first
        // request: restore the newest resident checkpoint, replay the WAL
        // past it, and only then expose the model to reads and writes.
        let ingest = match &config.ingest {
            Some(ic) => OnceLock::from(Ok(Arc::new(Ingest::open(ic.clone(), &workload)?))),
            None => OnceLock::new(),
        };
        let service = Arc::new(Service::new(workload, config.defaults.clone()));
        let admission = Arc::new(AdmissionControl::new(config.workers.max(1)));
        #[cfg(feature = "chaos")]
        let chaos = config.chaos.clone().map(|c| Arc::new(Chaos::new(c)));
        let fanout = Arc::new(FanoutSink::new(config.events_queue_cap));
        let debug = Arc::new(DebugState::new(config.slow_log.as_deref())?);
        Ok(Server {
            listener,
            local_addr,
            service,
            fanout,
            metrics: Arc::new(HttpMetrics::new()),
            admission,
            ingest,
            debug,
            #[cfg(feature = "chaos")]
            chaos,
            config,
        })
    }

    /// The model holder, once built: from `bind` on with a WAL; without
    /// one only after a request built it, so never before `run` (for
    /// tests and embedding).
    pub fn ingest(&self) -> Option<&Arc<Ingest>> {
        self.ingest.get()?.as_ref().ok()
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The query service: the workload, the serving defaults, and the
    /// serving totals (for tests and embedding).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Runs the accept loop until `shutdown` is cancelled, then drains
    /// in-flight requests, joins the workers, and flushes pending
    /// checkpoints. The acceptor supervises the pool: dead workers are
    /// respawned in place.
    pub fn run(self, shutdown: &CancelToken) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let (tx, rx) = sync_channel::<QueuedConn>(self.config.max_queued);
        let rx = Arc::new(Mutex::new(rx));
        let ctx = Arc::new(WorkerCtx {
            service: Arc::clone(&self.service),
            fanout: Arc::clone(&self.fanout),
            metrics: Arc::clone(&self.metrics),
            admission: Arc::clone(&self.admission),
            ingest: self.ingest,
            debug: Arc::clone(&self.debug),
            streamers: Mutex::new(Vec::new()),
            #[cfg(feature = "chaos")]
            chaos: self.chaos.clone(),
            config: self.config.clone(),
            shutdown: shutdown.clone(),
        });
        let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(ctx.config.workers.max(1));
        for i in 0..ctx.config.workers.max(1) {
            workers.push(spawn_worker(i, &rx, &ctx)?);
        }
        // The supervisor thread also installs the fan-out sink so the
        // respawn events it emits reach /events subscribers (the trace
        // registry is thread-local).
        let sink_id = itdb_trace::add_sink(Arc::clone(&self.fanout) as Arc<dyn Sink>);
        while !shutdown.is_cancelled() {
            for (i, slot) in workers.iter_mut().enumerate() {
                if slot.is_finished() {
                    let dead = std::mem::replace(slot, spawn_worker(i, &rx, &ctx)?);
                    let _ = dead.join(); // collect the panic payload
                    self.metrics.record_worker_respawn();
                    itdb_trace::emit(|| EventKind::WorkerRespawn { worker: i as u64 });
                }
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_read_timeout(Some(self.config.read_timeout));
                    let _ = stream.set_write_timeout(Some(self.config.write_timeout));
                    self.admission.on_enqueue();
                    let conn = QueuedConn {
                        stream,
                        enqueued: Instant::now(),
                    };
                    match tx.try_send(conn) {
                        Ok(()) => {}
                        Err(TrySendError::Full(conn)) | Err(TrySendError::Disconnected(conn)) => {
                            // Best-effort 503 straight from the acceptor;
                            // never block accepting on a full pool.
                            self.admission.on_dequeue();
                            let retry = self.admission.retry_after_s().to_string();
                            let mut stream = conn.stream;
                            let _ = http::write_response_with(
                                &mut stream,
                                503,
                                "application/json",
                                b"{\"error\":\"server at capacity, retry later\"}",
                                false,
                                &[("Retry-After", retry.as_str())],
                            );
                            self.metrics
                                .record("-", "(queue-full)", 503, Duration::ZERO);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Closing the channel lets each worker drain what was already
        // queued and exit; in-flight requests complete.
        drop(tx);
        for handle in workers {
            let _ = handle.join();
        }
        // Streamer threads poll the shutdown token every 250ms; with the
        // workers gone no new streamers can appear, so one sweep joins
        // them all.
        let streamers =
            std::mem::take(&mut *ctx.streamers.lock().unwrap_or_else(|p| p.into_inner()));
        for handle in streamers {
            let _ = handle.join();
        }
        if let Some(Ok(i)) = ctx.ingest.get() {
            // Graceful shutdown earns a checkpoint; a crash leans on the
            // WAL instead.
            i.flush();
        }
        self.debug.flush();
        itdb_trace::remove_sink(sink_id);
        itdb_trace::flush_sinks();
        Ok(())
    }
}

/// One accepted connection, stamped for the queue-deadline check.
struct QueuedConn {
    stream: TcpStream,
    enqueued: Instant,
}

/// Everything a worker needs, bundled so the spawn closure stays small.
struct WorkerCtx {
    service: Arc<Service>,
    fanout: Arc<FanoutSink>,
    metrics: Arc<HttpMetrics>,
    admission: Arc<AdmissionControl>,
    ingest: OnceLock<itdb_lrp::Result<Arc<Ingest>>>,
    debug: Arc<DebugState>,
    /// Dedicated `/events` streamer threads, joined at shutdown.
    streamers: Mutex<Vec<JoinHandle<()>>>,
    #[cfg(feature = "chaos")]
    chaos: Option<Arc<Chaos>>,
    config: ServeConfig,
    shutdown: CancelToken,
}

impl WorkerCtx {
    /// The model holder. Without a WAL the first call builds it, under the
    /// caller's trace context ([`Ingest::in_memory`]); concurrent first
    /// callers wait for it. A build that trips its budget captures the
    /// `governor_trip` flight dump, attributed to `request_id`.
    fn holder(&self, request_id: &str) -> itdb_lrp::Result<&Ingest> {
        let mut built = false;
        let held = self.ingest.get_or_init(|| {
            built = true;
            Ingest::in_memory(&self.service).map(Arc::new)
        });
        let ingest = held.as_ref().map_err(Clone::clone)?;
        if built && ingest.with_model(|m| matches!(m.status(), QueryStatus::Interrupted(_))) {
            self.debug.capture_dump("governor_trip", Some(request_id));
        }
        Ok(ingest)
    }
}

fn spawn_worker(
    index: usize,
    rx: &Arc<Mutex<Receiver<QueuedConn>>>,
    ctx: &Arc<WorkerCtx>,
) -> io::Result<JoinHandle<()>> {
    let rx = Arc::clone(rx);
    let ctx = Arc::clone(ctx);
    thread::Builder::new()
        .name(format!("itdb-serve-{index}"))
        .spawn(move || worker_loop(index as u64, &rx, &ctx))
}

fn worker_loop(worker: u64, rx: &Mutex<Receiver<QueuedConn>>, ctx: &Arc<WorkerCtx>) {
    // The trace registry is thread-local: the fan-out sink must be
    // installed *here*, on the evaluating thread, or `/events`
    // subscribers would never see this worker's evaluations.
    let sink_id = itdb_trace::add_sink(Arc::clone(&ctx.fanout) as Arc<dyn Sink>);
    // The always-on flight recorder: a bounded ring of this worker's
    // recent events, snapshotted into /debug/flight dumps on trips,
    // panics, and sheds. Dropped (and unregistered) with the worker.
    let _flight = (ctx.config.flight_capacity > 0)
        .then(|| itdb_trace::flight::enable(ctx.config.flight_capacity));
    loop {
        let conn = {
            // A worker that died holding this lock must not wedge the
            // rest of the pool: the receiver has no invariant a panic
            // could have broken, so recover from poison.
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv()
        };
        let Ok(conn) = conn else { break }; // acceptor hung up: shutdown
        ctx.admission.on_dequeue();
        serve_connection(worker, conn, ctx);
    }
    itdb_trace::remove_sink(sink_id);
}

/// Admission check, chaos schedule, then the panic-isolated handler.
fn serve_connection(worker: u64, conn: QueuedConn, ctx: &Arc<WorkerCtx>) {
    let waited = conn.enqueued.elapsed();
    let mut stream = conn.stream;
    if let Admission::Shed { retry_after_s } =
        ctx.admission.verdict(waited, ctx.config.queue_deadline)
    {
        // This request would blow its queue deadline anyway: a fast 503
        // with a computed backoff beats burning a worker on an answer
        // nobody is waiting for. Drain the request bytes first — closing
        // with unread data would RST the socket before the client reads
        // the response.
        if let Ok(clone) = stream.try_clone() {
            let _ =
                http::read_request_deadline(&mut BufReader::new(clone), ctx.config.header_deadline);
        }
        let retry = retry_after_s.to_string();
        write_error(
            &mut stream,
            503,
            "overloaded: queue deadline would expire, retry later",
            false,
            &[("Retry-After", retry.as_str())],
        );
        ctx.metrics.record_shed();
        ctx.metrics.record("-", "(shed)", 503, Duration::ZERO);
        itdb_trace::emit(|| EventKind::RequestShed {
            waited_us: u64::try_from(waited.as_micros()).unwrap_or(u64::MAX),
            retry_after_s,
        });
        // A shed is load-pressure forensics: freeze what every worker was
        // doing when admission control started turning requests away.
        ctx.debug.capture_dump("shed", None);
        return;
    }
    #[cfg(feature = "chaos")]
    let action = match &ctx.chaos {
        Some(c) => c.on_request(),
        None => ChaosAction::None,
    };
    #[cfg(feature = "chaos")]
    if action == ChaosAction::KillWorker {
        // Answer before dying — no accepted request may lose its
        // response — then panic *outside* the catch region so the
        // supervisor has a real death to heal.
        if let Ok(clone) = stream.try_clone() {
            let _ =
                http::read_request_deadline(&mut BufReader::new(clone), ctx.config.header_deadline);
        }
        write_error(&mut stream, 500, "chaos: worker killed", false, &[]);
        ctx.metrics.record("-", "(chaos-kill)", 500, Duration::ZERO);
        panic!("chaos: scheduled worker death");
    }
    let panic_writer = stream.try_clone().ok();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "chaos")]
        if action == ChaosAction::PanicInHandler {
            panic!("chaos: scheduled handler panic");
        }
        handle_connection(stream, ctx);
    }));
    if let Err(payload) = caught {
        let detail = panic_detail(payload.as_ref());
        ctx.metrics.record_worker_panic();
        ctx.metrics.record("-", "(panic)", 500, Duration::ZERO);
        itdb_trace::emit(|| EventKind::WorkerPanic { worker, detail });
        // The panicking worker's own ring holds the events leading up to
        // the panic — exactly the forensics a postmortem needs.
        ctx.debug.capture_dump("worker_panic", None);
        if let Some(mut w) = panic_writer {
            // Best-effort drain of whatever the client sent (the handler
            // may have died before reading it): closing with unread data
            // would RST the socket before the 500 reaches the client.
            let _ = w.set_read_timeout(Some(Duration::from_millis(100)));
            let mut buf = [0u8; 4096];
            while matches!(io::Read::read(&mut w, &mut buf), Ok(n) if n > 0) {}
            write_error(
                &mut w,
                500,
                "internal error: request handler panicked",
                false,
                &[],
            );
        }
    }
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Answers `status` with `{"error":msg}` as the JSON body; returns
/// `status`.
fn write_error(
    w: &mut impl Write,
    status: u16,
    msg: &str,
    keep: bool,
    headers: &[(&str, &str)],
) -> u16 {
    let mut body = String::with_capacity(msg.len() + 16);
    body.push_str("{\"error\":\"");
    itdb_trace::json::escape_into(msg, &mut body);
    body.push_str("\"}");
    let _ = http::write_response_with(
        w,
        status,
        "application/json",
        body.as_bytes(),
        keep,
        headers,
    );
    status
}

/// Known routes, for metric labels and the in-flight table.
fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/query" => "/query",
        "/facts" => "/facts",
        "/events" => "/events",
        "/debug/flight" => "/debug/flight",
        "/debug/profile" => "/debug/profile",
        "/debug/requests" => "/debug/requests",
        _ => "(other)",
    }
}

/// One structured JSONL access-log line to stdout.
fn access_log_line(request_id: &str, method: &str, route: &str, status: u16, elapsed: Duration) {
    let mut out = String::with_capacity(96);
    out.push_str("{\"log\":\"access\",\"request_id\":\"");
    itdb_trace::json::escape_into(request_id, &mut out);
    out.push_str("\",\"method\":\"");
    itdb_trace::json::escape_into(method, &mut out);
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "\",\"route\":\"{route}\",\"status\":{status},\"elapsed_us\":{}}}",
        u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
    );
    println!("{out}");
}

fn handle_connection(stream: TcpStream, ctx: &Arc<WorkerCtx>) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    let max = ctx.config.max_requests_per_conn.max(1);
    for served in 0..max {
        if served > 0 {
            // Between keep-alive requests, wait only the idle budget
            // (the clone shares the fd, so this governs the reader too).
            let _ = writer.set_read_timeout(Some(ctx.config.keepalive_idle));
        }
        let started = Instant::now();
        let req = match http::read_request_deadline(&mut reader, ctx.config.header_deadline) {
            Ok(req) => req,
            Err(ParseError::ConnectionClosed) => return,
            // Idle keep-alive expiry between requests: close silently.
            Err(ParseError::Io(_)) if served > 0 => return,
            Err(e) => {
                let status = e.status();
                write_error(&mut writer, status, &e.to_string(), false, &[]);
                ctx.metrics
                    .record("-", "(parse-error)", status, started.elapsed());
                return;
            }
        };
        let path = req.path.split('?').next().unwrap_or("").to_string();
        // Honor the client's id or mint one: every route gets an id, so
        // the access log and in-flight table are complete.
        let request_id = debug::request_id_for(req.header("x-itdb-request-id"));
        // /events streams until shutdown on its own thread and always
        // closes; everything else may keep the connection, bounded.
        let keep = req.keep_alive && served + 1 < max && path != "/events";
        if req.method == "GET" && path == "/events" {
            // Hand the connection to a dedicated streamer thread so the
            // stream's lifetime never occupies a query worker. The
            // reader clone drops here; the streamer owns the writer.
            spawn_events_streamer(writer, ctx, request_id);
            return;
        }
        let route = route_label(&path);
        let inflight = ctx.debug.register(route, &request_id);
        let status = match (req.method.as_str(), path.as_str()) {
            ("GET", "/healthz") => serve_healthz(&mut writer, keep),
            ("GET", "/metrics") => serve_metrics(&mut writer, ctx, keep),
            ("POST", "/query") => serve_query(&mut writer, &req, ctx, keep, &request_id),
            ("POST", "/facts") => serve_facts(&mut writer, &req, ctx, keep, &request_id),
            ("GET", "/debug/flight") => {
                serve_debug_body(&mut writer, ctx.debug.flight_json(), keep, &request_id)
            }
            ("GET", "/debug/profile") => {
                serve_debug_body(&mut writer, ctx.debug.profile_json(), keep, &request_id)
            }
            ("GET", "/debug/requests") => {
                serve_debug_body(&mut writer, ctx.debug.requests_json(), keep, &request_id)
            }
            (
                _,
                "/healthz" | "/metrics" | "/query" | "/facts" | "/events" | "/debug/flight"
                | "/debug/profile" | "/debug/requests",
            ) => write_error(&mut writer, 405, "method not allowed", keep, &[]),
            _ => write_error(
                &mut writer,
                404,
                &format!("no such endpoint `{path}`"),
                keep,
                &[],
            ),
        };
        drop(inflight);
        let elapsed = started.elapsed();
        ctx.metrics.record(&req.method, route, status, elapsed);
        ctx.admission.observe_service(elapsed);
        if ctx.config.access_log {
            access_log_line(&request_id, &req.method, route, status, elapsed);
        }
        if !keep {
            return;
        }
    }
}

fn serve_debug_body(w: &mut impl Write, body: String, keep: bool, request_id: &str) -> u16 {
    let _ = http::write_response_with(
        w,
        200,
        "application/json",
        body.as_bytes(),
        keep,
        &[("X-Itdb-Request-Id", request_id)],
    );
    200
}

/// Moves a `GET /events` connection onto a dedicated streamer thread
/// (counted in the `itdb_events_streamers` gauge and the in-flight
/// table); falls back to streaming inline if the spawn fails.
fn spawn_events_streamer(writer: TcpStream, ctx: &Arc<WorkerCtx>, request_id: String) {
    // Shared fd for the inline fallback: if the spawn fails, the closure
    // (and the writer inside it) is dropped, so stream on the clone.
    let fallback = writer.try_clone().ok();
    let thread_ctx = Arc::clone(ctx);
    let spawned = thread::Builder::new()
        .name("itdb-events-streamer".to_string())
        .spawn(move || {
            let started = Instant::now();
            thread_ctx.debug.streamer_started();
            let inflight = thread_ctx.debug.register("/events", &request_id);
            let mut w = writer;
            let status = serve_events(&mut w, &thread_ctx);
            drop(inflight);
            thread_ctx.debug.streamer_finished();
            let elapsed = started.elapsed();
            // The stream's duration is its lifetime, not a service time:
            // it is recorded for visibility but never folded into the
            // admission EWMA.
            thread_ctx.metrics.record("GET", "/events", status, elapsed);
            if thread_ctx.config.access_log {
                access_log_line(&request_id, "GET", "/events", status, elapsed);
            }
        });
    match spawned {
        Ok(handle) => {
            let mut streamers = ctx.streamers.lock().unwrap_or_else(|p| p.into_inner());
            // Reap handles of streams that already ended so the vector
            // tracks live streamers, not connection history.
            streamers.retain(|h| !h.is_finished());
            streamers.push(handle);
        }
        Err(_) => {
            // Out of threads: stream inline rather than dropping the
            // subscriber (the old worker-occupying behavior).
            if let Some(mut w) = fallback {
                let status = serve_events(&mut w, ctx);
                ctx.metrics.record("GET", "/events", status, Duration::ZERO);
            }
        }
    }
}

fn serve_healthz(w: &mut impl Write, keep: bool) -> u16 {
    let _ = http::write_response_with(w, 200, "text/plain; charset=utf-8", b"ok\n", keep, &[]);
    200
}

fn serve_metrics(w: &mut impl Write, ctx: &WorkerCtx, keep: bool) -> u16 {
    let totals = ctx.service.totals();
    let mut p = PromText::new();
    write_metrics_into(&mut p, &totals.stats, None, None);
    p.counter(
        "itdb_queries_total",
        "Queries answered over HTTP (any status).",
        totals.queries,
    );
    p.counter(
        "itdb_queries_interrupted_total",
        "HTTP queries answered from a model whose evaluation tripped its governor.",
        totals.interrupted,
    );
    p.gauge(
        "itdb_events_subscribers",
        "Live /events subscribers.",
        ctx.fanout.subscriber_count() as f64,
    );
    p.counter(
        "itdb_events_dropped_total",
        "Events dropped across all /events subscribers (bounded queues).",
        ctx.fanout.dropped_total(),
    );
    p.gauge(
        "itdb_http_queue_depth",
        "Connections accepted but not yet picked up by a worker.",
        ctx.admission.depth() as f64,
    );
    p.gauge(
        "itdb_http_service_time_ewma_seconds",
        "Smoothed observed request service time (admission control).",
        ctx.admission.ewma_us() as f64 / 1e6,
    );
    p.counter(
        "itdb_slow_queries_total",
        "Queries exceeding the slow-query threshold (written to the slow log).",
        ctx.debug.slow_total(),
    );
    p.counter(
        "itdb_flight_dumps_total",
        "Flight-recorder dumps captured on trips, panics, and sheds.",
        ctx.debug.dumps_total(),
    );
    p.gauge(
        "itdb_events_streamers",
        "Dedicated /events streamer threads currently live.",
        ctx.debug.streamers() as f64,
    );
    let in_flight = ctx.debug.in_flight_by_route();
    let in_flight_samples: Vec<(Vec<(&str, &str)>, f64)> = in_flight
        .iter()
        .map(|(route, n)| (vec![("route", route.as_str())], *n as f64))
        .collect();
    p.family(
        "itdb_http_in_flight",
        "Requests currently in flight, by route.",
        "gauge",
        &in_flight_samples,
    );
    if let Some(Ok(ingest)) = ctx.ingest.get() {
        write_ingest_metrics(&mut p, ingest);
    }
    ctx.metrics.write_into(&mut p);
    let body = p.finish();
    let _ = http::write_response_with(
        w,
        200,
        "text/plain; version=0.0.4; charset=utf-8",
        body.as_bytes(),
        keep,
        &[],
    );
    200
}

/// The model holder's families: facts and retractions always, the WAL's
/// only with one.
fn write_ingest_metrics(p: &mut PromText, ingest: &Ingest) {
    p.counter(
        "itdb_facts_ingested_total",
        "Facts accepted and applied through POST /facts (duplicates excluded).",
        ingest.facts_ingested(),
    );
    p.counter(
        "itdb_facts_duplicate_total",
        "Facts skipped as duplicates (already-present tuples or replayed request ids).",
        ingest.facts_duplicate(),
    );
    p.counter(
        "itdb_facts_retracted_total",
        "Stored EDB tuples removed by retract operations through POST /facts.",
        ingest.facts_retracted(),
    );
    p.counter(
        "itdb_retraction_overdeleted_total",
        "Derived tuples removed by the DRed over-delete phase.",
        ingest.retraction_overdeleted(),
    );
    p.counter(
        "itdb_retraction_rederived_total",
        "Derived tuples restored by the DRed re-derive phase.",
        ingest.retraction_rederived(),
    );
    let overdeleted = ingest.retraction_overdeleted();
    p.gauge(
        "itdb_retraction_overdeletion_ratio",
        "Re-derived / over-deleted tuples: how much of the deletion cone survived (1.0 = pure churn, 0.0 = every over-delete was final).",
        if overdeleted == 0 {
            0.0
        } else {
            ingest.retraction_rederived() as f64 / overdeleted as f64
        },
    );
    p.counter(
        "itdb_ingest_batches_tripped_total",
        "Ingest batches refused with a governor trip and rolled back.",
        ingest.batches_tripped(),
    );
    p.gauge(
        "itdb_ingest_queue_depth",
        "POST /facts requests admitted but not yet applied.",
        ingest.pending() as f64,
    );
    let Some(ws) = ingest.wal_stats() else { return };
    p.counter(
        "itdb_wal_appends_total",
        "Records appended to the write-ahead log.",
        ws.appends,
    );
    p.counter(
        "itdb_wal_fsyncs_total",
        "fsync calls issued by the write-ahead log.",
        ws.fsyncs,
    );
    p.counter(
        "itdb_wal_replayed_records_total",
        "WAL records replayed into the resident model at boot.",
        ingest.boot_report().replayed_records,
    );
    p.counter(
        "itdb_wal_truncated_tails_total",
        "Torn WAL tails truncated during recovery.",
        ws.truncated_tails,
    );
    p.gauge(
        "itdb_wal_segment_bytes",
        "Bytes in the active WAL segment.",
        ws.segment_bytes as f64,
    );
    p.counter(
        "itdb_ingest_checkpoint_writes_total",
        "Resident-model checkpoints folded out of the WAL.",
        ingest.checkpoints_written(),
    );
    p.counter(
        "itdb_ingest_checkpoint_failures_total",
        "Resident-model checkpoint writes that failed (WAL retained).",
        ingest.checkpoint_failures(),
    );
}

fn serve_query(
    w: &mut impl Write,
    req: &Request,
    ctx: &WorkerCtx,
    keep: bool,
    request_id: &str,
) -> u16 {
    let id_header = [("X-Itdb-Request-Id", request_id)];
    let pattern = match std::str::from_utf8(&req.body) {
        Ok(s) if !s.trim().is_empty() => s.trim(),
        Ok(_) => {
            return write_error(
                w,
                400,
                "empty body: POST the query pattern, e.g. `p[t](X)`",
                keep,
                &id_header,
            );
        }
        Err(_) => return write_error(w, 400, "body is not valid UTF-8", keep, &id_header),
    };
    // Span profiling per request: feeds the /debug/profile aggregate and
    // the slow-query log. Timing only — answers are byte-identical with
    // or without it.
    let started = Instant::now();
    itdb_trace::set_profiling(true);
    let result = {
        // The read's trace context: the lookup's `index_lookup` events and
        // a first read's materialisation carry the request id.
        let _ctx = itdb_trace::context::set_request_id(request_id);
        answer(ctx, pattern, request_id)
    };
    itdb_trace::set_profiling(false);
    let profile = itdb_trace::take_profile();
    let elapsed = started.elapsed();
    ctx.debug.record_profile("/query", &profile);
    match result {
        Ok(mut resp) => {
            resp.request_id = Some(request_id.to_string());
            ctx.service.count_answer(&resp.status);
            if let Some(ms) = ctx.config.slow_query_ms {
                if elapsed >= Duration::from_millis(ms) {
                    ctx.debug.record_slow(
                        request_id,
                        pattern,
                        &resp.status.to_string(),
                        u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
                        &resp.stats.to_json(),
                        &profile,
                    );
                }
            }
            let _ = http::write_response_with(
                w,
                200,
                "application/json",
                resp.to_json().as_bytes(),
                keep,
                &id_header,
            );
            200
        }
        Err(e) => {
            // Pattern and lookup rejections (bad pattern, unknown
            // predicate, arity) are the client's fault, not the server's.
            write_error(w, 422, &e.to_string(), keep, &id_header)
        }
    }
}

/// The one read path: parse the pattern and look it up in the published
/// model version, with no lock held.
fn answer(ctx: &WorkerCtx, pattern: &str, request_id: &str) -> itdb_lrp::Result<QueryResponse> {
    let atom = parse_atom(pattern)?;
    ctx.holder(request_id)?.with_model(|m| m.answer(&atom))
}

/// `POST /facts`: parse the JSON batch, run it through the model holder's
/// ingest pipeline, and answer `202 Accepted` with the applied/duplicate
/// accounting (or the appropriate rejection).
fn serve_facts(
    w: &mut impl Write,
    req: &Request,
    ctx: &WorkerCtx,
    keep: bool,
    request_id: &str,
) -> u16 {
    let id_header = [("X-Itdb-Request-Id", request_id)];
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) if !s.trim().is_empty() => s,
        _ => {
            return write_error(
                w,
                400,
                "empty or non-UTF-8 body: POST {\"facts\":[{\"pred\":…,\"tuple\":…}]}",
                keep,
                &id_header,
            );
        }
    };
    let facts = match parse_facts_body(body) {
        Ok(f) => f,
        Err(msg) => return write_error(w, 400, &msg, keep, &id_header),
    };
    // The request id is the trace context of the batch's maintenance (and
    // of a first write's materialisation), so the events carry the id.
    let submitted = {
        let _ctx = itdb_trace::context::set_request_id(request_id);
        ctx.holder(request_id)
            .map_err(|e| IngestError::Rejected(e.to_string()))
            .and_then(|ingest| ingest.submit(request_id, facts))
    };
    match submitted {
        Ok(out) => {
            use std::fmt::Write as _;
            let mut body = String::with_capacity(160);
            let _ = write!(
                body,
                "{{\"status\":\"accepted\",\"applied\":{},\"duplicates\":{},\"retracted\":{},\"duplicate_request\":{},\"seq\":",
                out.applied, out.duplicates, out.retracted, out.duplicate_request
            );
            match out.seq {
                // A deduplicated retry logged nothing: seq is null, not 0
                // — 0 would collide with nothing but lie about a log
                // position that does not exist.
                Some(seq) => {
                    let _ = write!(body, "{seq}");
                }
                None => body.push_str("null"),
            }
            body.push_str(",\"request_id\":\"");
            itdb_trace::json::escape_into(request_id, &mut body);
            body.push_str("\"}");
            let _ = http::write_response_with(
                w,
                202,
                "application/json",
                body.as_bytes(),
                keep,
                &id_header,
            );
            202
        }
        Err(IngestError::Backpressure { retry_after_s }) => {
            let retry = retry_after_s.to_string();
            write_error(
                w,
                503,
                "ingest queue full, retry later",
                keep,
                &[id_header[0], ("Retry-After", retry.as_str())],
            )
        }
        Err(IngestError::Tripped {
            retry_after_s,
            reason,
        }) => {
            let retry = retry_after_s.to_string();
            write_error(w, 503, &format!(
                    "batch rolled back: {reason}; the model is unchanged and still serving — retry with a smaller batch or raise the governor limits"
                ), keep, &[id_header[0], ("Retry-After", retry.as_str())])
        }
        Err(IngestError::Rejected(msg)) => write_error(w, 422, &msg, keep, &id_header),
        Err(IngestError::Wal(msg)) => write_error(
            w,
            500,
            &format!("WAL append failed: {msg}"),
            keep,
            &id_header,
        ),
    }
}

fn serve_events(w: &mut impl Write, ctx: &WorkerCtx) -> u16 {
    // Subscribe before sending headers so no event between the two is
    // missed.
    let sub = ctx.fanout.subscribe();
    if http::start_chunked(w, 200, "application/jsonl; charset=utf-8").is_err() {
        return 200;
    }
    let mut last_write = Instant::now();
    loop {
        if ctx.shutdown.is_cancelled() {
            break;
        }
        match sub.recv_timeout(Duration::from_millis(250)) {
            Some(line) => {
                let mut payload = Vec::with_capacity(line.len() + 1);
                payload.extend_from_slice(line.as_bytes());
                payload.push(b'\n');
                if http::write_chunk(w, &payload).is_err() {
                    return 200; // client went away
                }
                last_write = Instant::now();
            }
            None => {
                // Idle: a blank JSONL keepalive both keeps middleboxes
                // happy and detects dead clients.
                if last_write.elapsed() >= ctx.config.events_keepalive {
                    if http::write_chunk(w, b"\n").is_err() {
                        return 200;
                    }
                    last_write = Instant::now();
                }
            }
        }
    }
    let _ = http::finish_chunked(w);
    200
}
