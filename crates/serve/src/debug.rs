//! Per-request introspection state behind the `/debug` endpoint family.
//!
//! One [`DebugState`] is shared by every worker and streamer thread. It
//! holds the four forensic views an operator reaches for when a request
//! goes wrong:
//!
//! * **Flight dumps** — on a governor trip, a caught worker panic, or an
//!   admission-control shed, every live flight-recorder ring
//!   ([`itdb_trace::flight`]) is snapshotted into a bounded deque of
//!   [`FlightDump`]s, served by `GET /debug/flight` (which also includes
//!   a live snapshot taken at request time).
//! * **Slow-query log** — `/query` requests slower than
//!   `--slow-query-ms` are written as one JSONL record (request id,
//!   pattern, status, evaluation stats, span profile) to
//!   `--slow-log PATH`, or to stdout when no path is configured.
//! * **In-flight table** — every request registers itself (id, route,
//!   start time) for its duration, listed by `GET /debug/requests`.
//!   Registration is RAII, so a panicking handler unregisters on unwind.
//! * **Per-route profiles** — each profiled request's span profile is
//!   folded into a per-route aggregate for `GET /debug/profile`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use itdb_trace::flight::ThreadFlight;
use itdb_trace::Profile;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Retained flight dumps; older dumps fall off the front.
const MAX_DUMPS: usize = 8;

/// Longest honored inbound `X-Itdb-Request-Id` (longer ids are truncated
/// so a hostile client cannot bloat every event of its own request).
const MAX_REQUEST_ID_LEN: usize = 128;

/// Returns the request's id: the inbound header value if the client sent
/// one (truncated to a sane length), otherwise a fresh process-unique id
/// of the form `{boot:08x}-{seq:06x}`.
pub fn request_id_for(inbound: Option<&str>) -> String {
    match inbound.map(str::trim) {
        Some(id) if !id.is_empty() => id.chars().take(MAX_REQUEST_ID_LEN).collect(),
        _ => {
            static BOOT: OnceLock<u64> = OnceLock::new();
            static SEQ: AtomicU64 = AtomicU64::new(1);
            let boot = *BOOT.get_or_init(|| {
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0))
                    .unwrap_or(0)
            });
            format!(
                "{:08x}-{:06x}",
                boot & 0xffff_ffff,
                SEQ.fetch_add(1, Ordering::Relaxed)
            )
        }
    }
}

/// One snapshot of every live flight-recorder ring, taken on a trip,
/// panic, or shed.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Monotone dump sequence number (process-wide).
    pub seq: u64,
    /// What triggered the snapshot: `governor_trip`, `worker_panic`, or
    /// `shed`.
    pub reason: String,
    /// The request whose handling triggered the dump, when known.
    pub request_id: Option<String>,
    /// Unix milliseconds at capture.
    pub at_ms: u64,
    /// Every live ring's window at capture.
    pub threads: Vec<ThreadFlight>,
}

impl FlightDump {
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.threads.len() * 256);
        let _ = write!(out, "{{\"seq\":{},\"reason\":\"", self.seq);
        itdb_trace::json::escape_into(&self.reason, &mut out);
        out.push('"');
        if let Some(id) = &self.request_id {
            out.push_str(",\"request_id\":\"");
            itdb_trace::json::escape_into(id, &mut out);
            out.push('"');
        }
        let _ = write!(out, ",\"at_ms\":{},\"threads\":[", self.at_ms);
        for (i, t) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// One request in flight: registered on dispatch, unregistered (RAII) on
/// completion or unwind.
struct InFlight {
    ticket: u64,
    id: String,
    route: String,
    started: Instant,
}

/// Unregisters the request from the in-flight table on drop.
pub struct InFlightGuard {
    state: Arc<DebugState>,
    entry: Arc<InFlight>,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        let mut table = lock(&self.state.in_flight);
        table.retain(|e| e.ticket != self.entry.ticket);
    }
}

/// Per-route span-profile aggregate, keyed by `(span kind, label)`.
#[derive(Debug, Default, Clone)]
struct RouteProfile {
    requests: u64,
    spans: BTreeMap<(String, String), SpanAgg>,
}

#[derive(Debug, Default, Clone)]
struct SpanAgg {
    count: u64,
    total_us: u64,
    self_us: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every structure behind these locks is plain counters and clonable
    // rows; wedging /debug over a panicked writer would be worse than a
    // torn row.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The shared `/debug` state (see the module docs).
pub struct DebugState {
    dumps: Mutex<VecDeque<FlightDump>>,
    dump_seq: AtomicU64,
    dumps_total: AtomicU64,
    slow_total: AtomicU64,
    in_flight: Mutex<Vec<Arc<InFlight>>>,
    ticket_seq: AtomicU64,
    profiles: Mutex<BTreeMap<String, RouteProfile>>,
    /// Live dedicated `/events` streamer threads.
    streamers: AtomicU64,
    slow_log: Mutex<Option<BufWriter<File>>>,
}

impl DebugState {
    /// Fresh state; with `slow_log_path` set, slow-query records append
    /// to that file (created if missing) instead of stdout.
    pub fn new(slow_log_path: Option<&Path>) -> io::Result<Self> {
        let slow_log = match slow_log_path {
            Some(p) => {
                if let Some(parent) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(parent)?;
                }
                Some(BufWriter::new(
                    OpenOptions::new().create(true).append(true).open(p)?,
                ))
            }
            None => None,
        };
        Ok(DebugState {
            dumps: Mutex::new(VecDeque::new()),
            dump_seq: AtomicU64::new(0),
            dumps_total: AtomicU64::new(0),
            slow_total: AtomicU64::new(0),
            in_flight: Mutex::new(Vec::new()),
            ticket_seq: AtomicU64::new(0),
            profiles: Mutex::new(BTreeMap::new()),
            streamers: AtomicU64::new(0),
            slow_log: Mutex::new(slow_log),
        })
    }

    /// Registers a request in the in-flight table for the guard's
    /// lifetime.
    pub fn register(self: &Arc<Self>, route: &str, id: &str) -> InFlightGuard {
        let entry = Arc::new(InFlight {
            ticket: self.ticket_seq.fetch_add(1, Ordering::Relaxed),
            id: id.to_string(),
            route: route.to_string(),
            started: Instant::now(),
        });
        lock(&self.in_flight).push(Arc::clone(&entry));
        InFlightGuard {
            state: Arc::clone(self),
            entry,
        }
    }

    /// Snapshots every live flight ring into a retained [`FlightDump`].
    pub fn capture_dump(&self, reason: &str, request_id: Option<&str>) {
        let dump = FlightDump {
            seq: self.dump_seq.fetch_add(1, Ordering::Relaxed),
            reason: reason.to_string(),
            request_id: request_id.map(str::to_string),
            at_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| u64::try_from(d.as_millis() & u128::from(u64::MAX)).unwrap_or(0))
                .unwrap_or(0),
            threads: itdb_trace::flight::snapshot_all(),
        };
        self.dumps_total.fetch_add(1, Ordering::Relaxed);
        let mut dumps = lock(&self.dumps);
        if dumps.len() >= MAX_DUMPS {
            dumps.pop_front();
        }
        dumps.push_back(dump);
    }

    /// Flight dumps captured so far (monotone; `itdb_flight_dumps_total`).
    pub fn dumps_total(&self) -> u64 {
        self.dumps_total.load(Ordering::Relaxed)
    }

    /// Slow queries logged so far (monotone; `itdb_slow_queries_total`).
    pub fn slow_total(&self) -> u64 {
        self.slow_total.load(Ordering::Relaxed)
    }

    /// Counts a dedicated `/events` streamer thread in/out.
    pub fn streamer_started(&self) {
        self.streamers.fetch_add(1, Ordering::Relaxed);
    }

    /// See [`Self::streamer_started`].
    pub fn streamer_finished(&self) {
        self.streamers.fetch_sub(1, Ordering::Relaxed);
    }

    /// Live dedicated `/events` streamer threads.
    pub fn streamers(&self) -> u64 {
        self.streamers.load(Ordering::Relaxed)
    }

    /// Folds one request's span profile into the route's aggregate.
    pub fn record_profile(&self, route: &str, profile: &Profile) {
        let mut profiles = lock(&self.profiles);
        let rp = profiles.entry(route.to_string()).or_default();
        rp.requests += 1;
        for e in &profile.entries {
            let agg = rp
                .spans
                .entry((e.kind.as_str().to_string(), e.label.clone()))
                .or_default();
            agg.count += e.count;
            agg.total_us += u64::try_from(e.total.as_micros()).unwrap_or(u64::MAX);
            agg.self_us += u64::try_from(e.self_time.as_micros()).unwrap_or(u64::MAX);
        }
    }

    /// Writes one slow-query JSONL record and bumps the counter. The
    /// record is a single line; with no `--slow-log` file it goes to
    /// stdout, tagged so it interleaves recognizably with the access log.
    pub fn record_slow(
        &self,
        request_id: &str,
        pattern: &str,
        status: &str,
        elapsed_us: u64,
        stats_json: &str,
        profile: &Profile,
    ) {
        self.slow_total.fetch_add(1, Ordering::Relaxed);
        let mut out = String::with_capacity(256);
        out.push_str("{\"log\":\"slow_query\",\"request_id\":\"");
        itdb_trace::json::escape_into(request_id, &mut out);
        out.push_str("\",\"pattern\":\"");
        itdb_trace::json::escape_into(pattern, &mut out);
        let _ = write!(
            out,
            "\",\"status\":\"{status}\",\"elapsed_us\":{elapsed_us}"
        );
        let _ = write!(out, ",\"stats\":{stats_json},\"profile\":[");
        for (i, e) in profile.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"kind\":\"{}\",\"label\":\"", e.kind.as_str());
            itdb_trace::json::escape_into(&e.label, &mut out);
            let _ = write!(
                out,
                "\",\"count\":{},\"total_us\":{},\"self_us\":{}}}",
                e.count,
                u64::try_from(e.total.as_micros()).unwrap_or(u64::MAX),
                u64::try_from(e.self_time.as_micros()).unwrap_or(u64::MAX),
            );
        }
        out.push_str("]}");
        let mut file = lock(&self.slow_log);
        match file.as_mut() {
            Some(w) => {
                let _ = writeln!(w, "{out}");
                let _ = w.flush();
            }
            None => println!("{out}"),
        }
    }

    /// `GET /debug/flight` body: live ring snapshots plus retained dumps.
    pub fn flight_json(&self) -> String {
        let live = itdb_trace::flight::snapshot_all();
        let dumps = lock(&self.dumps);
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"dumps_total\":{},\"live\":[", self.dumps_total());
        for (i, t) in live.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("],\"dumps\":[");
        for (i, d) in dumps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push_str("]}");
        out
    }

    /// `GET /debug/profile` body: per-route span aggregates.
    pub fn profile_json(&self) -> String {
        let profiles = lock(&self.profiles).clone();
        let mut out = String::with_capacity(256);
        out.push_str("{\"routes\":[");
        for (i, (route, rp)) in profiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"route\":\"");
            itdb_trace::json::escape_into(route, &mut out);
            let _ = write!(out, "\",\"requests\":{},\"spans\":[", rp.requests);
            for (j, ((kind, label), agg)) in rp.spans.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"kind\":\"{kind}\",\"label\":\"");
                itdb_trace::json::escape_into(label, &mut out);
                let _ = write!(
                    out,
                    "\",\"count\":{},\"total_us\":{},\"self_us\":{}}}",
                    agg.count, agg.total_us, agg.self_us
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// `GET /debug/requests` body: the in-flight table with live ages.
    pub fn requests_json(&self) -> String {
        let table: Vec<Arc<InFlight>> = lock(&self.in_flight).clone();
        let mut out = String::with_capacity(128);
        out.push_str("{\"in_flight\":[");
        for (i, e) in table.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":\"");
            itdb_trace::json::escape_into(&e.id, &mut out);
            out.push_str("\",\"route\":\"");
            itdb_trace::json::escape_into(&e.route, &mut out);
            let _ = write!(
                out,
                "\",\"age_us\":{}}}",
                u64::try_from(e.started.elapsed().as_micros()).unwrap_or(u64::MAX)
            );
        }
        out.push_str("]}");
        out
    }

    /// Live in-flight counts by route (the `itdb_http_in_flight` gauge).
    pub fn in_flight_by_route(&self) -> Vec<(String, u64)> {
        let table = lock(&self.in_flight);
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for e in table.iter() {
            *counts.entry(e.route.clone()).or_default() += 1;
        }
        counts.into_iter().collect()
    }

    /// Flushes the slow-query log file, if any.
    pub fn flush(&self) {
        if let Some(w) = lock(&self.slow_log).as_mut() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn generated_ids_are_unique_and_inbound_ids_are_honored() {
        let a = request_id_for(None);
        let b = request_id_for(None);
        assert_ne!(a, b);
        assert_eq!(request_id_for(Some("client-7")), "client-7");
        // Blank inbound ids fall back to generation (thus unique).
        assert_ne!(request_id_for(Some("")), request_id_for(Some("")));
        assert_ne!(request_id_for(Some("  ")), request_id_for(Some("  ")));
        let long = "x".repeat(500);
        assert_eq!(request_id_for(Some(&long)).len(), MAX_REQUEST_ID_LEN);
    }

    #[test]
    fn in_flight_table_registers_and_unregisters() {
        let d = Arc::new(DebugState::new(None).unwrap());
        let g1 = d.register("/query", "req-1");
        let _g2 = d.register("/healthz", "req-2");
        let json = d.requests_json();
        assert!(json.contains("\"id\":\"req-1\""), "{json}");
        assert!(json.contains("\"id\":\"req-2\""), "{json}");
        assert_eq!(
            d.in_flight_by_route(),
            vec![("/healthz".to_string(), 1), ("/query".to_string(), 1)]
        );
        drop(g1);
        let json = d.requests_json();
        assert!(!json.contains("req-1"), "{json}");
        assert!(json.contains("req-2"), "{json}");
    }

    #[test]
    fn dumps_are_bounded_and_counted() {
        let d = Arc::new(DebugState::new(None).unwrap());
        for i in 0..(MAX_DUMPS + 3) {
            d.capture_dump("governor_trip", Some(&format!("req-{i}")));
        }
        assert_eq!(d.dumps_total() as usize, MAX_DUMPS + 3);
        let json = d.flight_json();
        // The oldest dumps fell off; the newest survived.
        assert!(!json.contains("\"request_id\":\"req-0\""), "{json}");
        assert!(
            json.contains(&format!("\"request_id\":\"req-{}\"", MAX_DUMPS + 2)),
            "{json}"
        );
    }

    #[test]
    fn slow_records_append_to_the_log_file() {
        let dir = std::env::temp_dir().join(format!("itdb_debug_slow_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("slow.jsonl");
        let d = Arc::new(DebugState::new(Some(&path)).unwrap());
        d.record_slow(
            "req-slow",
            "p[t]",
            "interrupted",
            1234,
            "{\"tuples_derived\":5}",
            &Profile::default(),
        );
        d.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        let line = text.lines().next().unwrap();
        assert!(line.contains("\"log\":\"slow_query\""), "{line}");
        assert!(line.contains("\"request_id\":\"req-slow\""), "{line}");
        assert!(line.contains("\"elapsed_us\":1234"), "{line}");
        assert_eq!(d.slow_total(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiles_aggregate_by_route_and_span() {
        let d = Arc::new(DebugState::new(None).unwrap());
        let mut p = Profile::default();
        p.entries.push(itdb_trace::ProfileEntry {
            kind: itdb_trace::SpanKind::Evaluate,
            label: "eval".into(),
            count: 1,
            total: std::time::Duration::from_micros(100),
            self_time: std::time::Duration::from_micros(40),
        });
        d.record_profile("/query", &p);
        d.record_profile("/query", &p);
        let json = d.profile_json();
        assert!(json.contains("\"route\":\"/query\""), "{json}");
        assert!(json.contains("\"requests\":2"), "{json}");
        assert!(
            json.contains("\"count\":2,\"total_us\":200,\"self_us\":80"),
            "{json}"
        );
    }
}
