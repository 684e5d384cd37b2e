//! The untraced pass: boot an in-process server, drive it with
//! closed-loop keep-alive clients, and check every answer.

use crate::client::Client;
use crate::verify;
use crate::workloads::{serve_workload_text, ClientStream, Operation, Pattern, Spec};
use itdb_core::{parse_workload, CancelToken};
use itdb_serve::{IngestConfig, ServeConfig, Server};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

/// Least time between the starts of two boots, so cheap boots still
/// spread over the whole set-up phase.
const BOOT_SPACING: Duration = Duration::from_millis(10);

/// The set-up time reported: this quantile of the boot times. On a shared
/// 2-core VM, co-located load makes the CPU 1.7x slower for spells of
/// 0.5 s to many seconds, and busy periods last long enough that a
/// run's median boot lands in either mode. The 10th percentile over two
/// phases far apart is the cost of a boot on a quiet machine whenever a
/// tenth of the boots see one. Over 20 `mixed` runs in a busy period it
/// read 6.6–7.6 ms in 14 runs, while the per-run median read over 10.9 ms
/// in 14.
const SETUP_QUANTILE: f64 = 0.10;

/// How long the pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Measured window, seconds.
    pub seconds: f64,
    /// Uncounted warm-up before it, seconds.
    pub warmup: f64,
    /// Each of the two set-up phases boots at least this many times…
    pub min_boots: usize,
    /// …and for at least this long.
    pub boot_phase: Duration,
}

/// One measured request, as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// `/facts` (else `/query`).
    pub facts: bool,
    /// Whether the request had to open a new connection.
    pub fresh: bool,
    /// Client-side latency, connect included.
    pub ms: f64,
    /// 2xx response.
    pub ok: bool,
}

/// Everything the untraced pass measured and checked.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Wall clock of `parse_workload` plus `Server::bind`, at
    /// [`SETUP_QUANTILE`] over every boot.
    pub setup_s: f64,
    /// Boots behind that quantile.
    pub boots: usize,
    /// Measured window: from the end of warm-up to the last completion.
    pub window_s: f64,
    /// Requests issued in the measured window.
    pub samples: Vec<Sample>,
    /// Answers that disagreed with the oracle, over the whole run.
    pub wrong_answers: u64,
    /// `itdb_http_requests_shed_total` after the run.
    pub requests_shed: u64,
    /// `itdb_wal_appends_total` after the run.
    pub wal_appends: u64,
    /// `itdb_wal_fsyncs_total` after the run.
    pub wal_fsyncs: u64,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientRun {
    samples: Vec<Sample>,
    /// Distinct deterministic answer prefixes per pattern, with counts.
    answers: HashMap<Pattern, Vec<(String, u64)>>,
    wrong_facts: u64,
    facts_acked: u64,
    live: Vec<String>,
    last_done: Option<Instant>,
}

/// Runs the untraced pass of `spec`. `work_dir` holds the WAL
/// directories and must be empty.
pub fn run(spec: &Spec, seed: u64, timing: &Timing, work_dir: &Path) -> io::Result<LoadReport> {
    let text = serve_workload_text(spec.n_data);
    // Set-up is sampled in two phases, before and after the load.
    let mut boot_times = Vec::new();
    let server = boot(spec, &text, timing, work_dir, &mut boot_times)?;
    let addr = server.local_addr();
    let ingest = server.ingest().cloned();
    let shutdown = CancelToken::new();
    let token = shutdown.clone();
    let server_thread = thread::spawn(move || server.run(&token));

    let warm_end = Instant::now() + Duration::from_secs_f64(timing.warmup);
    let end = warm_end + Duration::from_secs_f64(timing.seconds);
    let runs: Vec<ClientRun> = thread::scope(|s| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| s.spawn(move || client_loop(spec, seed, c, addr, warm_end, end)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let scraped = Client::new(addr)
        .exchange(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    shutdown.cancel();
    server_thread.join().expect("server thread panicked")?;
    let metrics = scraped?.body;
    drop(boot(spec, &text, timing, work_dir, &mut boot_times)?);

    let mut report = LoadReport {
        setup_s: crate::stats::quantile(&boot_times, SETUP_QUANTILE).expect("at least one boot"),
        boots: boot_times.len(),
        requests_shed: prom_value(&metrics, "itdb_http_requests_shed_total").unwrap_or(0),
        wal_appends: prom_value(&metrics, "itdb_wal_appends_total").unwrap_or(0),
        wal_fsyncs: prom_value(&metrics, "itdb_wal_fsyncs_total").unwrap_or(0),
        ..LoadReport::default()
    };
    let last_done = runs.iter().filter_map(|r| r.last_done).max();
    report.window_s =
        last_done.map_or(0.0, |t| t.saturating_duration_since(warm_end).as_secs_f64());

    let oracle = verify::Oracle::new(spec, &text)?;
    let mut acked = 0;
    let mut live = Vec::new();
    for run in runs {
        report.wrong_answers += run.wrong_facts + oracle.check_answers(&run.answers);
        report.samples.extend(run.samples);
        acked += run.facts_acked;
        live.extend(run.live);
    }
    if let Some(ingest) = ingest {
        // Every acknowledged batch is exactly one WAL record.
        if report.wal_appends != acked {
            eprintln!(
                "bench_serve: server counted {} WAL appends for {acked} acknowledged batches",
                report.wal_appends
            );
            report.wrong_answers += 1;
        }
        if !verify::final_state_matches(&ingest, spec, &live)? {
            report.wrong_answers += 1;
        }
    }
    Ok(report)
}

/// One set-up phase: boots the server repeatedly, each time from the
/// workload text and (with a WAL) into a fresh directory, appends each
/// boot's wall clock to `times`, and returns the last boot.
fn boot(
    spec: &Spec,
    text: &str,
    timing: &Timing,
    work_dir: &Path,
    times: &mut Vec<f64>,
) -> io::Result<Server> {
    let phase_start = Instant::now();
    let mut booted = 0;
    loop {
        let wal_dir = work_dir.join(format!("wal{}", times.len()));
        let config = ServeConfig {
            ingest: spec.wal.then(|| IngestConfig::new(&wal_dir)),
            ..ServeConfig::default()
        };
        let started = Instant::now();
        let workload = parse_workload(text).map_err(|e| io::Error::other(e.to_string()))?;
        let server = Server::bind("127.0.0.1:0", workload, config)?;
        times.push(started.elapsed().as_secs_f64());
        booted += 1;
        if booted >= timing.min_boots && phase_start.elapsed() >= timing.boot_phase {
            return Ok(server);
        }
        drop(server);
        if spec.wal {
            std::fs::remove_dir_all(&wal_dir)?;
        }
        thread::sleep(BOOT_SPACING.saturating_sub(started.elapsed()));
    }
}

fn client_loop(
    spec: &Spec,
    seed: u64,
    c: usize,
    addr: SocketAddr,
    warm_end: Instant,
    end: Instant,
) -> ClientRun {
    let mut stream = ClientStream::new(spec, seed, c);
    let mut client = Client::new(addr);
    let mut run = ClientRun::default();
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        // Writers fill their live set before anything counts, so every
        // measured `/facts` is a replace batch.
        let measured = now >= warm_end && !stream.filling();
        let op = stream.next_op();
        let request = op.request_bytes();
        let fresh = client.needs_connect();
        let started = Instant::now();
        let result = client.exchange(&request);
        let done = Instant::now();
        let ok = match (&op, &result) {
            (Operation::Query(p), Ok(resp)) if resp.status == 200 => {
                let prefix = verify::deterministic_prefix(&resp.body);
                let seen = run.answers.entry(*p).or_default();
                match seen.iter_mut().find(|(a, _)| a == prefix) {
                    Some((_, n)) => *n += 1,
                    None => seen.push((prefix.to_string(), 1)),
                }
                true
            }
            (Operation::Facts(batch), Ok(resp)) if resp.status == 202 => {
                run.facts_acked += 1;
                if !verify::facts_ack_matches(&resp.body, batch) {
                    run.wrong_facts += 1;
                }
                true
            }
            (_, Ok(resp)) => {
                eprintln!("bench_serve: HTTP {}: {}", resp.status, resp.body);
                false
            }
            (_, Err(e)) => {
                eprintln!("bench_serve: transport error: {e}");
                false
            }
        };
        if measured {
            run.samples.push(Sample {
                facts: matches!(op, Operation::Facts(_)),
                fresh,
                ms: done.duration_since(started).as_secs_f64() * 1e3,
                ok,
            });
            run.last_done = Some(done);
        }
    }
    run.live = stream.churn.live().map(str::to_string).collect();
    run
}

/// The value of an unlabelled Prometheus sample.
fn prom_value(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(name)?.strip_prefix(' ')?;
        value.trim().parse::<f64>().ok().map(|v| v as u64)
    })
}

/// Latencies of successful requests, split into those that opened a
/// connection and those that reused one.
pub fn conn_split(samples: &[Sample]) -> (Vec<f64>, Vec<f64>) {
    let pick = |fresh: bool| {
        samples
            .iter()
            .filter(|s| s.ok && s.fresh == fresh)
            .map(|s| s.ms)
            .collect()
    };
    (pick(true), pick(false))
}
