//! # bench_serve — closed-loop HTTP benchmark of `itdb serve`
//!
//! Boots an in-process [`itdb_serve::Server`] on `127.0.0.1:0` with
//! `ServeConfig::default()` (8 workers, 32 requests per keep-alive
//! connection; with a WAL, fsync `always`) and drives it with at most two
//! closed-loop keep-alive HTTP/1.1 clients in the same process. The loop
//! is closed because every itdb caller waits for its reply: a producer
//! waits for its WAL ack, a reader for its answers. Every answer is
//! checked; a second, traced pass attributes time to layers.
//!
//! ## Running it
//!
//! ```text
//! cargo run --release --manifest-path bench_serve/Cargo.toml -- \
//!     --workload mixed --seed 1 [--seconds 30] [--trace 0|1] [--quick] \
//!     [--out PATH] [--spans PATH]
//! cargo run --release --manifest-path bench_serve/Cargo.toml -- \
//!     --compare A B [--benchmark BENCHMARK.json]
//! ```
//!
//! One run measures one workload for `--seconds` (default: 20 s for the
//! query workloads, 30 s for the write workloads) after a 2 s warm-up
//! that is not counted. It writes a result document to `--out` (default
//! `target/bench/bench_serve/WORKLOAD-seedN.json`) and prints one JSON
//! line last: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--trace 1` adds the traced pass after the untraced one
//! and writes its spans (name, start, end, parent, op index) as JSON
//! lines to `--spans`. `--quick` measures ~1 s and shortens the traced
//! pass. `--compare` is described in the `compare` module; `A` and `B`
//! are `--out` documents or directories of them.
//!
//! Exit codes: 0 success; 1 an I/O error, or a regression under
//! `--compare`; 2 a usage error, or `ITDB_PARALLEL` set (it would
//! silently shard every per-request evaluation); 3 a wrong answer.
//!
//! ## Workloads
//!
//! The program is the join-heavy `indexing_workload` shape as workload
//! text: `ev` facts over N data values, `step`/`mirror` recursions with
//! step 48 and a `meet` join — 21 derived tuples per value. Query
//! patterns are seeded: 50% `meet[t](vK)`, 25% `step[t](vK)`, 25%
//! `ev[t](vK)`, with K uniform over the base values.
//!
//! | workload | WAL | N | clients | routes |
//! |---|---|---|---|---|
//! | `query_eval` | no | 48 | 1 | `/query` |
//! | `query_resident` | yes | 512 | 2 | `/query` |
//! | `facts_churn` | yes | 48 | 1 | `/facts` |
//! | `mixed` | yes | 48 | 2 | 3 `/query` : 1 `/facts` |
//!
//! - `query_eval`: every request re-runs the fixpoint
//!   (`Service::run_query_observed`). The engine and the per-request
//!   read path do the work; WAL, ingest and DRed do none. One client,
//!   because evaluation is CPU-bound and a second client on two cores
//!   measures the scheduler.
//! - `query_resident`: reads are closed-form lookups on the resident
//!   model over a working set ten times larger; boot pays for the
//!   materialization. Isolates transport plus lookup.
//! - `facts_churn`: each client first asserts 16 fresh values (warm-up),
//!   then every request is one batch that retracts its oldest live value
//!   and asserts a fresh one: parse → WAL append + fsync → `apply_ops`
//!   (DRed retract, semi-naive assert). The model keeps its size, so a
//!   faster server does not do more work per request and look slower,
//!   and every measured request does the same kind of work.
//! - `mixed`: both paths at once. Reads wait on the lock writes hold
//!   (`Ingest::with_model` and `Ingest::submit` share one mutex), so a
//!   change that speeds one side at the other's cost shows here. Reads
//!   target base values, which churn never touches, so they keep an
//!   exact oracle under concurrent writes.
//!
//! ## Correctness
//!
//! `query_eval` answers must byte-equal the part before `,"stats":` of
//! an in-process `Service::run_query`; resident answers must be
//! equivalent to the same pattern over a fresh evaluation. Every
//! `/facts` must answer 202 with the batch's applied and retracted
//! counts. After a write workload every relation of the served model
//! must be equivalent to a fresh evaluation of the base values plus the
//! values left live, and the server's WAL append count must equal the
//! acknowledged batches. Any mismatch counts in `wrong_answers`.
//!
//! ## End-to-end metrics (untraced pass)
//!
//! | name | unit | meaning |
//! |---|---|---|
//! | `latency_p50_ms` | ms | client-side median over the workload's successful requests |
//! | `latency_p95_ms` | ms | 95th percentile (the highest with ≥ 10 samples beyond it at today's rates) |
//! | `ops_per_s` | 1/s | 2xx responses per second over the measured window |
//! | `setup_s` | s | wall clock of `parse_workload` + `Server::bind`: 10th percentile over boots spread across 1 s before and 1 s after the load (see `load::SETUP_QUANTILE` for why not the median) |
//!
//! The result document also splits latency by route (`/query`,
//! `/facts`) with sample counts, and records failures, wrong answers,
//! `error_rate`, the shed and WAL counters scraped from `/metrics`, the
//! core count, seed, fsync policy and git revision.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! Each names the layer's public function the span wraps; the end-to-end
//! metric and workload it should move are in brackets.
//!
//! - `serve.http.read_request_us` (us): `http::read_request` on the
//!   workload's request bytes [p50, `query_resident`].
//! - `serve.http.write_response_us` (us): `http::write_response_with`
//!   into a `Vec` with the real body [p50, `query_resident`].
//! - `serve.transport_share` (fraction): see below [p50, `query_resident`
//!   and `facts_churn`].
//! - `serve.fresh_conn_ms`, `serve.reused_conn_ms` (ms): client-side p50
//!   of requests that opened a connection versus reused one; the server
//!   closes every 32nd request's connection and its acceptor sleeps 10 ms
//!   on an empty accept [p95, `query_resident`].
//! - `core.service.run_query_us` (us): `Service::run_query` plus answer
//!   rendering [p50, `query_eval`].
//! - `core.service.tuples_derived_per_query`,
//!   `core.service.tuples_inserted_per_query` (count): from `EvalStats`
//!   [p50, `query_eval`].
//! - `core.engine.evaluate_ms`, `core.engine.evaluate_parallel2_ms` (ms):
//!   `evaluate_with` at `parallel` 1 and 2 on the workload's model
//!   [`setup_s`, `query_resident`].
//! - `core.query.lookup_us` (us): `itdb_core::query` on the resident
//!   relation plus answer rendering [p50, `query_resident` and `mixed`].
//! - `core.query.relation_tuples`, `core.query.answers_per_lookup`
//!   (count): the lookup's working set and answer size.
//! - `core.resident.new_ms` (ms): `ResidentModel::new` [`setup_s`,
//!   `query_resident`].
//! - `core.resident.assert_us`, `core.resident.retract_us` (us):
//!   `apply_ops` on each half of a replace batch [p50, `facts_churn`].
//! - `core.resident.overdeleted_per_retract`,
//!   `core.resident.rederived_per_retract`,
//!   `core.resident.iterations_per_op` (count) and
//!   `core.resident.cone_share` (fraction): from `ApplyOutcome` [p50,
//!   `facts_churn`].
//! - `serve.ingest.parse_facts_us`, `serve.ingest.encode_batch_us`,
//!   `serve.ingest.submit_us` (us): `parse_facts_body`, `encode_batch`,
//!   `Ingest::submit` on a benchmark-owned `Ingest` [p50, `facts_churn`].
//! - `serve.ingest.checkpoint_ms` (ms): `Ingest::flush` after the write
//!   stream [p95, `facts_churn`].
//! - `store.wal.append_us` (us): `Wal::append` with fsync `always`;
//!   `store.wal.fsyncs_per_append` (count) and `store.wal.bytes_per_op`
//!   (bytes) from `WalStats` [p50, `facts_churn`].
//!
//! The traced pass runs every layer on every workload at that
//! workload's N (see the `traced` module), so every metric exists
//! everywhere; the counts repeat exactly for a given seed.
//!
//! ## Reading `serve.transport_share`
//!
//! `1 − (median in-process cost of the workload's requests ÷
//! latency_p50_ms)`. The in-process cost of one request is the sum of
//! its traced layers on the path the server takes: parse the request,
//! answer it (`run_query` without a WAL, lookup with one; for `/facts`
//! parse the batch and `Ingest::submit`), write the response; `mixed`
//! takes three query operations per batch, its own ratio. The share
//! is the part of the median latency no traced layer accounts for:
//! socket I/O, TCP stalls, queueing, thread hand-off. Near 1 means the
//! transport dominates and no in-process optimisation can show end to
//! end; near 0 means the layers account for the latency.

mod client;
mod compare;
mod load;
mod report;
mod stats;
mod traced;
mod verify;
mod workloads;

use report::{metrics_object, num, result_line, END_TO_END, PER_LAYER};
use stats::{median, quantile};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;
use workloads::{Mix, Spec};

const USAGE: &str = "usage: bench_serve --workload query_eval|query_resident|facts_churn|mixed \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--out PATH] [--spans PATH]\n       \
bench_serve --compare A B [--benchmark BENCHMARK.json]";

/// Where results and per-run working state go, relative to the working
/// directory.
const OUTPUT_DIR: &str = "target/bench/bench_serve";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
        spans: None,
        compare: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?.into()),
            "--spans" => args.spans = Some(value()?.into()),
            "--benchmark" => args.benchmark = value()?.into(),
            "--compare" => {
                let a = value()?;
                let b = value()?;
                args.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let code = match parse_args(std::env::args().skip(1)) {
        Err(msg) => {
            eprintln!("bench_serve: {msg}\n{USAGE}");
            2
        }
        Ok(args) => match run(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("bench_serve: {e}");
                1
            }
        },
    };
    std::process::exit(code);
}

fn run(args: &Args) -> io::Result<i32> {
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b, &args.benchmark);
    }
    if std::env::var_os("ITDB_PARALLEL").is_some() {
        eprintln!(
            "bench_serve: refusing to run with ITDB_PARALLEL set: it shards every \
             per-request evaluation and would change what query_eval measures"
        );
        return Ok(2);
    }
    let Some(spec) = args.workload.as_deref().and_then(workloads::spec) else {
        eprintln!("bench_serve: --workload names one of the four workloads\n{USAGE}");
        return Ok(2);
    };
    let timing = load::Timing {
        seconds: args.seconds.unwrap_or(if args.quick {
            1.0
        } else {
            spec.default_seconds
        }),
        warmup: if args.quick { 0.25 } else { 2.0 },
        min_boots: if args.quick { 1 } else { 3 },
        boot_phase: Duration::from_millis(if args.quick { 50 } else { 1000 }),
    };
    let size = if args.quick {
        traced::TraceSize {
            queries: 6,
            churn: 2,
            reps: 1,
        }
    } else {
        traced::TraceSize {
            queries: 24,
            churn: 8,
            reps: 3,
        }
    };

    let work = Path::new(OUTPUT_DIR).join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(work.join("load"))?;
    std::fs::create_dir_all(work.join("traced"))?;
    let load = load::run(&spec, args.seed, &timing, &work.join("load"));
    let traced = match (&load, args.trace) {
        (Ok(_), true) => Some(traced::run(&spec, args.seed, &size, &work.join("traced"))),
        _ => None,
    };
    std::fs::remove_dir_all(&work)?;
    let load = load?;
    let traced = traced.transpose()?;

    let ok: Vec<f64> = load.samples.iter().filter(|s| s.ok).map(|s| s.ms).collect();
    let attempted = load.samples.len();
    let failed = attempted - ok.len();
    let p50 = quantile(&ok, 0.5).unwrap_or(f64::NAN);
    let end_to_end = [
        ("latency_p50_ms", p50),
        ("latency_p95_ms", quantile(&ok, 0.95).unwrap_or(f64::NAN)),
        ("ops_per_s", ok.len() as f64 / load.window_s),
        ("setup_s", load.setup_s),
    ];
    let per_layer = traced.as_ref().map(|t| {
        let mut m = t.metrics.clone();
        let costs: Vec<f64> = match spec.mix {
            Mix::Query => t.query_costs_us.clone(),
            Mix::Facts => t.facts_costs_us.clone(),
            Mix::Mixed => [&t.query_costs_us[..], &t.facts_costs_us[..]].concat(),
        };
        let in_process_ms = median(&costs).unwrap_or(f64::NAN) / 1e3;
        m.push(("serve.transport_share", 1.0 - in_process_ms / p50));
        let (fresh, reused) = load::conn_split(&load.samples);
        m.push(("serve.fresh_conn_ms", median(&fresh).unwrap_or(f64::NAN)));
        m.push(("serve.reused_conn_ms", median(&reused).unwrap_or(f64::NAN)));
        m
    });

    let out = args.out.clone().unwrap_or_else(|| {
        Path::new(OUTPUT_DIR).join(format!("{}-seed{}.json", spec.name, args.seed))
    });
    write_file(
        &out,
        &document(
            args,
            &spec,
            &timing,
            &load,
            &end_to_end,
            per_layer.as_deref(),
        ),
    )?;
    if let Some(t) = &traced {
        let spans = args
            .spans
            .clone()
            .unwrap_or_else(|| out.with_extension("spans.jsonl"));
        write_file(&spans, &t.tracer.to_jsonl())?;
    }
    let metrics = match &per_layer {
        Some(m) => metrics_object(&PER_LAYER, m),
        None => metrics_object(&END_TO_END, &end_to_end),
    };
    println!(
        "{}",
        result_line(load.wrong_answers == 0, attempted, failed, &metrics)
    );
    Ok(if load.wrong_answers > 0 { 3 } else { 0 })
}

fn write_file(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

/// The full result document `--out` receives.
fn document(
    args: &Args,
    spec: &Spec,
    timing: &load::Timing,
    load: &load::LoadReport,
    end_to_end: &[(&str, f64)],
    per_layer: Option<&[(&str, f64)]>,
) -> String {
    let config = itdb_serve::ServeConfig::default();
    let fsync = if spec.wal {
        itdb_serve::WalOptions::default().fsync.to_string()
    } else {
        "none".to_string()
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let failed = load.samples.iter().filter(|s| !s.ok).count();
    let mut d = String::from("{\n");
    let _ = writeln!(d, "  \"benchmark\": \"bench_serve\",");
    let _ = writeln!(d, "  \"workload\": \"{}\",", spec.name);
    let _ = writeln!(d, "  \"seed\": {},", args.seed);
    let _ = writeln!(d, "  \"seconds\": {},", num(timing.seconds));
    let _ = writeln!(d, "  \"quick\": {},", args.quick);
    let _ = writeln!(
        d,
        "  \"env\": {{\"cores\": {cores}, \"git_rev\": \"{}\", \"fsync\": \"{fsync}\", \"clients\": {}, \"n_data\": {}, \"workers\": {}, \"max_requests_per_conn\": {}, \"boots\": {}}},",
        report::git_rev(),
        spec.clients,
        spec.n_data,
        config.workers,
        config.max_requests_per_conn,
        load.boots
    );
    let attempted = load.samples.len();
    let _ = writeln!(
        d,
        "  \"attempted\": {attempted}, \"failed\": {failed}, \"wrong_answers\": {}, \"error_rate\": {}, \"window_s\": {},",
        load.wrong_answers,
        num(failed as f64 / attempted.max(1) as f64),
        num(load.window_s)
    );
    let mut routes = Vec::new();
    for (route, facts) in [("/query", false), ("/facts", true)] {
        let ms: Vec<f64> = load
            .samples
            .iter()
            .filter(|s| s.ok && s.facts == facts)
            .map(|s| s.ms)
            .collect();
        if !ms.is_empty() {
            routes.push(format!(
                "\"{route}\": {{\"samples\": {}, \"p50_ms\": {}, \"p95_ms\": {}}}",
                ms.len(),
                num(quantile(&ms, 0.5).unwrap_or(f64::NAN)),
                num(quantile(&ms, 0.95).unwrap_or(f64::NAN))
            ));
        }
    }
    let _ = writeln!(d, "  \"routes\": {{{}}},", routes.join(", "));
    let _ = writeln!(
        d,
        "  \"scrape\": {{\"requests_shed\": {}, \"wal_appends\": {}, \"wal_fsyncs\": {}}},",
        load.requests_shed, load.wal_appends, load.wal_fsyncs
    );
    let _ = write!(
        d,
        "  \"end_to_end\": {}",
        metrics_object(&END_TO_END, end_to_end)
    );
    if let Some(m) = per_layer {
        let _ = write!(d, ",\n  \"per_layer\": {}", metrics_object(&PER_LAYER, m));
    }
    d.push_str("\n}\n");
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "mixed",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload.as_deref(), Some("mixed"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20.0), true));
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
