//! `itdb` — the workspace's command-line entry point.
//!
//! ```text
//! itdb serve --addr 127.0.0.1:7464 workload.itdb    # HTTP serve mode
//! itdb serve --addr 127.0.0.1:7464 --fuel 100000 --timeout-ms 2000 workload.itdb
//! ```
//!
//! `serve` keeps one workload (tuples + rules, the declarative subset of
//! the shell's script format) resident and answers every `POST /query`
//! by lookup in a model computed once: at boot with `--wal`, otherwise on
//! the first query or write, under the `--fuel`/`--timeout-ms` budget.
//! `POST /facts` maintains that model; `--wal` makes its batches
//! durable. `GET
//! /healthz`, `GET /metrics` (Prometheus text), `GET /events` (live
//! JSONL trace stream) and the `GET /debug/*` introspection endpoints
//! ride along. Every request carries an `X-Itdb-Request-Id`; slow
//! queries are logged with a full span profile (`--slow-query-ms`), and
//! a per-worker flight recorder keeps the last events around for
//! post-mortem dumps. Ctrl-C drains in-flight requests and exits
//! cleanly.
//!
//! The interactive shell lives in its own binary, `itdb-shell`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use itdb_core::parse_workload;
use itdb_serve::{FsyncPolicy, IngestConfig, ServeConfig, Server};
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

const USAGE: &str = "\
usage: itdb serve --addr HOST:PORT [options] WORKLOAD
  --addr HOST:PORT  listen address, e.g. 127.0.0.1:7464 (required)
  --workers N       worker threads (default 8); /events streams run on
                    their own dedicated streamer threads
  --fuel N          derivation-fuel budget of the one materialisation the
                    first /query or /facts runs, and of each /facts batch
                    (not with --wal); a tripped model is served as its
                    sound partial model, status `interrupted`, and
                    refuses writes until restart
  --timeout-ms N    wall-clock budget of that materialisation and of each
                    batch (not with --wal)
  --max-queued N    accepted connections held before answering 503 (default 64)
  --events-queue N  per-subscriber /events queue depth (default 1024)
  --queue-deadline-ms N
                    shed queued requests older than this with 503 +
                    Retry-After instead of serving them late (default 5000)
  --max-requests-per-conn N
                    keep-alive requests served per connection (default 32)
  --keepalive-idle-ms N
                    idle keep-alive connections are closed after this
                    (default 5000)
  --wal DIR         make POST /facts durable: batches are logged in a
                    write-ahead log under DIR before they apply, the model
                    is built at boot, and a restart replays checkpoint +
                    log (without --wal, batches live in memory only)
  --wal-fsync POLICY
                    WAL flush policy: `always` (default; every record is
                    durable before its 202) or `batch:N` (group commit,
                    a crash may lose up to N-1 acknowledged records)
  --dedup-window N  request ids remembered for idempotent POST /facts
                    retries (default 1024; must be at least 1; with --wal)
  --slow-query-ms N log a full profile record for any /query slower than
                    N milliseconds (see --slow-log)
  --slow-log PATH   append slow-query records to PATH as JSONL (default:
                    stdout, one `{\"log\":\"slow_query\",…}` line each)
  --flight N        per-worker flight-recorder ring capacity in events
                    (default 256; 0 disables the recorder)
  --no-access-log   suppress the per-request JSONL access-log line
  WORKLOAD          file of `tuple NAME (…)` and `rule CLAUSE.` lines

The interactive shell is the separate `itdb-shell` binary.";

/// Parsed `itdb serve` invocation.
#[derive(Debug)]
struct ServeArgs {
    addr: SocketAddr,
    workload_path: String,
    config: ServeConfig,
}

/// Resolves `--addr`: must be `HOST:PORT` and resolvable. The error text
/// explains what was wrong instead of panicking or passing garbage to
/// `bind`.
fn parse_addr(value: &str) -> Result<SocketAddr, String> {
    if !value.contains(':') {
        return Err(format!(
            "--addr: `{value}` has no port; expected HOST:PORT, e.g. 127.0.0.1:7464"
        ));
    }
    match value.to_socket_addrs() {
        Ok(mut addrs) => addrs
            .next()
            .ok_or_else(|| format!("--addr: `{value}` resolved to no address")),
        Err(e) => Err(format!(
            "--addr: `{value}` is not a valid HOST:PORT address: {e}"
        )),
    }
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut addr: Option<SocketAddr> = None;
    let mut workload_path: Option<String> = None;
    // The binary logs requests by default; tests and embedders that
    // construct `ServeConfig` directly stay quiet unless they opt in.
    let mut config = ServeConfig {
        access_log: true,
        ..ServeConfig::default()
    };
    // `--wal` / `--wal-fsync` combine order-independently; resolved after
    // the loop.
    let mut wal_dir: Option<std::path::PathBuf> = None;
    let mut wal_fsync: Option<FsyncPolicy> = None;
    let mut dedup_window: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--addr needs a HOST:PORT argument".to_string())?;
                addr = Some(parse_addr(value)?);
            }
            "--slow-log" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--slow-log needs a file argument".to_string())?;
                config.slow_log = Some(std::path::PathBuf::from(value));
            }
            "--wal" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--wal needs a directory argument".to_string())?;
                wal_dir = Some(std::path::PathBuf::from(value));
            }
            "--wal-fsync" => {
                let value = it.next().ok_or_else(|| {
                    "--wal-fsync needs a policy: `always` or `batch:N`".to_string()
                })?;
                wal_fsync =
                    Some(FsyncPolicy::parse(value).map_err(|e| format!("--wal-fsync: {e}"))?);
            }
            "--dedup-window" => {
                let value = it
                    .next()
                    .ok_or_else(|| "--dedup-window needs a numeric argument".to_string())?;
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("--dedup-window: `{value}` is not a number"))?;
                if n == 0 {
                    return Err(
                        "--dedup-window: 0 would disable idempotent replay of retried \
                         batches; use at least 1"
                            .to_string(),
                    );
                }
                dedup_window = Some(n);
            }
            "--no-access-log" => config.access_log = false,
            "--workers"
            | "--fuel"
            | "--timeout-ms"
            | "--max-queued"
            | "--events-queue"
            | "--queue-deadline-ms"
            | "--max-requests-per-conn"
            | "--keepalive-idle-ms"
            | "--slow-query-ms"
            | "--flight" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs a numeric argument"))?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("{arg}: `{value}` is not a number"))?;
                match arg.as_str() {
                    "--workers" => {
                        if n == 0 {
                            return Err("--workers: need at least one worker".to_string());
                        }
                        config.workers = n as usize;
                    }
                    "--fuel" => config.defaults.fuel = Some(n),
                    "--timeout-ms" => config.defaults.timeout = Some(Duration::from_millis(n)),
                    "--max-queued" => config.max_queued = (n as usize).max(1),
                    "--queue-deadline-ms" => config.queue_deadline = Duration::from_millis(n),
                    "--max-requests-per-conn" => config.max_requests_per_conn = (n as usize).max(1),
                    "--keepalive-idle-ms" => {
                        config.keepalive_idle = Duration::from_millis(n.max(1))
                    }
                    "--slow-query-ms" => config.slow_query_ms = Some(n),
                    "--flight" => config.flight_capacity = n as usize,
                    _ => config.events_queue_cap = (n as usize).max(1),
                }
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => {
                if workload_path.is_some() {
                    return Err("at most one workload file".to_string());
                }
                workload_path = Some(path.to_string());
            }
        }
    }
    let budgeted = config.defaults.fuel.is_some() || config.defaults.timeout.is_some();
    match (wal_dir, wal_fsync, dedup_window) {
        (Some(_), _, _) if budgeted => {
            return Err(
                "--fuel/--timeout-ms need a server without --wal (they budget the \
                 first query's materialisation; a WAL server builds its model at boot)"
                    .to_string(),
            )
        }
        (Some(dir), fsync, window) => {
            let mut ingest = IngestConfig::new(dir);
            if let Some(policy) = fsync {
                ingest.wal.fsync = policy;
            }
            if let Some(window) = window {
                ingest.dedup_window = window;
            }
            config.ingest = Some(ingest);
        }
        (None, Some(_), _) => {
            return Err("--wal-fsync needs --wal DIR (no WAL to apply the policy to)".to_string())
        }
        (None, None, Some(_)) => {
            return Err(
                "--dedup-window needs --wal DIR (without one the window keeps its default)"
                    .to_string(),
            )
        }
        (None, None, None) => {}
    }
    Ok(ServeArgs {
        addr: addr.ok_or_else(|| "serve needs --addr HOST:PORT".to_string())?,
        workload_path: workload_path.ok_or_else(|| "serve needs a workload file".to_string())?,
        config,
    })
}

/// Cancellation token shared between the SIGINT handler and the server:
/// the handler flips an atomic flag; the accept loop notices and drains.
static SHUTDOWN: std::sync::OnceLock<itdb_core::CancelToken> = std::sync::OnceLock::new();

fn shutdown_token() -> &'static itdb_core::CancelToken {
    SHUTDOWN.get_or_init(itdb_core::CancelToken::new)
}

#[cfg(unix)]
fn install_sigint_handler() {
    // Same no-libc trick as itdb-shell: `signal` is in the C runtime
    // already linked into every Rust binary.
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_signal(_signum: i32) {
        if let Some(token) = SHUTDOWN.get() {
            token.cancel();
        }
    }
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

fn fail(msg: &str) -> ! {
    if msg.is_empty() {
        println!("{USAGE}");
        std::process::exit(0);
    }
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => fail("expected a command (try `itdb serve --addr HOST:PORT WORKLOAD`)"),
    };
    match command {
        "serve" => {
            let parsed = match parse_serve_args(rest) {
                Ok(p) => p,
                Err(msg) => fail(&msg),
            };
            serve(parsed);
        }
        "--help" | "-h" | "help" => fail(""),
        other => fail(&format!(
            "unknown command `{other}` (the interactive shell is the `itdb-shell` binary)"
        )),
    }
}

fn serve(args: ServeArgs) {
    #[cfg(feature = "chaos")]
    let args = {
        let mut args = args;
        args.config.chaos = itdb_serve::chaos::ChaosConfig::from_env();
        if args.config.chaos.is_some() {
            eprintln!("itdb-serve: CHAOS INJECTION ENABLED (ITDB_CHAOS_* set)");
        }
        args
    };
    let text = match std::fs::read_to_string(&args.workload_path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read `{}`: {e}", args.workload_path)),
    };
    let workload = match parse_workload(&text) {
        Ok(w) => w,
        Err(e) => fail(&format!("`{}`: {e}", args.workload_path)),
    };
    let rules = workload.program.clauses.len();
    let relations = workload.edb.len();
    let ingest_config = args.config.ingest.clone();
    let server = match Server::bind(args.addr, workload, args.config) {
        Ok(s) => s,
        Err(e) => fail(&format!("cannot bind {}: {e}", args.addr)),
    };
    install_sigint_handler();
    println!(
        "itdb-serve: {} rules, {} extensional relations, listening on http://{}",
        rules,
        relations,
        server.local_addr()
    );
    if let Some(ic) = &ingest_config {
        println!(
            "ingestion: WAL in {} (fsync {})",
            ic.wal_dir.display(),
            ic.wal.fsync
        );
        if let Some(ingest) = server.ingest() {
            let boot = ingest.boot_report();
            println!(
                "recovery: checkpoint {}, {} WAL records replayed, last seq {}",
                if boot.restored_checkpoint {
                    "restored"
                } else {
                    "absent"
                },
                boot.replayed_records,
                boot.last_seq
            );
        }
    }
    println!(
        "endpoints: /healthz /metrics /query /facts /events /debug/flight /debug/profile \
         /debug/requests  (Ctrl-C to drain and exit)"
    );
    if let Err(e) = server.run(shutdown_token()) {
        eprintln!("error: serve loop failed: {e}");
        std::process::exit(1);
    }
    println!("itdb-serve: drained, bye");
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_serve_invocation() {
        let p = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:7464",
            "--workers",
            "4",
            "--fuel",
            "100000",
            "--timeout-ms",
            "2000",
            "--queue-deadline-ms",
            "750",
            "--max-requests-per-conn",
            "8",
            "--keepalive-idle-ms",
            "1250",
            "--slow-query-ms",
            "250",
            "--slow-log",
            "/tmp/itdb-slow.jsonl",
            "--flight",
            "512",
            "--no-access-log",
            "workload.itdb",
        ]))
        .unwrap();
        assert_eq!(p.addr.port(), 7464);
        assert_eq!(p.workload_path, "workload.itdb");
        assert_eq!(p.config.workers, 4);
        assert_eq!(p.config.defaults.fuel, Some(100_000));
        assert_eq!(p.config.defaults.timeout, Some(Duration::from_millis(2000)));
        assert_eq!(p.config.queue_deadline, Duration::from_millis(750));
        assert_eq!(p.config.max_requests_per_conn, 8);
        assert_eq!(p.config.keepalive_idle, Duration::from_millis(1250));
        assert_eq!(p.config.slow_query_ms, Some(250));
        assert_eq!(
            p.config.slow_log.as_deref(),
            Some(std::path::Path::new("/tmp/itdb-slow.jsonl"))
        );
        assert_eq!(p.config.flight_capacity, 512);
        assert!(!p.config.access_log);
    }

    #[test]
    fn observability_defaults_for_the_binary() {
        // The binary turns the access log on by default; the recorder and
        // slow-query log keep their library defaults.
        let p = parse_serve_args(&strs(&["--addr", "127.0.0.1:0", "w"])).unwrap();
        assert!(p.config.access_log);
        assert_eq!(p.config.slow_query_ms, None);
        assert_eq!(p.config.slow_log, None);
        assert_eq!(p.config.flight_capacity, 256);
        // `--flight 0` disables the recorder entirely.
        let p = parse_serve_args(&strs(&["--addr", "127.0.0.1:0", "--flight", "0", "w"])).unwrap();
        assert_eq!(p.config.flight_capacity, 0);
        // --slow-log without a path is an error, not a silent default.
        let err = parse_serve_args(&strs(&["--addr", "127.0.0.1:0", "--slow-log"])).unwrap_err();
        assert!(err.contains("--slow-log"), "{err}");
    }

    #[test]
    fn wal_flags_enable_ingestion() {
        // No --wal: ingestion stays off.
        let p = parse_serve_args(&strs(&["--addr", "127.0.0.1:0", "w"])).unwrap();
        assert!(p.config.ingest.is_none());
        // --wal alone: defaults to fsync always.
        let p = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--wal",
            "/tmp/itdb-wal",
            "w",
        ]))
        .unwrap();
        let ic = p.config.ingest.unwrap();
        assert_eq!(ic.wal_dir, std::path::PathBuf::from("/tmp/itdb-wal"));
        assert_eq!(ic.wal.fsync, FsyncPolicy::Always);
        // Order-independent combination with --wal-fsync.
        let p = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--wal-fsync",
            "batch:8",
            "--wal",
            "/tmp/itdb-wal",
            "w",
        ]))
        .unwrap();
        assert_eq!(p.config.ingest.unwrap().wal.fsync, FsyncPolicy::Batch(8));
        // --wal-fsync without --wal is an error, not silently ignored.
        let err = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--wal-fsync",
            "always",
            "w",
        ]))
        .unwrap_err();
        assert!(err.contains("--wal"), "{err}");
        // Bad policies are reported with the flag name.
        let err = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--wal",
            "d",
            "--wal-fsync",
            "sometimes",
            "w",
        ]))
        .unwrap_err();
        assert!(err.contains("--wal-fsync"), "{err}");
        let err = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--wal",
            "d",
            "--wal-fsync",
            "batch:0",
            "w",
        ]))
        .unwrap_err();
        assert!(err.contains("--wal-fsync"), "{err}");
        // Missing values keep the usage-shaped errors.
        let err = parse_serve_args(&strs(&["--addr", "127.0.0.1:0", "--wal"])).unwrap_err();
        assert!(err.contains("--wal"), "{err}");
    }

    #[test]
    fn dedup_window_flag_is_validated() {
        // Default stands when the flag is absent.
        let p = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--wal",
            "/tmp/itdb-wal",
            "w",
        ]))
        .unwrap();
        assert_eq!(p.config.ingest.unwrap().dedup_window, 1024);
        // Boundary: 1 is the smallest accepted window.
        let p = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--wal",
            "/tmp/itdb-wal",
            "--dedup-window",
            "1",
            "w",
        ]))
        .unwrap();
        assert_eq!(p.config.ingest.unwrap().dedup_window, 1);
        // 0 is refused with an explanation, not silently clamped.
        let err = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--wal",
            "/tmp/itdb-wal",
            "--dedup-window",
            "0",
            "w",
        ]))
        .unwrap_err();
        assert!(err.contains("--dedup-window"), "{err}");
        assert!(err.contains("idempotent"), "{err}");
        // The flag is meaningless without a WAL.
        let err = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--dedup-window",
            "8",
            "w",
        ]))
        .unwrap_err();
        assert!(err.contains("--wal"), "{err}");
        // Non-numeric values name the flag.
        let err = parse_serve_args(&strs(&[
            "--addr",
            "127.0.0.1:0",
            "--wal",
            "d",
            "--dedup-window",
            "lots",
            "w",
        ]))
        .unwrap_err();
        assert!(err.contains("--dedup-window"), "{err}");
    }

    #[test]
    fn materialisation_budget_is_refused_with_a_wal() {
        // Either budget flag, either order: --wal builds the model at boot
        // under its own options, so the flags would be silently ignored.
        for args in [
            &["--addr", "127.0.0.1:0", "--wal", "d", "--fuel", "5", "w"][..],
            &[
                "--addr",
                "127.0.0.1:0",
                "--timeout-ms",
                "50",
                "--wal",
                "d",
                "w",
            ][..],
        ] {
            let err = parse_serve_args(&strs(args)).unwrap_err();
            assert!(err.contains("--fuel/--timeout-ms"), "{err}");
            assert!(err.contains("--wal"), "{err}");
        }
        // Without a WAL they budget the first read's materialisation.
        let p = parse_serve_args(&strs(&["--addr", "127.0.0.1:0", "--fuel", "5", "w"])).unwrap();
        assert_eq!(p.config.defaults.fuel, Some(5));
        // The durability flag for serve totals is gone.
        let err = parse_serve_args(&strs(&["--addr", "127.0.0.1:0", "--checkpoint", "d", "w"]))
            .unwrap_err();
        assert!(err.contains("unknown flag `--checkpoint`"), "{err}");
    }

    #[test]
    fn addr_is_required_and_validated() {
        let err = parse_serve_args(&strs(&["workload.itdb"])).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        // No port.
        let err = parse_serve_args(&strs(&["--addr", "127.0.0.1", "w"])).unwrap_err();
        assert!(err.contains("no port"), "{err}");
        // Port out of range / garbage: an error message, not a panic.
        let err = parse_serve_args(&strs(&["--addr", "127.0.0.1:99999", "w"])).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        let err = parse_serve_args(&strs(&["--addr", "not an addr:x", "w"])).unwrap_err();
        assert!(err.contains("--addr"), "{err}");
        // Missing value.
        let err = parse_serve_args(&strs(&["--addr"])).unwrap_err();
        assert!(err.contains("HOST:PORT"), "{err}");
    }

    #[test]
    fn numeric_flags_are_validated() {
        assert!(
            parse_serve_args(&strs(&["--addr", "127.0.0.1:0", "--workers", "0", "w"])).is_err()
        );
        assert!(
            parse_serve_args(&strs(&["--addr", "127.0.0.1:0", "--fuel", "lots", "w"])).is_err()
        );
        assert!(parse_serve_args(&strs(&["--addr", "127.0.0.1:0", "--frobnicate", "w"])).is_err());
        assert!(parse_serve_args(&strs(&["--addr", "127.0.0.1:0", "a", "b"])).is_err());
        assert!(parse_serve_args(&strs(&["--addr", "127.0.0.1:0"])).is_err());
    }
}
