//! `itdb` — an interactive shell for infinite temporal databases.
//!
//! ```text
//! cargo run -p itdb-cli --bin itdb-shell              # interactive
//! cargo run -p itdb-cli --bin itdb-shell -- script    # run a command file
//! cargo run -p itdb-cli --bin itdb-shell -- --fuel 10000 --timeout-ms 5000
//! ```
//!
//! Type `help` inside the shell for the command list; every surface of the
//! workspace is reachable: generalized relations, the deductive language,
//! first-order queries, Datalog1S and Templog.
//!
//! `--fuel N` caps the number of generalized tuples any single evaluation
//! may derive; `--timeout-ms N` is a per-evaluation wall-clock deadline.
//! In interactive mode Ctrl-C cancels the in-flight evaluation (the engine
//! returns its sound partial model) without leaving the shell.

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod shell;

use shell::{Limits, Shell, Step};
use std::io::{BufRead, Write};

const USAGE: &str = "\
usage: itdb-shell [--fuel N] [--timeout-ms N] [--stats] [--stats-json]
                  [--trace FILE] [--metrics FILE]
                  [--checkpoint DIR] [--checkpoint-every N] [--resume] [SCRIPT]
  --fuel N        cap derived generalized tuples per evaluation
  --timeout-ms N  wall-clock deadline per evaluation, in milliseconds
  --stats         print evaluation statistics after every `eval`
  --stats-json    print statistics as one JSON object after every `eval`
  --trace FILE    stream typed trace events to FILE as JSON lines
  --metrics FILE  write a Prometheus metrics snapshot after every `eval`
  --checkpoint DIR      write durable crash-safe snapshots of `eval` to DIR
  --checkpoint-every N  snapshot cadence in iterations (N >= 1, or `trips`
                        to snapshot only when the governor trips)
  --resume              first `eval` resumes from the latest checkpoint
  SCRIPT          run a command file instead of the interactive shell";

/// Cancellation token shared between the SIGINT handler and the shell.
///
/// The handler only flips an atomic flag (async-signal-safe); the governor
/// observes it at the next loop boundary and the evaluation returns its
/// partial model instead of the process dying.
static CANCEL: std::sync::OnceLock<itdb_core::CancelToken> = std::sync::OnceLock::new();

fn cancel_token() -> &'static itdb_core::CancelToken {
    CANCEL.get_or_init(itdb_core::CancelToken::new)
}

#[cfg(unix)]
fn install_sigint_handler() {
    // No `libc` dependency: `signal` is part of the C runtime already
    // linked into every Rust binary. glibc's `signal` gives BSD semantics
    // (SA_RESTART), so the blocking stdin read survives the interrupt and
    // the REPL keeps running.
    const SIGINT: i32 = 2;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigint(_signum: i32) {
        if let Some(token) = CANCEL.get() {
            token.cancel();
        }
    }
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

#[derive(Debug)]
struct Cli {
    limits: Limits,
    script: Option<String>,
    stats: bool,
    stats_json: bool,
    trace: Option<String>,
    metrics: Option<String>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    resume: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        limits: Limits::default(),
        script: None,
        stats: false,
        stats_json: false,
        trace: None,
        metrics: None,
        checkpoint: None,
        checkpoint_every: None,
        resume: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fuel" | "--timeout-ms" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs a numeric argument"))?;
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("{arg}: `{value}` is not a number"))?;
                match arg.as_str() {
                    "--fuel" => cli.limits.fuel = Some(n),
                    _ => cli.limits.timeout_ms = Some(n),
                }
            }
            "--checkpoint-every" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs an argument (N or `trips`)"))?;
                if value == "trips" {
                    cli.checkpoint_every = Some(0);
                } else {
                    let n: u64 = value
                        .parse()
                        .map_err(|_| format!("{arg}: `{value}` is not a number"))?;
                    if n == 0 {
                        return Err(format!(
                            "{arg}: 0 would never snapshot mid-run; \
                             use `--checkpoint-every trips` for trip-only snapshots"
                        ));
                    }
                    cli.checkpoint_every = Some(n);
                }
            }
            "--trace" | "--metrics" | "--checkpoint" => {
                let value = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs a file argument"))?;
                match arg.as_str() {
                    "--trace" => cli.trace = Some(value.clone()),
                    "--metrics" => cli.metrics = Some(value.clone()),
                    _ => cli.checkpoint = Some(value.clone()),
                }
            }
            "--stats" => cli.stats = true,
            "--stats-json" => cli.stats_json = true,
            "--resume" => cli.resume = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            path => {
                if cli.script.is_some() {
                    return Err("at most one script file".to_string());
                }
                cli.script = Some(path.to_string());
            }
        }
    }
    Ok(cli)
}

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            let code = if msg.is_empty() {
                println!("{USAGE}");
                0
            } else {
                eprintln!("error: {msg}\n{USAGE}");
                2
            };
            std::process::exit(code);
        }
    };

    let mut shell = Shell::new();
    shell.set_limits(cli.limits);
    shell.set_cancel(cancel_token().clone());
    shell.set_auto_stats(cli.stats);
    shell.set_stats_json(cli.stats_json);
    shell.set_metrics_path(cli.metrics.map(std::path::PathBuf::from));
    shell.set_checkpoint_dir(cli.checkpoint.map(std::path::PathBuf::from));
    if let Some(n) = cli.checkpoint_every {
        shell.set_checkpoint_every(n);
    }
    shell.set_resume_pending(cli.resume);

    // `--trace file.jsonl`: stream every trace event of this thread to the
    // file. The sink stays installed for the whole session; it is flushed
    // after each evaluation and again (via `clear_sinks`) at exit.
    let jsonl: Option<std::sync::Arc<itdb_trace::JsonlSink>> = match cli.trace {
        Some(path) => match itdb_trace::JsonlSink::create(&path) {
            Ok(sink) => {
                let sink = std::sync::Arc::new(sink);
                itdb_trace::add_sink(sink.clone());
                Some(sink)
            }
            Err(e) => {
                eprintln!("error: --trace: cannot create `{path}`: {e}");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let finish_trace = |jsonl: Option<std::sync::Arc<itdb_trace::JsonlSink>>| {
        itdb_trace::clear_sinks();
        if let Some(e) = jsonl.and_then(|s| s.take_error()) {
            eprintln!("warning: --trace: write failed: {e}");
        }
    };
    let stdout = std::io::stdout();

    if let Some(path) = cli.script {
        // Script mode: run the file, print non-empty outputs. SIGINT keeps
        // its default disposition here so Ctrl-C aborts the whole run.
        let text = std::fs::read_to_string(path)?;
        let mut out = stdout.lock();
        for line in text.lines() {
            match shell.execute(line) {
                Step::Continue(s) if s.is_empty() => {}
                Step::Continue(s) => writeln!(out, "{s}")?,
                Step::Quit => break,
            }
        }
        finish_trace(jsonl);
        return Ok(());
    }

    // Interactive mode: Ctrl-C cancels the running evaluation, not the REPL.
    install_sigint_handler();
    let stdin = std::io::stdin();
    let mut out = stdout.lock();
    writeln!(out, "itdb — infinite temporal databases (type `help`)")?;
    write!(out, "> ")?;
    out.flush()?;
    for line in stdin.lock().lines() {
        let line = line?;
        match shell.execute(&line) {
            Step::Continue(s) => {
                if !s.is_empty() {
                    writeln!(out, "{s}")?;
                }
            }
            Step::Quit => break,
        }
        write!(out, "> ")?;
        out.flush()?;
    }
    finish_trace(jsonl);
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_limits_and_script() {
        let cli = parse_args(&strs(&[
            "--fuel",
            "500",
            "--timeout-ms",
            "250",
            "--stats",
            "run.itdb",
        ]))
        .unwrap();
        assert_eq!(cli.limits.fuel, Some(500));
        assert_eq!(cli.limits.timeout_ms, Some(250));
        assert!(cli.stats);
        assert_eq!(cli.script.as_deref(), Some("run.itdb"));
    }

    #[test]
    fn parses_observability_flags() {
        let cli = parse_args(&strs(&[
            "--trace",
            "run.jsonl",
            "--metrics",
            "run.prom",
            "--stats-json",
        ]))
        .unwrap();
        assert_eq!(cli.trace.as_deref(), Some("run.jsonl"));
        assert_eq!(cli.metrics.as_deref(), Some("run.prom"));
        assert!(cli.stats_json);
        assert!(!cli.stats);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&strs(&["--fuel"])).is_err());
        assert!(parse_args(&strs(&["--fuel", "many"])).is_err());
        assert!(parse_args(&strs(&["--frobnicate"])).is_err());
        assert!(parse_args(&strs(&["a", "b"])).is_err());
        assert!(parse_args(&strs(&["--trace"])).is_err());
        assert!(parse_args(&strs(&["--metrics"])).is_err());
        assert!(parse_args(&strs(&["--checkpoint"])).is_err());
        assert!(parse_args(&strs(&["--checkpoint-every"])).is_err());
        assert!(parse_args(&strs(&["--checkpoint-every", "often"])).is_err());
        // 0 is rejected with a pointer at the explicit spelling …
        let err = parse_args(&strs(&["--checkpoint-every", "0"])).unwrap_err();
        assert!(err.contains("trips"), "{err}");
        // … which parses to the trips-only cadence.
        let cli = parse_args(&strs(&["--checkpoint-every", "trips"])).unwrap();
        assert_eq!(cli.checkpoint_every, Some(0));
    }

    #[test]
    fn parses_checkpoint_flags() {
        let cli = parse_args(&strs(&[
            "--checkpoint",
            "ckpts",
            "--checkpoint-every",
            "16",
            "--resume",
            "run.itdb",
        ]))
        .unwrap();
        assert_eq!(cli.checkpoint.as_deref(), Some("ckpts"));
        assert_eq!(cli.checkpoint_every, Some(16));
        assert!(cli.resume);
        assert_eq!(cli.script.as_deref(), Some("run.itdb"));
        let cli = parse_args(&[]).unwrap();
        assert!(cli.checkpoint.is_none());
        assert!(cli.checkpoint_every.is_none());
        assert!(!cli.resume);
    }

    #[test]
    fn defaults_are_unlimited() {
        let cli = parse_args(&[]).unwrap();
        assert_eq!(cli.limits.fuel, None);
        assert_eq!(cli.limits.timeout_ms, None);
        assert!(!cli.stats);
        assert!(!cli.stats_json);
        assert!(cli.trace.is_none());
        assert!(cli.metrics.is_none());
        assert!(cli.script.is_none());
    }
}
