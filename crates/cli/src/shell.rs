//! The command interpreter behind the `itdb` shell.
//!
//! Each line is one command; [`Shell::execute`] returns the text to print,
//! which makes the interpreter directly testable. State covers all four
//! query surfaces of the workspace: a generalized database (EDB), a
//! deductive program (`itdb-core`), a Datalog1S program, and a Templog
//! program.

use itdb_core as core;
use itdb_core::{CancelToken, Completeness, Governor, GovernorConfig, Interruption};
use itdb_datalog1s as dl;
use itdb_foquery as fo;
use itdb_lrp::{parser as lrp_parser, Error, Result, DEFAULT_RESIDUE_BUDGET};
use itdb_templog as tl;
use itdb_trace::{fmt_duration, Profile, RingSink, SinkId, SpanKind};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Capacity of the in-memory event ring behind `trace on`.
const TRACE_RING_CAPACITY: usize = 4096;

/// Default `checkpoint every N` interval when a checkpoint directory is
/// set without choosing one.
const DEFAULT_CHECKPOINT_EVERY: u64 = 64;

/// Session-level resource limits applied to every evaluation command.
#[derive(Debug, Clone, Default)]
pub struct Limits {
    /// Fuel: maximum derived generalized tuples per evaluation.
    pub fuel: Option<u64>,
    /// Wall-clock deadline per evaluation, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Memory ceiling: maximum generalized tuples held at once.
    pub max_held: Option<u64>,
}

/// Interactive shell state.
#[derive(Default)]
pub struct Shell {
    edb: core::Database,
    /// Raw relation text per name (so `show` can reprint and `fo` can
    /// rebuild its database).
    relations: Vec<(String, itdb_lrp::GeneralizedRelation)>,
    program: core::Program,
    model: Option<core::Evaluation>,
    dl_program: dl::Program,
    tl_program: tl::TlProgram,
    limits: Limits,
    cancel: CancelToken,
    /// Append evaluation statistics to every `eval` output (`--stats`).
    auto_stats: bool,
    /// Append JSON statistics to every `eval` output (`--stats-json`).
    stats_json: bool,
    /// In-memory event ring installed by `trace on` (sink + registry id).
    ring: Option<(Arc<RingSink>, SinkId)>,
    /// Where to write a Prometheus metrics snapshot after each evaluation
    /// (`--metrics file.prom`).
    metrics_path: Option<PathBuf>,
    /// Durable checkpoint directory (`checkpoint DIR` / `--checkpoint`).
    checkpoint_dir: Option<PathBuf>,
    /// Checkpoint every N iterations (0 = only on governor trips).
    checkpoint_every: u64,
    /// The next `eval` resumes from the latest checkpoint (one-shot).
    resume_pending: bool,
}

/// Which limit a `fuel`/`timeout` command adjusts.
#[derive(Clone, Copy)]
enum LimitKind {
    Fuel,
    Timeout,
}

impl LimitKind {
    fn command_name(self) -> &'static str {
        match self {
            LimitKind::Fuel => "fuel",
            LimitKind::Timeout => "timeout",
        }
    }
}

/// The outcome of one command.
pub enum Step {
    /// Print this text and continue.
    Continue(String),
    /// Exit the shell.
    Quit,
}

const HELP: &str = "\
commands:
  tuple NAME (lrp, ...; data, ...) [: constraints]   add a generalized tuple
  show [NAME]                list relations / print one
  rule CLAUSE.               add a deductive clause (itdb-core syntax)
  program                    print the deductive program
  eval                       run the closed-form bottom-up evaluation
  stats [--json]             statistics for the last eval (tuple flow, caches, index, timings)
  explain ATOM               derivation tree for a ground atom, e.g. explain p[10](a)
  profile                    re-run eval with span profiling; per-rule self-time table
  trace on|off|dump          buffer typed trace events in memory and inspect them
  query ATOM                 goal query against the last model (and the EDB)
  fo FORMULA                 first-order query over EDB + derived relations
  ask FORMULA                yes/no first-order query
  dl1s CLAUSE.               add a Datalog1S clause
  dl1s-eval                  detect the eventually periodic minimal model
  templog CLAUSE.            add a Templog clause
  templog-eval               evaluate the Templog program
  fuel N|off                 cap derived tuples per evaluation
  timeout MS|off             wall-clock deadline per evaluation
  limits                     show current resource limits
  checkpoint DIR|every N|every trips|off
                             durable crash-safe snapshots of `eval` (bare: status)
  resume                     re-run `eval` from the latest checkpoint
  reset                      clear all state (limits survive)
  help                       this text
  quit                       leave";

impl Shell {
    /// A fresh shell.
    pub fn new() -> Self {
        Shell {
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            ..Shell::default()
        }
    }

    /// Replaces the session resource limits (used by `--fuel`/`--timeout-ms`).
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Installs the cancellation token shared with the Ctrl-C handler.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Appends evaluation statistics to every `eval` output (used by the
    /// `--stats` flag; the `stats` command works regardless).
    pub fn set_auto_stats(&mut self, on: bool) {
        self.auto_stats = on;
    }

    /// Appends statistics as one JSON object to every `eval` output (used
    /// by the `--stats-json` flag; `stats --json` works regardless).
    pub fn set_stats_json(&mut self, on: bool) {
        self.stats_json = on;
    }

    /// After every evaluation, writes a Prometheus text-format metrics
    /// snapshot (statistics plus a span profile) to `path` (used by the
    /// `--metrics` flag).
    pub fn set_metrics_path(&mut self, path: Option<PathBuf>) {
        self.metrics_path = path;
    }

    /// Enables durable checkpointing of `eval` into `dir` (used by the
    /// `--checkpoint` flag; the `checkpoint` command works regardless).
    pub fn set_checkpoint_dir(&mut self, dir: Option<PathBuf>) {
        self.checkpoint_dir = dir;
    }

    /// Sets the every-N-iterations checkpoint cadence; 0 means checkpoint
    /// only when the governor trips (used by `--checkpoint-every`).
    pub fn set_checkpoint_every(&mut self, n: u64) {
        self.checkpoint_every = n;
    }

    /// Makes the next `eval` resume from the latest checkpoint in the
    /// checkpoint directory (used by the `--resume` flag).
    pub fn set_resume_pending(&mut self, on: bool) {
        self.resume_pending = on;
    }

    /// Executes one command line.
    pub fn execute(&mut self, line: &str) -> Step {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            return Step::Continue(String::new());
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let out = match cmd {
            "help" => Ok(HELP.to_string()),
            "quit" | "exit" => return Step::Quit,
            "reset" => {
                // Limits and the cancellation token are session
                // configuration, not evaluation state: keep them so the
                // Ctrl-C handler installed by `main` stays wired up.
                let limits = self.limits.clone();
                let cancel = self.cancel.clone();
                let auto_stats = self.auto_stats;
                let stats_json = self.stats_json;
                let ring = self.ring.take();
                let metrics_path = self.metrics_path.take();
                let checkpoint_dir = self.checkpoint_dir.take();
                let checkpoint_every = self.checkpoint_every;
                *self = Shell::new();
                self.limits = limits;
                self.cancel = cancel;
                self.auto_stats = auto_stats;
                self.stats_json = stats_json;
                self.ring = ring;
                self.metrics_path = metrics_path;
                self.checkpoint_dir = checkpoint_dir;
                self.checkpoint_every = checkpoint_every;
                Ok("state cleared".to_string())
            }
            "fuel" => self.cmd_limit(rest, LimitKind::Fuel),
            "timeout" => self.cmd_limit(rest, LimitKind::Timeout),
            "limits" => Ok(self.fmt_limits()),
            "tuple" => self.cmd_tuple(rest),
            "show" => self.cmd_show(rest),
            "rule" => self.cmd_rule(rest),
            "program" => Ok(format!("{}", self.program)),
            "eval" => self.cmd_eval(),
            "stats" => self.cmd_stats(rest),
            "explain" => self.cmd_explain(rest),
            "profile" => self.cmd_profile(),
            "trace" => self.cmd_trace(rest),
            "query" => self.cmd_query(rest),
            "fo" => self.cmd_fo(rest, false),
            "ask" => self.cmd_fo(rest, true),
            "dl1s" => self.cmd_dl1s(rest),
            "dl1s-eval" => self.cmd_dl1s_eval(),
            "templog" => self.cmd_templog(rest),
            "templog-eval" => self.cmd_templog_eval(),
            "checkpoint" => self.cmd_checkpoint(rest),
            "resume" => self.cmd_resume(),
            other => Err(Error::Eval(format!(
                "unknown command `{other}` (try `help`)"
            ))),
        };
        Step::Continue(match out {
            Ok(s) => s,
            Err(e) => format!("error: {e}"),
        })
    }

    fn cmd_limit(&mut self, rest: &str, kind: LimitKind) -> Result<String> {
        let slot = match kind {
            LimitKind::Fuel => &mut self.limits.fuel,
            LimitKind::Timeout => &mut self.limits.timeout_ms,
        };
        *slot = match rest {
            "off" | "none" => None,
            "" => return Err(Error::Eval(format!("usage: {} N|off", kind.command_name()))),
            n => Some(n.parse::<u64>().map_err(|_| {
                Error::Eval(format!("{}: `{n}` is not a number", kind.command_name()))
            })?),
        };
        Ok(self.fmt_limits())
    }

    fn fmt_limits(&self) -> String {
        let show = |v: Option<u64>, unit: &str| match v {
            Some(n) => format!("{n}{unit}"),
            None => "unlimited".to_string(),
        };
        format!(
            "fuel: {}  timeout: {}",
            show(self.limits.fuel, " derived tuples"),
            show(self.limits.timeout_ms, " ms"),
        )
    }

    /// Governor configuration shared by all evaluation commands.
    fn governor_config(&self) -> GovernorConfig {
        let mut cfg = GovernorConfig::default().with_cancel(self.cancel.clone());
        if let Some(fuel) = self.limits.fuel {
            cfg = cfg.with_max_derived_tuples(fuel);
        }
        if let Some(ms) = self.limits.timeout_ms {
            cfg = cfg.with_timeout(Duration::from_millis(ms));
        }
        if let Some(held) = self.limits.max_held {
            cfg = cfg.with_max_held_tuples(held);
        }
        cfg
    }

    fn cmd_tuple(&mut self, rest: &str) -> Result<String> {
        let (name, tuple_text) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| Error::Eval("usage: tuple NAME (…)".into()))?;
        let tuple = lrp_parser::parse_tuple(tuple_text.trim())?;
        let schema = itdb_lrp::Schema::new(tuple.temporal_arity(), tuple.data_arity());
        let idx = match self.relations.iter().position(|(n, _)| n == name) {
            Some(idx) => {
                self.relations[idx].1.insert(tuple)?;
                idx
            }
            None => {
                let rel = itdb_lrp::GeneralizedRelation::from_tuples(schema, vec![tuple])?;
                self.relations.push((name.to_string(), rel));
                self.relations.len() - 1
            }
        };
        let rel = &self.relations[idx].1;
        self.edb.insert(name, rel.clone());
        self.model = None;
        Ok(format!("{name}: {} generalized tuple(s)", rel.len()))
    }

    fn cmd_show(&self, rest: &str) -> Result<String> {
        if rest.is_empty() {
            let mut out = String::new();
            for (name, rel) in &self.relations {
                let _ = writeln!(out, "{name} {} ({} tuples)", rel.schema(), rel.len());
            }
            if let Some(eval) = &self.model {
                for (name, rel) in &eval.idb {
                    let _ = writeln!(
                        out,
                        "{name} {} ({} tuples, derived)",
                        rel.schema(),
                        rel.len()
                    );
                }
            }
            if out.is_empty() {
                out = "no relations".to_string();
            }
            return Ok(out.trim_end().to_string());
        }
        if let Some((_, rel)) = self.relations.iter().find(|(n, _)| n == rest) {
            return Ok(format!("{rel}"));
        }
        if let Some(rel) = self.model.as_ref().and_then(|m| m.relation(rest)) {
            return Ok(format!("{rel}"));
        }
        Err(Error::Eval(format!("unknown relation `{rest}`")))
    }

    fn cmd_rule(&mut self, rest: &str) -> Result<String> {
        let clause = core::parse_clause(rest)?;
        self.program.clauses.push(clause);
        self.model = None;
        Ok(format!(
            "{} clause(s) in the program",
            self.program.clauses.len()
        ))
    }

    /// Opens the session's checkpoint store, if a directory is configured.
    fn checkpoint_store(&self) -> Result<Option<Arc<core::SnapshotStore>>> {
        match &self.checkpoint_dir {
            Some(dir) => {
                let store = core::SnapshotStore::open(dir).map_err(|e| {
                    Error::Eval(format!("checkpoint: cannot open {}: {e}", dir.display()))
                })?;
                Ok(Some(Arc::new(store)))
            }
            None => Ok(None),
        }
    }

    /// Runs one deductive evaluation under the session limits, honoring
    /// the observability configuration: profiles when requested (or when a
    /// metrics snapshot is due), flushes trace sinks so `--trace` files
    /// are complete per evaluation, and writes the metrics file. When a
    /// checkpoint directory is set, the run writes durable snapshots; when
    /// a resume is pending, it restarts from the latest readable one.
    ///
    /// The returned string carries machine-greppable checkpoint/resume
    /// notes (`resumed: generation N`, recovery lines) for the caller to
    /// prepend to its output.
    fn run_eval(
        &mut self,
        provenance: bool,
        want_profile: bool,
    ) -> Result<(core::Evaluation, Option<Profile>, String)> {
        // A Ctrl-C that arrived while the shell was idle must not abort the
        // next evaluation: the token only counts once armed mid-flight.
        self.cancel.reset();
        let mut notes = String::new();
        let store = self.checkpoint_store()?;
        let opts = core::EvalOptions {
            coalesce: true,
            provenance,
            max_derived_tuples: self.limits.fuel,
            timeout: self.limits.timeout_ms.map(Duration::from_millis),
            max_held_tuples: self.limits.max_held,
            cancel: Some(self.cancel.clone()),
            checkpoint: store
                .clone()
                .map(|s| core::CheckpointPolicy::every(s, self.checkpoint_every)),
            ..Default::default()
        };
        // Resolve a pending resume before evaluating: load the newest
        // readable snapshot, reporting any damaged generations skipped on
        // the way. A missing checkpoint degrades to a fresh run.
        let mut resume_from: Option<(u64, core::Checkpoint)> = None;
        if std::mem::take(&mut self.resume_pending) {
            let store = store.as_ref().ok_or_else(|| {
                Error::Eval("resume: no checkpoint directory (use `checkpoint DIR` first)".into())
            })?;
            match core::load_latest(store) {
                Ok(rec) => {
                    for (generation, err) in &rec.skipped {
                        let _ = writeln!(
                            notes,
                            "recovery: generation {generation} unreadable ({err}); skipped"
                        );
                    }
                    resume_from = Some((rec.generation, rec.checkpoint));
                }
                Err(core::CheckpointError::NoCheckpoint) => {
                    let _ = writeln!(notes, "resume: no checkpoint found; running fresh");
                }
                Err(e) => return Err(Error::Eval(format!("resume: {e}"))),
            }
        }
        let profiling = want_profile || self.metrics_path.is_some();
        if profiling {
            itdb_trace::set_profiling(true);
        }
        let result = match resume_from {
            Some((generation, cp)) => {
                match core::resume_with(&self.program, &self.edb, &opts, &cp) {
                    // A snapshot of a different program or EDB is rejected
                    // by the engine's hash check; never load stale state —
                    // note it and evaluate from scratch.
                    Err(Error::Eval(msg)) if msg.starts_with("checkpoint:") => {
                        let _ = writeln!(notes, "resume: {msg}; running fresh");
                        core::evaluate_with(&self.program, &self.edb, &opts)
                    }
                    r => {
                        let _ = writeln!(notes, "resumed: generation {generation}");
                        r
                    }
                }
            }
            None => core::evaluate_with(&self.program, &self.edb, &opts),
        };
        if profiling {
            itdb_trace::set_profiling(false);
        }
        itdb_trace::flush_sinks();
        // Taken even on the error path, so a failed run cannot leak its
        // partial profile into the next one.
        let profile = profiling.then(itdb_trace::take_profile);
        let eval = result?;
        if let Some(path) = &self.metrics_path {
            let text =
                core::render_metrics_full(&eval.stats, profile.as_ref(), Some(&eval.checkpoints));
            std::fs::write(path, text).map_err(|e| {
                Error::Eval(format!("metrics: cannot write {}: {e}", path.display()))
            })?;
        }
        Ok((eval, profile, notes))
    }

    fn cmd_eval(&mut self) -> Result<String> {
        let (eval, _, notes) = self.run_eval(false, false)?;
        let mut out = notes;
        out += &match eval.outcome.interruption() {
            Some(int) => format_interruption(int),
            None => format!("outcome: {:?}\n", eval.outcome),
        };
        if let Some(generation) = eval.checkpoints.last_generation {
            let _ = writeln!(
                out,
                "checkpoint: generation {generation} ({} bytes)",
                eval.checkpoints.last_bytes
            );
        }
        if eval.checkpoints.failed > 0 {
            let _ = writeln!(
                out,
                "checkpoint failures: {} (evaluation continued)",
                eval.checkpoints.failed
            );
        }
        for (name, rel) in &eval.idb {
            let _ = writeln!(out, "{name} = {rel}");
        }
        if self.auto_stats {
            let _ = writeln!(out, "{}", eval.stats);
        }
        if self.stats_json {
            let _ = writeln!(out, "{}", eval.stats.to_json());
        }
        self.model = Some(eval);
        Ok(out.trim_end().to_string())
    }

    fn cmd_stats(&self, rest: &str) -> Result<String> {
        let model = self
            .model
            .as_ref()
            .ok_or_else(|| Error::Eval("no model yet (run `eval` first)".into()))?;
        match rest {
            "" => Ok(format!("{}", model.stats)),
            "--json" | "json" => Ok(model.stats.to_json()),
            other => Err(Error::Eval(format!(
                "usage: stats [--json] (got `{other}`)"
            ))),
        }
    }

    /// `explain ATOM` — prints the derivation tree of a ground point.
    ///
    /// Provenance is not recorded by plain `eval` (it costs allocations per
    /// derived tuple), so the first `explain` after a model change re-runs
    /// the evaluation with provenance on and keeps the enriched model.
    fn cmd_explain(&mut self, rest: &str) -> Result<String> {
        let atom = core::parse_atom(rest)?;
        let mut temporal = Vec::new();
        for t in &atom.temporal {
            match t {
                core::TemporalTerm::Const(c) => temporal.push(*c),
                core::TemporalTerm::Var { .. } => {
                    return Err(Error::Eval(
                        "explain needs a ground atom, e.g. `explain p[10](a)`".into(),
                    ))
                }
            }
        }
        let mut data = Vec::new();
        for d in &atom.data {
            match d {
                core::DataTerm::Const(v) => data.push(v.clone()),
                core::DataTerm::Var(_) => {
                    return Err(Error::Eval(
                        "explain needs a ground atom, e.g. `explain p[10](a)`".into(),
                    ))
                }
            }
        }
        let needs_rerun = match &self.model {
            Some(m) => m.derivations.is_empty(),
            None => true,
        };
        if needs_rerun {
            let (eval, _, _) = self.run_eval(true, false)?;
            self.model = Some(eval);
        }
        let model = match &self.model {
            Some(m) => m,
            None => return Err(Error::Eval("no model (run `eval` first)".into())),
        };
        match core::explain(model, &atom.pred, &temporal, &data) {
            Some(tree) => Ok(tree.render(&model.rule_labels).trim_end().to_string()),
            None => Err(Error::Eval(format!(
                "no derivation recorded for `{rest}` (not in the model?)"
            ))),
        }
    }

    /// `profile` — re-runs the evaluation with span profiling and prints
    /// per-rule (and per-operation) self-time tables, costliest first.
    fn cmd_profile(&mut self) -> Result<String> {
        let (eval, profile, _) = self.run_eval(false, true)?;
        let profile = profile.unwrap_or_default();
        self.model = Some(eval);
        let mut out = String::new();
        render_profile_table(&mut out, "rule", profile.of_kind(SpanKind::Rule));
        let ops: Vec<&itdb_trace::ProfileEntry> = profile.of_kind(SpanKind::Op).collect();
        if !ops.is_empty() {
            let _ = writeln!(out);
            render_profile_table(&mut out, "op", ops.into_iter());
        }
        if out.is_empty() {
            out = "no spans profiled (empty program?)".to_string();
        }
        Ok(out.trim_end().to_string())
    }

    fn cmd_trace(&mut self, rest: &str) -> Result<String> {
        match rest {
            "on" => {
                if self.ring.is_some() {
                    return Ok("tracing already on".to_string());
                }
                let ring = Arc::new(RingSink::with_capacity(TRACE_RING_CAPACITY));
                let id = itdb_trace::add_sink(ring.clone());
                self.ring = Some((ring, id));
                Ok(format!(
                    "tracing on (ring of {TRACE_RING_CAPACITY} events; `trace dump` to inspect)"
                ))
            }
            "off" => match self.ring.take() {
                Some((_, id)) => {
                    itdb_trace::remove_sink(id);
                    Ok("tracing off".to_string())
                }
                None => Ok("tracing already off".to_string()),
            },
            "dump" => {
                let (ring, _) = self
                    .ring
                    .as_ref()
                    .ok_or_else(|| Error::Eval("tracing is off (`trace on` first)".into()))?;
                let (events, dropped) = ring.drain();
                if events.is_empty() {
                    return Ok("no events buffered".to_string());
                }
                let mut out = String::new();
                for e in &events {
                    let _ = writeln!(out, "{}", e.to_json());
                }
                if dropped > 0 {
                    let _ = writeln!(out, "({dropped} older event(s) dropped)");
                }
                Ok(out.trim_end().to_string())
            }
            "" => Ok(format!(
                "tracing: {}",
                if self.ring.is_some() { "on" } else { "off" }
            )),
            other => Err(Error::Eval(format!(
                "usage: trace on|off|dump (got `{other}`)"
            ))),
        }
    }

    fn cmd_query(&mut self, rest: &str) -> Result<String> {
        let atom = core::parse_atom(rest)?;
        let rel = self
            .model
            .as_ref()
            .and_then(|m| m.relation(&atom.pred))
            .or_else(|| self.edb.get(&atom.pred))
            .ok_or_else(|| {
                Error::Eval(format!(
                    "unknown predicate `{}` (run `eval` first for derived ones)",
                    atom.pred
                ))
            })?;
        let ans = core::query(rel, &atom, DEFAULT_RESIDUE_BUDGET)?;
        Ok(format!("{ans}"))
    }

    fn fo_db(&self) -> fo::FoDatabase {
        let mut db = fo::FoDatabase::new();
        for (name, rel) in &self.relations {
            db.insert(name, rel.clone());
        }
        if let Some(eval) = &self.model {
            for (name, rel) in &eval.idb {
                db.insert(name, rel.clone());
            }
        }
        db
    }

    fn cmd_fo(&self, rest: &str, yesno: bool) -> Result<String> {
        let f = fo::parse_formula(rest)?;
        let db = self.fo_db();
        let opts = fo::FoOptions::default();
        if yesno {
            return Ok(format!("{}", fo::ask(&f, &db, &opts)?));
        }
        let r = fo::evaluate(&f, &db, &opts)?;
        let mut out = String::new();
        if !r.tvars.is_empty() || !r.dvars.is_empty() {
            let _ = writeln!(
                out,
                "columns: [{}] ({})",
                r.tvars.join(", "),
                r.dvars.join(", ")
            );
        }
        let _ = write!(out, "{}", r.relation);
        Ok(out)
    }

    /// `checkpoint DIR | every N | every trips | off | (bare)` — configures
    /// durable snapshots of `eval`: where they go and how often they are
    /// taken.
    fn cmd_checkpoint(&mut self, rest: &str) -> Result<String> {
        let (word, arg) = match rest.split_once(char::is_whitespace) {
            Some((w, a)) => (w, a.trim()),
            None => (rest, ""),
        };
        match (word, arg) {
            ("", _) => Ok(self.fmt_checkpoint()),
            ("off", _) => {
                self.checkpoint_dir = None;
                Ok("checkpointing off".to_string())
            }
            ("every", "trips") => {
                self.checkpoint_every = 0;
                Ok(self.fmt_checkpoint())
            }
            ("every", n) => {
                let parsed = n
                    .parse::<u64>()
                    .map_err(|_| Error::Eval(format!("checkpoint every: `{n}` is not a number")))?;
                if parsed == 0 {
                    return Err(Error::Eval(
                        "checkpoint every: 0 would never snapshot mid-run; \
                         say `checkpoint every trips` for trip-only snapshots"
                            .into(),
                    ));
                }
                self.checkpoint_every = parsed;
                Ok(self.fmt_checkpoint())
            }
            (dir, "") => {
                self.checkpoint_dir = Some(PathBuf::from(dir));
                // Open eagerly so a bad directory fails here, not mid-eval.
                self.checkpoint_store()?;
                Ok(self.fmt_checkpoint())
            }
            _ => Err(Error::Eval(
                "usage: checkpoint DIR|every N|every trips|off".into(),
            )),
        }
    }

    fn fmt_checkpoint(&self) -> String {
        match &self.checkpoint_dir {
            Some(dir) => {
                let cadence = match self.checkpoint_every {
                    0 => "only on governor trips".to_string(),
                    n => format!("every {n} iterations and on governor trips"),
                };
                format!("checkpointing to {} ({cadence})", dir.display())
            }
            None => "checkpointing off".to_string(),
        }
    }

    /// `resume` — runs `eval` starting from the latest readable checkpoint.
    fn cmd_resume(&mut self) -> Result<String> {
        if self.checkpoint_dir.is_none() {
            return Err(Error::Eval(
                "resume: no checkpoint directory (use `checkpoint DIR` first)".into(),
            ));
        }
        self.resume_pending = true;
        self.cmd_eval()
    }

    fn cmd_dl1s(&mut self, rest: &str) -> Result<String> {
        let p = dl::parse_program(rest)?;
        self.dl_program.clauses.extend(p.clauses);
        Ok(format!(
            "{} Datalog1S clause(s)",
            self.dl_program.clauses.len()
        ))
    }

    fn cmd_dl1s_eval(&self) -> Result<String> {
        self.cancel.reset();
        let governor = std::sync::Arc::new(Governor::new(self.governor_config()));
        let ev = dl::evaluate_governed(
            &self.dl_program,
            &dl::ExternalEdb::new(),
            &dl::DetectOptions::default(),
            &governor,
        )?;
        let m = &ev.model;
        let mut out = match &ev.outcome {
            dl::DlOutcome::Complete => format!(
                "eventually periodic (offset {}, period {}, detected at {})\n",
                m.offset, m.period, m.detected_at
            ),
            dl::DlOutcome::Interrupted {
                reason,
                completed_strata,
                total_strata,
                simulated_to,
            } => format!(
                "interrupted: {reason}\n\
                 strata: {completed_strata}/{total_strata} complete; tripped stratum \
                 simulated to t={simulated_to} (partial model below: exact on completed \
                 strata, finite prefix on the rest; raise `fuel`/`timeout` for the full \
                 periodic model)\n"
            ),
        };
        if m.sets.is_empty() {
            out.push_str("empty model\n");
        }
        for ((pred, data), set) in &m.sets {
            let data_txt = if data.is_empty() {
                String::new()
            } else {
                format!(
                    "({})",
                    data.iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            let _ = writeln!(out, "{pred}{data_txt} = {set}");
        }
        Ok(out.trim_end().to_string())
    }

    fn cmd_templog(&mut self, rest: &str) -> Result<String> {
        let p = tl::parse_program(rest)?;
        self.tl_program.clauses.extend(p.clauses);
        Ok(format!(
            "{} Templog clause(s)",
            self.tl_program.clauses.len()
        ))
    }

    fn cmd_templog_eval(&self) -> Result<String> {
        self.cancel.reset();
        let governor = std::sync::Arc::new(Governor::new(self.governor_config()));
        let ev = tl::evaluate_governed(
            &self.tl_program,
            &dl::ExternalEdb::new(),
            &dl::DetectOptions::default(),
            &governor,
        )?;
        let mut out = String::new();
        if let tl::TlOutcome::Interrupted {
            reason,
            completed_strata,
            total_strata,
        } = &ev.outcome
        {
            let _ = writeln!(out, "interrupted: {reason}");
            let _ = writeln!(
                out,
                "strata: {completed_strata}/{total_strata} complete \
                 (the partial model below is exact on completed strata)"
            );
        }
        let mut printed = 0usize;
        for ((pred, data), set) in &ev.model.sets {
            let data_txt = if data.is_empty() {
                String::new()
            } else {
                format!(
                    "({})",
                    data.iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            let _ = writeln!(out, "{pred}{data_txt} = {set}");
            printed += 1;
        }
        if printed == 0 {
            let _ = writeln!(out, "empty model");
        }
        Ok(out.trim_end().to_string())
    }
}

/// Renders one profile table (`rule` or `op` spans) with aligned columns,
/// in the order the profile delivers entries (costliest self-time first).
fn render_profile_table<'a>(
    out: &mut String,
    what: &str,
    entries: impl Iterator<Item = &'a itdb_trace::ProfileEntry>,
) {
    let entries: Vec<&itdb_trace::ProfileEntry> = entries.collect();
    if entries.is_empty() {
        return;
    }
    let width = entries
        .iter()
        .map(|e| e.label.len())
        .max()
        .unwrap_or(0)
        .max(what.len());
    let _ = writeln!(
        out,
        "{:<width$}  {:>7}  {:>10}  {:>10}",
        what, "count", "total", "self"
    );
    for e in entries {
        let _ = writeln!(
            out,
            "{:<width$}  {:>7}  {:>10}  {:>10}",
            e.label,
            e.count,
            fmt_duration(e.total),
            fmt_duration(e.self_time)
        );
    }
}

/// Renders an [`Interruption`] as a human-readable block.
///
/// The first line is machine-greppable (`interrupted: <reason>`); the
/// completeness line states whether the partial model is already a complete
/// free extension (Theorem 4.2) or a plain under-approximation.
fn format_interruption(int: &Interruption) -> String {
    let mut out = format!("interrupted: {}\n", int.reason);
    match &int.completeness {
        Completeness::FreeExtensionComplete { fe_safe_at } => {
            let _ = writeln!(
                out,
                "completeness: free-extension complete (safe since iteration {fe_safe_at}); \
                 the partial model below contains every fact of the free extension"
            );
        }
        Completeness::Partial => {
            let _ = writeln!(
                out,
                "completeness: partial (sound under-approximation; every tuple shown is derivable)"
            );
        }
    }
    let _ = writeln!(out, "iterations: {}", int.iterations);
    // Machine-greppable governor counter snapshot at the moment of the trip.
    let c = &int.counters;
    let _ = writeln!(
        out,
        "governor: iterations={} derived={} held={} checks={} elapsed_ms={}",
        c.iterations, c.derived, c.held, c.checks, c.elapsed_ms
    );
    if !int.growing.is_empty() {
        let _ = writeln!(out, "still growing: {}", int.growing.join(", "));
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn run(shell: &mut Shell, line: &str) -> String {
        match shell.execute(line) {
            Step::Continue(s) => s,
            Step::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn full_session() {
        let mut sh = Shell::new();
        let out = run(
            &mut sh,
            "tuple course (168n+8, 168n+10; database) : T2 = T1 + 2",
        );
        assert!(out.contains("1 generalized tuple"), "{out}");

        let out = run(
            &mut sh,
            "rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).",
        );
        assert!(out.contains("1 clause"), "{out}");
        run(
            &mut sh,
            "rule problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).",
        );

        let out = run(&mut sh, "eval");
        assert!(out.contains("Converged"), "{out}");
        assert!(out.contains("problems"), "{out}");

        let out = run(&mut sh, "query problems[t, t + 2](database)");
        assert!(out.contains("n+10"), "{out}");

        let out = run(&mut sh, "ask exists t1, t2. course[t1, t2](database)");
        assert_eq!(out, "true");

        let out = run(&mut sh, "show");
        assert!(out.contains("course"), "{out}");
        assert!(out.contains("derived"), "{out}");
    }

    #[test]
    fn datalog1s_session() {
        let mut sh = Shell::new();
        run(&mut sh, "dl1s leaves[5]. leaves[t + 40] <- leaves[t].");
        let out = run(&mut sh, "dl1s-eval");
        assert!(out.contains("period 40"), "{out}");
        assert!(out.contains("leaves"), "{out}");
    }

    #[test]
    fn templog_session() {
        let mut sh = Shell::new();
        run(&mut sh, "templog next^5 ev. always (next^7 ev <- ev).");
        let out = run(&mut sh, "templog-eval");
        assert!(out.contains("ev"), "{out}");
        assert!(out.contains("+7k"), "{out}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut sh = Shell::new();
        let out = run(&mut sh, "rule this is not a clause");
        assert!(out.starts_with("error:"), "{out}");
        let out = run(&mut sh, "frobnicate");
        assert!(out.contains("unknown command"), "{out}");
        let out = run(&mut sh, "show nothing");
        assert!(out.contains("unknown relation"), "{out}");
        // The shell still works afterwards.
        let out = run(&mut sh, "help");
        assert!(out.contains("commands"), "{out}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let mut sh = Shell::new();
        assert_eq!(run(&mut sh, ""), "");
        assert_eq!(run(&mut sh, "# a comment"), "");
        assert_eq!(run(&mut sh, "% another"), "");
    }

    #[test]
    fn reset_clears_state() {
        let mut sh = Shell::new();
        run(&mut sh, "tuple r (2n)");
        run(&mut sh, "reset");
        let out = run(&mut sh, "show");
        assert_eq!(out, "no relations");
    }

    #[test]
    fn quit_exits() {
        let mut sh = Shell::new();
        assert!(matches!(sh.execute("quit"), Step::Quit));
        assert!(matches!(sh.execute("exit"), Step::Quit));
    }

    #[test]
    fn negation_and_mod_in_session() {
        let mut sh = Shell::new();
        run(&mut sh, "tuple sched (24n) : T1 >= 0");
        run(&mut sh, "rule service[t] <- sched[t].");
        run(&mut sh, "rule service[t + 12] <- service[t].");
        run(&mut sh, "rule gap[t] <- !service[t], 0 <= t.");
        let out = run(&mut sh, "eval");
        assert!(out.contains("Converged"), "{out}");
        let out = run(&mut sh, "ask exists t. gap[t]");
        assert_eq!(out, "true");
        // Periodicity predicate in a first-order query.
        let out = run(&mut sh, "fo gap[t] & t mod 12 = 1");
        assert!(out.contains("12n+1"), "{out}");
    }

    #[test]
    fn limits_commands_round_trip() {
        let mut sh = Shell::new();
        let out = run(&mut sh, "limits");
        assert!(out.contains("unlimited"), "{out}");
        let out = run(&mut sh, "fuel 100");
        assert!(out.contains("100 derived tuples"), "{out}");
        let out = run(&mut sh, "timeout 2000");
        assert!(out.contains("2000 ms"), "{out}");
        let out = run(&mut sh, "fuel off");
        assert!(out.contains("fuel: unlimited"), "{out}");
        let out = run(&mut sh, "fuel pancakes");
        assert!(out.starts_with("error:"), "{out}");
        let out = run(&mut sh, "timeout");
        assert!(out.contains("usage"), "{out}");
    }

    #[test]
    fn stats_command_reports_last_eval() {
        let mut sh = Shell::new();
        let out = run(&mut sh, "stats");
        assert!(out.starts_with("error:"), "{out}");
        run(
            &mut sh,
            "tuple course (168n+8, 168n+10; database) : T2 = T1 + 2",
        );
        run(
            &mut sh,
            "rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).",
        );
        run(
            &mut sh,
            "rule problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).",
        );
        run(&mut sh, "eval");
        let out = run(&mut sh, "stats");
        assert!(out.contains("tuples derived"), "{out}");
        assert!(out.contains("subsumption checks"), "{out}");
        assert!(out.contains("stratum 0 (problems)"), "{out}");
        assert!(out.contains("elapsed:"), "{out}");
    }

    #[test]
    fn auto_stats_appends_to_eval_output_and_survives_reset() {
        let mut sh = Shell::new();
        sh.set_auto_stats(true);
        run(&mut sh, "tuple e (6n) : T1 >= 0");
        run(&mut sh, "rule late[t + 1] <- e[t].");
        let out = run(&mut sh, "eval");
        assert!(out.contains("Converged"), "{out}");
        assert!(out.contains("tuples derived"), "{out}");
        run(&mut sh, "reset");
        run(&mut sh, "tuple e (6n) : T1 >= 0");
        run(&mut sh, "rule late[t + 1] <- e[t].");
        let out = run(&mut sh, "eval");
        assert!(out.contains("tuples derived"), "{out}");
    }

    #[test]
    fn reset_preserves_limits() {
        let mut sh = Shell::new();
        run(&mut sh, "fuel 7");
        run(&mut sh, "reset");
        let out = run(&mut sh, "limits");
        assert!(out.contains("7 derived tuples"), "{out}");
    }

    #[test]
    fn diverging_eval_interrupts_and_shell_survives() {
        let mut sh = Shell::new();
        // Small enough to trip before the free-extension grace window ends.
        run(&mut sh, "fuel 5");
        // Point-based successor recursion: unbounded unless governed.
        run(&mut sh, "tuple p (n) : T1 = 0");
        run(&mut sh, "rule q[t] <- p[t].");
        run(&mut sh, "rule q[t + 5] <- q[t].");
        let out = run(&mut sh, "eval");
        assert!(out.contains("interrupted:"), "{out}");
        assert!(out.contains("tuple fuel exhausted"), "{out}");
        assert!(out.contains("still growing: q"), "{out}");
        // The partial model is visible and the shell keeps working.
        assert!(out.contains("q = "), "{out}");
        let out = run(&mut sh, "show");
        assert!(out.contains("derived"), "{out}");
        let out = run(&mut sh, "help");
        assert!(out.contains("commands"), "{out}");
    }

    #[test]
    fn pre_armed_cancel_token_is_cleared_before_eval() {
        let mut sh = Shell::new();
        let token = CancelToken::new();
        sh.set_cancel(token.clone());
        token.cancel();
        run(&mut sh, "tuple e (6n) : T1 >= 0");
        run(&mut sh, "rule late[t + 1] <- e[t].");
        // A stale Ctrl-C from idle time must not abort the evaluation.
        let out = run(&mut sh, "eval");
        assert!(out.contains("Converged"), "{out}");
    }

    #[test]
    fn governed_dl1s_eval_times_out_gracefully() {
        let mut sh = Shell::new();
        sh.set_limits(Limits {
            timeout_ms: Some(0),
            ..Limits::default()
        });
        run(&mut sh, "dl1s leaves[5]. leaves[t + 40] <- leaves[t].");
        let out = run(&mut sh, "dl1s-eval");
        // A trip is reported, not treated as a shell error, and whatever
        // simulation prefix existed is kept rather than discarded.
        assert!(out.starts_with("interrupted:"), "{out}");
        assert!(out.contains("tripped stratum simulated to"), "{out}");
        // Shell still alive afterwards.
        let out = run(&mut sh, "help");
        assert!(out.contains("commands"), "{out}");
    }

    #[test]
    fn governed_templog_eval_reports_partial_strata_on_trip() {
        let mut sh = Shell::new();
        sh.set_limits(Limits {
            timeout_ms: Some(0),
            ..Limits::default()
        });
        run(
            &mut sh,
            "templog power. always (next^4 power <- power). always (dark <- !power).",
        );
        let out = run(&mut sh, "templog-eval");
        assert!(out.starts_with("interrupted:"), "{out}");
        assert!(out.contains("strata:"), "{out}");
        assert!(out.contains("complete"), "{out}");
        let out = run(&mut sh, "help");
        assert!(out.contains("commands"), "{out}");
    }

    fn recursive_session(sh: &mut Shell) {
        run(sh, "tuple e (15n) : T1 >= 0");
        run(sh, "rule p[t + 5] <- e[t].");
        run(sh, "rule p[t + 5] <- p[t].");
    }

    #[test]
    fn stats_json_variant_is_parseable() {
        let mut sh = Shell::new();
        recursive_session(&mut sh);
        run(&mut sh, "eval");
        let out = run(&mut sh, "stats --json");
        let v = itdb_trace::json::parse(&out).expect("stats --json parses");
        assert!(v.get("tuples_inserted").and_then(|x| x.as_f64()).unwrap() > 0.0);
        assert!(v.get("strata").and_then(|s| s.as_array()).is_some());
        let out = run(&mut sh, "stats --yaml");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn stats_json_flag_appends_json_to_eval() {
        let mut sh = Shell::new();
        sh.set_stats_json(true);
        recursive_session(&mut sh);
        let out = run(&mut sh, "eval");
        let json_line = out
            .lines()
            .find(|l| l.starts_with('{'))
            .expect("eval output carries a JSON stats line");
        itdb_trace::json::parse(json_line).expect("stats line parses");
    }

    #[test]
    fn explain_prints_edb_grounded_tree() {
        let mut sh = Shell::new();
        recursive_session(&mut sh);
        // No prior `eval`: explain runs its own provenance evaluation.
        let out = run(&mut sh, "explain p[10]");
        assert!(out.contains("[EDB]"), "{out}");
        assert!(out.contains("e "), "{out}");
        assert!(out.contains("r1:"), "{out}");
        // Non-ground and absent atoms are errors, not crashes.
        let out = run(&mut sh, "explain p[t]");
        assert!(out.contains("ground atom"), "{out}");
        let out = run(&mut sh, "explain p[7]");
        assert!(out.contains("no derivation"), "{out}");
    }

    #[test]
    fn profile_lists_rules_by_self_time() {
        let mut sh = Shell::new();
        recursive_session(&mut sh);
        let out = run(&mut sh, "profile");
        assert!(out.contains("rule"), "{out}");
        assert!(out.contains("count"), "{out}");
        assert!(out.contains("r0:"), "{out}");
        assert!(out.contains("r1:"), "{out}");
    }

    #[test]
    fn trace_ring_buffers_and_dumps_events() {
        let mut sh = Shell::new();
        recursive_session(&mut sh);
        let out = run(&mut sh, "trace");
        assert_eq!(out, "tracing: off");
        let out = run(&mut sh, "trace dump");
        assert!(out.starts_with("error:"), "{out}");
        run(&mut sh, "trace on");
        run(&mut sh, "eval");
        let out = run(&mut sh, "trace dump");
        assert!(out.contains("\"event\":\"span_enter\""), "{out}");
        assert!(out.contains("\"event\":\"tuple_inserted\""), "{out}");
        // Dump drains the ring.
        let out = run(&mut sh, "trace dump");
        assert_eq!(out, "no events buffered");
        let out = run(&mut sh, "trace off");
        assert_eq!(out, "tracing off");
        assert!(!itdb_trace::enabled());
    }

    #[test]
    fn trace_survives_reset() {
        let mut sh = Shell::new();
        run(&mut sh, "trace on");
        run(&mut sh, "reset");
        let out = run(&mut sh, "trace");
        assert_eq!(out, "tracing: on");
        run(&mut sh, "trace off");
        assert!(!itdb_trace::enabled());
    }

    #[test]
    fn metrics_snapshot_written_after_eval() {
        let path = std::env::temp_dir().join(format!(
            "itdb_shell_metrics_{}_{:?}.prom",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut sh = Shell::new();
        sh.set_metrics_path(Some(path.clone()));
        recursive_session(&mut sh);
        run(&mut sh, "eval");
        let text = std::fs::read_to_string(&path).expect("metrics file written");
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("itdb_tuples_inserted_total"), "{text}");
        // The snapshot profile includes per-rule self time.
        assert!(text.contains("itdb_rule_self_seconds"), "{text}");
    }

    #[test]
    fn interruption_report_carries_governor_counters() {
        let mut sh = Shell::new();
        run(&mut sh, "fuel 5");
        run(&mut sh, "tuple p (n) : T1 = 0");
        run(&mut sh, "rule q[t] <- p[t].");
        run(&mut sh, "rule q[t + 5] <- q[t].");
        let out = run(&mut sh, "eval");
        assert!(out.contains("interrupted:"), "{out}");
        // Machine-greppable counter snapshot from the governor.
        let gov = out
            .lines()
            .find(|l| l.starts_with("governor: "))
            .expect("governor line present");
        for key in ["iterations=", "derived=", "held=", "checks=", "elapsed_ms="] {
            assert!(gov.contains(key), "{gov}");
        }
        // The trip actually consumed budget checks.
        assert!(!gov.contains("checks=0"), "{gov}");
    }

    fn temp_checkpoint_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "itdb_shell_ckpt_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn checkpoint_command_round_trips_configuration() {
        let dir = temp_checkpoint_dir("cfg");
        let mut sh = Shell::new();
        let out = run(&mut sh, "checkpoint");
        assert_eq!(out, "checkpointing off");
        let out = run(&mut sh, "resume");
        assert!(out.starts_with("error:"), "{out}");
        let out = run(&mut sh, &format!("checkpoint {}", dir.display()));
        assert!(out.contains("checkpointing to"), "{out}");
        assert!(out.contains("every 64 iterations"), "{out}");
        let out = run(&mut sh, "checkpoint every 2");
        assert!(out.contains("every 2 iterations"), "{out}");
        let out = run(&mut sh, "checkpoint every trips");
        assert!(out.contains("only on governor trips"), "{out}");
        // `every 0` is rejected with a pointer at the explicit spelling.
        let out = run(&mut sh, "checkpoint every 0");
        assert!(out.starts_with("error:"), "{out}");
        assert!(out.contains("every trips"), "{out}");
        let out = run(&mut sh, "checkpoint every pancakes");
        assert!(out.starts_with("error:"), "{out}");
        // Configuration survives `reset`, like limits.
        run(&mut sh, "reset");
        let out = run(&mut sh, "checkpoint");
        assert!(out.contains("checkpointing to"), "{out}");
        let out = run(&mut sh, "checkpoint off");
        assert_eq!(out, "checkpointing off");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tripped_eval_checkpoints_and_resume_reaches_the_full_model() {
        let dir = temp_checkpoint_dir("resume");
        let _ = std::fs::remove_dir_all(&dir);
        let mut sh = Shell::new();
        run(&mut sh, &format!("checkpoint {}", dir.display()));
        run(&mut sh, "fuel 5");
        run(&mut sh, "tuple p (n) : T1 = 0");
        run(&mut sh, "rule q[t] <- p[t].");
        run(&mut sh, "rule q[t + 5] <- q[t].");
        let out = run(&mut sh, "eval");
        assert!(out.contains("interrupted:"), "{out}");
        assert!(out.contains("checkpoint: generation"), "{out}");
        // Lift the budget and resume: the run completes from the snapshot.
        run(&mut sh, "fuel off");
        let out = run(&mut sh, "resume");
        assert!(out.contains("resumed: generation"), "{out}");
        assert!(
            out.contains("Converged") || out.contains("Diverged"),
            "{out}"
        );
        assert!(out.contains("q = "), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_no_snapshot_runs_fresh_with_a_note() {
        let dir = temp_checkpoint_dir("fresh");
        let _ = std::fs::remove_dir_all(&dir);
        let mut sh = Shell::new();
        run(&mut sh, &format!("checkpoint {}", dir.display()));
        run(&mut sh, "tuple e (6n) : T1 >= 0");
        run(&mut sh, "rule late[t + 1] <- e[t].");
        let out = run(&mut sh, "resume");
        assert!(out.contains("no checkpoint found; running fresh"), "{out}");
        assert!(out.contains("Converged"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_stale_checkpoint_and_runs_fresh() {
        let dir = temp_checkpoint_dir("stale");
        let _ = std::fs::remove_dir_all(&dir);
        let mut sh = Shell::new();
        run(&mut sh, &format!("checkpoint {}", dir.display()));
        run(&mut sh, "fuel 5");
        run(&mut sh, "tuple p (n) : T1 = 0");
        run(&mut sh, "rule q[t] <- p[t].");
        run(&mut sh, "rule q[t + 5] <- q[t].");
        let out = run(&mut sh, "eval");
        assert!(out.contains("checkpoint: generation"), "{out}");
        // Change the program: the snapshot's program hash no longer
        // matches, so resume must not load it.
        run(&mut sh, "rule r[t] <- q[t].");
        run(&mut sh, "fuel off");
        let out = run(&mut sh, "resume");
        assert!(out.contains("running fresh"), "{out}");
        assert!(!out.contains("resumed: generation"), "{out}");
        assert!(out.contains("q = "), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fo_queries_reach_derived_relations() {
        let mut sh = Shell::new();
        run(&mut sh, "tuple e (6n) : T1 >= 0");
        run(&mut sh, "rule late[t + 1] <- e[t].");
        run(&mut sh, "eval");
        let out = run(&mut sh, "ask exists t. late[t]");
        assert_eq!(out, "true");
        let out = run(&mut sh, "fo late[t] & t < 10");
        assert!(out.contains("6n+1"), "{out}");
    }
}
