//! Shared serving layer: a loaded program + EDB, materialised once and
//! answered by lookup.
//!
//! This is the model `itdb-serve` (and anything else that wants to answer
//! many queries against one workload) builds on. A [`Workload`] is parsed
//! once from a simple line format — a subset of the shell's script
//! commands, so CI fixtures read the same either way:
//!
//! ```text
//! # comment
//! tuple course (168n+8, 168n+10; database) : T2 = T1 + 2
//! rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).
//! ```
//!
//! [`Service::materialise`] evaluates the program bottom-up **once**
//! under the server defaults and returns the result as a
//! [`ResidentModel`]; the serve layer holds that model and answers every
//! read as a closed-form lookup ([`ResidentModel::answer`]) that reports
//! how that one evaluation ended. [`Service::run_query`] is the oracle
//! twin: it re-evaluates the program per call under its **own** governor
//! (fuel and deadline from the request, falling back to the same
//! defaults), so with equal budgets both paths produce byte-identical
//! answers.
//!
//! ## Statistics across a worker pool
//!
//! `itdb_lrp::stats` counters are **thread-local**. A server that lets
//! each pooled worker evaluate requests cannot recover aggregate numbers
//! by calling `itdb_lrp::stats::snapshot()` from the thread that renders
//! `/metrics` — that thread's counters never moved. Worse, two requests
//! interleaved on one worker would mis-attribute each other's work if the
//! scope weren't per-evaluation. The engine already scopes each
//! evaluation's counters by snapshot subtraction *on the evaluating
//! thread*; [`Service`] completes the story by folding every request's
//! [`EvalStats`] into a mutex-guarded aggregate with
//! [`EvalStats::absorb`]. The regression test
//! `pooled_workers_fold_stats_exactly` pins both halves down.

// User-reachable serving path: failures must flow through the error
// taxonomy, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::ast::{Atom, Program};
use crate::db::Database;
use crate::engine::{evaluate_with, EvalOptions, EvalOutcome, EvalStats};
use crate::parser::{parse_atom, parse_clause};
use crate::query::query;
use crate::resident::ResidentModel;
use itdb_lrp::{parser as lrp_parser, Error, GeneralizedRelation, Result, Schema, TripReason};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

/// A parsed serving workload: the deductive program and its extensional
/// database.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// The program evaluated per request.
    pub program: Program,
    /// The extensional relations.
    pub edb: Database,
}

impl Workload {
    /// Renders the workload back into the line format [`parse_workload`]
    /// accepts: one `tuple NAME (…)` line per generalized tuple (in
    /// relation order) followed by one `rule CLAUSE.` line per clause.
    /// `parse(w.to_text())` reproduces the workload exactly — the
    /// round-trip the `prop_workload` suite pins down.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, rel) in self.edb.iter() {
            for t in rel.tuples() {
                out.push_str(&format!("tuple {name} {t}\n"));
            }
        }
        for c in &self.program.clauses {
            out.push_str(&format!("rule {c}\n"));
        }
        out
    }
}

/// Why one workload line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadErrorKind {
    /// A `tuple` directive without both a relation name and a tuple.
    MissingTupleParts,
    /// The tuple text did not parse (reason from the lrp parser).
    BadTuple(String),
    /// The tuple parsed but could not join its relation (schema clash).
    BadRelation(String),
    /// The rule text did not parse (reason from the clause parser).
    BadRule(String),
    /// A directive that is not `tuple` or `rule`.
    UnknownDirective(String),
}

impl fmt::Display for WorkloadErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadErrorKind::MissingTupleParts => write!(f, "usage: tuple NAME (…)"),
            WorkloadErrorKind::BadTuple(e) => write!(f, "bad tuple: {e}"),
            WorkloadErrorKind::BadRelation(e) => write!(f, "{e}"),
            WorkloadErrorKind::BadRule(e) => write!(f, "bad rule: {e}"),
            WorkloadErrorKind::UnknownDirective(d) => write!(
                f,
                "unsupported directive `{d}` \
                 (serving workloads are declarative: only `tuple` and `rule`)"
            ),
        }
    }
}

/// A workload parse failure: the offending 1-based line plus a typed
/// reason. Nothing is ever silently skipped — the first bad line aborts
/// the parse and is reported exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub kind: WorkloadErrorKind,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "workload line {}: {}", self.line, self.kind)
    }
}

impl std::error::Error for WorkloadError {}

impl From<WorkloadError> for Error {
    fn from(e: WorkloadError) -> Self {
        Error::Eval(e.to_string())
    }
}

/// Parses the workload line format: blank lines and `#`/`%` comments are
/// skipped; `tuple NAME (…)` adds one generalized tuple to the named
/// relation; `rule CLAUSE.` adds one clause. Anything else — including
/// shell commands like `eval` that make no sense in a declarative
/// workload — is rejected with the offending line number.
pub fn parse_workload(text: &str) -> Result<Workload> {
    parse_workload_typed(text).map_err(Into::into)
}

/// [`parse_workload`] with a structured error: the exact line number and
/// a typed reason ([`WorkloadErrorKind`]) instead of a flattened string.
pub fn parse_workload_typed(text: &str) -> std::result::Result<Workload, WorkloadError> {
    let mut program = Program::default();
    let mut relations: Vec<(String, GeneralizedRelation)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let lineno = lineno + 1;
        let fail = |kind: WorkloadErrorKind| WorkloadError { line: lineno, kind };
        match cmd {
            "tuple" => {
                let (name, tuple_text) = rest
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| fail(WorkloadErrorKind::MissingTupleParts))?;
                let tuple = lrp_parser::parse_tuple(tuple_text.trim())
                    .map_err(|e| fail(WorkloadErrorKind::BadTuple(e.to_string())))?;
                let schema = Schema::new(tuple.temporal_arity(), tuple.data_arity());
                match relations.iter_mut().find(|(n, _)| n == name) {
                    Some((_, rel)) => rel
                        .insert(tuple)
                        .map_err(|e| fail(WorkloadErrorKind::BadRelation(e.to_string())))?,
                    None => relations.push((
                        name.to_string(),
                        GeneralizedRelation::from_tuples(schema, vec![tuple])
                            .map_err(|e| fail(WorkloadErrorKind::BadRelation(e.to_string())))?,
                    )),
                }
            }
            "rule" => {
                let clause = parse_clause(rest)
                    .map_err(|e| fail(WorkloadErrorKind::BadRule(e.to_string())))?;
                program.clauses.push(clause);
            }
            other => {
                return Err(fail(WorkloadErrorKind::UnknownDirective(other.to_string())));
            }
        }
    }
    let mut edb = Database::new();
    for (name, rel) in relations {
        edb.insert(name, rel);
    }
    Ok(Workload { program, edb })
}

/// Server-side resource ceilings: the budget of [`Service::materialise`],
/// and of any [`Service::run_query`] call that brings none of its own.
#[derive(Debug, Clone, Default)]
pub struct ServiceDefaults {
    /// Derivation fuel (`None` = unlimited).
    pub fuel: Option<u64>,
    /// Wall-clock deadline (`None` = unlimited).
    pub timeout: Option<Duration>,
}

/// One query request: a pattern plus optional per-request ceilings.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// The atom pattern, e.g. `problems[t, t + 2](database)`.
    pub pattern: String,
    /// Derivation-fuel override for this request.
    pub fuel: Option<u64>,
    /// Deadline override for this request.
    pub timeout: Option<Duration>,
    /// Request id installed as the thread's trace context for the
    /// evaluation (see `itdb_trace::context`) and echoed in the response.
    pub request_id: Option<String>,
}

/// How the evaluation behind a served answer ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryStatus {
    /// The least model was computed exactly.
    Complete,
    /// The model is not finitely representable by this process (or needed
    /// more grace iterations); the answers below are over a sound partial
    /// model.
    Diverged,
    /// The evaluation's governor tripped; the answers below are over a
    /// sound partial model.
    Interrupted(TripReason),
}

impl From<&EvalOutcome> for QueryStatus {
    fn from(outcome: &EvalOutcome) -> Self {
        match outcome {
            EvalOutcome::Converged { .. } => QueryStatus::Complete,
            EvalOutcome::DivergedAfterFeSafety { .. } => QueryStatus::Diverged,
            EvalOutcome::Interrupted(i) => QueryStatus::Interrupted(i.reason.clone()),
        }
    }
}

impl fmt::Display for QueryStatus {
    /// The status word of the `/query` JSON: `complete`, `diverged`, or
    /// `interrupted`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QueryStatus::Complete => "complete",
            QueryStatus::Diverged => "diverged",
            QueryStatus::Interrupted(_) => "interrupted",
        })
    }
}

/// The answer to one served query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The queried predicate.
    pub pred: String,
    /// How the evaluation backing this answer ended.
    pub status: QueryStatus,
    /// Generalized answer tuples in the textual closed form, one per
    /// tuple, in the deterministic order of the computed relation.
    pub answers: Vec<String>,
    /// This request's evaluation statistics (already folded into the
    /// service aggregate).
    pub stats: EvalStats,
    /// The request id this answer belongs to (echoed from the request).
    pub request_id: Option<String>,
}

impl QueryResponse {
    /// The response to `atom` over a model: the pattern's relation, looked
    /// up among the derived relations `idb` first and the extensional `edb`
    /// second, is answered by [`query`], one rendered tuple per answer.
    /// The caller supplies the model's status and statistics; the request
    /// id is left unset.
    pub(crate) fn lookup(
        idb: &BTreeMap<String, GeneralizedRelation>,
        edb: &Database,
        atom: &Atom,
        budget: u64,
        status: QueryStatus,
        stats: EvalStats,
    ) -> Result<QueryResponse> {
        let rel = idb
            .get(&atom.pred)
            .or_else(|| edb.get(&atom.pred))
            .ok_or_else(|| {
                Error::Eval(format!(
                    "unknown predicate `{}` (neither derived nor extensional)",
                    atom.pred
                ))
            })?;
        let answers = query(rel, atom, budget)?
            .tuples()
            .iter()
            .map(ToString::to_string)
            .collect();
        Ok(QueryResponse {
            pred: atom.pred.clone(),
            status,
            answers,
            stats,
            request_id: None,
        })
    }

    /// Renders the response as one JSON object via the workspace's
    /// hand-rolled encoder (stable field order, strings escaped).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256);
        out.push_str("{\"predicate\":\"");
        itdb_trace::json::escape_into(&self.pred, &mut out);
        let _ = write!(out, "\",\"status\":\"{}\"", self.status);
        if let QueryStatus::Interrupted(reason) = &self.status {
            out.push_str(",\"trip\":\"");
            itdb_trace::json::escape_into(&reason.to_string(), &mut out);
            out.push('"');
        }
        out.push_str(",\"answers\":[");
        for (i, a) in self.answers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            itdb_trace::json::escape_into(a, &mut out);
            out.push('"');
        }
        let _ = write!(out, "],\"stats\":{}", self.stats.to_json());
        // Rendered after `stats` so byte-comparison harnesses that strip
        // everything from `,"stats":` onward keep working unchanged.
        if let Some(id) = &self.request_id {
            out.push_str(",\"request_id\":\"");
            itdb_trace::json::escape_into(id, &mut out);
            out.push('"');
        }
        out.push('}');
        out
    }
}

/// Aggregate serving counters, folded under one lock.
#[derive(Debug, Clone, Default)]
pub struct ServiceTotals {
    /// Queries answered (any status).
    pub queries: u64,
    /// Queries answered with status `interrupted`.
    pub interrupted: u64,
    /// Folded evaluation statistics: every [`Service::materialise`] and
    /// every [`Service::run_query`] call. `strata` stays empty — per-stratum
    /// timing is a per-evaluation notion, not a fleet one.
    pub stats: EvalStats,
}

impl ServiceTotals {
    fn count(&mut self, status: &QueryStatus) {
        self.queries += 1;
        if matches!(status, QueryStatus::Interrupted(_)) {
            self.interrupted += 1;
        }
    }
}

/// A workload plus the machinery to answer queries against it repeatedly,
/// safely from many threads at once.
pub struct Service {
    workload: Workload,
    defaults: ServiceDefaults,
    totals: Mutex<ServiceTotals>,
}

impl Service {
    /// Wraps a workload with serving defaults. Evaluates nothing.
    pub fn new(workload: Workload, defaults: ServiceDefaults) -> Self {
        Service {
            workload,
            defaults,
            totals: Mutex::new(ServiceTotals::default()),
        }
    }

    /// The loaded workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The configured serving defaults.
    pub fn defaults(&self) -> &ServiceDefaults {
        &self.defaults
    }

    /// Locks the totals, recovering from poison. A panicking worker can
    /// only have left the aggregate mid-`absorb` — every field is a plain
    /// counter, so the worst case is one request's stats partially folded;
    /// wedging `/metrics` forever over that would be strictly worse.
    fn lock_totals(&self) -> std::sync::MutexGuard<'_, ServiceTotals> {
        self.totals.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The evaluation options for the given budgets, each falling back to
    /// the server default.
    fn options(&self, fuel: Option<u64>, timeout: Option<Duration>) -> EvalOptions {
        EvalOptions {
            max_derived_tuples: fuel.or(self.defaults.fuel),
            timeout: timeout.or(self.defaults.timeout),
            ..EvalOptions::default()
        }
    }

    /// The workload's model: one evaluation under `opts`, with fuel and
    /// deadline taken from the server defaults (the budget
    /// [`Self::run_query`] gives a request without its own), whose
    /// statistics fold into the totals. The evaluation's events carry the
    /// caller's trace context.
    pub fn materialise(&self, opts: &EvalOptions) -> Result<ResidentModel> {
        let opts = EvalOptions {
            max_derived_tuples: self.defaults.fuel,
            timeout: self.defaults.timeout,
            ..opts.clone()
        };
        let eval = evaluate_with(&self.workload.program, &self.workload.edb, &opts)?;
        self.lock_totals().stats.absorb(&eval.stats);
        ResidentModel::from_evaluation(
            self.workload.program.clone(),
            self.workload.edb.clone(),
            opts,
            eval,
        )
    }

    /// Counts one answered read in the totals.
    pub fn count_answer(&self, status: &QueryStatus) {
        self.lock_totals().count(status);
    }

    /// Answers one query by per-request evaluation — the oracle twin of
    /// [`Self::materialise`] plus [`ResidentModel::answer`]: evaluate the
    /// program under a fresh governor, then run the pattern against the
    /// computed (or partial) model. Extensional predicates are served
    /// straight from the EDB.
    ///
    /// If the request carries an id, it is installed as the thread's
    /// trace context for the duration, so every event the evaluation
    /// emits carries the id.
    pub fn run_query(&self, req: &QueryRequest) -> Result<QueryResponse> {
        let _ctx = req
            .request_id
            .as_deref()
            .map(itdb_trace::context::set_request_id);
        let atom = parse_atom(&req.pattern)?;
        let opts = self.options(req.fuel, req.timeout);
        let eval = evaluate_with(&self.workload.program, &self.workload.edb, &opts)?;
        let mut resp = QueryResponse::lookup(
            &eval.idb,
            &self.workload.edb,
            &atom,
            opts.residue_budget,
            QueryStatus::from(&eval.outcome),
            eval.stats,
        )?;
        // The explicit cross-thread fold — see the module docs.
        {
            let mut totals = self.lock_totals();
            totals.count(&resp.status);
            totals.stats.absorb(&resp.stats);
        }
        resp.request_id = req.request_id.clone();
        Ok(resp)
    }

    /// A snapshot of the folded aggregate counters.
    pub fn totals(&self) -> ServiceTotals {
        self.lock_totals().clone()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    const WORKLOAD: &str = "\
        # Example 4.1, serving edition.\n\
        tuple course (168n+8, 168n+10; database) : T2 = T1 + 2\n\
        rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).\n\
        rule problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).\n";

    const DIVERGING: &str = "\
        tuple seed (n) : T1 = 0\n\
        rule p[t] <- seed[t].\n\
        rule p[t + 1] <- p[t].\n";

    fn service(src: &str) -> Service {
        Service::new(parse_workload(src).unwrap(), ServiceDefaults::default())
    }

    fn req(pattern: &str, fuel: Option<u64>) -> QueryRequest {
        QueryRequest {
            pattern: pattern.to_string(),
            fuel,
            timeout: None,
            request_id: None,
        }
    }

    #[test]
    fn workload_parses_tuples_and_rules() {
        let w = parse_workload(WORKLOAD).unwrap();
        assert_eq!(w.program.clauses.len(), 2);
        assert_eq!(w.edb.len(), 1);
    }

    #[test]
    fn workload_rejects_non_declarative_directives() {
        let err = parse_workload("tuple p (n)\neval\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("eval"), "{msg}");
        assert!(parse_workload("tuple p\n").is_err(), "missing tuple text");
        assert!(parse_workload("rule p[t] <-\n").is_err(), "bad clause");
    }

    #[test]
    fn query_answers_in_closed_form() {
        let s = service(WORKLOAD);
        let resp = s
            .run_query(&req("problems[t, t + 2](database)", None))
            .unwrap();
        assert_eq!(resp.status, QueryStatus::Complete);
        assert!(!resp.answers.is_empty());
        let json = resp.to_json();
        assert!(json.contains("\"status\":\"complete\""), "{json}");
        assert!(json.contains("\"answers\":["), "{json}");
    }

    #[test]
    fn extensional_predicates_are_queryable() {
        let s = service(WORKLOAD);
        let resp = s.run_query(&req("course[t1, t2](C)", None)).unwrap();
        assert_eq!(resp.status, QueryStatus::Complete);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn unknown_predicate_is_a_proper_error() {
        let s = service(WORKLOAD);
        assert!(s.run_query(&req("nope[t]", None)).is_err());
    }

    #[test]
    fn per_request_fuel_isolates_trips() {
        let s = service(DIVERGING);
        // A starved request trips …
        let starved = s.run_query(&req("p[t]", Some(3))).unwrap();
        assert!(matches!(starved.status, QueryStatus::Interrupted(_)));
        // … and still answers from the sound partial model.
        assert!(!starved.answers.is_empty());
        // A well-fed diverging request reports divergence (grace ran out)
        // without inheriting the starved request's trip.
        let t = s.totals();
        assert_eq!(t.queries, 1);
        assert_eq!(t.interrupted, 1);
    }

    /// The request-id chain at the service layer: the id is installed as
    /// the trace context for exactly the duration of the evaluation, every
    /// emitted event carries it, and the response echoes it after `stats`
    /// so byte-comparison harnesses that strip from `,"stats":` onward are
    /// unaffected.
    #[test]
    fn request_id_is_echoed_and_stamped_on_every_event() {
        let s = service(WORKLOAD);
        let mut r = req("problems[t, t + 2](database)", None);
        r.request_id = Some("req-echo-42".into());
        let mem = std::sync::Arc::new(itdb_trace::MemorySink::new());
        let sink = itdb_trace::add_sink(mem.clone());
        let resp = s.run_query(&r);
        itdb_trace::remove_sink(sink);
        let resp = resp.unwrap();
        assert_eq!(resp.request_id.as_deref(), Some("req-echo-42"));
        let json = resp.to_json();
        assert!(json.ends_with(",\"request_id\":\"req-echo-42\"}"), "{json}");
        let events = mem.take();
        assert!(!events.is_empty(), "evaluation must emit events");
        for e in &events {
            assert_eq!(
                e.request_id.as_deref(),
                Some("req-echo-42"),
                "unstamped event: {}",
                e.to_json()
            );
        }
        assert_eq!(
            itdb_trace::current_request_id(),
            None,
            "context must not leak past the request"
        );
    }

    /// The lookup path answers byte-identically to its per-request
    /// oracle, and the one evaluation behind it folds into the totals.
    #[test]
    fn materialised_model_matches_run_query() {
        let s = service(WORKLOAD);
        assert_eq!(s.totals().stats.tuples_derived, 0, "new evaluates nothing");
        let model = s.materialise(&EvalOptions::default()).unwrap();
        let derived = s.totals().stats.tuples_derived;
        assert!(derived > 0);
        for pattern in ["problems[t, t + 2](database)", "course[t1, t2](C)"] {
            let looked_up = model.answer(&parse_atom(pattern).unwrap()).unwrap();
            let evaluated = s.run_query(&req(pattern, None)).unwrap();
            let prefix = |json: &str| json.split(",\"stats\":").next().unwrap().to_string();
            assert_eq!(prefix(&looked_up.to_json()), prefix(&evaluated.to_json()));
        }
        let oracle_runs = 2;
        assert_eq!(s.totals().stats.tuples_derived, derived * (1 + oracle_runs));
    }

    /// The server defaults budget the materialisation over whatever the
    /// caller's options say, and its status sticks to every answer.
    #[test]
    fn default_budget_governs_the_materialisation() {
        let starved = Service::new(
            parse_workload(DIVERGING).unwrap(),
            ServiceDefaults {
                fuel: Some(3),
                timeout: None,
            },
        );
        let generous = EvalOptions {
            max_derived_tuples: Some(1_000_000),
            ..EvalOptions::default()
        };
        let model = starved.materialise(&generous).unwrap();
        let resp = model.answer(&parse_atom("p[t]").unwrap()).unwrap();
        assert!(matches!(resp.status, QueryStatus::Interrupted(_)));
        assert!(!resp.answers.is_empty());
        let fed = service(DIVERGING).materialise(&EvalOptions::default());
        assert_eq!(fed.unwrap().status(), &QueryStatus::Diverged);
        let broken = service("rule p[t] <- ghost[t], !p[t].\n");
        assert!(broken.materialise(&EvalOptions::default()).is_err());
    }

    #[test]
    fn equal_budgets_give_byte_identical_answers() {
        let s = service(DIVERGING);
        let a = s.run_query(&req("p[t]", Some(5))).unwrap();
        let b = s.run_query(&req("p[t]", Some(5))).unwrap();
        // Everything but wall-clock timing is deterministic.
        assert_eq!(a.answers, b.answers);
        assert_eq!(a.status, b.status);
        assert_eq!(a.stats.tuples_derived, b.stats.tuples_derived);
        assert_eq!(a.stats.counters, b.stats.counters);
    }

    /// A worker panicking while holding the totals lock poisons it; the
    /// service must keep serving real numbers (and keep folding new ones)
    /// instead of wedging `/metrics` with defaults forever.
    #[test]
    fn poisoned_totals_recover_instead_of_wedging() {
        let s = std::sync::Arc::new(service(WORKLOAD));
        s.run_query(&req("problems[t, t + 2](database)", None))
            .unwrap();
        let before = s.totals();
        assert_eq!(before.queries, 1);
        // Poison the mutex: panic while holding the guard.
        let poisoner = std::sync::Arc::clone(&s);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock_totals();
            panic!("injected worker panic");
        })
        .join();
        assert!(s.totals.is_poisoned());
        // Reads still see the true aggregate …
        assert_eq!(s.totals().queries, 1);
        // … and new requests still fold into it.
        s.run_query(&req("problems[t, t + 2](database)", None))
            .unwrap();
        let after = s.totals();
        assert_eq!(after.queries, 2);
        assert!(after.stats.tuples_derived > before.stats.tuples_derived);
    }

    /// The tentpole regression: N pooled workers answer queries; the
    /// coordinator's thread-local counters see nothing, while the folded
    /// aggregate equals the sum of the per-request stats exactly.
    #[test]
    fn pooled_workers_fold_stats_exactly() {
        let s = std::sync::Arc::new(service(WORKLOAD));
        let coordinator_before = itdb_lrp::stats::snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    s.run_query(&req("problems[t, t + 2](database)", None))
                        .map(|r| r.stats)
                })
            })
            .collect();
        let mut expected = EvalStats::default();
        for h in handles {
            let stats = h.join().map_err(|_| "worker panicked").unwrap().unwrap();
            assert!(
                stats.counters.subsumption_checks > 0,
                "per-request stats must reflect the evaluating worker's work"
            );
            expected.absorb(&stats);
        }
        let coordinator_delta = itdb_lrp::stats::snapshot() - coordinator_before;
        assert_eq!(
            coordinator_delta,
            itdb_lrp::stats::Counters::default(),
            "snapshotting from the coordinator would mis-attribute (see module docs)"
        );
        let totals = s.totals();
        assert_eq!(totals.queries, 4);
        assert_eq!(totals.stats.counters, expected.counters);
        assert_eq!(totals.stats.tuples_derived, expected.tuples_derived);
        assert_eq!(totals.stats.tuples_inserted, expected.tuples_inserted);
    }
}
