//! Bottom-up closed-form evaluation: the generalized mapping `T_GP` (§4.3).
//!
//! Each iteration applies every clause to the current generalized Herbrand
//! interpretation: body atoms are matched against generalized tuples, the
//! periodic zones are joined (CRT on lrps, conjunction of difference
//! constraints), the clause's own constraint atoms are conjoined, and the
//! result is projected onto the head variables. Derived tuples are inserted
//! with *subsumption*: a tuple already covered by the union of existing
//! tuples with the same data is discarded, which is exactly the
//! constraint-safety convergence test of Theorem 4.3.
//!
//! Termination bookkeeping follows the paper:
//!
//! * **free-extension safety** (Theorem 4.2): the set of free extensions
//!   (canonical lrp vectors + data) eventually stops growing, always;
//! * **constraint safety** (Theorem 4.3): when additionally every derived
//!   tuple is implied by a disjunction of existing constraints, the
//!   evaluation has converged. This may never happen (e.g. the `(i, i²)`
//!   relation), so after free-extension safety holds the engine allows a
//!   configurable number of grace iterations before giving up — "it is
//!   reasonable to give up on the computation if the interpretation does not
//!   become constraint safe after a few iterations" (§4.3).
//!
//! Beyond the paper's own bookkeeping, every evaluation runs under a
//! resource [`Governor`]: iteration and derived-tuple fuel, a wall-clock
//! deadline, an approximate memory ceiling, and a cooperative cancellation
//! token. A governor trip does not destroy the work done so far — the
//! engine returns the partial model with [`EvalOutcome::Interrupted`]
//! describing why it stopped, how complete the model is, and which
//! predicates were still growing. Every tuple in a partial model was
//! genuinely derived by `T_GP`, so partial models are always *sound*
//! (under-approximations of the least model); stratified negation does not
//! break this because a stratum only starts after all lower strata have
//! fully converged, and a trip abandons the in-flight stratum's iteration
//! rather than publishing half of it.

// User-reachable evaluation path: failures must flow through the error
// taxonomy, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::analyze::{analyze, ProgramInfo};
use crate::ast::{CmpOp, DataTerm, Program};
use crate::checkpoint::{Checkpoint, CheckpointPolicy, CheckpointReport, SavedStratum};
use crate::db::Database;
use crate::normalize::{normalize_program, NormClause, NormConstraint};
use itdb_lrp::{
    pattern, CancelToken, Constraint, DataValue, Dbm, Error, GeneralizedRelation, GeneralizedTuple,
    Governor, GovernorConfig, GovernorStats, Lrp, Result, TripReason, Var, Zone,
    DEFAULT_RESIDUE_BUDGET,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options controlling the fixpoint computation.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Hard cap on iterations of `T_GP + I`.
    pub max_iterations: usize,
    /// Grace iterations allowed after free-extension safety before the
    /// evaluation is declared diverging (paper §4.3, final paragraph).
    pub grace_after_fe_safety: usize,
    /// Residue budget for exact zone operations.
    pub residue_budget: u64,
    /// Use semi-naive evaluation (restrict one intensional body atom per
    /// clause application to the previous iteration's delta).
    pub seminaive: bool,
    /// Record a per-iteration trace of derived tuples.
    pub trace: bool,
    /// Coalesce the final relations into the coarsest equivalent
    /// representation (e.g. the seven Example 4.1 tuples modulo 168 become
    /// one tuple modulo 24).
    pub coalesce: bool,
    /// Fuel: maximum generalized tuples derived (inserted as new) across
    /// the whole evaluation. `None` = unlimited.
    pub max_derived_tuples: Option<u64>,
    /// Wall-clock deadline for the whole evaluation.
    pub timeout: Option<Duration>,
    /// Approximate memory ceiling: maximum generalized tuples held across
    /// all IDB relations at once.
    pub max_held_tuples: Option<u64>,
    /// Cooperative cancellation token, checked at every loop boundary
    /// (e.g. wired to Ctrl-C by the CLI).
    pub cancel: Option<CancelToken>,
    /// Consult the per-relation data-vector index for subsumption inserts
    /// and clause matching. `false` falls back to full linear scans — the
    /// seed behavior, kept as an oracle for equivalence testing.
    pub use_index: bool,
    /// Record derivation provenance: for every tuple inserted into the
    /// model, which rule fired and which body facts it consumed. Enables
    /// post-hoc [`crate::provenance::explain`] derivation trees at the
    /// cost of cloning the matched source tuples per insertion.
    pub provenance: bool,
    /// Durable checkpointing policy: write crash-safe snapshots of the
    /// partial fixpoint on governor trips and/or every N iterations.
    /// `None` (the default) disables checkpointing entirely. Checkpoint
    /// write failures never abort the evaluation — they are counted in
    /// [`Evaluation::checkpoints`].
    pub checkpoint: Option<CheckpointPolicy>,
    /// Ignored: the engine has one, single-threaded derive phase. The
    /// field survives only because the benchmark harness still sets it;
    /// the next benchmark change deletes it.
    pub parallel: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_iterations: 10_000,
            grace_after_fe_safety: 16,
            residue_budget: DEFAULT_RESIDUE_BUDGET,
            seminaive: true,
            trace: false,
            coalesce: false,
            max_derived_tuples: None,
            timeout: None,
            max_held_tuples: None,
            cancel: None,
            use_index: true,
            provenance: false,
            checkpoint: None,
            parallel: 1,
        }
    }
}

impl EvalOptions {
    /// The governor configuration these options describe (used by
    /// [`evaluate_with`]; [`evaluate_governed`] callers build their own).
    pub fn governor_config(&self) -> GovernorConfig {
        GovernorConfig {
            max_iterations: Some(self.max_iterations as u64),
            max_derived_tuples: self.max_derived_tuples,
            timeout: self.timeout,
            max_held_tuples: self.max_held_tuples,
            cancel: self.cancel.clone(),
        }
    }
}

/// How the fixpoint computation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalOutcome {
    /// The interpretation became constraint safe: the least model has been
    /// computed in closed form.
    Converged {
        /// Number of `T_GP` applications performed (the paper counts the
        /// final, no-op application; so does this).
        iterations: usize,
    },
    /// Free-extension safety was reached but constraint safety was not
    /// within the grace allowance: the model is not finitely representable
    /// by this process (or needs more grace).
    DivergedAfterFeSafety {
        /// First iteration after which no new free extensions appeared.
        fe_safe_at: usize,
        /// Total iterations performed before giving up.
        iterations: usize,
    },
    /// The resource governor tripped (fuel, deadline, cancellation, or
    /// memory ceiling). The accompanying IDB is a *sound partial model*:
    /// every tuple in it was derived by `T_GP`, but more may exist.
    Interrupted(Interruption),
}

/// Machine-readable diagnostics for a governor trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interruption {
    /// Which budget tripped.
    pub reason: TripReason,
    /// How complete the partial model is known to be.
    pub completeness: Completeness,
    /// Iterations of `T_GP` started before the trip.
    pub iterations: usize,
    /// Predicates that were still deriving new tuples in the most recent
    /// productive iteration — the ones to blame for divergence.
    pub growing: Vec<String>,
    /// Governor counters at trip time (fuel used, tuples held, elapsed
    /// ms) — lets operators size the budget for a resumed run.
    pub counters: GovernorStats,
}

/// Completeness guarantee attached to an interrupted evaluation's partial
/// model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completeness {
    /// Free-extension safety (Theorem 4.2) had been reached before the
    /// trip: the model contains a tuple for every free extension of the
    /// least model, so it is complete within the extension window and only
    /// constraint refinement (Theorem 4.3) was still running.
    FreeExtensionComplete {
        /// Iteration at which free-extension safety was observed.
        fe_safe_at: usize,
    },
    /// The trip came before free-extension safety: the model is a plain
    /// under-approximation.
    Partial,
}

impl EvalOutcome {
    /// Did the evaluation produce the exact least model?
    pub fn converged(&self) -> bool {
        matches!(self, EvalOutcome::Converged { .. })
    }

    /// The trip diagnostics, when the governor interrupted the evaluation.
    pub fn interruption(&self) -> Option<&Interruption> {
        match self {
            EvalOutcome::Interrupted(i) => Some(i),
            _ => None,
        }
    }
}

/// Per-iteration record of what `T_GP` produced (when tracing is enabled).
#[derive(Debug, Clone)]
pub struct IterationTrace {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Tuples actually inserted (not subsumed by the existing
    /// interpretation).
    pub inserted: Vec<(String, GeneralizedTuple)>,
    /// Tuples derived but already subsumed — the paper's convergence
    /// witness: in Example 4.1 the eighth derived tuple "is a set of tuples
    /// of integers contained in a previously obtained set".
    pub subsumed: Vec<(String, GeneralizedTuple)>,
}

/// Aggregate statistics for one evaluation: tuple flow, the cost counters
/// of the `itdb-lrp` indexing/caching layer scoped to this run, and wall
/// clock per stratum. Rendered by the shell's `stats` command and the CLI's
/// `--stats` flag via [`fmt::Display`].
#[derive(Debug, Clone, Default)]
pub struct EvalStats {
    /// Candidate head tuples produced by clause applications (before
    /// canonicalization and subsumption).
    pub tuples_derived: u64,
    /// Tuples that survived subsumption and entered the model.
    pub tuples_inserted: u64,
    /// Tuples derived but already covered by the interpretation — the
    /// paper's convergence witnesses.
    pub tuples_subsumed: u64,
    /// `itdb-lrp` layer counters (canonicalization, memo hit rates, index
    /// narrowing) scoped to this evaluation by snapshot subtraction.
    pub counters: itdb_lrp::stats::Counters,
    /// Per-stratum breakdown, in evaluation order. Timings for a stratum
    /// interrupted mid-iteration cover its last *completed* iteration.
    pub strata: Vec<StratumStats>,
    /// Total wall clock, including final coalescing.
    pub elapsed: Duration,
}

/// Statistics for one stratum of the stratified fixpoint.
#[derive(Debug, Clone, Default)]
pub struct StratumStats {
    /// The predicates defined in this stratum.
    pub preds: Vec<String>,
    /// Iterations of `T_GP` the stratum ran.
    pub iterations: usize,
    /// Tuples inserted by this stratum.
    pub inserted: u64,
    /// Wall clock spent in this stratum.
    pub elapsed: Duration,
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = |r: Option<f64>| match r {
            Some(x) => format!("{:.1}%", x * 100.0),
            None => "n/a".to_string(),
        };
        writeln!(
            f,
            "tuples derived: {} ({} inserted, {} subsumed)",
            self.tuples_derived, self.tuples_inserted, self.tuples_subsumed
        )?;
        writeln!(
            f,
            "subsumption checks: {}",
            self.counters.subsumption_checks
        )?;
        writeln!(
            f,
            "index narrowing: {} ({} of {} tuples consulted)",
            pct(self.counters.narrowing_ratio()),
            self.counters.index_candidates,
            self.counters.index_scanned_naive
        )?;
        writeln!(
            f,
            "canonical-form cache: {} hit ({} hits, {} misses)",
            pct(self.counters.canonical_hit_rate()),
            self.counters.canonical_cache_hits,
            self.counters.canonical_cache_misses
        )?;
        writeln!(
            f,
            "emptiness cache: {} hit ({} hits, {} misses)",
            pct(self.counters.empty_hit_rate()),
            self.counters.empty_cache_hits,
            self.counters.empty_cache_misses
        )?;
        writeln!(
            f,
            "canonicalize calls: {}",
            self.counters.canonicalize_calls
        )?;
        for (i, s) in self.strata.iter().enumerate() {
            writeln!(
                f,
                "stratum {i} ({}): {} iteration(s), {} inserted, {}",
                s.preds.join(", "),
                s.iterations,
                s.inserted,
                itdb_trace::fmt_duration(s.elapsed)
            )?;
        }
        write!(f, "elapsed: {}", itdb_trace::fmt_duration(self.elapsed))
    }
}

impl EvalStats {
    /// Folds another evaluation's statistics into this one: tuple flow and
    /// `itdb-lrp` counters add, elapsed time accumulates. Per-stratum
    /// breakdowns are a per-evaluation notion and are deliberately **not**
    /// merged. This is the supported way to aggregate across evaluations
    /// that ran on different threads — the underlying counters are
    /// thread-local, so snapshotting from an aggregating thread measures
    /// nothing (see `itdb_lrp::stats`).
    pub fn absorb(&mut self, other: &EvalStats) {
        self.tuples_derived += other.tuples_derived;
        self.tuples_inserted += other.tuples_inserted;
        self.tuples_subsumed += other.tuples_subsumed;
        self.counters += other.counters;
        self.elapsed += other.elapsed;
    }

    /// Renders the statistics as one JSON object (stable field order; all
    /// durations in integer microseconds), the machine-readable twin of
    /// the [`fmt::Display`] text. Consumed by the shell's `stats --json`
    /// and the CLI's `--stats-json` flag.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"tuples_derived\":{},\"tuples_inserted\":{},\"tuples_subsumed\":{}",
            self.tuples_derived, self.tuples_inserted, self.tuples_subsumed
        );
        let c = &self.counters;
        let _ = write!(
            out,
            ",\"counters\":{{\"subsumption_checks\":{},\"index_candidates\":{},\
             \"index_scanned_naive\":{},\"canonical_cache_hits\":{},\
             \"canonical_cache_misses\":{},\"empty_cache_hits\":{},\
             \"empty_cache_misses\":{},\"canonicalize_calls\":{}}}",
            c.subsumption_checks,
            c.index_candidates,
            c.index_scanned_naive,
            c.canonical_cache_hits,
            c.canonical_cache_misses,
            c.empty_cache_hits,
            c.empty_cache_misses,
            c.canonicalize_calls
        );
        out.push_str(",\"strata\":[");
        for (i, s) in self.strata.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"preds\":[");
            for (j, p) in s.preds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                itdb_trace::json::escape_into(p, &mut out);
                out.push('"');
            }
            let _ = write!(
                out,
                "],\"iterations\":{},\"inserted\":{},\"elapsed_us\":{}}}",
                s.iterations,
                s.inserted,
                s.elapsed.as_micros()
            );
        }
        let _ = write!(out, "],\"elapsed_us\":{}}}", self.elapsed.as_micros());
        out
    }
}

/// One successful insertion into the model with its provenance: the rule
/// that fired and the body facts it consumed. Recorded in insertion order
/// (so every source fact of a derivation precedes it in the list), which
/// is what makes [`crate::provenance::explain`]'s tree reconstruction
/// terminate.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// Head predicate.
    pub pred: String,
    /// The canonical tuple that entered the model.
    pub tuple: GeneralizedTuple,
    /// Source-program clause index of the rule that fired.
    pub rule: usize,
    /// Positive body facts matched when the rule fired, in body order.
    pub sources: Vec<(String, GeneralizedTuple)>,
}

/// The result of evaluating a program.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The computed extensions of the intensional predicates, in closed
    /// form.
    pub idb: BTreeMap<String, GeneralizedRelation>,
    /// How the computation ended.
    pub outcome: EvalOutcome,
    /// Iteration at which free-extension safety was first observed, if it
    /// was.
    pub fe_safe_at: Option<usize>,
    /// Per-iteration trace (empty unless [`EvalOptions::trace`]).
    pub trace: Vec<IterationTrace>,
    /// Static analysis of the program.
    pub info: ProgramInfo,
    /// Tuple flow, cache and index counters, and per-stratum timings.
    pub stats: EvalStats,
    /// Provenance records, in insertion order (empty unless
    /// [`EvalOptions::provenance`]).
    pub derivations: Vec<Derivation>,
    /// One human-readable label per source-program clause (`r0: <clause>`),
    /// indexed by [`Derivation::rule`]; shared by trace spans, the
    /// `profile` table, and `explain` rendering.
    pub rule_labels: Vec<String>,
    /// What durable checkpointing did during this evaluation (all zeros
    /// when [`EvalOptions::checkpoint`] is `None` and the run was not
    /// resumed).
    pub checkpoints: CheckpointReport,
}

impl Evaluation {
    /// The computed relation for an intensional predicate.
    pub fn relation(&self, pred: &str) -> Option<&GeneralizedRelation> {
        self.idb.get(pred)
    }
}

/// Evaluates `program` against the generalized database `edb` bottom-up on
/// generalized tuples, with default options.
pub fn evaluate(program: &Program, edb: &Database) -> Result<Evaluation> {
    evaluate_with(program, edb, &EvalOptions::default())
}

/// Evaluates with explicit options; resource limits in `opts` are enforced
/// by a fresh [`Governor`].
pub fn evaluate_with(program: &Program, edb: &Database, opts: &EvalOptions) -> Result<Evaluation> {
    let governor = Governor::new(opts.governor_config());
    evaluate_governed(program, edb, opts, &governor)
}

/// Splits an error into a governor trip (recoverable — the model built so
/// far is sound) versus a genuine failure that must propagate.
fn as_trip(e: Error) -> Result<TripReason> {
    match e {
        Error::Interrupted(reason) => Ok(reason),
        other => Err(other),
    }
}

/// Builds the graceful-degradation outcome for a governor trip.
fn interrupted_outcome(
    reason: TripReason,
    fe_safe_at: Option<usize>,
    iterations: usize,
    growing: Vec<String>,
    counters: GovernorStats,
) -> EvalOutcome {
    EvalOutcome::Interrupted(Interruption {
        reason,
        completeness: match fe_safe_at {
            Some(fe_safe_at) => Completeness::FreeExtensionComplete { fe_safe_at },
            None => Completeness::Partial,
        },
        iterations,
        growing,
        counters,
    })
}

/// Evaluates under an externally supplied [`Governor`] (shared budgets,
/// cancellation from another thread, fault injection). The governor is
/// authoritative for all resource limits — `opts.max_iterations` is *not*
/// applied on top of it. The governor is also installed as the thread's
/// ambient governor for the duration, so deep zone and relation algebra
/// checks it too.
pub fn evaluate_governed(
    program: &Program,
    edb: &Database,
    opts: &EvalOptions,
    governor: &Arc<Governor>,
) -> Result<Evaluation> {
    evaluate_governed_impl(program, edb, opts, governor, None)
}

/// Resumes an interrupted evaluation from a [`Checkpoint`] with a fresh
/// [`Governor`] built from `opts`. The checkpoint's program and EDB
/// hashes are validated against `program`/`edb` first — a stale
/// checkpoint is rejected with a typed error, never silently resumed.
/// Resuming re-enters the fixpoint at the saved cursor and reaches the
/// same model an uninterrupted run would.
pub fn resume_with(
    program: &Program,
    edb: &Database,
    opts: &EvalOptions,
    checkpoint: &Checkpoint,
) -> Result<Evaluation> {
    let governor = Governor::new(opts.governor_config());
    resume_governed(program, edb, opts, &governor, checkpoint)
}

/// [`resume_with`] under an externally supplied governor.
pub fn resume_governed(
    program: &Program,
    edb: &Database,
    opts: &EvalOptions,
    governor: &Arc<Governor>,
    checkpoint: &Checkpoint,
) -> Result<Evaluation> {
    evaluate_governed_impl(program, edb, opts, governor, Some(checkpoint))
}

fn evaluate_governed_impl(
    program: &Program,
    edb: &Database,
    opts: &EvalOptions,
    governor: &Arc<Governor>,
    resume: Option<&Checkpoint>,
) -> Result<Evaluation> {
    let _scope = governor.enter();
    let _eval_span = itdb_trace::span(itdb_trace::SpanKind::Evaluate, "evaluate");
    let eval_start = Instant::now();
    let counters_before = itdb_lrp::stats::snapshot();
    let info = analyze(program)?;
    let rule_labels = rule_labels(program);
    // Validate the EDB up front (missing extensional relations are treated
    // as empty, mismatched schemas are errors).
    for pred in &info.extensional {
        if edb.get(pred).is_some() {
            edb.get_checked(pred, info.signatures[pred])?;
        }
    }
    let all_clauses = normalize_program(program)?;
    // Content hashes guard checkpoints against being resumed into a
    // different program or EDB; computed (over *all* normalized clauses,
    // before dead-clause filtering) only when a checkpoint will be
    // written or consumed.
    let hashes = (opts.checkpoint.is_some() || resume.is_some()).then(|| {
        (
            crate::checkpoint::hash_program(&all_clauses),
            crate::checkpoint::hash_database(edb),
        )
    });
    let clauses: Vec<NormClause> = all_clauses.into_iter().filter(|c| !c.dead).collect();

    let mut idb: BTreeMap<String, GeneralizedRelation> = info
        .intensional
        .iter()
        .map(|p| (p.clone(), GeneralizedRelation::empty(info.signatures[p])))
        .collect();
    let mut st = RunState::default();
    let mut cursor = None;
    if let Some(c) = resume {
        let (program_hash, edb_hash) = hashes.unwrap_or_default();
        c.validate(program_hash, edb_hash).map_err(Error::from)?;
        for (pred, rel) in &c.idb {
            match idb.get_mut(pred) {
                Some(slot) => *slot = rel.clone(),
                None => {
                    return Err(Error::Eval(format!(
                        "checkpoint: unknown intensional predicate {pred}"
                    )))
                }
            }
        }
        st.iteration = c.iteration;
        st.fe_safe_at = c.fe_safe_at;
        st.last_growing = c.last_growing.clone();
        st.stats = c.restore_stats();
        // Tuples derived before the checkpoint keep their records, so the
        // resumed model stays explainable end to end.
        if opts.provenance {
            st.derivations = c.derivations.clone();
        }
        st.report.resumed_from = c.generation;
        itdb_trace::emit(|| itdb_trace::EventKind::CheckpointRestored {
            generation: c.generation.unwrap_or(0),
            stratum: c.stratum as u64,
            iteration: c.iteration as u64,
        });
        cursor = Some(Cursor {
            stratum: c.stratum,
            stratum_iter: c.stratum_iter,
            fe_safe_streak: c.fe_safe_streak,
            delta: c.delta.clone(),
        });
    }

    let fixpoint = Fixpoint {
        info: &info,
        clauses: &clauses,
        rule_labels: &rule_labels,
        edb,
        opts,
        governor,
        hashes,
    };
    let outcome = fixpoint.run(&mut idb, &mut st, FirstPass::Naive, None, cursor)?;

    if opts.coalesce && !matches!(outcome, EvalOutcome::Interrupted(_)) {
        for rel in idb.values_mut() {
            if let Err(e) = rel.coalesce(opts.residue_budget) {
                // A governor trip mid-coalesce is benign: coalescing only
                // changes the representation, and each committed step keeps
                // it equivalent. Ship what we have.
                as_trip(e)?;
                break;
            }
        }
    }

    st.stats.counters = itdb_lrp::stats::snapshot() - counters_before;
    st.stats.elapsed = eval_start.elapsed();

    Ok(Evaluation {
        idb,
        outcome,
        fe_safe_at: st.fe_safe_at,
        trace: st.trace,
        info,
        stats: st.stats,
        derivations: st.derivations,
        rule_labels,
        checkpoints: st.report,
    })
}

/// One label per source-program clause (`r{i}: <clause>`): rule identity
/// for spans, events and provenance, stable across dead-clause filtering.
pub(crate) fn rule_labels(program: &Program) -> Vec<String> {
    program
        .clauses
        .iter()
        .enumerate()
        .map(|(i, c)| format!("r{i}: {c}"))
        .collect()
}

/// How each stratum's first iteration of a [`Fixpoint`] run fires; every
/// later iteration is semi-naive over the stratum's own inserts.
pub(crate) enum FirstPass<'g> {
    /// Every clause fires against the full relations.
    Naive,
    /// Semi-naive over the body positions whose predicates the seed holds
    /// (insert propagation). The stratum's inserts are folded into the
    /// seed for the strata above.
    Seeded(BTreeMap<String, GeneralizedRelation>),
    /// The DRed re-derive: a clause fires, against the full relations,
    /// only once per over-deleted tuple of its head predicate, with its
    /// head unified with that tuple. Clauses whose head lost nothing do
    /// not fire.
    Guarded(&'g BTreeMap<String, Vec<GeneralizedTuple>>),
}

/// The stratified semi-naive loop of `T_GP`, with the free-extension grace
/// rule, every governor budget, per-tuple trace events, provenance and
/// the checkpoint sites. It is the crate's one fixpoint loop: fresh and
/// resumed evaluation run it from an empty or restored IDB, and
/// [`crate::resident`] re-enters it for every maintenance batch from the
/// maintained IDB.
pub(crate) struct Fixpoint<'a> {
    /// Static analysis of the program.
    pub(crate) info: &'a ProgramInfo,
    /// The program's live (non-dead) normalized clauses.
    pub(crate) clauses: &'a [NormClause],
    /// One label per source clause (see [`rule_labels`]).
    pub(crate) rule_labels: &'a [String],
    /// The extensional database: stable input to every stratum.
    pub(crate) edb: &'a Database,
    /// Evaluation options (residue budget, index, provenance, trace,
    /// grace, checkpoint policy).
    pub(crate) opts: &'a EvalOptions,
    /// Authoritative for every resource budget.
    pub(crate) governor: &'a Arc<Governor>,
    /// Program and EDB content hashes stamped on checkpoints. `None`
    /// writes none, whatever `opts.checkpoint` says.
    pub(crate) hashes: Option<(u128, u128)>,
}

/// What a [`Fixpoint`] run accumulates. A resumed run starts from the
/// checkpoint's values; every other run starts from the default.
#[derive(Default)]
pub(crate) struct RunState {
    /// Global iterations of `T_GP` started so far.
    pub(crate) iteration: usize,
    /// Iteration at which free-extension safety was last observed.
    pub(crate) fe_safe_at: Option<usize>,
    /// Predicates that inserted tuples in the most recent productive
    /// iteration — named in trip diagnostics as "still growing".
    pub(crate) last_growing: Vec<String>,
    /// Tuple flow and per-stratum rows (one per stratum run).
    pub(crate) stats: EvalStats,
    /// Per-iteration trace, when [`EvalOptions::trace`] is on.
    pub(crate) trace: Vec<IterationTrace>,
    /// Provenance records, when [`EvalOptions::provenance`] is on.
    pub(crate) derivations: Vec<Derivation>,
    /// What checkpointing did.
    pub(crate) report: CheckpointReport,
}

/// Where a resumed run re-enters the loop: the in-flight stratum, its
/// completed iterations and fe-safe streak, and the delta to fire from.
pub(crate) struct Cursor {
    stratum: usize,
    stratum_iter: usize,
    fe_safe_streak: usize,
    delta: BTreeMap<String, GeneralizedRelation>,
}

impl Fixpoint<'_> {
    /// Runs the strata lowest first over `idb`. Within a stratum the usual
    /// (semi-)naive fixpoint applies, with lower strata and the EDB acting
    /// as stable inputs; negated atoms always refer to stable inputs
    /// (stratified), so their subtraction semantics is exact.
    ///
    /// - `first`: how each stratum's first iteration fires (see
    ///   [`FirstPass`]).
    /// - `only`: fire only clauses whose head it contains, and skip the
    ///   strata left without any.
    /// - `resume`: skip the strata below the cursor and re-enter its
    ///   stratum mid-way.
    ///
    /// An insert adds a free extension when no other tuple of its relation
    /// has its key: relations only grow within a run, so the relation's
    /// index bucket holds exactly the keys seen so far, and no key set is
    /// built up front (maintenance stays proportional to what it derives,
    /// not to the model). A governor trip or divergence returns its
    /// outcome with `idb` holding the last completed iteration (plus, for
    /// a trip mid-insert, that iteration's partial inserts) — every tuple
    /// genuinely derived.
    pub(crate) fn run(
        &self,
        idb: &mut BTreeMap<String, GeneralizedRelation>,
        st: &mut RunState,
        mut first: FirstPass<'_>,
        only: Option<&BTreeSet<String>>,
        mut resume: Option<Cursor>,
    ) -> Result<EvalOutcome> {
        let (opts, governor) = (self.opts, self.governor);
        // Source facts are cloned per derivation only when someone will
        // read them: the provenance recorder or an installed trace sink.
        let collect_sources = opts.provenance || itdb_trace::enabled();
        let empty_relations: BTreeMap<String, GeneralizedRelation> = self
            .info
            .signatures
            .iter()
            .map(|(p, s)| (p.clone(), GeneralizedRelation::empty(*s)))
            .collect();

        for (stratum_idx, stratum) in self.info.strata.iter().enumerate() {
            // Strata fully completed before the checkpoint's cursor are
            // already in the restored IDB — don't re-run them.
            if resume.as_ref().is_some_and(|c| stratum_idx < c.stratum) {
                continue;
            }
            let stratum_clauses: Vec<&NormClause> = self
                .clauses
                .iter()
                .filter(|c| {
                    stratum.contains(&c.head_pred) && only.is_none_or(|o| o.contains(&c.head_pred))
                })
                .collect();
            if only.is_some() && stratum_clauses.is_empty() {
                continue;
            }
            let _stratum_span = itdb_trace::span_with(itdb_trace::SpanKind::Stratum, || {
                format!("stratum {stratum_idx}")
            });
            let stratum_start = Instant::now();
            // A resumed run restored statistics for every stratum up to and
            // including the cursor's; only strata beyond it need fresh rows.
            if st.stats.strata.len() <= stratum_idx {
                st.stats.strata.push(StratumStats {
                    preds: stratum.iter().cloned().collect(),
                    ..StratumStats::default()
                });
            }
            let stratum_preds: Vec<&str> = stratum.iter().map(|s| s.as_str()).collect();
            let mut fe_safe_streak = 0usize;
            let mut stratum_iter = 0usize;
            let mut delta: BTreeMap<String, GeneralizedRelation> = BTreeMap::new();
            if resume.as_ref().is_some_and(|c| c.stratum == stratum_idx) {
                if let Some(c) = resume.take() {
                    stratum_iter = c.stratum_iter;
                    fe_safe_streak = c.fe_safe_streak;
                    delta = c.delta;
                }
            }
            if let FirstPass::Seeded(s) = &first {
                delta = s.clone();
            }

            loop {
                if let Err(e) = governor.start_iteration() {
                    let outcome = interrupted_outcome(
                        as_trip(e)?,
                        st.fe_safe_at,
                        st.iteration,
                        st.last_growing.clone(),
                        governor.stats(),
                    );
                    let at = CheckpointCursor {
                        stratum: stratum_idx,
                        iteration: st.iteration,
                        stratum_iter,
                        fe_safe_at: st.fe_safe_at,
                        fe_safe_streak,
                    };
                    self.checkpoint(true, at, st, idb, &delta, None);
                    return Ok(outcome);
                }
                st.iteration += 1;
                stratum_iter += 1;
                let iteration = st.iteration;
                // Free-extension values as of the start of this iteration —
                // redo checkpoints (written when a trip strikes mid-iteration)
                // rewind to them alongside the iteration counters.
                let iter_start_fe = (st.fe_safe_at, fe_safe_streak);
                let _iter_span = itdb_trace::span_with(itdb_trace::SpanKind::Iteration, || {
                    format!("iteration {iteration}")
                });
                // A seeded stratum fires its first iteration from the seed's
                // predicates, a guarded one from its over-deleted tuples;
                // every later semi-naive pass from the stratum's own
                // previous inserts.
                let seeded_first = matches!(first, FirstPass::Seeded(_)) && stratum_iter == 1;
                let guard = match &first {
                    FirstPass::Guarded(dead) if stratum_iter == 1 => Some(*dead),
                    _ => None,
                };
                let delta_preds: Vec<&str> = if seeded_first {
                    delta.keys().map(|p| p.as_str()).collect()
                } else {
                    stratum_preds.clone()
                };
                let ctx = DeriveCtx {
                    clauses: &stratum_clauses,
                    delta_preds: &delta_preds,
                    idb,
                    delta: &delta,
                    guard,
                    edb: self.edb,
                    empty: &empty_relations,
                    info: self.info,
                    rule_labels: self.rule_labels,
                    seminaive_pass: seeded_first || (opts.seminaive && stratum_iter > 1),
                    residue_budget: opts.residue_budget,
                    use_index: opts.use_index,
                    collect_sources,
                };
                let derived = match derive_sequential(&ctx) {
                    Ok(d) => d,
                    Err(e) => {
                        // Tripped mid-derivation: abandon this iteration's
                        // derived tuples; the model is exactly the last
                        // completed iteration's (sound). The checkpoint
                        // cursor points at the last completed iteration
                        // (redo semantics).
                        let outcome = interrupted_outcome(
                            as_trip(e)?,
                            st.fe_safe_at,
                            iteration,
                            st.last_growing.clone(),
                            governor.stats(),
                        );
                        let at = CheckpointCursor {
                            stratum: stratum_idx,
                            iteration: iteration - 1,
                            stratum_iter: stratum_iter - 1,
                            fe_safe_at: iter_start_fe.0,
                            fe_safe_streak: iter_start_fe.1,
                        };
                        self.checkpoint(true, at, st, idb, &delta, None);
                        return Ok(outcome);
                    }
                };

                // Insert with subsumption; track free-extension growth.
                let mut trip: Option<TripReason> = None;
                let mut inserted = Vec::new();
                let mut subsumed = Vec::new();
                let mut new_fe_key = false;
                let mut next_delta: BTreeMap<String, GeneralizedRelation> = BTreeMap::new();
                st.stats.tuples_derived += derived.len() as u64;
                for Pending {
                    pred,
                    rule,
                    tuple,
                    sources,
                } in derived
                {
                    itdb_trace::emit(|| itdb_trace::EventKind::TupleDerived {
                        pred: pred.clone(),
                        rule,
                    });
                    let Some(tuple) = tuple.canonical() else {
                        continue;
                    };
                    let rel = idb.get_mut(&pred).ok_or_else(|| {
                        Error::Eval(format!(
                            "internal: derived tuple for non-intensional predicate {pred}"
                        ))
                    })?;
                    let ins = if opts.use_index {
                        rel.insert_if_new(tuple.clone(), opts.residue_budget)
                    } else {
                        rel.insert_if_new_naive(tuple.clone(), opts.residue_budget)
                    };
                    match ins {
                        Ok(true) => {
                            itdb_trace::emit(|| itdb_trace::EventKind::TupleInserted {
                                pred: pred.clone(),
                                rule,
                                tuple: tuple.to_string(),
                                sources: sources
                                    .iter()
                                    .map(|(p, t)| itdb_trace::SourceFact {
                                        pred: p.clone(),
                                        tuple: t.to_string(),
                                    })
                                    .collect(),
                            });
                            if opts.provenance {
                                st.derivations.push(Derivation {
                                    pred: pred.clone(),
                                    tuple: tuple.clone(),
                                    rule,
                                    sources,
                                });
                            }
                            // A free extension is new when no other tuple
                            // of the relation has the tuple's key: its data
                            // (so its index bucket) and its lrp vector.
                            if rel
                                .bucket(tuple.data())
                                .filter(|t| t.zone().lrps() == tuple.zone().lrps())
                                .count()
                                == 1
                            {
                                new_fe_key = true;
                            }
                            next_delta
                                .entry(pred.clone())
                                .or_insert_with(|| {
                                    GeneralizedRelation::empty(self.info.signatures[&pred])
                                })
                                .insert(tuple.clone())?;
                            inserted.push((pred, tuple));
                            if let Err(e) = governor.note_derived(1) {
                                trip = Some(as_trip(e)?);
                                break;
                            }
                        }
                        Ok(false) => {
                            itdb_trace::emit(|| itdb_trace::EventKind::TupleSubsumed {
                                pred: pred.clone(),
                                rule,
                                tuple: tuple.to_string(),
                            });
                            subsumed.push((pred, tuple));
                        }
                        Err(e) => {
                            trip = Some(as_trip(e)?);
                            break;
                        }
                    }
                }
                if trip.is_none() {
                    let held: u64 = idb.values().map(|r| r.len() as u64).sum();
                    if let Err(e) = governor.report_held(held) {
                        trip = Some(as_trip(e)?);
                    }
                }
                st.stats.tuples_inserted += inserted.len() as u64;
                st.stats.tuples_subsumed += subsumed.len() as u64;
                if let Some(s) = st.stats.strata.last_mut() {
                    s.iterations = stratum_iter;
                    s.inserted += inserted.len() as u64;
                    s.elapsed = stratum_start.elapsed();
                }

                if new_fe_key {
                    st.fe_safe_at = None;
                    fe_safe_streak = 0;
                } else {
                    if st.fe_safe_at.is_none() {
                        st.fe_safe_at = Some(iteration);
                    }
                    fe_safe_streak += 1;
                }

                let fixpoint = inserted.is_empty();
                if !fixpoint {
                    let mut preds: Vec<String> = inserted.iter().map(|(p, _)| p.clone()).collect();
                    preds.sort();
                    preds.dedup();
                    st.last_growing = preds;
                }
                if opts.trace {
                    st.trace.push(IterationTrace {
                        iteration,
                        inserted,
                        subsumed,
                    });
                }
                if let Some(reason) = trip {
                    let outcome = interrupted_outcome(
                        reason,
                        st.fe_safe_at,
                        iteration,
                        st.last_growing.clone(),
                        governor.stats(),
                    );
                    // Tripped mid-insert: some of this iteration's tuples are
                    // already in the IDB. The redo cursor rewinds the counters
                    // and *widens* the frontier with the partial inserts, so
                    // the redone iteration still propagates their
                    // consequences (re-derivations subsume harmlessly).
                    let at = CheckpointCursor {
                        stratum: stratum_idx,
                        iteration: iteration - 1,
                        stratum_iter: stratum_iter - 1,
                        fe_safe_at: iter_start_fe.0,
                        fe_safe_streak: iter_start_fe.1,
                    };
                    self.checkpoint(true, at, st, idb, &delta, Some(&next_delta));
                    return Ok(outcome);
                }
                if fixpoint {
                    st.last_growing.clear(); // this stratum settled
                    break; // next stratum
                }
                if fe_safe_streak > opts.grace_after_fe_safety {
                    return Ok(EvalOutcome::DivergedAfterFeSafety {
                        // The else-branch above set this before starting the streak.
                        fe_safe_at: st.fe_safe_at.unwrap_or(iteration),
                        iterations: iteration,
                    });
                }
                if let FirstPass::Seeded(acc) = &mut first {
                    for (pred, rel) in &next_delta {
                        let acc_rel = acc
                            .entry(pred.clone())
                            .or_insert_with(|| GeneralizedRelation::empty(rel.schema()));
                        for t in rel.tuples() {
                            acc_rel.insert(t.clone())?;
                        }
                    }
                }
                delta = next_delta;
                // Every-N cadence: this point is reached only between
                // completed iterations, so the cursor needs no rewinding.
                let at = CheckpointCursor {
                    stratum: stratum_idx,
                    iteration,
                    stratum_iter,
                    fe_safe_at: st.fe_safe_at,
                    fe_safe_streak,
                };
                self.checkpoint(false, at, st, idb, &delta, None);
            }
        }
        // All strata converged (or there were none at all).
        Ok(EvalOutcome::Converged {
            iterations: st.iteration,
        })
    }

    /// Builds and persists a checkpoint when the policy calls for one at
    /// this site: `trip_site` marks trip-triggered writes, otherwise the
    /// every-N cadence applies. `extra_delta` widens the saved frontier
    /// with an interrupted iteration's partial inserts (redo semantics; see
    /// the [`crate::checkpoint`] module docs). Failures are counted in the
    /// report and traced — checkpointing never aborts the evaluation.
    fn checkpoint(
        &self,
        trip_site: bool,
        at: CheckpointCursor,
        st: &mut RunState,
        idb: &BTreeMap<String, GeneralizedRelation>,
        delta: &BTreeMap<String, GeneralizedRelation>,
        extra_delta: Option<&BTreeMap<String, GeneralizedRelation>>,
    ) {
        let (Some(policy), Some((program_hash, edb_hash))) = (&self.opts.checkpoint, self.hashes)
        else {
            return;
        };
        let due = if trip_site {
            policy.on_trip
        } else {
            policy
                .every_iterations
                .is_some_and(|n| n > 0 && (at.iteration as u64).is_multiple_of(n))
        };
        if !due {
            return;
        }
        let mut delta_out = delta.clone();
        if let Some(extra) = extra_delta {
            for (pred, rel) in extra {
                let entry = delta_out
                    .entry(pred.clone())
                    .or_insert_with(|| GeneralizedRelation::empty(rel.schema()));
                for t in rel.tuples() {
                    if entry.insert(t.clone()).is_err() {
                        st.report.failed += 1;
                        return;
                    }
                }
            }
        }
        let cp = Checkpoint {
            generation: None,
            program_hash,
            edb_hash,
            stratum: at.stratum,
            iteration: at.iteration,
            stratum_iter: at.stratum_iter,
            fe_safe_at: at.fe_safe_at,
            fe_safe_streak: at.fe_safe_streak,
            last_growing: st.last_growing.clone(),
            idb: idb.clone(),
            delta: delta_out,
            derivations: st.derivations.clone(),
            governor: self.governor.stats(),
            tuples_derived: st.stats.tuples_derived,
            tuples_inserted: st.stats.tuples_inserted,
            tuples_subsumed: st.stats.tuples_subsumed,
            strata: st
                .stats
                .strata
                .iter()
                .map(SavedStratum::from_stats)
                .collect(),
        };
        let start = Instant::now();
        match crate::checkpoint::save(&policy.store, &cp.encode()) {
            Ok(w) => {
                st.report.written += 1;
                st.report.last_generation = Some(w.generation);
                st.report.last_bytes = w.bytes;
                st.report.last_write_us =
                    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            }
            Err(e) => {
                st.report.failed += 1;
                itdb_trace::emit(|| itdb_trace::EventKind::Message {
                    text: format!("checkpoint write failed: {e}"),
                });
            }
        }
    }
}

/// The evaluation-cursor half of a checkpoint: where re-entry happens.
struct CheckpointCursor {
    stratum: usize,
    iteration: usize,
    stratum_iter: usize,
    fe_safe_at: Option<usize>,
    fe_safe_streak: usize,
}

/// The immutable snapshot one derive phase fires against, plus the knobs
/// the clause matcher needs.
struct DeriveCtx<'a> {
    /// The stratum's clauses, in firing order.
    clauses: &'a [&'a NormClause],
    /// Predicates whose body positions read the delta on semi-naive
    /// passes: the stratum's own, or the seed's on a seeded first pass.
    delta_preds: &'a [&'a str],
    /// Current IDB snapshot (read-only until the merge).
    idb: &'a BTreeMap<String, GeneralizedRelation>,
    /// Semi-naive delta frontier.
    delta: &'a BTreeMap<String, GeneralizedRelation>,
    /// On a guarded pass ([`FirstPass::Guarded`]), the over-deleted tuples
    /// per head predicate.
    guard: Option<&'a BTreeMap<String, Vec<GeneralizedTuple>>>,
    /// The extensional database.
    edb: &'a Database,
    /// Empty relation per predicate (missing-relation fallback).
    empty: &'a BTreeMap<String, GeneralizedRelation>,
    /// Program analysis (intensional set).
    info: &'a ProgramInfo,
    /// One label per source clause, for rule spans.
    rule_labels: &'a [String],
    /// Fire each clause once per delta position (`true`) or once against
    /// the full relations (`false`).
    seminaive_pass: bool,
    /// Residue budget for exact zone operations.
    residue_budget: u64,
    /// Consult the data-vector index when matching.
    use_index: bool,
    /// Clone matched source facts into every emission.
    collect_sources: bool,
}

impl<'a> DeriveCtx<'a> {
    /// The relation body position `i` reads with the delta substituted at
    /// `dpos` (if any).
    fn rel_for(
        &self,
        clause: &'a NormClause,
        dpos: Option<usize>,
        i: usize,
    ) -> &'a GeneralizedRelation {
        let pred = clause.body[i].pred.as_str();
        if dpos == Some(i) {
            self.delta.get(pred).unwrap_or(&self.empty[pred])
        } else {
            self.stable(pred)
        }
    }

    /// Relations for a clause's negated atoms (stable inputs).
    fn neg_rels(&self, clause: &'a NormClause) -> Vec<&'a GeneralizedRelation> {
        clause
            .neg_body
            .iter()
            .map(|a| self.stable(&a.pred))
            .collect()
    }

    /// The full current relation of `pred`: IDB for intensional
    /// predicates, EDB otherwise.
    fn stable(&self, pred: &str) -> &'a GeneralizedRelation {
        if self.info.intensional.contains(pred) {
            &self.idb[pred]
        } else {
            self.edb.get(pred).unwrap_or(&self.empty[pred])
        }
    }
}

/// The derive phase of one iteration: fires every stratum clause (each
/// delta position on semi-naive passes) against the snapshot, returning
/// the emissions in firing order for the single-writer merge.
fn derive_sequential(ctx: &DeriveCtx<'_>) -> Result<Vec<Pending>> {
    let mut derived = Vec::new();
    for &clause in ctx.clauses {
        let _rule_span = itdb_trace::span_with(itdb_trace::SpanKind::Rule, || {
            ctx.rule_labels
                .get(clause.idx)
                .cloned()
                .unwrap_or_else(|| format!("r{}", clause.idx))
        });
        let neg_rels = ctx.neg_rels(clause);
        let mut emit = |t, sources| {
            derived.push(Pending {
                pred: clause.head_pred.clone(),
                rule: clause.idx,
                tuple: t,
                sources,
            })
        };
        if let Some(dead) = ctx.guard {
            let rel_for = |i: usize| -> &GeneralizedRelation { ctx.rel_for(clause, None, i) };
            for head in dead.get(&clause.head_pred).into_iter().flatten() {
                eval_clause(
                    clause,
                    Some(head),
                    &rel_for,
                    &neg_rels,
                    ctx.residue_budget,
                    ctx.use_index,
                    ctx.collect_sources,
                    &mut emit,
                )?;
            }
            continue;
        }
        let dposes: Vec<Option<usize>> = if ctx.seminaive_pass {
            // Stable-input-only clauses yield no positions: they cannot
            // fire anew.
            clause
                .body_positions_of(ctx.delta_preds)
                .into_iter()
                .map(Some)
                .collect()
        } else {
            vec![None]
        };
        for dpos in dposes {
            let rel_for = |i: usize| -> &GeneralizedRelation { ctx.rel_for(clause, dpos, i) };
            eval_clause(
                clause,
                None,
                &rel_for,
                &neg_rels,
                ctx.residue_budget,
                ctx.use_index,
                ctx.collect_sources,
                &mut emit,
            )?;
        }
    }
    Ok(derived)
}

/// A derived head tuple awaiting canonicalization and subsumption insert,
/// with the rule that produced it and (when collected) its source facts.
struct Pending {
    pred: String,
    rule: usize,
    tuple: GeneralizedTuple,
    sources: Vec<(String, GeneralizedTuple)>,
}

/// Applies one clause to the given body relations, emitting derived head
/// tuples through `emit`. When `collect_sources` is set, each emission
/// carries the positive body facts matched on the DFS path that produced
/// it (cloned); otherwise the source list is empty.
///
/// A `guard` tuple confines the head to its points before the body is
/// matched: its data binds the head's data variables (so the body atoms
/// narrow to that data's index buckets) and its zone is transferred onto
/// the head's temporal variables. The guard only restricts the match; it
/// is never one of the emission's sources.
#[allow(clippy::too_many_arguments)]
fn eval_clause<'a, F: Fn(usize) -> &'a GeneralizedRelation>(
    clause: &'a NormClause,
    guard: Option<&GeneralizedTuple>,
    rel_for: &F,
    neg_rels: &[&GeneralizedRelation],
    budget: u64,
    use_index: bool,
    collect_sources: bool,
    emit: &mut dyn FnMut(GeneralizedTuple, Vec<(String, GeneralizedTuple)>),
) -> Result<()> {
    let n = clause.n_tvars;
    let mut state = MatchState {
        lrps: vec![Lrp::all_integers(); n],
        dbm: Dbm::unconstrained(n),
        binding: HashMap::new(),
        matched: Vec::new(),
    };
    if let Some(head) = guard {
        if !unify_data(
            &clause.head_data,
            head.data(),
            &mut state.binding,
            &mut Vec::new(),
        ) {
            return Ok(());
        }
        let slots: Vec<(usize, i64)> = clause.head_tvars.iter().map(|&v| (v, 0)).collect();
        if !pattern::transfer(&slots, head.zone(), &mut state.lrps, &mut state.dbm)?
            || !state.dbm.is_satisfiable()
        {
            return Ok(());
        }
    }
    dfs(
        clause,
        rel_for,
        neg_rels,
        0,
        &mut state,
        budget,
        use_index,
        collect_sources,
        emit,
    )
}

struct MatchState<'a> {
    lrps: Vec<Lrp>,
    dbm: Dbm,
    binding: HashMap<String, DataValue>,
    /// Body facts matched on the current DFS path, in body order (fed to
    /// provenance when source collection is on).
    matched: Vec<(&'a str, &'a GeneralizedTuple)>,
}

/// The tuples of `rel` an atom with data terms `data` can match under
/// the current bindings. When every term is a constant or an already-bound
/// variable, a matching tuple must carry exactly that data vector, so the
/// relation's index narrows the scan to same-data candidates; otherwise
/// every tuple is a candidate. [`term_agrees`] stays the single data test.
fn data_candidates<'r>(
    rel: &'r GeneralizedRelation,
    data: &[DataTerm],
    binding: &HashMap<String, DataValue>,
    use_index: bool,
) -> Vec<&'r GeneralizedTuple> {
    let key: Option<Vec<DataValue>> = data
        .iter()
        .map(|term| match term {
            DataTerm::Const(c) => Some(c.clone()),
            DataTerm::Var(v) => binding.get(v).cloned(),
        })
        .collect();
    match key {
        Some(key) if use_index && !data.is_empty() => rel.candidates(&key),
        _ => rel.tuples().iter().collect(),
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs<'a, F: Fn(usize) -> &'a GeneralizedRelation>(
    clause: &'a NormClause,
    rel_for: &F,
    neg_rels: &[&GeneralizedRelation],
    k: usize,
    state: &mut MatchState<'a>,
    budget: u64,
    use_index: bool,
    collect_sources: bool,
    emit: &mut dyn FnMut(GeneralizedTuple, Vec<(String, GeneralizedTuple)>),
) -> Result<()> {
    if k == clause.body.len() {
        return finish(
            clause,
            state,
            neg_rels,
            budget,
            use_index,
            collect_sources,
            emit,
        );
    }
    let atom = &clause.body[k];
    let candidates = data_candidates(rel_for(k), &atom.data, &state.binding, use_index);
    'tuples: for tuple in candidates {
        // Save state for backtracking.
        let saved_lrps = state.lrps.clone();
        let saved_dbm = state.dbm.clone();
        let mut bound_here: Vec<String> = Vec::new();

        if !unify_data(
            &atom.data,
            tuple.data(),
            &mut state.binding,
            &mut bound_here,
        ) {
            undo(state, saved_lrps, saved_dbm, &bound_here);
            continue 'tuples;
        }

        // Temporal join: intersect lrps and import the tuple's constraints.
        if !pattern::transfer(
            &atom.temporal,
            tuple.zone(),
            &mut state.lrps,
            &mut state.dbm,
        )? {
            undo(state, saved_lrps, saved_dbm, &bound_here);
            continue 'tuples;
        }

        // Prune unsatisfiable partial joins early.
        if !state.dbm.is_satisfiable() {
            undo(state, saved_lrps, saved_dbm, &bound_here);
            continue 'tuples;
        }

        state.matched.push((atom.pred.as_str(), tuple));
        let r = dfs(
            clause,
            rel_for,
            neg_rels,
            k + 1,
            state,
            budget,
            use_index,
            collect_sources,
            emit,
        );
        state.matched.pop();
        r?;
        undo(state, saved_lrps, saved_dbm, &bound_here);
    }
    Ok(())
}

/// The data test of one term against one value: `Ok` tells whether a
/// constant or a bound variable equals it; `Err` names a free variable,
/// for the caller to bind (or to reject).
fn term_agrees<'t>(
    term: &'t DataTerm,
    val: &DataValue,
    binding: &HashMap<String, DataValue>,
) -> std::result::Result<bool, &'t String> {
    match term {
        DataTerm::Const(c) => Ok(c == val),
        DataTerm::Var(v) => binding.get(v).map(|b| b == val).ok_or(v),
    }
}

/// Unifies data terms with a tuple's data under `binding`: constants must
/// match, bound variables must agree, and free variables are bound, each
/// recorded in `bound` so the caller can undo them. On `false` some of
/// `bound` may already be bound; the caller undoes them.
fn unify_data(
    terms: &[DataTerm],
    values: &[DataValue],
    binding: &mut HashMap<String, DataValue>,
    bound: &mut Vec<String>,
) -> bool {
    for (term, val) in terms.iter().zip(values) {
        match term_agrees(term, val, binding) {
            Ok(false) => return false,
            Ok(true) => {}
            Err(v) => {
                binding.insert(v.clone(), val.clone());
                bound.push(v.clone());
            }
        }
    }
    true
}

fn undo(state: &mut MatchState<'_>, lrps: Vec<Lrp>, dbm: Dbm, bound_here: &[String]) {
    state.lrps = lrps;
    state.dbm = dbm;
    for v in bound_here {
        state.binding.remove(v);
    }
}

/// Leaf of the DFS: conjoin the clause constraints, subtract the negated
/// atoms' regions (stratified negation as exact zone subtraction), project
/// onto the head variables, instantiate the head data, and emit.
#[allow(clippy::too_many_arguments)]
fn finish(
    clause: &NormClause,
    state: &mut MatchState<'_>,
    neg_rels: &[&GeneralizedRelation],
    budget: u64,
    use_index: bool,
    collect_sources: bool,
    emit: &mut dyn FnMut(GeneralizedTuple, Vec<(String, GeneralizedTuple)>),
) -> Result<()> {
    let mut dbm = state.dbm.clone();
    for c in &clause.constraints {
        constraint_of(c)?.apply(&mut dbm)?;
    }
    let zone = Zone::from_parts(state.lrps.clone(), dbm)?;

    // Stratified negation: remove, from the clause zone, every assignment
    // under which some negated atom instantiates into its (stable)
    // relation. Each matching tuple contributes a forbidden zone; the
    // remainder is a union of zones.
    let mut zones = vec![zone];
    for (atom, rel) in clause.neg_body.iter().zip(neg_rels.iter()) {
        let mut forbidden: Vec<Zone> = Vec::new();
        // Under stratified negation every data variable is bound (analysis
        // guarantees it), so the index narrows the scan almost always; a
        // free variable makes the data test below an error.
        'tuples: for tuple in data_candidates(rel, &atom.data, &state.binding, use_index) {
            // Data filter: constants and bound variables must agree for the
            // tuple to constrain anything.
            for (term, val) in atom.data.iter().zip(tuple.data()) {
                let agrees = term_agrees(term, val, &state.binding).map_err(|v| {
                    Error::SchemaMismatch(format!(
                        "data variable {v} under negation is unbound \
                         (analysis should have rejected this clause)"
                    ))
                })?;
                if !agrees {
                    continue 'tuples;
                }
            }
            // Temporal region forbidden by this tuple.
            let mut lrps = vec![Lrp::all_integers(); clause.n_tvars];
            let mut dbm = Dbm::unconstrained(clause.n_tvars);
            if pattern::transfer(&atom.temporal, tuple.zone(), &mut lrps, &mut dbm)? {
                forbidden.push(Zone::from_parts(lrps, dbm)?);
            }
        }
        if forbidden.is_empty() {
            continue;
        }
        let refs: Vec<&Zone> = forbidden.iter().collect();
        let mut next = Vec::new();
        for z in zones {
            next.extend(z.subtract(&refs, budget)?);
        }
        zones = next;
        if zones.is_empty() {
            return Ok(());
        }
    }

    let data: Vec<DataValue> =
        clause
            .head_data
            .iter()
            .map(|d| match d {
                DataTerm::Const(c) => Ok(c.clone()),
                DataTerm::Var(v) => state.binding.get(v).cloned().ok_or_else(|| {
                    Error::SchemaMismatch(format!("unbound head data variable {v}"))
                }),
            })
            .collect::<Result<_>>()?;
    // One source-fact clone per DFS leaf, shared by every zone the head
    // projection splits into (they all come from the same rule firing).
    let sources: Vec<(String, GeneralizedTuple)> = if collect_sources {
        state
            .matched
            .iter()
            .map(|(p, t)| (p.to_string(), (*t).clone()))
            .collect()
    } else {
        Vec::new()
    };
    for zone in zones {
        for head_zone in zone.project(&clause.head_tvars, budget)? {
            emit(
                GeneralizedTuple::new(head_zone, data.clone()),
                sources.clone(),
            );
        }
    }
    Ok(())
}

/// Converts a normalized constraint into an [`itdb_lrp::Constraint`] over
/// the clause variables.
fn constraint_of(c: &NormConstraint) -> Result<Constraint> {
    let sub = |a: i64, b: i64| a.checked_sub(b).ok_or(Error::Overflow);
    Ok(match *c {
        NormConstraint::VarVar((v1, c1), op, (v2, c2)) => match op {
            CmpOp::Lt => Constraint::LtVar(Var(v1), Var(v2), sub(c2, c1)?),
            CmpOp::Le => Constraint::LeVar(Var(v1), Var(v2), sub(c2, c1)?),
            CmpOp::Eq => Constraint::EqVar(Var(v1), Var(v2), sub(c2, c1)?),
            CmpOp::Ge => Constraint::LeVar(Var(v2), Var(v1), sub(c1, c2)?),
            CmpOp::Gt => Constraint::LtVar(Var(v2), Var(v1), sub(c1, c2)?),
        },
        NormConstraint::VarConst((v, c1), op, k) => {
            let k = sub(k, c1)?;
            match op {
                CmpOp::Lt => Constraint::LtConst(Var(v), k),
                CmpOp::Le => Constraint::LeConst(Var(v), k),
                CmpOp::Eq => Constraint::EqConst(Var(v), k),
                CmpOp::Ge => Constraint::GeConst(Var(v), k),
                CmpOp::Gt => Constraint::GtConst(Var(v), k),
            }
        }
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn course_db() -> Database {
        let mut db = Database::new();
        db.insert_parsed("course", "(168n+8, 168n+10; database) : T2 = T1 + 2")
            .unwrap();
        db
    }

    fn example_4_1() -> Program {
        parse_program(
            "problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).
             problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).",
        )
        .unwrap()
    }

    #[test]
    fn example_4_1_converges() {
        let eval = evaluate(&example_4_1(), &course_db()).unwrap();
        assert!(eval.outcome.converged(), "{:?}", eval.outcome);
        let problems = eval.relation("problems").unwrap();
        let d = [DataValue::sym("database")];
        // The paper's derived extension: problem sessions at +2, then every
        // 48 hours, all ≡ the seven residue classes 10, 58, 106, … mod 168.
        for base in [10i64, 58, 106, 154, 202, 250, 298] {
            assert!(problems.contains(&[base, base + 2], &d), "base={base}");
        }
        // 346 ≡ 10 (mod 168): covered by the wrapped class.
        assert!(problems.contains(&[346, 348], &d));
        // Not at the course time itself, nor at odd offsets.
        assert!(!problems.contains(&[8, 10], &d));
        assert!(!problems.contains(&[11, 13], &d));
        // Exactly the 7 residue classes: 10 + 24k mod 168 (gcd(48,168)=24).
        for t in 0..168i64 {
            let expect = t.rem_euclid(24) == 10 && (t - 10).rem_euclid(24) == 0;
            let expect = expect || [10, 34, 58, 82, 106, 130, 154].contains(&t);
            // simplify: residues congruent to 10 mod 24
            let expect2 = t.rem_euclid(24) == 10;
            assert_eq!(
                expect2,
                [10, 34, 58, 82, 106, 130, 154].contains(&t),
                "sanity t={t}"
            );
            let _ = expect;
            assert_eq!(problems.contains(&[t, t + 2], &d), expect2, "t={t}");
        }
    }

    #[test]
    fn example_4_1_trace_matches_paper() {
        // The paper's table: tuples at offsets 10, 58, 106, 154, 202, 250,
        // 298, 346 — the eighth being subsumed (wraps to 10 mod 168),
        // "after which the evaluation stops".
        let opts = EvalOptions {
            trace: true,
            seminaive: true,
            ..Default::default()
        };
        let eval = evaluate_with(&example_4_1(), &course_db(), &opts).unwrap();
        let inserted: Vec<i64> = eval
            .trace
            .iter()
            .flat_map(|t| t.inserted.iter())
            .map(|(_, t)| {
                let z = t.zone();
                assert_eq!(z.lrp(0).period(), 168);
                z.lrp(0).offset()
            })
            .collect();
        assert_eq!(inserted, vec![10, 58, 106, 154, 34, 82, 130]); // canonical offsets mod 168
                                                                   // A subsumed derivation witnesses convergence.
        assert!(eval.trace.iter().any(|t| !t.subsumed.is_empty()));
        assert!(matches!(
            eval.outcome,
            EvalOutcome::Converged { iterations: 8 }
        ));
        assert_eq!(eval.fe_safe_at, Some(8));
    }

    #[test]
    fn coalesced_example_4_1_is_one_tuple() {
        let opts = EvalOptions {
            coalesce: true,
            ..Default::default()
        };
        let eval = evaluate_with(&example_4_1(), &course_db(), &opts).unwrap();
        let problems = eval.relation("problems").unwrap();
        assert_eq!(problems.len(), 1, "{problems}");
        assert_eq!(problems.tuples()[0].zone().lrp(0).period(), 24);
        assert_eq!(problems.tuples()[0].zone().lrp(0).offset(), 10);
        let d = [DataValue::sym("database")];
        for t in -100..100i64 {
            assert_eq!(
                problems.contains(&[t, t + 2], &d),
                t.rem_euclid(24) == 10,
                "t={t}"
            );
        }
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let p = example_4_1();
        let db = course_db();
        let naive = evaluate_with(
            &p,
            &db,
            &EvalOptions {
                seminaive: false,
                ..Default::default()
            },
        )
        .unwrap();
        let semi = evaluate_with(&p, &db, &EvalOptions::default()).unwrap();
        assert!(naive
            .relation("problems")
            .unwrap()
            .equivalent(semi.relation("problems").unwrap(), DEFAULT_RESIDUE_BUDGET)
            .unwrap());
    }

    #[test]
    fn fact_clause_with_free_variable() {
        // `always[t].` has extension ℤ.
        let p = parse_program("always[t].").unwrap();
        let eval = evaluate(&p, &Database::new()).unwrap();
        assert!(eval.outcome.converged());
        let r = eval.relation("always").unwrap();
        assert!(r.contains(&[-1000], &[]));
        assert!(r.contains(&[0], &[]));
    }

    #[test]
    fn constraint_only_clause() {
        let p = parse_program("window[t] <- 0 <= t, t < 10.").unwrap();
        let eval = evaluate(&p, &Database::new()).unwrap();
        let r = eval.relation("window").unwrap();
        for t in -5..15 {
            assert_eq!(r.contains(&[t], &[]), (0..10).contains(&t), "t={t}");
        }
    }

    #[test]
    fn point_based_successor_recursion_diverges_as_the_paper_predicts() {
        // Chomicki–Imieliński style: holds at 0 and closed under +5. With a
        // *point* EDB (no infinite periodic extension to wrap around),
        // generalized-tuple evaluation reaches free-extension safety
        // immediately (all lrps have period 1) but never constraint safety:
        // Theorem 4.3 is a sufficient criterion only. The closed form for
        // such programs comes from Datalog1S periodicity detection
        // (itdb-datalog1s), not from T_GP iteration.
        let p = parse_program("p[0]. p[t + 5] <- p[t].").unwrap();
        let opts = EvalOptions {
            grace_after_fe_safety: 6,
            ..Default::default()
        };
        let eval = evaluate_with(&p, &Database::new(), &opts).unwrap();
        assert!(
            matches!(eval.outcome, EvalOutcome::DivergedAfterFeSafety { .. }),
            "{:?}",
            eval.outcome
        );
        // The partial model contains the early multiples of 5 and nothing
        // else.
        let r = eval.relation("p").unwrap();
        for t in -10..30 {
            assert_eq!(r.contains(&[t], &[]), t >= 0 && t % 5 == 0, "t={t}");
        }
    }

    #[test]
    fn periodic_edb_makes_the_same_recursion_converge() {
        // The paper's point (§4.3): starting from an infinite periodic set,
        // the same +5 recursion wraps modulo the period and terminates.
        let p = parse_program("p[t + 5] <- e[t]. p[t + 5] <- p[t].").unwrap();
        let mut db = Database::new();
        db.insert_parsed("e", "(15n)").unwrap();
        let eval = evaluate(&p, &db).unwrap();
        assert!(eval.outcome.converged(), "{:?}", eval.outcome);
        let r = eval.relation("p").unwrap();
        // 15n + 5k for k ≥ 1 covers 5ℤ... within residues mod 15: {5, 10, 0}.
        for t in -30..30 {
            assert_eq!(r.contains(&[t], &[]), t % 5 == 0, "t={t}");
        }
    }

    #[test]
    fn two_temporal_arguments_with_join() {
        // meets[t1, t2] when a[t1], b[t2], t1 < t2.
        let p = parse_program("meets[t1, t2] <- a[t1], b[t2], t1 < t2.").unwrap();
        let mut db = Database::new();
        db.insert_parsed("a", "(10n+3)").unwrap();
        db.insert_parsed("b", "(10n+7)").unwrap();
        let eval = evaluate(&p, &db).unwrap();
        let r = eval.relation("meets").unwrap();
        assert!(r.contains(&[3, 7], &[]));
        assert!(r.contains(&[3, 17], &[]));
        assert!(r.contains(&[13, 17], &[]));
        assert!(!r.contains(&[7, 3], &[]));
        assert!(!r.contains(&[13, 7], &[]));
        assert!(!r.contains(&[3, 3], &[]));
    }

    #[test]
    fn data_variables_propagate() {
        let p = parse_program("next_day[t + 24](C) <- event[t](C).").unwrap();
        let mut db = Database::new();
        db.insert_parsed("event", "(168n+8; alpha)\n(168n+30; beta)")
            .unwrap();
        let eval = evaluate(&p, &db).unwrap();
        let r = eval.relation("next_day").unwrap();
        assert!(r.contains(&[32], &[DataValue::sym("alpha")]));
        assert!(r.contains(&[54], &[DataValue::sym("beta")]));
        assert!(!r.contains(&[32], &[DataValue::sym("beta")]));
    }

    /// A constant after a variable in one body atom: a tuple that binds
    /// the variable and then fails the constant must not leave the
    /// binding behind for the next tuple.
    #[test]
    fn constant_mismatch_after_a_variable_unbinds_it() {
        let prog = parse_program("q[t](X) <- p[t](X, a).").unwrap();
        let mut db = Database::new();
        db.insert_parsed("p", "(n; x1, b)\n(n; x2, a)").unwrap();
        let ev = evaluate(&prog, &db).unwrap();
        let q = ev.relation("q").unwrap();
        assert!(q.contains(&[0], &[DataValue::sym("x2")]), "{q}");
        assert!(!q.contains(&[0], &[DataValue::sym("x1")]), "{q}");
    }

    #[test]
    fn data_constant_filtering() {
        let p = parse_program("dbp[t] <- event[t](alpha).").unwrap();
        let mut db = Database::new();
        db.insert_parsed("event", "(168n+8; alpha)\n(168n+30; beta)")
            .unwrap();
        let eval = evaluate(&p, &db).unwrap();
        let r = eval.relation("dbp").unwrap();
        assert!(r.contains(&[8], &[]));
        assert!(!r.contains(&[30], &[]));
    }

    #[test]
    fn diverging_program_detected() {
        // pair[t1, t2+1] from pair[t1, t2]: the gap between the two
        // arguments grows forever — free extensions stabilize (period 1)
        // but constraints never become safe.
        let p = parse_program("pair[0, 0]. pair[t1, t2 + 1] <- pair[t1, t2].").unwrap();
        let opts = EvalOptions {
            grace_after_fe_safety: 5,
            ..Default::default()
        };
        let eval = evaluate_with(&p, &Database::new(), &opts).unwrap();
        match eval.outcome {
            EvalOutcome::DivergedAfterFeSafety { fe_safe_at, .. } => {
                assert!(fe_safe_at <= 3, "fe_safe_at={fe_safe_at}");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn same_variable_twice_in_one_atom() {
        // diag[t] <- pair[t, t] matched against tuples where T2 = T1 + 2:
        // empty; against T2 = T1: everything even.
        let p = parse_program("diag[t] <- pair[t, t].").unwrap();
        let mut db = Database::new();
        db.insert_parsed("pair", "(2n, 2n) : T2 = T1").unwrap();
        let eval = evaluate(&p, &db).unwrap();
        let r = eval.relation("diag").unwrap();
        assert!(r.contains(&[0], &[]));
        assert!(r.contains(&[4], &[]));
        assert!(!r.contains(&[1], &[]));

        let p2 = parse_program("diag[t] <- shifted[t, t].").unwrap();
        let mut db2 = Database::new();
        db2.insert_parsed("shifted", "(2n, 2n) : T2 = T1 + 2")
            .unwrap();
        let eval2 = evaluate(&p2, &db2).unwrap();
        assert!(eval2
            .relation("diag")
            .unwrap()
            .is_empty_semantic(DEFAULT_RESIDUE_BUDGET)
            .unwrap());
    }

    #[test]
    fn same_variable_at_different_shifts() {
        // Regression: r[t, t + 2] against a tuple with T2 = T1 + 2 must
        // match (x_i − x_j = s_i − s_j; the sign matters).
        let p = parse_program("ok[t] <- r[t, t + 2]. no[t] <- r[t, t + 3].").unwrap();
        let mut db = Database::new();
        db.insert_parsed("r", "(5n+1, 5n+3) : T2 = T1 + 2, T1 >= 0")
            .unwrap();
        let eval = evaluate(&p, &db).unwrap();
        let ok = eval.relation("ok").unwrap();
        assert!(ok.contains(&[1], &[]));
        assert!(ok.contains(&[6], &[]));
        assert!(!ok.contains(&[2], &[]));
        assert!(eval
            .relation("no")
            .unwrap()
            .is_empty_semantic(DEFAULT_RESIDUE_BUDGET)
            .unwrap());
    }

    #[test]
    fn stratified_negation_complement() {
        // gap[t] holds exactly where service does not.
        let p = parse_program(
            "service[t] <- sched[t]. service[t + 12] <- service[t].
             gap[t] <- !service[t].",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_parsed("sched", "(24n)\n(24n+3)").unwrap();
        let eval = evaluate(&p, &db).unwrap();
        assert!(eval.outcome.converged(), "{:?}", eval.outcome);
        let service = eval.relation("service").unwrap();
        let gap = eval.relation("gap").unwrap();
        for t in -60..60i64 {
            let on = t.rem_euclid(12) == 0 || t.rem_euclid(12) == 3;
            assert_eq!(service.contains(&[t], &[]), on, "service t={t}");
            assert_eq!(gap.contains(&[t], &[]), !on, "gap t={t}");
        }
    }

    #[test]
    fn negation_with_positive_join() {
        // Risky departures: trains with no connecting return within 10.
        let p = parse_program("risky[t] <- dep[t], !ret[t].").unwrap();
        let mut db = Database::new();
        db.insert_parsed("dep", "(10n)").unwrap();
        db.insert_parsed("ret", "(20n)").unwrap();
        let eval = evaluate(&p, &db).unwrap();
        let risky = eval.relation("risky").unwrap();
        for t in -60..60i64 {
            assert_eq!(risky.contains(&[t], &[]), t.rem_euclid(20) == 10, "t={t}");
        }
    }

    #[test]
    fn negation_with_data_binding() {
        let p = parse_program("unserved[t](C) <- request[t](C), !served[t](C).").unwrap();
        let mut db = Database::new();
        db.insert_parsed("request", "(6n; a)\n(6n; b)").unwrap();
        db.insert_parsed("served", "(6n; a)").unwrap();
        let eval = evaluate(&p, &db).unwrap();
        let u = eval.relation("unserved").unwrap();
        assert!(!u.contains(&[0], &[DataValue::sym("a")]));
        assert!(u.contains(&[0], &[DataValue::sym("b")]));
        assert!(u.contains(&[12], &[DataValue::sym("b")]));
    }

    #[test]
    fn negation_with_constraints_and_shifts() {
        // t is "quiet" when no event occurs in the *next* instant.
        let p = parse_program("quiet[t] <- tick[t], !event[t + 1].").unwrap();
        let mut db = Database::new();
        db.insert_parsed("tick", "(n)").unwrap();
        db.insert_parsed("event", "(4n)").unwrap();
        let eval = evaluate(&p, &db).unwrap();
        let q = eval.relation("quiet").unwrap();
        for t in -20..20i64 {
            assert_eq!(q.contains(&[t], &[]), (t + 1).rem_euclid(4) != 0, "t={t}");
        }
    }

    #[test]
    fn negation_matches_ground_baseline() {
        let p = parse_program(
            "covered[t] <- base[t]. covered[t + 1] <- base[t].
             gap[t] <- !covered[t].
             double_gap[t1, t2] <- gap[t1], gap[t2], t1 < t2, t2 < t1 + 3.",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_parsed("base", "(4n+1)").unwrap();
        let closed = evaluate(&p, &db).unwrap();
        assert!(closed.outcome.converged());
        let ground = crate::ground::evaluate_ground(&p, &db, -60, 60).unwrap();
        for t in -30..30i64 {
            assert_eq!(
                ground.contains("gap", &[t], &[]),
                closed.relation("gap").unwrap().contains(&[t], &[]),
                "gap t={t}"
            );
            for dt in 1..3i64 {
                assert_eq!(
                    ground.contains("double_gap", &[t, t + dt], &[]),
                    closed
                        .relation("double_gap")
                        .unwrap()
                        .contains(&[t, t + dt], &[]),
                    "double_gap t={t} dt={dt}"
                );
            }
        }
    }

    #[test]
    fn recursion_through_negation_rejected() {
        let p = parse_program("p[t + 1] <- !p[t].").unwrap();
        let e = evaluate(&p, &Database::new()).unwrap_err();
        assert!(e.to_string().contains("negation"), "{e}");
    }

    #[test]
    fn unbound_data_under_negation_rejected() {
        let p = parse_program("p[t] <- e[t], !q[t](X).").unwrap();
        assert!(evaluate(&p, &Database::new()).is_err());
    }

    #[test]
    fn missing_extensional_relation_is_empty() {
        let p = parse_program("p[t] <- absent[t].").unwrap();
        let eval = evaluate(&p, &Database::new()).unwrap();
        assert!(eval.outcome.converged());
        assert!(eval.relation("p").unwrap().is_empty());
    }

    #[test]
    fn mismatched_edb_schema_rejected() {
        let p = parse_program("p[t] <- e[t].").unwrap();
        let mut db = Database::new();
        db.insert_parsed("e", "(2n, 3n)").unwrap(); // arity 2, program says 1
        assert!(matches!(evaluate(&p, &db), Err(Error::SchemaMismatch(_))));
    }

    #[test]
    fn propositional_predicates() {
        // Temporal-arity-0 predicates act as global gates.
        let p = parse_program(
            "flag.
             alert[t] <- flag, e[t].
             silent[t] <- !flag, e[t].",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_parsed("e", "(6n)").unwrap();
        let eval = evaluate(&p, &db).unwrap();
        assert!(eval.outcome.converged());
        assert!(eval.relation("flag").unwrap().contains(&[], &[]));
        assert!(eval.relation("alert").unwrap().contains(&[6], &[]));
        assert!(eval
            .relation("silent")
            .unwrap()
            .is_empty_semantic(DEFAULT_RESIDUE_BUDGET)
            .unwrap());
    }

    #[test]
    fn zero_arity_everything() {
        // A fully propositional program.
        let p = parse_program("a. b <- a. c <- b, !d.").unwrap();
        let eval = evaluate(&p, &Database::new()).unwrap();
        assert!(eval.outcome.converged());
        assert!(eval.relation("c").unwrap().contains(&[], &[]));
    }

    #[test]
    fn head_constants_work() {
        let p = parse_program("origin[0, 0](here).").unwrap();
        let eval = evaluate(&p, &Database::new()).unwrap();
        let r = eval.relation("origin").unwrap();
        assert!(r.contains(&[0, 0], &[DataValue::sym("here")]));
        assert!(!r.contains(&[0, 1], &[DataValue::sym("here")]));
    }

    #[test]
    fn body_temporal_constants_select() {
        // q holds wherever p holds at time 3 (a yes/no gate): q[t] <- p[3], r[t].
        let p = parse_program("q[t] <- p[3], r[t].").unwrap();
        let mut db = Database::new();
        db.insert_parsed("p", "(5n+3)").unwrap(); // 3 ∈ 5n+3 ✓
        db.insert_parsed("r", "(7n)").unwrap();
        let eval = evaluate(&p, &db).unwrap();
        assert!(eval.relation("q").unwrap().contains(&[7], &[]));

        let mut db2 = Database::new();
        db2.insert_parsed("p", "(5n+4)").unwrap(); // 3 ∉ 5n+4 → gate closed
        db2.insert_parsed("r", "(7n)").unwrap();
        let eval2 = evaluate(&p, &db2).unwrap();
        assert!(eval2
            .relation("q")
            .unwrap()
            .is_empty_semantic(DEFAULT_RESIDUE_BUDGET)
            .unwrap());
    }

    #[test]
    fn stats_are_populated_and_index_matches_naive() {
        let p = example_4_1();
        let db = course_db();
        let indexed = evaluate(&p, &db).unwrap();
        let s = &indexed.stats;
        assert_eq!(s.tuples_inserted, 7, "{s:?}");
        assert!(s.tuples_derived >= s.tuples_inserted + s.tuples_subsumed);
        assert!(s.tuples_subsumed > 0, "{s:?}");
        assert!(s.counters.subsumption_checks > 0, "{s:?}");
        assert_eq!(s.strata.len(), 1);
        assert_eq!(s.strata[0].iterations, 8);
        assert!(s.strata[0].preds.contains(&"problems".to_string()));
        assert_eq!(s.strata[0].inserted, 7);

        let naive = evaluate_with(
            &p,
            &db,
            &EvalOptions {
                use_index: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(naive.outcome.converged());
        assert!(indexed
            .relation("problems")
            .unwrap()
            .equivalent(naive.relation("problems").unwrap(), DEFAULT_RESIDUE_BUDGET)
            .unwrap());

        let txt = indexed.stats.to_string();
        assert!(txt.contains("tuples derived: "), "{txt}");
        assert!(txt.contains("subsumption checks: "), "{txt}");
        assert!(
            txt.contains("stratum 0 (problems): 8 iteration(s)"),
            "{txt}"
        );
        // Durations render human-friendly (satellite of the observability
        // PR): `1.234ms` / `45.6µs`, never the Debug form.
        assert!(
            txt.ends_with(&format!("elapsed: {}", itdb_trace::fmt_duration(s.elapsed))),
            "{txt}"
        );
        let json = s.to_json();
        let v = itdb_trace::json::parse(&json).expect("stats JSON parses");
        assert_eq!(
            v.get("tuples_inserted").and_then(|x| x.as_f64()),
            Some(7.0),
            "{json}"
        );
        assert_eq!(
            v.get("strata").and_then(|x| x.as_array()).map(|a| a.len()),
            Some(1)
        );
    }

    #[test]
    fn index_narrows_data_constant_matching() {
        // The body atom's data term is ground, so the matcher consults the
        // index bucket for `alpha` instead of scanning both EDB tuples.
        let p = parse_program("dbp[t] <- event[t](alpha).").unwrap();
        let mut db = Database::new();
        db.insert_parsed("event", "(168n+8; alpha)\n(168n+30; beta)")
            .unwrap();
        let eval = evaluate(&p, &db).unwrap();
        assert!(eval.relation("dbp").unwrap().contains(&[8], &[]));
        let c = &eval.stats.counters;
        assert!(c.index_scanned_naive > 0, "{c:?}");
        assert!(c.index_candidates < c.index_scanned_naive, "{c:?}");
    }

    #[test]
    fn negation_with_data_binding_agrees_with_naive_scan() {
        let p = parse_program("unserved[t](C) <- request[t](C), !served[t](C).").unwrap();
        let mut db = Database::new();
        db.insert_parsed("request", "(6n; a)\n(6n; b)").unwrap();
        db.insert_parsed("served", "(6n; a)").unwrap();
        let indexed = evaluate(&p, &db).unwrap();
        let naive = evaluate_with(
            &p,
            &db,
            &EvalOptions {
                use_index: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(indexed
            .relation("unserved")
            .unwrap()
            .equivalent(naive.relation("unserved").unwrap(), DEFAULT_RESIDUE_BUDGET)
            .unwrap());
    }

    #[test]
    fn mutual_recursion_over_periodic_edb_converges() {
        // tick alternates phase against a periodic clock: mutual recursion
        // whose generalized evaluation wraps modulo the EDB period.
        let p = parse_program("odd[t + 1] <- even[t]. even[t + 1] <- odd[t]. even[t] <- clock[t].")
            .unwrap();
        let mut db = Database::new();
        db.insert_parsed("clock", "(4n)").unwrap();
        let eval = evaluate(&p, &db).unwrap();
        assert!(eval.outcome.converged(), "{:?}", eval.outcome);
        let even = eval.relation("even").unwrap();
        let odd = eval.relation("odd").unwrap();
        for t in -10..10 {
            assert_eq!(even.contains(&[t], &[]), t.rem_euclid(2) == 0, "even t={t}");
            assert_eq!(odd.contains(&[t], &[]), t.rem_euclid(2) == 1, "odd t={t}");
        }
    }
}
