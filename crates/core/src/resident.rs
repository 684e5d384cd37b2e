//! Long-lived resident models: evaluate once, then *maintain* under
//! streaming EDB ingestion — inserts **and retractions**.
//!
//! A [`ResidentModel`] holds one governed evaluation of a workload and
//! answers every read as a closed-form lookup ([`ResidentModel::answer`]).
//! When that evaluation converged, the model also applies batches of
//! extensional operations **incrementally**: newly asserted EDB tuples
//! seed the semi-naive delta frontier and propagation resumes from the
//! affected strata; retracted EDB tuples trigger a DRed-style
//! delete/re-derive pass. Both re-enter the engine's own semi-naive loop
//! ([`crate::engine`]) on the maintained IDB — there is no second
//! fixpoint implementation. A model whose evaluation diverged or tripped
//! its governor holds the sound partial model, reports that status with
//! every answer, and refuses writes ([`ApplyError::Incomplete`]): DRed
//! over a partial model is unsound.
//!
//! ## Incremental maintenance invariants
//!
//! Let `M` be the converged model and `Δ` a batch of operations.
//!
//! 1. **Insert-only is monotone for positive programs.** Every rule
//!    firing of `T_GP(edb ∪ Δ)` either (a) uses no tuple newer than `M`,
//!    and was therefore already fired, or (b) uses at least one new
//!    tuple. The insert path of [`ResidentModel::apply_ops`] covers (b)
//!    exactly: it runs the engine's loop over the affected strata, seeded
//!    with the batch's EDB delta (accumulated across strata), so each
//!    stratum's first iteration fires every clause once per body position
//!    holding a changed predicate, with the delta at that position and the
//!    *updated* full relations elsewhere — the textbook semi-naive
//!    argument, seeded at the EDB instead of at iteration 1.
//! 2. **Retraction is delete/re-derive (DRed).** A retraction removes
//!    the stored EDB tuples semantically contained in the retracted
//!    tuple, then *over-deletes* the IDB: every tuple whose recorded
//!    derivation transitively touches a removed tuple is deleted (the
//!    provenance cone, when complete provenance is available), or every
//!    tuple of every affected intensional predicate (the per-stratum
//!    wipe fallback). The engine's loop then re-derives, unseeded and
//!    restricted to the clauses whose heads are affected, per affected
//!    stratum bottom-up, everything with a surviving alternative
//!    derivation. Both modes start the re-derive from a *subset* of the
//!    true fixpoint, so convergence lands exactly on it.
//! 3. **Negation constrains the over-delete mode.** Retraction can
//!    *grow* a predicate defined through negation, and recorded positive
//!    sources cannot witness negation-dependent invalidation — so the
//!    provenance cone is only used when no affected clause negates an
//!    affected predicate. The wipe fallback is sound even then:
//!    stratification puts every negated predicate in a strictly lower
//!    stratum, which is rebuilt to its final value first.
//! 4. **Representation-level retraction semantics.** Retracting `t`
//!    removes stored tuples *subsumed by* `t`. Content of `t` that was
//!    folded into a strictly broader stored tuple is **not** carved
//!    out — the generalized relation is the unit of storage, exactly as
//!    in the paper's closed representation. Callers that need carve-out
//!    must ingest at the granularity they intend to retract.
//! 5. **Failed batches roll back; the model never wedges.** Every batch
//!    runs under a fresh governor built from the model's options, so
//!    every budget — iterations, tuple fuel, deadline, memory ceiling,
//!    cancellation — applies to that batch alone. Every apply is
//!    transactional: a governor trip or divergence mid-batch restores
//!    the exact pre-batch EDB, IDB, and provenance state and surfaces
//!    [`ApplyError::RolledBack`] (carrying [`Error::Interrupted`] for a
//!    trip). The model stays healthy and continues to serve reads and
//!    later batches — there is no poisoned state.
//! 6. **Determinism.** Given the same starting state and the same
//!    operation sequence, `apply_ops` produces byte-identical relations
//!    (and byte-identical rollback decisions, for deterministic
//!    governors) — the property WAL replay and the crash-recovery chaos
//!    tests build on. The over-delete mode is itself deterministic from
//!    persisted state: snapshots carry the derivation log, so a restore
//!    replays retractions in the same mode as the uninterrupted run.
//! 7. **Divergence stays detected.** Maintenance runs in the engine's
//!    loop, so the engine's free-extension-key grace rule guards it, with
//!    the key sets built from the maintained relations; a batch that
//!    makes the workload diverge is rolled back rather than looping.
//! 8. **Only complete models are maintained.** Every batch against a
//!    model whose own evaluation diverged or tripped is refused with
//!    [`ApplyError::Incomplete`] before anything is touched; its status
//!    stays fixed for the model's lifetime.
//!
//! The `*_full_reeval` twins recompute the model from scratch; ×64
//! proptests pin the equivalence of the incremental and oracle paths on
//! random workloads and interleaved insert/retract sequences.

// User-reachable ingestion path: failures must flow through the error
// taxonomy, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::analyze::{analyze, ProgramInfo};
use crate::ast::{Atom, Program};
use crate::checkpoint::{hash_program, ResidentImage};
use crate::db::Database;
use crate::engine::{
    evaluate_governed, evaluate_with, rule_labels, Derivation, EvalOptions, EvalOutcome, EvalStats,
    Evaluation, Fixpoint, RunState,
};
use crate::normalize::{normalize_program, NormClause};
use crate::query::query;
use crate::service::{QueryResponse, QueryStatus};
use itdb_lrp::{Error, GeneralizedRelation, GeneralizedTuple, Governor, Result, Schema};
use itdb_store::Section;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::sync::Arc;

/// One extensional fact: a predicate name and a generalized tuple (which
/// may, as everywhere in the paper, denote infinitely many ground facts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// Extensional predicate the tuple extends.
    pub pred: String,
    /// The generalized tuple.
    pub tuple: GeneralizedTuple,
}

/// One ingest operation: assert a fact into the EDB, or retract every
/// stored tuple semantically contained in the fact's tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert the fact (subsumption-deduplicated, idempotent).
    Assert(Fact),
    /// Remove stored tuples subsumed by the fact's tuple, then DRed-
    /// maintain the IDB. See module invariant 4 for the exact semantics.
    Retract(Fact),
}

impl Op {
    /// The fact this operation carries.
    pub fn fact(&self) -> &Fact {
        match self {
            Op::Assert(f) | Op::Retract(f) => f,
        }
    }

    /// Is this a retraction?
    pub fn is_retract(&self) -> bool {
        matches!(self, Op::Retract(_))
    }
}

/// Why an [`ResidentModel::apply_ops`] call did not apply.
#[derive(Debug)]
pub enum ApplyError {
    /// The batch was rejected by up-front validation (unknown/intensional
    /// predicate, schema mismatch). The model was not touched at all.
    Invalid(Error),
    /// The batch failed mid-flight (governor trip, divergence, budget
    /// exhaustion) and every mutation was rolled back: the model is the
    /// exact pre-batch state and stays fully serviceable. Retrying the
    /// identical batch under the same limits will fail identically.
    RolledBack(Error),
    /// The model's own evaluation did not converge (it holds a sound
    /// partial model with this status), so it cannot be maintained. The
    /// model was not touched.
    Incomplete(QueryStatus),
}

impl ApplyError {
    /// Unwraps the underlying evaluation error.
    pub fn into_error(self) -> Error {
        match self {
            ApplyError::Invalid(e) | ApplyError::RolledBack(e) => e,
            e @ ApplyError::Incomplete(_) => Error::Eval(e.to_string()),
        }
    }

    /// Was the model mutated and restored (as opposed to never touched)?
    pub fn rolled_back(&self) -> bool {
        matches!(self, ApplyError::RolledBack(_))
    }
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Invalid(e) => write!(f, "invalid batch: {e}"),
            ApplyError::RolledBack(e) => write!(f, "batch rolled back: {e}"),
            ApplyError::Incomplete(status) => write!(
                f,
                "model is {status}, not complete: a partial model cannot be maintained"
            ),
        }
    }
}

impl std::error::Error for ApplyError {}

/// What one [`ResidentModel::apply_ops`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// EDB tuples newly inserted (not subsumed by the existing relation).
    pub applied: u64,
    /// EDB tuples already covered by the relation — idempotent re-sends.
    pub duplicates: u64,
    /// Stored EDB tuples removed by retract operations.
    pub retracted: u64,
    /// Retract operations that matched no stored tuple (no-ops).
    pub retract_noops: u64,
    /// IDB tuples inserted by insert-only delta propagation.
    pub derived_inserted: u64,
    /// IDB tuples removed by the DRed over-delete phase.
    pub overdeleted: u64,
    /// IDB tuples re-inserted by the DRed re-derive phase.
    pub rederived: u64,
    /// Whether the over-delete used the provenance cone (`true`) or the
    /// per-stratum wipe fallback (`false`; also `false` when no
    /// retraction reached the IDB).
    pub dred_cone: bool,
    /// Strata whose fixpoint was re-entered.
    pub strata_touched: usize,
    /// Semi-naive iterations run across all touched strata.
    pub iterations: u64,
    /// Whether the batch degraded to one full re-evaluation (insert-path
    /// negation fallback, or the `*_full_reeval` oracle twins).
    pub full_reeval: bool,
}

/// Lifetime counters for a resident model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Batches applied successfully.
    pub applies: u64,
    /// Total EDB tuples newly inserted.
    pub facts_applied: u64,
    /// Total EDB tuples subsumed as duplicates.
    pub facts_duplicate: u64,
    /// Total stored EDB tuples removed by retractions.
    pub facts_retracted: u64,
    /// Total IDB tuples inserted by insert-path propagation.
    pub derived_inserted: u64,
    /// Total IDB tuples removed by DRed over-deletes.
    pub retraction_overdeleted: u64,
    /// Total IDB tuples re-inserted by DRed re-derives.
    pub retraction_rederived: u64,
    /// Applies that degraded to a full re-evaluation.
    pub full_reevals: u64,
    /// Batches that failed mid-flight and were rolled back.
    pub rollbacks: u64,
}

/// The error a batch rolls back with when its maintenance or
/// re-evaluation run did not converge: the governor's trip, or divergence
/// under the free-extension grace rule.
fn converged(outcome: EvalOutcome) -> Result<()> {
    match outcome {
        EvalOutcome::Converged { .. } => Ok(()),
        EvalOutcome::Interrupted(i) => Err(Error::Interrupted(i.reason)),
        EvalOutcome::DivergedAfterFeSafety {
            fe_safe_at,
            iterations,
        } => Err(Error::Eval(format!(
            "maintenance diverged: no new free extension since iteration {fe_safe_at} \
             ({iterations} iterations)"
        ))),
    }
}

/// How to restore one EDB relation if the batch rolls back.
enum Undo {
    /// The batch created the relation: remove it entirely.
    Created,
    /// Only asserts touched it (append-only): truncate to the old length.
    Truncate(usize),
    /// A retract touched it: restore the full pre-batch clone.
    Restore(GeneralizedRelation),
}

/// Records the rollback action for `pred` before its first mutation.
fn record_undo(
    edb: &Database,
    undos: &mut BTreeMap<String, Undo>,
    pred: &str,
    retract_preds: &BTreeSet<String>,
) {
    if undos.contains_key(pred) {
        return;
    }
    let undo = match edb.get(pred) {
        None => Undo::Created,
        Some(rel) if retract_preds.contains(pred) => Undo::Restore(rel.clone()),
        Some(rel) => Undo::Truncate(rel.tuples().len()),
    };
    undos.insert(pred.to_string(), undo);
}

/// A governed evaluation kept resident: answered by lookup and, when it
/// converged, maintained incrementally under fact ingestion and
/// retraction. See the module docs for the invariants.
#[derive(Debug, Clone)]
pub struct ResidentModel {
    program: Program,
    info: ProgramInfo,
    clauses: Vec<NormClause>,
    rule_labels: Vec<String>,
    program_hash: u128,
    edb: Database,
    idb: BTreeMap<String, GeneralizedRelation>,
    opts: EvalOptions,
    /// How the evaluation behind `idb` ended; anything but `Complete`
    /// means `idb` is a sound partial model and writes are refused.
    status: QueryStatus,
    stats: ResidentStats,
    /// Insertion-ordered derivation log (every source of a derivation
    /// precedes it): the provenance cone DRed consults. Complete only
    /// while [`Self::provenance_complete`] holds.
    derivations: Vec<Derivation>,
    /// True when `derivations` records every IDB insertion since the
    /// model's birth (provenance on, coalesce off, and no restore from a
    /// provenance-free snapshot) — the precondition for cone-mode DRed.
    provenance_complete: bool,
}

impl ResidentModel {
    /// Evaluates the workload once, under the governor `opts` describe,
    /// and keeps the result resident. A workload that diverges or trips
    /// its governor still yields a model: it holds the sound partial
    /// model, reports the outcome through [`Self::status`], and refuses
    /// writes.
    pub fn new(program: Program, edb: Database, opts: EvalOptions) -> Result<Self> {
        let eval = evaluate_with(&program, &edb, &opts)?;
        Self::from_evaluation(program, edb, opts, eval)
    }

    /// [`Self::new`] over an evaluation the caller already ran with
    /// `opts` (so it can read the evaluation's statistics first).
    pub(crate) fn from_evaluation(
        program: Program,
        edb: Database,
        opts: EvalOptions,
        eval: Evaluation,
    ) -> Result<Self> {
        let status = QueryStatus::from(&eval.outcome);
        Self::assemble(program, edb, eval.idb, opts, eval.derivations, true, status)
    }

    fn assemble(
        program: Program,
        edb: Database,
        idb: BTreeMap<String, GeneralizedRelation>,
        opts: EvalOptions,
        derivations: Vec<Derivation>,
        provenance_flag: bool,
        status: QueryStatus,
    ) -> Result<Self> {
        let info = analyze(&program)?;
        let all_clauses = normalize_program(&program)?;
        let program_hash = hash_program(&all_clauses);
        let clauses: Vec<NormClause> = all_clauses.into_iter().filter(|c| !c.dead).collect();
        let rule_labels = rule_labels(&program);
        let provenance_complete = provenance_flag && opts.provenance && !opts.coalesce;
        Ok(ResidentModel {
            program,
            info,
            clauses,
            rule_labels,
            program_hash,
            edb,
            idb,
            opts,
            status,
            stats: ResidentStats::default(),
            derivations,
            provenance_complete,
        })
    }

    /// How the evaluation behind this model ended. Only a `Complete`
    /// model accepts [`Self::apply_ops`].
    pub fn status(&self) -> &QueryStatus {
        &self.status
    }

    /// Answers one query pattern by lookup: the pattern's relation (IDB
    /// first, then EDB) is queried with this model's residue budget, and
    /// the answers carry the model's status. No evaluation happens here,
    /// so the response's `stats` are all zero.
    pub fn answer(&self, atom: &Atom) -> Result<QueryResponse> {
        let rel = self.relation(&atom.pred).ok_or_else(|| {
            Error::Eval(format!(
                "unknown predicate `{}` (neither derived nor extensional)",
                atom.pred
            ))
        })?;
        let answers = query(rel, atom, self.opts.residue_budget)?
            .tuples()
            .iter()
            .map(|t| t.to_string())
            .collect();
        Ok(QueryResponse {
            pred: atom.pred.clone(),
            status: self.status.clone(),
            answers,
            stats: EvalStats::default(),
            request_id: None,
        })
    }

    /// The workload program this model maintains.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The current extensional database (grown and shrunk by ingestion).
    pub fn edb(&self) -> &Database {
        &self.edb
    }

    /// The maintained intensional relations.
    pub fn idb(&self) -> &BTreeMap<String, GeneralizedRelation> {
        &self.idb
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ResidentStats {
        self.stats
    }

    /// The insertion-ordered derivation log (empty unless provenance
    /// recording is on).
    pub fn derivations(&self) -> &[Derivation] {
        &self.derivations
    }

    /// True when retractions can use provenance-cone over-deletion (see
    /// the field docs); false means the per-stratum wipe fallback.
    pub fn provenance_complete(&self) -> bool {
        self.provenance_complete
    }

    /// The relation answering queries for `pred`: maintained IDB first,
    /// raw EDB otherwise.
    pub fn relation(&self, pred: &str) -> Option<&GeneralizedRelation> {
        self.idb.get(pred).or_else(|| self.edb.get(pred))
    }

    /// Validates one asserted fact against the program's signatures and
    /// the current EDB. Intensional predicates cannot be ingested.
    fn check_fact(&self, fact: &Fact) -> Result<()> {
        if self.info.intensional.contains(&fact.pred) {
            return Err(Error::Eval(format!(
                "cannot ingest facts for intensional predicate `{}` (derived by rules)",
                fact.pred
            )));
        }
        let schema = Schema::new(fact.tuple.temporal_arity(), fact.tuple.data_arity());
        if let Some(expected) = self.info.signatures.get(&fact.pred) {
            if *expected != schema {
                return Err(Error::SchemaMismatch(format!(
                    "fact for `{}` has schema {schema} but the program uses {expected}",
                    fact.pred
                )));
            }
        } else if let Some(rel) = self.edb.get(&fact.pred) {
            if rel.schema() != schema {
                return Err(Error::SchemaMismatch(format!(
                    "fact for `{}` has schema {schema} but the relation holds {}",
                    fact.pred,
                    rel.schema()
                )));
            }
        }
        Ok(())
    }

    /// Validates one retraction. `batch_created` holds predicates (and
    /// schemas) introduced by earlier asserts of the same batch, so
    /// assert-then-retract of a brand-new predicate is well-formed.
    fn check_retract(&self, fact: &Fact, batch_created: &BTreeMap<String, Schema>) -> Result<()> {
        if self.info.intensional.contains(&fact.pred) {
            return Err(Error::Eval(format!(
                "cannot retract intensional predicate `{}` (derived by rules; \
                 retract its extensional sources instead)",
                fact.pred
            )));
        }
        let schema = Schema::new(fact.tuple.temporal_arity(), fact.tuple.data_arity());
        let known = self
            .info
            .signatures
            .get(&fact.pred)
            .copied()
            .or_else(|| self.edb.get(&fact.pred).map(|r| r.schema()))
            .or_else(|| batch_created.get(&fact.pred).copied());
        match known {
            None => Err(Error::Eval(format!(
                "cannot retract from unknown predicate `{}`",
                fact.pred
            ))),
            Some(expected) if expected != schema => Err(Error::SchemaMismatch(format!(
                "retraction for `{}` has schema {schema} but the relation holds {expected}",
                fact.pred
            ))),
            Some(_) => Ok(()),
        }
    }

    /// Predicates whose extension may change when `changed` changes:
    /// transitive closure of the dependency graph, upward. The analysis
    /// dependency edges include negated body atoms, so the closure is an
    /// over-approximation for retraction too.
    fn affected_preds(&self, changed: &BTreeSet<String>) -> BTreeSet<String> {
        let mut affected = changed.clone();
        loop {
            let before = affected.len();
            for (head, dep) in &self.info.dependencies {
                if affected.contains(dep) {
                    affected.insert(head.clone());
                }
            }
            if affected.len() == before {
                return affected;
            }
        }
    }

    /// Does any clause with an affected head negate an affected
    /// predicate? If so, delta insertion (and provenance-cone deletion)
    /// is unsound inside the affected region.
    fn negation_over(&self, affected: &BTreeSet<String>) -> bool {
        self.clauses.iter().any(|c| {
            affected.contains(&c.head_pred) && c.neg_body.iter().any(|a| affected.contains(&a.pred))
        })
    }

    /// Applies one batch of assert/retract operations incrementally.
    /// Transactional: on [`ApplyError::RolledBack`] the model is the
    /// exact pre-batch state. [`Self::apply_ops_full_reeval`] is the
    /// oracle twin.
    pub fn apply_ops(&mut self, ops: &[Op]) -> std::result::Result<ApplyOutcome, ApplyError> {
        self.apply_ops_inner(ops, false)
    }

    /// The oracle twin: same EDB walk and accounting, then a full
    /// re-evaluation replaces the maintained IDB wholesale.
    pub fn apply_ops_full_reeval(
        &mut self,
        ops: &[Op],
    ) -> std::result::Result<ApplyOutcome, ApplyError> {
        self.apply_ops_inner(ops, true)
    }

    fn apply_ops_inner(
        &mut self,
        ops: &[Op],
        force_full: bool,
    ) -> std::result::Result<ApplyOutcome, ApplyError> {
        if self.status != QueryStatus::Complete {
            return Err(ApplyError::Incomplete(self.status.clone()));
        }
        // Phase 1: validate everything up front — an invalid batch must
        // leave the model untouched.
        let mut batch_created: BTreeMap<String, Schema> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Assert(f) => {
                    self.check_fact(f).map_err(ApplyError::Invalid)?;
                    let schema = Schema::new(f.tuple.temporal_arity(), f.tuple.data_arity());
                    if !self.info.signatures.contains_key(&f.pred)
                        && self.edb.get(&f.pred).is_none()
                    {
                        batch_created.entry(f.pred.clone()).or_insert(schema);
                    }
                }
                Op::Retract(f) => {
                    self.check_retract(f, &batch_created)
                        .map_err(ApplyError::Invalid)?;
                }
            }
        }
        let retract_preds: BTreeSet<String> = ops
            .iter()
            .filter(|o| o.is_retract())
            .map(|o| o.fact().pred.clone())
            .collect();

        // Phase 2: walk the operations over the EDB in order, recording
        // per-relation undo actions before the first mutation.
        let mut out = ApplyOutcome::default();
        let mut undos: BTreeMap<String, Undo> = BTreeMap::new();
        let mut insert_delta: BTreeMap<String, GeneralizedRelation> = BTreeMap::new();
        let mut retract_seed: BTreeMap<String, Vec<GeneralizedTuple>> = BTreeMap::new();
        if let Err(e) = self.walk_ops(
            ops,
            &retract_preds,
            &mut undos,
            &mut insert_delta,
            &mut retract_seed,
            &mut out,
        ) {
            self.rollback_edb(undos);
            self.stats.rollbacks += 1;
            return Err(ApplyError::RolledBack(e));
        }

        // Phase 3: derivation maintenance, with IDB + provenance
        // snapshots so a mid-flight failure rolls everything back.
        let changed: BTreeSet<String> = insert_delta
            .keys()
            .chain(retract_seed.keys())
            .cloned()
            .collect();
        let affected = self.affected_preds(&changed);
        let touches_idb = affected.iter().any(|p| self.info.intensional.contains(p));
        if !changed.is_empty() && touches_idb {
            let idb_snapshot: BTreeMap<String, GeneralizedRelation> = affected
                .iter()
                .filter(|p| self.info.intensional.contains(*p))
                .filter_map(|p| self.idb.get(p).map(|r| (p.clone(), r.clone())))
                .collect();
            let deriv_snapshot = self.derivations.clone();
            // Every budget of the options applies to this batch alone.
            let governor = Governor::new(self.opts.governor_config());
            let result = if force_full || (retract_seed.is_empty() && self.negation_over(&affected))
            {
                self.recover_full(&governor, &mut out)
            } else if retract_seed.is_empty() {
                self.maintain(&governor, Some(insert_delta), &affected, &mut out)
            } else {
                out.dred_cone = self.over_delete(&retract_seed, &affected, &mut out);
                self.maintain(&governor, None, &affected, &mut out)
            };
            if let Err(e) = result {
                for (pred, rel) in idb_snapshot {
                    self.idb.insert(pred, rel);
                }
                self.derivations = deriv_snapshot;
                self.rollback_edb(undos);
                self.stats.rollbacks += 1;
                return Err(ApplyError::RolledBack(e));
            }
        }

        self.stats.applies += 1;
        self.stats.facts_applied += out.applied;
        self.stats.facts_duplicate += out.duplicates;
        self.stats.facts_retracted += out.retracted;
        self.stats.derived_inserted += out.derived_inserted;
        self.stats.retraction_overdeleted += out.overdeleted;
        self.stats.retraction_rederived += out.rederived;
        self.stats.full_reevals += u64::from(out.full_reeval);
        Ok(out)
    }

    /// Applies the operations to the EDB in order: asserts insert with
    /// subsumption; retracts remove stored tuples subsumed by the
    /// retracted tuple. Fills the insert delta (for propagation) and the
    /// retract seed (for DRed).
    fn walk_ops(
        &mut self,
        ops: &[Op],
        retract_preds: &BTreeSet<String>,
        undos: &mut BTreeMap<String, Undo>,
        insert_delta: &mut BTreeMap<String, GeneralizedRelation>,
        retract_seed: &mut BTreeMap<String, Vec<GeneralizedTuple>>,
        out: &mut ApplyOutcome,
    ) -> Result<()> {
        for op in ops {
            match op {
                Op::Assert(f) => {
                    let Some(tuple) = f.tuple.canonical() else {
                        // Empty zone: denotes no ground facts at all.
                        out.duplicates += 1;
                        continue;
                    };
                    let schema = Schema::new(tuple.temporal_arity(), tuple.data_arity());
                    record_undo(&self.edb, undos, &f.pred, retract_preds);
                    if self.edb.get(&f.pred).is_none() {
                        self.edb
                            .insert(f.pred.clone(), GeneralizedRelation::empty(schema));
                    }
                    let rel = self.edb.get_mut(&f.pred).ok_or_else(|| {
                        Error::Eval(format!("internal: EDB relation `{}` vanished", f.pred))
                    })?;
                    let new = if self.opts.use_index {
                        rel.insert_if_new(tuple.clone(), self.opts.residue_budget)?
                    } else {
                        rel.insert_if_new_naive(tuple.clone(), self.opts.residue_budget)?
                    };
                    if new {
                        out.applied += 1;
                        insert_delta
                            .entry(f.pred.clone())
                            .or_insert_with(|| GeneralizedRelation::empty(schema))
                            .insert(tuple)?;
                    } else {
                        out.duplicates += 1;
                    }
                }
                Op::Retract(f) => {
                    let Some(tuple) = f.tuple.canonical() else {
                        out.retract_noops += 1;
                        continue;
                    };
                    let Some(rel) = self.edb.get(&f.pred) else {
                        out.retract_noops += 1;
                        continue;
                    };
                    if rel.is_empty() {
                        out.retract_noops += 1;
                        continue;
                    }
                    record_undo(&self.edb, undos, &f.pred, retract_preds);
                    let rel = self.edb.get_mut(&f.pred).ok_or_else(|| {
                        Error::Eval(format!("internal: EDB relation `{}` vanished", f.pred))
                    })?;
                    let removed = rel.remove_subsumed_by(&tuple, self.opts.residue_budget)?;
                    if removed.is_empty() {
                        out.retract_noops += 1;
                    } else {
                        out.retracted += removed.len() as u64;
                        // Same-batch assert-then-retract: the retracted
                        // tuples must not seed the insert frontier.
                        if let Some(delta) = insert_delta.get_mut(&f.pred) {
                            let _ = delta.remove_subsumed_by(&tuple, self.opts.residue_budget)?;
                            if delta.is_empty() {
                                insert_delta.remove(&f.pred);
                            }
                        }
                        retract_seed
                            .entry(f.pred.clone())
                            .or_default()
                            .extend(removed);
                    }
                }
            }
        }
        Ok(())
    }

    /// Restores every EDB relation the failed batch touched.
    fn rollback_edb(&mut self, undos: BTreeMap<String, Undo>) {
        for (pred, undo) in undos {
            match undo {
                Undo::Created => {
                    self.edb.remove(&pred);
                }
                Undo::Truncate(len) => {
                    if let Some(rel) = self.edb.get_mut(&pred) {
                        rel.truncate(len);
                    }
                }
                Undo::Restore(rel) => {
                    self.edb.insert(pred, rel);
                }
            }
        }
    }

    /// DRed phase 1: over-delete. Returns `true` when the provenance
    /// cone was used, `false` for the per-stratum wipe fallback.
    fn over_delete(
        &mut self,
        retract_seed: &BTreeMap<String, Vec<GeneralizedTuple>>,
        affected: &BTreeSet<String>,
        out: &mut ApplyOutcome,
    ) -> bool {
        let cone = self.provenance_complete && !self.negation_over(affected);
        if cone {
            // Dead-set fixpoint in one forward pass: the derivation log
            // is insertion-ordered (sources precede heads), so a single
            // sweep computes the transitive cone of the retracted EDB
            // tuples.
            let mut dead: BTreeMap<String, HashSet<GeneralizedTuple>> = BTreeMap::new();
            for (pred, tuples) in retract_seed {
                dead.entry(pred.clone())
                    .or_default()
                    .extend(tuples.iter().cloned());
            }
            for d in &self.derivations {
                let head_dead = dead.get(&d.pred).is_some_and(|s| s.contains(&d.tuple));
                let src_dead = d
                    .sources
                    .iter()
                    .any(|(p, t)| dead.get(p).is_some_and(|s| s.contains(t)));
                if !head_dead && src_dead {
                    dead.entry(d.pred.clone())
                        .or_default()
                        .insert(d.tuple.clone());
                }
            }
            for pred in affected {
                if !self.info.intensional.contains(pred) {
                    continue;
                }
                let Some(set) = dead.get(pred) else { continue };
                if set.is_empty() {
                    continue;
                }
                if let Some(rel) = self.idb.get_mut(pred) {
                    let removed = rel.remove_where(|t| !set.contains(t));
                    out.overdeleted += removed.len() as u64;
                }
            }
            // Drop every derivation record killed by the over-delete; the
            // re-derive pass records fresh ones for survivors it re-fires.
            self.derivations.retain(|d| {
                !(dead.get(&d.pred).is_some_and(|s| s.contains(&d.tuple))
                    || d.sources
                        .iter()
                        .any(|(p, t)| dead.get(p).is_some_and(|s| s.contains(t))))
            });
        } else {
            // Wipe fallback: clear every affected intensional relation
            // and its derivation records; sound under stratified negation
            // because re-derivation runs bottom-up per stratum.
            for pred in affected {
                if !self.info.intensional.contains(pred) {
                    continue;
                }
                if let Some(rel) = self.idb.get_mut(pred) {
                    out.overdeleted += rel.tuples().len() as u64;
                    *rel = GeneralizedRelation::empty(rel.schema());
                }
            }
            self.derivations.retain(|d| !affected.contains(&d.pred));
        }
        cone
    }

    /// Re-enters the engine's semi-naive loop ([`Fixpoint`]) over the
    /// affected strata, on the maintained IDB and under the batch's
    /// governor. Insert propagation passes the batch's EDB delta as the
    /// seed; the DRed re-derive passes none, so each affected stratum's
    /// first iteration fires its affected clauses fully against the
    /// post-over-delete relations. Either way the run starts from a subset
    /// of the new fixpoint and converges exactly onto it; a trip or a
    /// divergence surfaces as the error the batch rolls back with.
    fn maintain(
        &mut self,
        governor: &Arc<Governor>,
        seed: Option<BTreeMap<String, GeneralizedRelation>>,
        affected: &BTreeSet<String>,
        out: &mut ApplyOutcome,
    ) -> Result<()> {
        let _scope = governor.enter();
        let rederive = seed.is_none();
        let fixpoint = Fixpoint {
            info: &self.info,
            clauses: &self.clauses,
            rule_labels: &self.rule_labels,
            edb: &self.edb,
            opts: &self.opts,
            governor,
            hashes: None,
        };
        let mut st = RunState::default();
        let outcome = fixpoint.run(&mut self.idb, &mut st, seed, Some(affected), None)?;
        out.strata_touched += st.stats.strata.len();
        out.iterations += st.iteration as u64;
        if rederive {
            out.rederived += st.stats.tuples_inserted;
        } else {
            out.derived_inserted += st.stats.tuples_inserted;
        }
        converged(outcome)?;
        self.derivations.extend(st.derivations);
        Ok(())
    }

    /// Replaces the IDB (and the derivation log) with a fresh full
    /// evaluation of the already-updated EDB, under the batch's governor.
    fn recover_full(&mut self, governor: &Arc<Governor>, out: &mut ApplyOutcome) -> Result<()> {
        out.full_reeval = true;
        out.derived_inserted = 0;
        let eval = evaluate_governed(&self.program, &self.edb, &self.opts, governor)?;
        converged(eval.outcome)?;
        self.idb = eval.idb;
        self.derivations = eval.derivations;
        // A from-scratch evaluation re-establishes complete provenance
        // (when recording is on at all).
        self.provenance_complete = self.opts.provenance && !self.opts.coalesce;
        Ok(())
    }

    /// The model's image as store sections (tags 21–24, see
    /// [`ResidentImage`]), stamped with the WAL sequence it is current
    /// through — the checkpoint half of the checkpoint+WAL pairing. The
    /// image carries the derivation log, so later retractions use the same
    /// over-delete mode after a restore as in the uninterrupted run.
    pub fn snapshot_sections(&self, applied_seq: u64) -> Vec<Section> {
        ResidentImage {
            program_hash: self.program_hash,
            applied_seq,
            edb: Cow::Borrowed(self.edb.relations()),
            idb: Cow::Borrowed(&self.idb),
            provenance_complete: self.provenance_complete,
            derivations: Cow::Borrowed(&self.derivations),
        }
        .encode()
    }

    /// Restores a resident model from [`Self::snapshot_sections`] output:
    /// [`ResidentImage::decode`], then [`Self::restore`].
    pub fn restore_from_sections(
        program: Program,
        opts: EvalOptions,
        sections: &[Section],
    ) -> Result<(Self, u64)> {
        Self::restore(program, opts, ResidentImage::decode(sections)?)
    }

    /// Rebuilds a resident model from a decoded image. The program must
    /// hash-match the image (an image is only valid for the workload that
    /// wrote it). Returns the model and the WAL sequence it is current
    /// through — replay starts after it. An image without provenance
    /// restores fine; retractions then use the wipe fallback until a full
    /// re-evaluation re-establishes complete provenance.
    pub fn restore(
        program: Program,
        opts: EvalOptions,
        image: ResidentImage<'_>,
    ) -> Result<(Self, u64)> {
        if image.program_hash != hash_program(&normalize_program(&program)?) {
            return Err(Error::Eval(
                "resident snapshot was written by a different workload program".to_string(),
            ));
        }
        // Only complete models are maintained, hence only they are
        // snapshotted: a restored model is complete.
        let model = Self::assemble(
            program,
            Database::from_relations(image.edb.into_owned()),
            image.idb.into_owned(),
            opts,
            image.derivations.into_owned(),
            image.provenance_complete,
            QueryStatus::Complete,
        )?;
        Ok((model, image.applied_seq))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use itdb_lrp::parser::parse_tuple;
    use itdb_lrp::{CancelToken, TripReason};

    const PROGRAM: &str = "\
        problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).
        problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).";

    fn model() -> ResidentModel {
        model_with(EvalOptions::default())
    }

    fn model_with(opts: EvalOptions) -> ResidentModel {
        let program = parse_program(PROGRAM).unwrap();
        let mut edb = Database::new();
        edb.insert_parsed("course", "(168n+8, 168n+10; database) : T2 = T1 + 2")
            .unwrap();
        ResidentModel::new(program, edb, opts).unwrap()
    }

    fn prov_opts() -> EvalOptions {
        EvalOptions {
            provenance: true,
            ..EvalOptions::default()
        }
    }

    fn fact(pred: &str, text: &str) -> Fact {
        Fact {
            pred: pred.to_string(),
            tuple: parse_tuple(text).unwrap(),
        }
    }

    fn assert_op(pred: &str, text: &str) -> Op {
        Op::Assert(fact(pred, text))
    }

    fn retract_op(pred: &str, text: &str) -> Op {
        Op::Retract(fact(pred, text))
    }

    /// Asserts that every IDB relation of `a` is semantically equivalent
    /// to the corresponding relation of `b`.
    fn assert_equivalent(a: &ResidentModel, b: &ResidentModel, ctx: &str) {
        for (pred, rel) in a.idb() {
            assert!(
                rel.equivalent(&b.idb()[pred], 100_000).unwrap(),
                "{ctx}: {pred} differs"
            );
        }
    }

    #[test]
    fn incremental_apply_matches_full_reeval() {
        let mut inc = model();
        let mut full = model();
        let batch = vec![assert_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let a = inc.apply_ops(&batch).unwrap();
        let b = full.apply_ops_full_reeval(&batch).unwrap();
        assert_eq!(a.applied, 1);
        assert_eq!(b.applied, 1);
        assert!(!a.full_reeval, "positive program propagates incrementally");
        assert_equivalent(&inc, &full, "incremental vs full re-eval");
    }

    #[test]
    fn duplicate_batch_is_idempotent() {
        let mut m = model();
        let batch = vec![assert_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let first = m.apply_ops(&batch).unwrap();
        assert_eq!((first.applied, first.duplicates), (1, 0));
        let before = m.idb().clone();
        let second = m.apply_ops(&batch).unwrap();
        assert_eq!((second.applied, second.duplicates), (0, 1));
        assert_eq!(second.derived_inserted, 0, "no re-derivation");
        for (pred, rel) in m.idb() {
            assert_eq!(
                rel.tuples(),
                before[pred].tuples(),
                "idempotent replay is byte-identical"
            );
        }
    }

    #[test]
    fn intensional_facts_are_rejected() {
        let mut m = model();
        let err = m
            .apply_ops(&[assert_op(
                "problems",
                "(168n+10, 168n+12; database) : T2 = T1 + 2",
            )])
            .unwrap_err();
        assert!(err.to_string().contains("intensional"), "{err}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut m = model();
        let err = m.apply_ops(&[assert_op("course", "(5n+1)")]).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn negation_over_changed_pred_falls_back_to_full_reeval() {
        let program = parse_program(
            "lit[t](C) <- candidate[t](C), !blocked[t](C).
             blocked[t](C) <- veto[t](C).",
        )
        .unwrap();
        let mut edb = Database::new();
        edb.insert_parsed("candidate", "(7n+1; a)").unwrap();
        edb.insert_parsed("veto", "(14n+1; a)").unwrap();
        let mut m =
            ResidentModel::new(program.clone(), edb.clone(), EvalOptions::default()).unwrap();
        let out = m.apply_ops(&[assert_op("veto", "(14n+8; a)")]).unwrap();
        assert!(out.full_reeval, "negation over changed pred must fall back");
        // Oracle: full evaluation over the updated EDB.
        let mut edb2 = edb;
        let mut veto = edb2.get("veto").unwrap().clone();
        veto.insert(parse_tuple("(14n+8; a)").unwrap()).unwrap();
        edb2.insert("veto", veto);
        let oracle = evaluate_with(&program, &edb2, &EvalOptions::default()).unwrap();
        for (pred, rel) in m.idb() {
            assert!(
                rel.equivalent(&oracle.idb[pred], 100_000).unwrap(),
                "{pred} differs from oracle after fallback"
            );
        }
    }

    #[test]
    fn new_pure_edb_predicate_is_queryable() {
        let mut m = model();
        let out = m.apply_ops(&[assert_op("audit", "(24n+3; ops)")]).unwrap();
        assert_eq!(out.applied, 1);
        assert_eq!(out.strata_touched, 0, "no rules reference audit");
        assert!(m.relation("audit").is_some());
    }

    #[test]
    fn snapshot_round_trips_and_replay_is_byte_identical() {
        let mut uninterrupted = model();
        let b1 = vec![assert_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let b2 = vec![assert_op(
            "course",
            "(168n+50, 168n+52; logic) : T2 = T1 + 2",
        )];
        uninterrupted.apply_ops(&b1).unwrap();
        // Snapshot mid-stream (as if compaction ran here at WAL seq 1).
        let sections = uninterrupted.snapshot_sections(1);
        uninterrupted.apply_ops(&b2).unwrap();

        let program = parse_program(PROGRAM).unwrap();
        let (mut restored, seq) =
            ResidentModel::restore_from_sections(program, EvalOptions::default(), &sections)
                .unwrap();
        assert_eq!(seq, 1);
        restored.apply_ops(&b2).unwrap(); // replay everything after seq 1
        for (pred, rel) in uninterrupted.idb() {
            assert_eq!(
                rel.tuples(),
                restored.idb()[pred].tuples(),
                "{pred}: restore+replay must be byte-identical to uninterrupted"
            );
        }
        for (pred, rel) in uninterrupted.edb().iter() {
            assert_eq!(rel.tuples(), restored.edb().get(pred).unwrap().tuples());
        }
    }

    #[test]
    fn snapshot_refuses_other_program() {
        let m = model();
        let sections = m.snapshot_sections(0);
        let other = parse_program("p[t] <- q[t].").unwrap();
        let err = ResidentModel::restore_from_sections(other, EvalOptions::default(), &sections)
            .unwrap_err();
        assert!(err.to_string().contains("different workload"), "{err}");
    }

    // ---- retraction ----

    /// Cone mode (provenance on): retract matches the full-reeval oracle,
    /// and two incremental twins are byte-identical (determinism).
    #[test]
    fn retract_matches_oracle_cone_mode() {
        let ops1 = vec![assert_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let ops2 = vec![retract_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let mut inc = model_with(prov_opts());
        let mut twin = model_with(prov_opts());
        let mut oracle = model_with(prov_opts());
        for ops in [&ops1, &ops2] {
            inc.apply_ops(ops).unwrap();
            twin.apply_ops(ops).unwrap();
            oracle.apply_ops_full_reeval(ops).unwrap();
        }
        assert!(inc.provenance_complete(), "provenance stays complete");
        assert_equivalent(&inc, &oracle, "cone retract vs oracle");
        for (pred, rel) in inc.idb() {
            assert_eq!(rel.tuples(), twin.idb()[pred].tuples(), "{pred}: twins");
        }
        let out = {
            let mut m = model_with(prov_opts());
            m.apply_ops(&ops1).unwrap();
            m.apply_ops(&ops2).unwrap()
        };
        assert!(out.dred_cone, "provenance-complete model uses the cone");
        assert!(out.retracted >= 1);
        assert!(out.overdeleted >= 1, "consequences over-deleted");
    }

    /// Wipe mode (provenance off): same semantics through the fallback.
    #[test]
    fn retract_matches_oracle_wipe_mode() {
        let ops1 = vec![assert_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let ops2 = vec![retract_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let mut inc = model();
        let mut oracle = model();
        let mut cone = model_with(prov_opts());
        inc.apply_ops(&ops1).unwrap();
        oracle.apply_ops_full_reeval(&ops1).unwrap();
        cone.apply_ops(&ops1).unwrap();
        let out = inc.apply_ops(&ops2).unwrap();
        assert!(!out.dred_cone, "no provenance: wipe fallback");
        oracle.apply_ops_full_reeval(&ops2).unwrap();
        cone.apply_ops(&ops2).unwrap();
        assert_equivalent(&inc, &oracle, "wipe retract vs oracle");
        assert_equivalent(&inc, &cone, "wipe vs cone agreement");
    }

    /// Retraction through stratified negation *grows* a predicate; the
    /// wipe fallback rebuilds lower strata first, so the result matches
    /// the oracle without a whole-model full re-evaluation.
    #[test]
    fn retract_through_negation_regrows_correctly() {
        let program = parse_program(
            "lit[t](C) <- candidate[t](C), !blocked[t](C).
             blocked[t](C) <- veto[t](C).",
        )
        .unwrap();
        let mut edb = Database::new();
        edb.insert_parsed("candidate", "(7n+1; a)").unwrap();
        edb.insert_parsed("veto", "(14n+1; a)").unwrap();
        let mut inc = ResidentModel::new(program.clone(), edb.clone(), prov_opts()).unwrap();
        let mut oracle = ResidentModel::new(program, edb, prov_opts()).unwrap();
        let ops = vec![retract_op("veto", "(14n+1; a)")];
        let out = inc.apply_ops(&ops).unwrap();
        assert!(
            !out.dred_cone,
            "negation inside the affected region forbids the cone"
        );
        oracle.apply_ops_full_reeval(&ops).unwrap();
        assert_equivalent(&inc, &oracle, "negation regrow vs oracle");
        // lit must now cover every candidate instant (veto is empty).
        let lit = inc.idb().get("lit").unwrap();
        let cand = inc.edb().get("candidate").unwrap();
        assert!(lit.equivalent(cand, 100_000).unwrap(), "lit == candidate");
    }

    /// Retracting content folded inside a strictly broader stored tuple
    /// is a representation-level no-op (module invariant 4).
    #[test]
    fn retract_of_folded_content_is_noop() {
        let mut m = model_with(prov_opts());
        // (168n+8, 168n+10) is stored as one broad tuple; retracting the
        // strictly narrower every-other-week subset does not carve it out.
        let out = m
            .apply_ops(&[retract_op(
                "course",
                "(336n+8, 336n+10; database) : T2 = T1 + 2",
            )])
            .unwrap();
        assert_eq!(out.retracted, 0);
        assert_eq!(out.retract_noops, 1);
        assert_eq!(out.overdeleted, 0, "no IDB churn on a no-op retract");
    }

    #[test]
    fn retract_unknown_and_intensional_are_invalid() {
        let mut m = model_with(prov_opts());
        let before = m.stats();
        let err = m
            .apply_ops(&[retract_op("nonexistent", "(5n+1; x)")])
            .unwrap_err();
        assert!(matches!(err, ApplyError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("unknown predicate"), "{err}");
        let err = m
            .apply_ops(&[retract_op(
                "problems",
                "(168n+10, 168n+12; database) : T2 = T1 + 2",
            )])
            .unwrap_err();
        assert!(matches!(err, ApplyError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("intensional"), "{err}");
        assert_eq!(
            m.stats(),
            before,
            "invalid batches leave the model untouched"
        );
    }

    /// Assert-then-retract of the same tuple in one batch nets out; the
    /// model ends equivalent to never having seen the tuple.
    #[test]
    fn assert_then_retract_in_one_batch_nets_out() {
        let mut m = model_with(prov_opts());
        let reference = model_with(prov_opts());
        let out = m
            .apply_ops(&[
                assert_op("course", "(168n+30, 168n+32; compilers) : T2 = T1 + 2"),
                retract_op("course", "(168n+30, 168n+32; compilers) : T2 = T1 + 2"),
            ])
            .unwrap();
        assert_eq!(out.applied, 1);
        assert_eq!(out.retracted, 1);
        assert_equivalent(&m, &reference, "net-zero batch");
        // A brand-new predicate asserted and retracted in one batch is
        // also well-formed.
        let out = m
            .apply_ops(&[
                assert_op("audit", "(24n+3; ops)"),
                retract_op("audit", "(24n+3; ops)"),
            ])
            .unwrap();
        assert_eq!((out.applied, out.retracted), (1, 1));
        assert!(m.relation("audit").unwrap().is_empty());
    }

    /// A batch that trips the iteration governor mid-derivation rolls
    /// back to the exact pre-batch state and the model keeps serving —
    /// the wedged-server bugfix.
    #[test]
    fn tripped_batch_rolls_back_and_model_stays_healthy() {
        let program = parse_program(
            "p[t + 2](C) <- e[t](C).
             p[t + 48](C) <- p[t](C).
             q[t](C) <- f[t](C).",
        )
        .unwrap();
        let mut edb = Database::new();
        edb.insert("e", GeneralizedRelation::empty(Schema::new(1, 1)));
        edb.insert("f", GeneralizedRelation::empty(Schema::new(1, 1)));
        let opts = EvalOptions {
            max_iterations: 3,
            ..EvalOptions::default()
        };
        let mut m = ResidentModel::new(program, edb, opts).unwrap();
        let edb_before: Vec<(String, Vec<GeneralizedTuple>)> = m
            .edb()
            .iter()
            .map(|(p, r)| (p.to_string(), r.tuples().to_vec()))
            .collect();
        let idb_before = m.idb().clone();

        // The +48 recursion mod 168 needs ~7 iterations; the cap is 3.
        let err = m.apply_ops(&[assert_op("e", "(168n+1; x)")]).unwrap_err();
        assert!(matches!(err, ApplyError::RolledBack(_)), "{err}");
        assert_eq!(m.stats().rollbacks, 1);
        // Byte-identical rollback.
        let edb_after: Vec<(String, Vec<GeneralizedTuple>)> = m
            .edb()
            .iter()
            .map(|(p, r)| (p.to_string(), r.tuples().to_vec()))
            .collect();
        assert_eq!(edb_before, edb_after, "EDB restored exactly");
        for (pred, rel) in m.idb() {
            assert_eq!(rel.tuples(), idb_before[pred].tuples(), "{pred} restored");
        }
        // The model still applies unrelated batches — no wedge.
        let out = m.apply_ops(&[assert_op("f", "(24n+1; y)")]).unwrap();
        assert_eq!(out.applied, 1);
        assert!(!m.idb()["q"].is_empty(), "q derived after recovery");
    }

    type Stored = Vec<(String, Vec<GeneralizedTuple>)>;

    /// The EDB and IDB exactly as stored, for byte-identity checks.
    fn stored(m: &ResidentModel) -> (Stored, Stored) {
        let edb = m
            .edb()
            .iter()
            .map(|(p, r)| (p.to_string(), r.tuples().to_vec()))
            .collect();
        let idb = m
            .idb()
            .iter()
            .map(|(p, r)| (p.clone(), r.tuples().to_vec()))
            .collect();
        (edb, idb)
    }

    const COMPILERS: &str = "(168n+30, 168n+32; compilers) : T2 = T1 + 2";
    const LOGIC: &str = "(168n+50, 168n+52; logic) : T2 = T1 + 2";

    /// Maintenance spends the options' tuple fuel per batch: a batch whose
    /// propagation inserts more tuples than the fuel allows rolls back
    /// byte-identically, and batches within it apply one after another.
    #[test]
    fn propagation_past_the_tuple_fuel_rolls_back() {
        // The seed inserts 7 `problems` tuples, and so does each new course.
        let mut m = model_with(EvalOptions {
            max_derived_tuples: Some(10),
            ..prov_opts()
        });
        assert_eq!(m.status(), &QueryStatus::Complete);
        let before = stored(&m);
        let err = m
            .apply_ops(&[assert_op("course", COMPILERS), assert_op("course", LOGIC)])
            .unwrap_err();
        match err {
            ApplyError::RolledBack(Error::Interrupted(TripReason::TupleFuelExhausted {
                limit,
                ..
            })) => assert_eq!(limit, 10),
            other => panic!("expected a tuple-fuel rollback, got {other:?}"),
        }
        assert!(stored(&m) == before, "EDB and IDB restored byte for byte");
        m.apply_ops(&[assert_op("course", COMPILERS)]).unwrap();
        m.apply_ops(&[assert_op("course", LOGIC)]).unwrap();
    }

    /// Maintenance checks the options' cancellation token: once it is
    /// cancelled, assert and retract batches both roll back untouched.
    #[test]
    fn cancelled_token_rolls_back_assert_and_retract_batches() {
        let cancel = CancelToken::new();
        let mut m = model_with(EvalOptions {
            cancel: Some(cancel.clone()),
            ..prov_opts()
        });
        cancel.cancel();
        let before = stored(&m);
        let batches = [
            assert_op("course", COMPILERS),
            retract_op("course", "(168n+8, 168n+10; database) : T2 = T1 + 2"),
        ];
        for op in batches {
            match m.apply_ops(std::slice::from_ref(&op)) {
                Err(ApplyError::RolledBack(Error::Interrupted(TripReason::Cancelled))) => {}
                other => panic!("expected a cancelled rollback of {op:?}, got {other:?}"),
            }
            assert!(stored(&m) == before, "{op:?}: model restored byte for byte");
        }
        assert_eq!(m.stats().rollbacks, 2);
    }

    /// Snapshots carry the derivation log, so a restored model keeps
    /// using cone-mode DRed and replay stays byte-identical across
    /// retraction-bearing histories.
    #[test]
    fn snapshot_preserves_provenance_and_retraction_replay() {
        let mut uninterrupted = model_with(prov_opts());
        let b1 = vec![assert_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        let b2 = vec![retract_op(
            "course",
            "(168n+30, 168n+32; compilers) : T2 = T1 + 2",
        )];
        uninterrupted.apply_ops(&b1).unwrap();
        let sections = uninterrupted.snapshot_sections(1);
        let out = uninterrupted.apply_ops(&b2).unwrap();
        assert!(out.dred_cone);

        let program = parse_program(PROGRAM).unwrap();
        let (mut restored, seq) =
            ResidentModel::restore_from_sections(program.clone(), prov_opts(), &sections).unwrap();
        assert_eq!(seq, 1);
        assert!(
            restored.provenance_complete(),
            "provenance completeness survives the snapshot"
        );
        let out = restored.apply_ops(&b2).unwrap();
        assert!(out.dred_cone, "restored model replays in the same mode");
        for (pred, rel) in uninterrupted.idb() {
            assert_eq!(
                rel.tuples(),
                restored.idb()[pred].tuples(),
                "{pred}: restore+replay byte-identical across a retraction"
            );
        }
        for (pred, rel) in uninterrupted.edb().iter() {
            assert_eq!(rel.tuples(), restored.edb().get(pred).unwrap().tuples());
        }

        // A pre-retraction snapshot (no provenance section) still
        // restores; retraction then runs in wipe mode.
        let stripped: Vec<Section> = sections
            .iter()
            .filter(|s| s.tag != crate::checkpoint::SEC_RES_PROV)
            .cloned()
            .collect();
        let (mut old, _) =
            ResidentModel::restore_from_sections(program, prov_opts(), &stripped).unwrap();
        assert!(!old.provenance_complete());
        let out = old.apply_ops(&b2).unwrap();
        assert!(!out.dred_cone, "provenance-free restore wipes");
        assert_equivalent(&old, &restored, "wipe after restore vs cone");
    }

    /// Empty-zone retractions and retracts against absent relations are
    /// counted as no-ops, not errors.
    #[test]
    fn retract_noop_accounting() {
        let program = parse_program(PROGRAM).unwrap();
        let mut edb = Database::new();
        edb.insert_parsed("course", "(168n+8, 168n+10; database) : T2 = T1 + 2")
            .unwrap();
        edb.insert("extra", GeneralizedRelation::empty(Schema::new(1, 1)));
        let mut m = ResidentModel::new(program, edb, prov_opts()).unwrap();
        let out = m.apply_ops(&[retract_op("extra", "(5n+1; x)")]).unwrap();
        assert_eq!((out.retracted, out.retract_noops), (0, 1));
    }

    // ---- reads ----

    /// A workload that does not converge still materialises: the model
    /// holds the sound partial model, every answer reports the status,
    /// and writes are refused without touching anything.
    #[test]
    fn partial_models_answer_with_their_status_and_refuse_writes() {
        let program = parse_program("p[t] <- seed[t].\np[t + 1] <- p[t].").unwrap();
        let mut edb = Database::new();
        edb.insert_parsed("seed", "(n) : T1 = 0").unwrap();
        let p = crate::parser::parse_atom("p[t]").unwrap();

        let diverged =
            ResidentModel::new(program.clone(), edb.clone(), EvalOptions::default()).unwrap();
        assert_eq!(diverged.status(), &QueryStatus::Diverged);
        assert_eq!(diverged.answer(&p).unwrap().status, QueryStatus::Diverged);

        let starved = EvalOptions {
            max_derived_tuples: Some(3),
            ..EvalOptions::default()
        };
        let mut tripped = ResidentModel::new(program, edb, starved).unwrap();
        let resp = tripped.answer(&p).unwrap();
        assert!(matches!(resp.status, QueryStatus::Interrupted(_)));
        assert!(!resp.answers.is_empty(), "sound partial model is answered");

        let idb_before = tripped.idb().clone();
        let err = tripped
            .apply_ops(&[assert_op("seed", "(n) : T1 = 7")])
            .unwrap_err();
        assert!(matches!(err, ApplyError::Incomplete(_)), "{err}");
        assert!(!err.rolled_back(), "refused up front, nothing to roll back");
        assert_eq!(tripped.stats(), ResidentStats::default());
        for (pred, rel) in tripped.idb() {
            assert_eq!(rel.tuples(), idb_before[pred].tuples(), "{pred} untouched");
        }
    }

    /// `answer` queries with the model's own residue budget, not a fresh
    /// `EvalOptions::default()`: projecting out a coprime-period partner
    /// needs a residue split that a budget of 8 cannot afford.
    #[test]
    fn answer_uses_the_models_residue_budget() {
        let mut edb = Database::new();
        edb.insert_parsed("pair", "(97n, 101n) : T1 < T2 + 50")
            .unwrap();
        let atom = crate::parser::parse_atom("pair[t, 202]").unwrap();
        let roomy =
            ResidentModel::new(Program::default(), edb.clone(), EvalOptions::default()).unwrap();
        assert!(roomy.answer(&atom).is_ok());
        let tight = EvalOptions {
            residue_budget: 8,
            ..EvalOptions::default()
        };
        let tight = ResidentModel::new(Program::default(), edb, tight).unwrap();
        match tight.answer(&atom) {
            Err(Error::ResidueBudget { budget }) => assert_eq!(budget, 8),
            other => panic!("expected the model's budget to bind, got {other:?}"),
        }
    }
}
