//! Sharded parallel rule firing for the `T_GP` fixpoint (the derive phase
//! of one iteration, fanned across a worker pool).
//!
//! The refactoring contract with [`crate::engine`]: firing the stratum's
//! clauses against an **immutable snapshot** (current IDB, delta frontier,
//! and EDB) is a pure function of `(task, snapshot)` — workers only read
//! the snapshot and accumulate derived tuples into private buffers. The merge
//! phase (canonicalization, `insert_if_new` subsumption, free-extension
//! bookkeeping, governor fuel) stays on the coordinator thread, so the
//! canonical-form invariants of [`itdb_lrp::GeneralizedRelation`] remain
//! single-writer.
//!
//! # Determinism: byte-identical to sequential evaluation
//!
//! A task is `(clause, delta position, contiguous level-0 candidate
//! range)`, in the exact order the sequential engine fires them: clauses
//! in stratum order, delta positions in body order, chunks ascending. The
//! clause matcher's emission order is lexicographic in its DFS candidate
//! lists with the level-0 list outermost, so restricting level 0 to a
//! contiguous range `[lo, hi)` yields exactly the emissions whose
//! outermost candidate index falls in the range, in their original
//! relative order — and concatenating the per-task buffers in task order
//! reconstructs the sequential emission order **for any worker count**.
//! The coordinator's merge then performs identical inserts in an identical
//! order, making `--parallel N` models byte-identical to `--parallel 1`.
//!
//! On semi-naive passes the level-0 list at delta position 0 *is* the
//! delta partition (the common case for recursions); for other positions
//! and for naive/first-iteration passes it is the full body-0 relation.
//! Contiguous ranges are used instead of index-bucket keys because they
//! preserve emission order under any chunking — data-vector buckets would
//! balance equally well but interleave emissions nondeterministically.
//!
//! # Barriers, trips, and folds
//!
//! Workers are joined (a rendezvous barrier) before the merge phase of
//! every iteration; stratum boundaries are therefore barriers too, and
//! every checkpoint site in the engine sits at such a barrier — resume
//! semantics are unchanged. Each worker installs the shared [`Governor`]
//! as its thread's ambient governor, so deadline/cancellation/fuel checks
//! deep inside zone algebra trip cooperatively across the pool. A task
//! error abandons the whole iteration exactly like a sequential
//! mid-derivation trip: the model at the barrier is the last completed
//! iteration's, so interrupted parallel runs match interrupted sequential
//! runs at the same barrier.
//!
//! Per-worker observability folds at the same barrier: thread-local
//! [`itdb_lrp::stats`] counters are scoped per worker with
//! [`itdb_lrp::stats::take`] (shedding any residue a previous task left on
//! a reused thread) and folded into the evaluation's counters with `+=`;
//! worker span stacks/profiles fold via [`itdb_trace::absorb_profile`];
//! worker-side trace events (index lookups, rule spans) are captured in a
//! per-worker memory sink and re-emitted to the coordinator's sinks in
//! worker order.

// Worker-pool code runs on the user-reachable evaluation path: failures
// must flow through the error taxonomy, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::engine::{eval_clause, DeriveCtx, Pending};
use crate::normalize::NormClause;
use itdb_lrp::{stats::Counters, Error, GeneralizedRelation, Governor, Result};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One unit of parallel work: fire `clause` with the delta substituted at
/// `dpos` (if any), restricted to the contiguous `chunk` of the level-0
/// candidate list (if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FireTask {
    /// Index into [`DeriveCtx::clauses`].
    pub clause_pos: usize,
    /// Body position reading the delta (`None` on naive/first passes).
    pub dpos: Option<usize>,
    /// Contiguous `[lo, hi)` range of the level-0 candidate list; `None`
    /// fires the whole clause (empty bodies, tiny candidate lists).
    pub chunk: Option<(usize, usize)>,
}

impl<'a> DeriveCtx<'a> {
    /// Length of the level-0 candidate list the matcher will iterate for
    /// this `(clause, dpos)` unit. Mirrors the matcher's own candidate
    /// selection (index bucket when body-0's data terms are all ground
    /// with no bindings yet, i.e. all constants; full relation otherwise)
    /// without recording an index-lookup observation.
    fn level0_len(&self, clause: &'a NormClause, dpos: Option<usize>) -> usize {
        let atom = &clause.body[0];
        let rel = self.rel_for(clause, dpos, 0);
        let all_const = !atom.data.is_empty()
            && atom
                .data
                .iter()
                .all(|t| matches!(t, crate::ast::DataTerm::Const(_)));
        if self.use_index && all_const {
            let key: Vec<itdb_lrp::DataValue> = atom
                .data
                .iter()
                .filter_map(|t| match t {
                    crate::ast::DataTerm::Const(c) => Some(c.clone()),
                    crate::ast::DataTerm::Var(_) => None,
                })
                .collect();
            rel.candidates_len(&key)
        } else {
            rel.len()
        }
    }
}

/// Plans the task list for one derive phase, in sequential firing order:
/// clauses in stratum order, delta positions in body order, chunks
/// ascending. Each `(clause, dpos)` unit splits its level-0 candidate
/// list into at most `workers` near-equal contiguous chunks.
pub(crate) fn plan_tasks(ctx: &DeriveCtx<'_>, workers: usize) -> Vec<FireTask> {
    let mut tasks = Vec::new();
    for (clause_pos, clause) in ctx.clauses.iter().enumerate() {
        if ctx.seminaive_pass {
            let idb_positions = clause.body_positions_of(ctx.delta_preds);
            if idb_positions.is_empty() {
                continue; // stable-input-only clauses cannot fire anew
            }
            for &dpos in &idb_positions {
                push_unit(ctx, &mut tasks, clause_pos, clause, Some(dpos), workers);
            }
        } else {
            push_unit(ctx, &mut tasks, clause_pos, clause, None, workers);
        }
    }
    tasks
}

/// Pushes the task(s) for one `(clause, dpos)` firing unit.
fn push_unit(
    ctx: &DeriveCtx<'_>,
    tasks: &mut Vec<FireTask>,
    clause_pos: usize,
    clause: &NormClause,
    dpos: Option<usize>,
    workers: usize,
) {
    if clause.body.is_empty() {
        tasks.push(FireTask {
            clause_pos,
            dpos,
            chunk: None,
        });
        return;
    }
    let len = ctx.level0_len(clause, dpos);
    let chunks = workers.min(len).max(1);
    if chunks <= 1 {
        tasks.push(FireTask {
            clause_pos,
            dpos,
            chunk: None,
        });
        return;
    }
    let base = len / chunks;
    let rem = len % chunks;
    let mut lo = 0usize;
    for c in 0..chunks {
        let size = base + usize::from(c < rem);
        tasks.push(FireTask {
            clause_pos,
            dpos,
            chunk: Some((lo, lo + size)),
        });
        lo += size;
    }
}

/// Fires one task against the snapshot: a pure function of
/// `(task, snapshot)` returning its private buffer of derived tuples.
fn run_task(ctx: &DeriveCtx<'_>, task: &FireTask) -> Result<Vec<Pending>> {
    let clause = ctx.clauses[task.clause_pos];
    let _rule_span = itdb_trace::span_with(itdb_trace::SpanKind::Rule, || {
        ctx.rule_labels
            .get(clause.idx)
            .cloned()
            .unwrap_or_else(|| format!("r{}", clause.idx))
    });
    let neg_rels = ctx.neg_rels(clause);
    let rel_for = |i: usize| -> &GeneralizedRelation { ctx.rel_for(clause, task.dpos, i) };
    let mut out = Vec::new();
    eval_clause(
        clause,
        &rel_for,
        &neg_rels,
        ctx.residue_budget,
        ctx.use_index,
        ctx.collect_sources,
        task.chunk,
        &mut |t, sources| {
            out.push(Pending {
                pred: clause.head_pred.clone(),
                rule: clause.idx,
                tuple: t,
                sources,
            })
        },
    )?;
    Ok(out)
}

/// Runs one derive phase across `workers` pooled threads and returns the
/// derived tuples in sequential emission order (see the module docs).
///
/// The scoped-thread join at the end is the rendezvous barrier: when this
/// function returns, every worker has finished (or abandoned) its tasks,
/// all observability folds have landed on the coordinator thread, and the
/// snapshot borrows are released so the merge phase may mutate the IDB.
/// Errors surface as the first failed task in task order; the caller
/// abandons the iteration exactly as it would a sequential mid-derivation
/// trip.
pub(crate) fn derive_parallel(
    ctx: &DeriveCtx<'_>,
    workers: usize,
    governor: &Arc<Governor>,
    worker_counters: &mut Counters,
) -> Result<Vec<Pending>> {
    let tasks = plan_tasks(ctx, workers);
    if tasks.is_empty() {
        return Ok(Vec::new());
    }
    let pool = workers.min(tasks.len()).max(1);
    // Coordinator-side observability decisions, captured before the fan-out
    // (sinks and profiling flags are thread-local).
    let fold_trace = itdb_trace::enabled();
    let fold_profile = itdb_trace::profiling();
    // The request id is thread-local too: hand the coordinator's to every
    // worker so events built inside the pool carry it directly (the
    // re-emission at the fold below would restamp them anyway, but sinks
    // installed *on* a worker — e.g. a flight ring — see the id live).
    let request_id = itdb_trace::current_request_id();

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let results: Vec<OnceLock<Result<Vec<Pending>>>> =
        (0..tasks.len()).map(|_| OnceLock::new()).collect();
    let counter_folds: Vec<OnceLock<Counters>> = (0..pool).map(|_| OnceLock::new()).collect();
    let event_folds: Vec<OnceLock<Vec<itdb_trace::Event>>> =
        (0..pool).map(|_| OnceLock::new()).collect();
    let profile_folds: Vec<OnceLock<itdb_trace::Profile>> =
        (0..pool).map(|_| OnceLock::new()).collect();

    std::thread::scope(|s| {
        let worker = |w: usize| {
            // Cooperative governance: the shared governor becomes this
            // thread's ambient governor, so fuel/deadline/cancellation
            // checks deep in zone algebra trip workers too.
            let _gov = governor.enter();
            let _ctx = request_id
                .clone()
                .map(itdb_trace::context::set_request_id_arc);
            // Task-start reset: shed whatever a previous task on a reused
            // pool thread left in the thread-local counters, then collect
            // exactly this worker's delta at the end.
            let _ = itdb_lrp::stats::take();
            let sink = if fold_trace {
                let mem = Arc::new(itdb_trace::MemorySink::new());
                let id = itdb_trace::add_sink(mem.clone());
                Some((mem, id))
            } else {
                None
            };
            if fold_profile {
                itdb_trace::set_profiling(true);
            }
            loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks.len() {
                    break;
                }
                let out = run_task(ctx, &tasks[i]);
                let failed = out.is_err();
                let _ = results[i].set(out);
                if failed {
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
            }
            // Fold hand-off: counters, captured events, span profile.
            let _ = counter_folds[w].set(itdb_lrp::stats::take());
            if let Some((mem, id)) = sink {
                itdb_trace::remove_sink(id);
                let _ = event_folds[w].set(mem.take());
            }
            if fold_profile {
                itdb_trace::set_profiling(false);
                let _ = profile_folds[w].set(itdb_trace::take_profile());
            }
        };
        for w in 0..pool {
            s.spawn(move || worker(w));
        }
    });
    // ── barrier: every worker joined; snapshot borrows are back with us ──

    for fold in counter_folds {
        if let Some(c) = fold.into_inner() {
            *worker_counters += c;
        }
    }
    for fold in event_folds {
        for ev in fold.into_inner().into_iter().flatten() {
            itdb_trace::emit(|| ev.kind);
        }
    }
    for fold in profile_folds {
        if let Some(p) = fold.into_inner() {
            itdb_trace::absorb_profile(p);
        }
    }

    let mut derived = Vec::new();
    for slot in results {
        match slot.into_inner() {
            Some(Ok(mut buf)) => derived.append(&mut buf),
            // First failed task in task order decides, like the sequential
            // engine stopping at the clause that tripped.
            Some(Err(e)) => return Err(e),
            // Tasks are claimed in index order, so unclaimed slots form a
            // suffix behind an abort; reaching one without having seen the
            // error that caused it is an internal inconsistency.
            None => {
                return Err(Error::Eval(
                    "internal: parallel task abandoned without a recorded error".into(),
                ))
            }
        }
    }
    Ok(derived)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::db::Database;
    use crate::normalize::normalize_program;
    use crate::parser::parse_program;
    use std::collections::BTreeMap;

    /// Chunk ranges must tile `[0, len)` contiguously in order — the
    /// property the byte-identity argument rests on.
    #[test]
    fn chunks_tile_the_candidate_list_in_order() {
        let program = parse_program("p[t + 1](C) <- e[t](C).").unwrap();
        let info = analyze(&program).unwrap();
        let clauses = normalize_program(&program).unwrap();
        let clause_refs: Vec<&NormClause> = clauses.iter().collect();
        let mut db = Database::new();
        let mut text = String::new();
        for k in 0..7 {
            text.push_str(&format!("(6n+{k}; v{k})\n"));
        }
        db.insert_parsed("e", &text).unwrap();
        let idb: BTreeMap<String, GeneralizedRelation> = info
            .intensional
            .iter()
            .map(|p| (p.clone(), GeneralizedRelation::empty(info.signatures[p])))
            .collect();
        let empty: BTreeMap<String, GeneralizedRelation> = info
            .signatures
            .iter()
            .map(|(p, s)| (p.clone(), GeneralizedRelation::empty(*s)))
            .collect();
        let delta = BTreeMap::new();
        let labels = vec!["r0".to_string()];
        let ctx = DeriveCtx {
            clauses: &clause_refs,
            delta_preds: &["p"],
            idb: &idb,
            delta: &delta,
            edb: &db,
            empty: &empty,
            info: &info,
            rule_labels: &labels,
            seminaive_pass: false,
            residue_budget: itdb_lrp::DEFAULT_RESIDUE_BUDGET,
            use_index: true,
            collect_sources: false,
        };
        for workers in [1usize, 2, 3, 4, 8, 16] {
            let tasks = plan_tasks(&ctx, workers);
            assert!(!tasks.is_empty());
            if workers == 1 {
                assert_eq!(tasks[0].chunk, None);
                continue;
            }
            let mut expect_lo = 0usize;
            for t in &tasks {
                let (lo, hi) = t.chunk.expect("multi-worker units are chunked");
                assert_eq!(lo, expect_lo, "workers={workers}");
                assert!(hi > lo, "non-empty chunk, workers={workers}");
                expect_lo = hi;
            }
            assert_eq!(expect_lo, 7, "chunks tile all 7 candidates");
        }
    }

    /// Stable-input-only clauses are skipped on semi-naive passes, like
    /// the sequential engine's `continue`.
    #[test]
    fn seminaive_planning_skips_non_recursive_clauses() {
        let program = parse_program("p[t + 1] <- e[t]. p[t + 2] <- p[t].").unwrap();
        let info = analyze(&program).unwrap();
        let clauses = normalize_program(&program).unwrap();
        let clause_refs: Vec<&NormClause> = clauses.iter().collect();
        let mut db = Database::new();
        db.insert_parsed("e", "(6n)").unwrap();
        let mut idb: BTreeMap<String, GeneralizedRelation> = info
            .intensional
            .iter()
            .map(|p| (p.clone(), GeneralizedRelation::empty(info.signatures[p])))
            .collect();
        let empty: BTreeMap<String, GeneralizedRelation> = info
            .signatures
            .iter()
            .map(|(p, s)| (p.clone(), GeneralizedRelation::empty(*s)))
            .collect();
        // Seed the delta and IDB with one tuple so the recursive clause has
        // candidates.
        let t =
            itdb_lrp::GeneralizedTuple::build(vec![itdb_lrp::Lrp::new(6, 1).unwrap()], &[], vec![])
                .unwrap();
        idb.get_mut("p").unwrap().insert(t.clone()).unwrap();
        let mut delta = BTreeMap::new();
        let mut drel = GeneralizedRelation::empty(info.signatures["p"]);
        drel.insert(t).unwrap();
        delta.insert("p".to_string(), drel);
        let labels = vec!["r0".to_string(), "r1".to_string()];
        let ctx = DeriveCtx {
            clauses: &clause_refs,
            delta_preds: &["p"],
            idb: &idb,
            delta: &delta,
            edb: &db,
            empty: &empty,
            info: &info,
            rule_labels: &labels,
            seminaive_pass: true,
            residue_budget: itdb_lrp::DEFAULT_RESIDUE_BUDGET,
            use_index: true,
            collect_sources: false,
        };
        let tasks = plan_tasks(&ctx, 4);
        // Only the recursive clause plans tasks, all against the delta.
        assert!(!tasks.is_empty());
        assert!(tasks.iter().all(|t| t.clause_pos == 1));
        assert!(tasks.iter().all(|t| t.dpos == Some(0)));
    }
}
