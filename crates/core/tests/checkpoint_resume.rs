//! Resume equivalence: trip → checkpoint → resume must reach exactly the
//! model an uninterrupted run computes, for random programs and fuels
//! (proptest ×64) and for every governor trip reason; damaged or stale
//! snapshots must be rejected with typed errors and recovery must fall
//! back to the last good generation.

use itdb_core::{
    evaluate_with, load_latest, parse_program, resume_with, CancelToken, CheckpointError,
    CheckpointPolicy, Database, EvalOptions, EvalOutcome, Program, SnapshotStore,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "itdb_resume_{tag}_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A recursive two-stratum workload: `p` grows by shift-recursion, `q`
/// (negation on `p`'s stratum output) exercises the stratified cursor.
fn workload() -> (Program, Database) {
    let program = parse_program(
        "p[t] <- e[t].\n\
         p[t + 3] <- p[t].\n\
         p[t + 5] <- p[t], e[t].\n\
         q[t] <- d[t], !p[t].\n",
    )
    .unwrap();
    let mut db = Database::new();
    db.insert_parsed("e", "(12n+1)").unwrap();
    db.insert_parsed("d", "(4n)").unwrap();
    (program, db)
}

fn unlimited() -> EvalOptions {
    EvalOptions {
        grace_after_fe_safety: 32,
        ..EvalOptions::default()
    }
}

/// Asserts every relation of `a` is equivalent to its counterpart in `b`.
fn assert_same_model(a: &itdb_core::Evaluation, b: &itdb_core::Evaluation, context: &str) {
    assert_eq!(a.idb.len(), b.idb.len(), "{context}: predicate sets differ");
    for (pred, rel) in &a.idb {
        let other = b.relation(pred).unwrap_or_else(|| {
            panic!("{context}: {pred} missing from reference");
        });
        assert!(
            rel.equivalent(other, itdb_lrp::DEFAULT_RESIDUE_BUDGET)
                .unwrap(),
            "{context}: {pred} differs after resume"
        );
    }
}

/// Runs the workload under `limited` (which must trip), checkpoints on
/// trip, resumes without limits, and checks the final model against an
/// uninterrupted reference. Returns false if the limited run converged
/// before tripping (nothing to resume).
fn trip_checkpoint_resume(tag: &str, limited: EvalOptions) -> bool {
    let (program, db) = workload();
    let reference = evaluate_with(&program, &db, &unlimited()).unwrap();
    assert!(reference.outcome.converged());

    let dir = temp_store_dir(tag);
    let store = Arc::new(SnapshotStore::open(&dir).unwrap());
    let opts = EvalOptions {
        checkpoint: Some(CheckpointPolicy::on_trip(store.clone())),
        ..limited
    };
    let interrupted = evaluate_with(&program, &db, &opts).unwrap();
    let tripped = match &interrupted.outcome {
        EvalOutcome::Interrupted(int) => {
            // Satellite: the interruption carries the governor counters.
            assert!(int.counters.checks > 0, "{tag}: counters snapshot missing");
            true
        }
        _ => false,
    };
    if !tripped {
        let _ = std::fs::remove_dir_all(&dir);
        return false;
    }
    assert_eq!(
        interrupted.checkpoints.written, 1,
        "{tag}: expected one on-trip checkpoint"
    );

    let recovered = load_latest(&store).unwrap();
    assert!(recovered.skipped.is_empty());
    let resumed = resume_with(&program, &db, &unlimited(), &recovered.checkpoint).unwrap();
    assert!(
        resumed.outcome.converged(),
        "{tag}: resumed run did not converge: {:?}",
        resumed.outcome
    );
    assert_eq!(resumed.checkpoints.resumed_from, Some(recovered.generation));
    assert_same_model(&resumed, &reference, tag);
    let _ = std::fs::remove_dir_all(&dir);
    true
}

#[test]
fn resume_after_tuple_fuel_trip_reaches_the_reference_model() {
    // Mid-insert trip (note_derived) → redo cursor with widened delta.
    assert!(trip_checkpoint_resume(
        "fuel",
        EvalOptions {
            max_derived_tuples: Some(3),
            ..unlimited()
        }
    ));
}

#[test]
fn resume_after_iteration_fuel_trip_reaches_the_reference_model() {
    // start_iteration trip → cursor saved between iterations.
    assert!(trip_checkpoint_resume(
        "iters",
        EvalOptions {
            max_iterations: 2,
            ..unlimited()
        }
    ));
}

#[test]
fn resume_after_held_tuples_trip_reaches_the_reference_model() {
    // report_held trip after a fully completed insert phase.
    assert!(trip_checkpoint_resume(
        "held",
        EvalOptions {
            max_held_tuples: Some(1),
            ..unlimited()
        }
    ));
}

#[test]
fn resume_after_timeout_trip_reaches_the_reference_model() {
    // Already-expired deadline: trips at the very first budget check.
    assert!(trip_checkpoint_resume(
        "timeout",
        EvalOptions {
            timeout: Some(Duration::ZERO),
            ..unlimited()
        }
    ));
}

#[test]
fn resume_after_cancellation_reaches_the_reference_model() {
    let cancel = CancelToken::new();
    cancel.cancel();
    assert!(trip_checkpoint_resume(
        "cancel",
        EvalOptions {
            cancel: Some(cancel),
            ..unlimited()
        }
    ));
}

#[test]
fn every_n_checkpoint_of_a_finished_run_resumes_to_the_same_model() {
    let (program, db) = workload();
    let reference = evaluate_with(&program, &db, &unlimited()).unwrap();

    let dir = temp_store_dir("everyn");
    let store = Arc::new(SnapshotStore::open(&dir).unwrap());
    let opts = EvalOptions {
        checkpoint: Some(CheckpointPolicy::every(store.clone(), 2)),
        ..unlimited()
    };
    let full = evaluate_with(&program, &db, &opts).unwrap();
    assert!(full.outcome.converged());
    assert!(full.checkpoints.written >= 1, "every-2 cadence never fired");

    // Resuming from an *intermediate* snapshot must converge to the same
    // model the run it was cut from reached.
    let recovered = load_latest(&store).unwrap();
    let resumed = resume_with(&program, &db, &unlimited(), &recovered.checkpoint).unwrap();
    assert!(resumed.outcome.converged());
    assert_same_model(&resumed, &reference, "every-n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_program_hash_is_rejected_with_a_typed_error() {
    let (program, db) = workload();
    let dir = temp_store_dir("staleprog");
    let store = Arc::new(SnapshotStore::open(&dir).unwrap());
    let opts = EvalOptions {
        max_iterations: 1,
        checkpoint: Some(CheckpointPolicy::on_trip(store.clone())),
        ..unlimited()
    };
    evaluate_with(&program, &db, &opts).unwrap();
    let recovered = load_latest(&store).unwrap();

    let other = parse_program("p[t + 7] <- e[t].").unwrap();
    let err = resume_with(&other, &db, &unlimited(), &recovered.checkpoint).unwrap_err();
    assert!(
        err.to_string().contains("program hash"),
        "unexpected error: {err}"
    );
    // Direct validation yields the typed variant.
    let ph = itdb_core::hash_program(&itdb_core::normalize::normalize_program(&other).unwrap());
    let eh = itdb_core::hash_database(&db);
    assert!(matches!(
        recovered.checkpoint.validate(ph, eh),
        Err(CheckpointError::StaleProgramHash { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_edb_hash_is_rejected_with_a_typed_error() {
    let (program, db) = workload();
    let dir = temp_store_dir("staleedb");
    let store = Arc::new(SnapshotStore::open(&dir).unwrap());
    let opts = EvalOptions {
        max_iterations: 1,
        checkpoint: Some(CheckpointPolicy::on_trip(store.clone())),
        ..unlimited()
    };
    evaluate_with(&program, &db, &opts).unwrap();
    let recovered = load_latest(&store).unwrap();

    let mut other_db = Database::new();
    other_db.insert_parsed("e", "(12n+2)").unwrap();
    other_db.insert_parsed("d", "(4n)").unwrap();
    let err = resume_with(&program, &other_db, &unlimited(), &recovered.checkpoint).unwrap_err();
    assert!(
        err.to_string().contains("EDB hash"),
        "unexpected error: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corruption_matrix_recovers_the_last_good_generation() {
    let (program, db) = workload();
    let dir = temp_store_dir("corrupt");
    let store = Arc::new(SnapshotStore::open(&dir).unwrap());
    // Two good generations via two tripped runs.
    for fuel in [2u64, 3] {
        let opts = EvalOptions {
            max_derived_tuples: Some(fuel),
            checkpoint: Some(CheckpointPolicy::on_trip(store.clone())),
            ..unlimited()
        };
        evaluate_with(&program, &db, &opts).unwrap();
    }
    let gens = store.generations().unwrap();
    assert_eq!(gens.len(), 2);
    let newest = gens[1];
    let newest_path = dir.join(format!("snap-{newest:020}.itdb"));
    let pristine = std::fs::read(&newest_path).unwrap();

    // Truncation.
    std::fs::write(&newest_path, &pristine[..pristine.len() / 3]).unwrap();
    let rec = load_latest(&store).unwrap();
    assert_eq!(rec.generation, gens[0], "fell back past the truncated file");
    assert_eq!(rec.skipped.len(), 1);

    // Bit flip (in a section payload).
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&newest_path, &flipped).unwrap();
    let rec = load_latest(&store).unwrap();
    assert_eq!(
        rec.generation, gens[0],
        "fell back past the bit-flipped file"
    );
    assert_eq!(rec.skipped.len(), 1);

    // The recovered (older) checkpoint still resumes to the right model.
    let reference = evaluate_with(&program, &db, &unlimited()).unwrap();
    let resumed = resume_with(&program, &db, &unlimited(), &rec.checkpoint).unwrap();
    assert_same_model(&resumed, &reference, "post-corruption resume");

    // Both generations damaged → typed NoCheckpoint, not a panic.
    let oldest_path = dir.join(format!("snap-{:020}.itdb", gens[0]));
    std::fs::write(&oldest_path, b"garbage").unwrap();
    assert!(matches!(
        load_latest(&store),
        Err(CheckpointError::NoCheckpoint)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Proptest: random programs × random fuel — trip → checkpoint → resume is
// indistinguishable from an uninterrupted run.

#[derive(Debug, Clone)]
struct RandomProgram {
    source: String,
    edb_period: i64,
    edb_offset: i64,
}

fn program_strategy() -> impl Strategy<Value = RandomProgram> {
    (
        proptest::sample::select(vec![6i64, 8, 12]),
        0i64..6,
        proptest::collection::vec((0u8..3, 0i64..7, 0i64..7), 2..5),
    )
        .prop_map(|(period, offset, rules)| {
            let mut src = String::from("p0[t] <- e[t].\n");
            for (i, (kind, a, b)) in rules.iter().enumerate() {
                let (hi, bi) = ((i % 3), ((i + 1) % 3));
                let (hs, bs) = if a >= b { (*a, *b) } else { (*b, *a) };
                match kind {
                    0 => src.push_str(&format!("p{hi}[t + {hs}] <- p{bi}[t + {bs}].\n")),
                    1 => src.push_str(&format!("p{hi}[t + {hs}] <- p{bi}[t + {bs}], e[t].\n")),
                    _ => src.push_str(&format!(
                        "p{hi}[t + {hs}] <- p{bi}[t + {bs}], p{}[t].\n",
                        (i + 2) % 3
                    )),
                }
            }
            RandomProgram {
                source: src,
                edb_period: period,
                edb_offset: offset % period,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resume_equals_uninterrupted(rp in program_strategy(), fuel in 1u64..12) {
        let program = parse_program(&rp.source).unwrap();
        let mut db = Database::new();
        db.insert_parsed("e", &format!("({}n+{})", rp.edb_period, rp.edb_offset)).unwrap();

        let base = EvalOptions { grace_after_fe_safety: 32, max_iterations: 2000, ..Default::default() };
        let reference = evaluate_with(&program, &db, &base).unwrap();
        prop_assert!(reference.outcome.converged());

        let dir = temp_store_dir("prop");
        let store = Arc::new(SnapshotStore::open(&dir).unwrap());
        let limited = EvalOptions {
            max_derived_tuples: Some(fuel),
            checkpoint: Some(CheckpointPolicy::on_trip(store.clone())),
            ..base.clone()
        };
        let run = evaluate_with(&program, &db, &limited).unwrap();

        let final_eval = match &run.outcome {
            EvalOutcome::Interrupted(_) => {
                prop_assert_eq!(run.checkpoints.written, 1);
                let recovered = load_latest(&store).unwrap();
                let resumed = resume_with(&program, &db, &base, &recovered.checkpoint).unwrap();
                prop_assert!(
                    resumed.outcome.converged(),
                    "{} fuel={}: resumed run did not converge: {:?}",
                    rp.source, fuel, resumed.outcome
                );
                resumed
            }
            // Fuel sufficed: the limited run already is the full run.
            _ => run,
        };
        for (pred, rel) in &reference.idb {
            prop_assert!(
                final_eval
                    .relation(pred)
                    .unwrap()
                    .equivalent(rel, itdb_lrp::DEFAULT_RESIDUE_BUDGET)
                    .unwrap(),
                "{} fuel={}: {} differs from the uninterrupted model",
                rp.source, fuel, pred
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
