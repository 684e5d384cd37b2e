//! Property-based equivalence for incremental maintenance: the
//! delta-applied resident model against its full re-evaluation oracle
//! twin, over random workloads and random fact-batch sequences.
//!
//! Three properties ride on each generated case:
//!
//! 1. **Model equivalence** — after every batch, each maintained IDB
//!    relation is semantically equivalent to the oracle's (which
//!    re-evaluates from scratch over the grown EDB).
//! 2. **Accounting agreement** — both paths report the same
//!    applied/duplicate counts (the dedup arithmetic is path-independent).
//! 3. **Replay determinism** — a second incremental model fed the same
//!    batch sequence lands on *byte-identical* relations (tuple vectors,
//!    not just sets): the property WAL replay and crash recovery build on.

use itdb_core::{parse_program, Database, EvalOptions, Fact, Op, ResidentModel};
use itdb_lrp::parser::parse_tuple;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomWorkload {
    source: String,
    edb_period: i64,
    edb_offset: i64,
}

/// The always-converging family of `prop_engine`:
/// shift-recursions over periodic EDBs (subsumption closes the orbit),
/// plus data-carrying joins and a negated rule so ingestion exercises
/// both the incremental path and the negation fallback.
fn workload_strategy() -> impl Strategy<Value = RandomWorkload> {
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
            src.push_str(
                "q0[t](C) <- d[t](C), p0[t].\n\
                 q1[t] <- d[t + 1](a), p1[t].\n\
                 q2[t](C) <- d[t](C), !dropped[t](C).\n",
            );
            RandomWorkload {
                source: src,
                edb_period: period,
                edb_offset: offset % period,
            }
        })
}

fn edb(rw: &RandomWorkload) -> Database {
    let mut db = Database::new();
    db.insert_parsed("e", &format!("({}n+{})", rw.edb_period, rw.edb_offset))
        .unwrap();
    db.insert_parsed("d", "(6n; a)\n(4n+1; b)").unwrap();
    db.insert_parsed("dropped", "(12n+1; b)").unwrap();
    db
}

/// One generated fact: (target predicate kind, period index, offset, datum).
type FactSpec = (u8, u8, i64, u8);

fn batches_strategy() -> impl Strategy<Value = Vec<Vec<FactSpec>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..3, 0u8..3, 0i64..12, 0u8..2), 1..4),
        1..4,
    )
}

fn materialize(spec: &FactSpec) -> Op {
    let (kind, period_idx, offset, datum) = spec;
    let period = [6i64, 8, 12][*period_idx as usize];
    let offset = offset % period;
    let c = if *datum == 0 { "a" } else { "b" };
    let (pred, text) = match kind {
        0 => ("e", format!("({period}n+{offset})")),
        1 => ("d", format!("({period}n+{offset}; {c})")),
        _ => ("dropped", format!("({period}n+{offset}; {c})")),
    };
    Op::Assert(Fact {
        pred: pred.to_string(),
        tuple: parse_tuple(&text).unwrap(),
    })
}

fn opts() -> EvalOptions {
    EvalOptions {
        grace_after_fe_safety: 32,
        ..EvalOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Delta-applied model ≡ full re-evaluation, for random fact-batch
    /// sequences — with byte-identical replay on a second incremental
    /// model.
    #[test]
    fn incremental_equals_full_reeval(
        rw in workload_strategy(),
        batch_specs in batches_strategy(),
    ) {
        let program = parse_program(&rw.source).unwrap();
        let mut inc = ResidentModel::new(program.clone(), edb(&rw), opts()).unwrap();
        let mut oracle = ResidentModel::new(program.clone(), edb(&rw), opts()).unwrap();
        let mut replay = ResidentModel::new(program, edb(&rw), opts()).unwrap();

        for specs in &batch_specs {
            let batch: Vec<Op> = specs.iter().map(materialize).collect();
            let a = inc.apply_ops(&batch).unwrap();
            let b = oracle.apply_ops_full_reeval(&batch).unwrap();
            let r = replay.apply_ops(&batch).unwrap();

            prop_assert_eq!(a.applied, b.applied, "applied counts agree");
            prop_assert_eq!(a.duplicates, b.duplicates, "duplicate counts agree");
            prop_assert_eq!(a, r, "replay outcome is identical");

            for (pred, rel) in inc.idb() {
                let other = &oracle.idb()[pred];
                prop_assert!(
                    rel.equivalent(other, 1_000_000).unwrap(),
                    "{}: {} differs between incremental and full re-eval\nincremental: {}\noracle: {}",
                    rw.source, pred, rel, other
                );
            }
            for (pred, rel) in inc.idb() {
                prop_assert_eq!(
                    rel.tuples(), replay.idb()[pred].tuples(),
                    "{}: replay of {} must be byte-identical", rw.source, pred
                );
            }
            for (pred, rel) in inc.edb().iter() {
                prop_assert_eq!(
                    rel.tuples(), replay.edb().get(pred).unwrap().tuples(),
                    "{}: EDB replay of {} must be byte-identical", rw.source, pred
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Re-sending a batch is always a pure duplicate: zero new EDB
    /// tuples, zero derived insertions, byte-identical relations.
    #[test]
    fn duplicate_batches_are_idempotent(
        rw in workload_strategy(),
        specs in proptest::collection::vec((0u8..3, 0u8..3, 0i64..12, 0u8..2), 1..4),
    ) {
        let program = parse_program(&rw.source).unwrap();
        let mut m = ResidentModel::new(program, edb(&rw), opts()).unwrap();
        let batch: Vec<Op> = specs.iter().map(materialize).collect();
        m.apply_ops(&batch).unwrap();
        let before: Vec<(String, Vec<_>)> = m
            .idb()
            .iter()
            .map(|(p, r)| (p.clone(), r.tuples().to_vec()))
            .collect();
        let again = m.apply_ops(&batch).unwrap();
        prop_assert_eq!(again.applied, 0, "everything is a duplicate");
        prop_assert_eq!(again.derived_inserted, 0, "nothing re-derives");
        let after: Vec<(String, Vec<_>)> = m
            .idb()
            .iter()
            .map(|(p, r)| (p.clone(), r.tuples().to_vec()))
            .collect();
        prop_assert_eq!(before, after, "idempotent replay is byte-identical");
    }
}
