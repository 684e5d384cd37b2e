//! Property-based equivalence for retraction maintenance: interleaved
//! insert/retract batches applied DRed-incrementally against the
//! full-re-evaluation oracle twin, over random workloads — the
//! retraction analogue of `prop_resident.rs`.
//!
//! Properties per generated case:
//!
//! 1. **Model equivalence** — after every batch, each maintained IDB
//!    relation is semantically equivalent to the oracle's (which
//!    re-evaluates from scratch over the walked EDB), in *both*
//!    over-delete modes: provenance cone and per-stratum wipe.
//! 2. **Accounting agreement** — the EDB walk is path-independent, so
//!    applied/duplicate/retracted/noop counts agree across all paths.
//! 3. **Replay determinism** — a second incremental model fed the same
//!    op sequence lands on *byte-identical* relations (tuple vectors,
//!    not just sets): the property WAL replay and crash recovery build
//!    on. (Byte-identity to the oracle itself is not claimed — the two
//!    paths legitimately produce different closed representations of
//!    the same infinite set; equivalence is the semantic contract, and
//!    determinism is the byte-level one. This matches the insert path.)
//! 4. **Guarded re-derive on data** — the same equivalence and replay
//!    checks over data-carrying programs whose tuples have alternative
//!    derivations, so the cone re-derive must re-insert inside the
//!    over-deleted tuples (`guarded_rederive_equals_full_reeval_on_data`).
//! 5. **Pass order in a mixed batch** — one batch retracts a tuple that
//!    has an alternative derivation and asserts a data edge leaving the
//!    value that comes back, so what the edge derives lies outside the
//!    over-deleted tuples: only the seeded insert pass, run before the
//!    over-delete, reaches it (`mixed_batch_reaches_past_the_guard`).
//! 6. **Transactional rollback** — under arbitrarily tight governor
//!    settings, a batch either applies identically on both incremental
//!    twins or rolls back on both, leaving byte-identical state; the
//!    final model always equals a fresh full evaluation over exactly
//!    the successfully applied batches.

use itdb_core::{parse_program, Database, EvalOptions, Fact, Op, QueryStatus, ResidentModel};
use itdb_lrp::parser::parse_tuple;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomWorkload {
    source: String,
    edb_period: i64,
    edb_offset: i64,
}

/// The always-converging family of `prop_resident`: shift-recursions
/// over periodic EDBs (subsumption closes the orbit), plus
/// data-carrying joins and a negated rule so retraction exercises both
/// the provenance cone and the wipe fallback (negation inside the
/// affected region).
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

/// One generated op: (retract flag 0/1, target predicate kind, period
/// index, offset, datum). Asserts and retracts draw from the same small spec
/// space, so retractions frequently hit previously asserted (or seed)
/// tuples exactly, as well as miss (no-op) and partially overlap.
type OpSpec = (u8, u8, u8, i64, u8);

fn batches_strategy() -> impl Strategy<Value = Vec<Vec<OpSpec>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..2, 0u8..3, 0u8..3, 0i64..12, 0u8..2), 1..4),
        1..5,
    )
}

fn materialize(spec: &OpSpec) -> Op {
    let (retract, kind, period_idx, offset, datum) = spec;
    let period = [6i64, 8, 12][*period_idx as usize];
    let offset = offset % period;
    let c = if *datum == 0 { "a" } else { "b" };
    let (pred, text) = match kind {
        0 => ("e", format!("({period}n+{offset})")),
        1 => ("d", format!("({period}n+{offset}; {c})")),
        _ => ("dropped", format!("({period}n+{offset}; {c})")),
    };
    let fact = Fact {
        pred: pred.to_string(),
        tuple: parse_tuple(&text).unwrap(),
    };
    if *retract == 1 {
        Op::Retract(fact)
    } else {
        Op::Assert(fact)
    }
}

fn opts(provenance: bool) -> EvalOptions {
    EvalOptions {
        grace_after_fe_safety: 32,
        provenance,
        ..EvalOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DRed-maintained model ≡ full re-evaluation for interleaved
    /// insert/retract sequences, in cone and wipe mode — with
    /// byte-identical replay on a second incremental model.
    #[test]
    fn interleaved_ops_equal_full_reeval(
        rw in workload_strategy(),
        batch_specs in batches_strategy(),
    ) {
        let program = parse_program(&rw.source).unwrap();
        let mut cone = ResidentModel::new(program.clone(), edb(&rw), opts(true)).unwrap();
        let mut wipe = ResidentModel::new(program.clone(), edb(&rw), opts(false)).unwrap();
        let mut oracle = ResidentModel::new(program.clone(), edb(&rw), opts(true)).unwrap();
        let mut replay = ResidentModel::new(program, edb(&rw), opts(true)).unwrap();

        for specs in &batch_specs {
            let ops: Vec<Op> = specs.iter().map(materialize).collect();
            let a = cone.apply_ops(&ops).unwrap();
            let w = wipe.apply_ops(&ops).unwrap();
            let b = oracle.apply_ops_full_reeval(&ops).unwrap();
            let r = replay.apply_ops(&ops).unwrap();

            // The EDB walk is shared: counts agree across every path.
            for (x, name) in [(&w, "wipe"), (&b, "oracle")] {
                prop_assert_eq!(a.applied, x.applied, "applied counts agree ({})", name);
                prop_assert_eq!(a.duplicates, x.duplicates, "duplicates agree ({})", name);
                prop_assert_eq!(a.retracted, x.retracted, "retracted agree ({})", name);
                prop_assert_eq!(a.retract_noops, x.retract_noops, "noops agree ({})", name);
            }
            prop_assert_eq!(a, r, "replay outcome is identical");

            for (pred, rel) in cone.idb() {
                let other = &oracle.idb()[pred];
                prop_assert!(
                    rel.equivalent(other, 1_000_000).unwrap(),
                    "{}: {} differs between cone-DRed and full re-eval\nincremental: {}\noracle: {}",
                    rw.source, pred, rel, other
                );
                let wrel = &wipe.idb()[pred];
                prop_assert!(
                    wrel.equivalent(other, 1_000_000).unwrap(),
                    "{}: {} differs between wipe-DRed and full re-eval\nincremental: {}\noracle: {}",
                    rw.source, pred, wrel, other
                );
            }
            for (pred, rel) in cone.idb() {
                prop_assert_eq!(
                    rel.tuples(), replay.idb()[pred].tuples(),
                    "{}: replay of {} must be byte-identical", rw.source, pred
                );
            }
            for (pred, rel) in cone.edb().iter() {
                prop_assert_eq!(
                    rel.tuples(), replay.edb().get(pred).unwrap().tuples(),
                    "{}: EDB replay of {} must be byte-identical", rw.source, pred
                );
            }
        }
    }
}

/// A data-carrying workload for the guarded re-derive: three data values,
/// two alternative derivations of `p` (so retracting one source leaves a
/// tuple the guard must re-insert), an optional shift recursion, optional
/// clauses joining on a data variable (one of them recursive), and a head
/// data constant. No negation, so every retraction runs in cone mode.
#[derive(Debug, Clone)]
struct DataWorkload {
    source: String,
}

fn data_workload_strategy() -> impl Strategy<Value = DataWorkload> {
    (0i64..4, 0i64..3, 0u8..4, 0u8..2).prop_map(|(shift, lag, via_g, const_head)| {
        let mut src = String::from(
            "p[t](X) <- e[t](X).\n\
                 p[t](X) <- f[t](X).\n",
        );
        if shift > 0 {
            src.push_str(&format!("p[t + {shift}](X) <- p[t](X).\n"));
        }
        if via_g & 1 == 1 {
            src.push_str("p[t](Y) <- g[t](X, Y), e[t](X).\n");
        }
        if via_g & 2 == 2 {
            // Recursion through a data join: what comes back in `p` reaches
            // further values through `g`, asserted ones included.
            src.push_str("p[t](Y) <- p[t](X), g[t](X, Y).\n");
        }
        src.push_str(&format!("j[t](X, Y) <- p[t](X), g[t + {lag}](X, Y).\n"));
        if const_head == 1 {
            src.push_str("k[t](hot) <- j[t](X, Y), p[t](Y).\n");
        } else {
            src.push_str("k[t](Y) <- j[t](X, Y), f[t](Y).\n");
        }
        DataWorkload { source: src }
    })
}

const DATA: [&str; 3] = ["a", "b", "c"];

/// A tuple of `pred` from a small spec space shared by the seed EDB,
/// asserts and retracts, so retractions often hit a stored tuple exactly.
fn data_tuple(pred: u8, period_idx: u8, offset: i64, d1: u8, d2: u8) -> (String, String) {
    let period = [6i64, 12][period_idx as usize % 2];
    let offset = offset % period;
    let (x, y) = (DATA[d1 as usize % 3], DATA[d2 as usize % 3]);
    match pred % 3 {
        0 => ("e".into(), format!("({period}n+{offset}; {x})")),
        1 => ("f".into(), format!("({period}n+{offset}; {x})")),
        _ => ("g".into(), format!("({period}n+{offset}; {x}, {y})")),
    }
}

fn data_edb() -> Database {
    let mut db = Database::new();
    db.insert_parsed("e", "(6n+0; a)\n(6n+1; b)\n(12n+2; c)")
        .unwrap();
    db.insert_parsed("f", "(12n+0; a)\n(6n+1; b)\n(12n+3; c)")
        .unwrap();
    db.insert_parsed(
        "g",
        "(6n+0; a, b)\n(6n+1; b, c)\n(12n+0; c, a)\n(6n+2; a, a)",
    )
    .unwrap();
    db
}

/// (retract flag, predicate, period index, offset, datum 1, datum 2).
type DataOpSpec = (u8, u8, u8, i64, u8, u8);

fn data_batches_strategy() -> impl Strategy<Value = Vec<Vec<DataOpSpec>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u8..2, 0u8..3, 0u8..2, 0i64..4, 0u8..3, 0u8..3), 1..4),
        1..5,
    )
}

fn data_op(spec: &DataOpSpec) -> Op {
    let (retract, pred, period_idx, offset, d1, d2) = *spec;
    let (pred, text) = data_tuple(pred, period_idx, offset, d1, d2);
    let fact = Fact {
        pred,
        tuple: parse_tuple(&text).unwrap(),
    };
    if retract == 1 {
        Op::Retract(fact)
    } else {
        Op::Assert(fact)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cone-mode DRed with the guarded re-derive ≡ full re-evaluation on
    /// data-carrying programs, with byte-identical replay on a twin.
    #[test]
    fn guarded_rederive_equals_full_reeval_on_data(
        dw in data_workload_strategy(),
        batch_specs in data_batches_strategy(),
    ) {
        let program = parse_program(&dw.source).unwrap();
        let mut cone = ResidentModel::new(program.clone(), data_edb(), opts(true)).unwrap();
        let mut oracle = ResidentModel::new(program.clone(), data_edb(), opts(true)).unwrap();
        let mut replay = ResidentModel::new(program, data_edb(), opts(true)).unwrap();
        for specs in &batch_specs {
            let ops: Vec<Op> = specs.iter().map(data_op).collect();
            let a = cone.apply_ops(&ops).unwrap();
            oracle.apply_ops_full_reeval(&ops).unwrap();
            let r = replay.apply_ops(&ops).unwrap();
            prop_assert_eq!(a, r, "replay outcome is identical");
            if a.retracted > 0 {
                prop_assert!(a.dred_cone, "{}: a positive program retracts in cone mode", dw.source);
            }
            for (pred, rel) in cone.idb() {
                let other = &oracle.idb()[pred];
                prop_assert!(
                    rel.equivalent(other, 1_000_000).unwrap(),
                    "{}: {} differs between guarded DRed and full re-eval after {:?}\nincremental: {}\noracle: {}",
                    dw.source, pred, ops, rel, other
                );
                prop_assert_eq!(
                    rel.tuples(), replay.idb()[pred].tuples(),
                    "{}: replay of {} must be byte-identical", dw.source, pred
                );
            }
        }
    }
}

/// One mixed batch over the guarded re-derive's shape: `e` and `f` both
/// derive `p` for the value `x` (`f`'s tuple lies inside `e`'s, so
/// retracting `e` leaves an alternative derivation), `g` edges carry `p`
/// along data, and `j` joins the two. The batch retracts the `e` tuple
/// and asserts a `g` edge from `x` to `y` at `f`'s time points, in
/// either order, beside a stored edge from `y` onward.
#[derive(Debug, Clone)]
struct MixedBatch {
    edb: Database,
    ops: Vec<Op>,
}

fn mixed_batch_strategy() -> impl Strategy<Value = MixedBatch> {
    (
        (0i64..6, 0u8..2, 0i64..4, 0u8..3),
        (0u8..3, 1u8..3, 1u8..3),
        (0u8..3, 0i64..24, 0u8..2),
    )
        .prop_map(
            |((oe, pf_idx, m, pg_idx), (x, dy, dz), (ps_idx, os, assert_first))| {
                let pf = [12i64, 24][pf_idx as usize];
                let of = (oe + 6 * m) % pf;
                let pg = [6i64, 12, 24][pg_idx as usize];
                let ps = [6i64, 12, 24][ps_idx as usize];
                let x = DATA[x as usize];
                let y = DATA[(x.as_bytes()[0] - b'a' + dy) as usize % 3];
                let z = DATA[(y.as_bytes()[0] - b'a' + dz) as usize % 3];
                let mut edb = Database::new();
                edb.insert_parsed("e", &format!("(6n+{oe}; {x})")).unwrap();
                edb.insert_parsed("f", &format!("({pf}n+{of}; {x})"))
                    .unwrap();
                edb.insert_parsed("g", &format!("({ps}n+{}; {y}, {z})", os % ps))
                    .unwrap();
                let fact = |pred: &str, text: String| Fact {
                    pred: pred.to_string(),
                    tuple: parse_tuple(&text).unwrap(),
                };
                let retract = Op::Retract(fact("e", format!("(6n+{oe}; {x})")));
                let assert = Op::Assert(fact("g", format!("({pg}n+{}; {x}, {y})", of % pg)));
                let ops = if assert_first == 1 {
                    vec![assert, retract]
                } else {
                    vec![retract, assert]
                };
                MixedBatch { edb, ops }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A mixed batch whose assert reaches past the guarded re-derive
    /// lands on the full re-evaluation's model, in cone mode.
    #[test]
    fn mixed_batch_reaches_past_the_guard(mb in mixed_batch_strategy()) {
        let program = parse_program(
            "p[t](X) <- e[t](X).\n\
             p[t](X) <- f[t](X).\n\
             p[t](Y) <- p[t](X), g[t](X, Y).\n\
             j[t](X, Y) <- p[t](X), g[t](X, Y).\n",
        )
        .unwrap();
        let mut cone = ResidentModel::new(program.clone(), mb.edb.clone(), opts(true)).unwrap();
        let mut oracle = ResidentModel::new(program, mb.edb.clone(), opts(true)).unwrap();
        let out = cone.apply_ops(&mb.ops).unwrap();
        oracle.apply_ops_full_reeval(&mb.ops).unwrap();
        prop_assert!(out.dred_cone && out.retracted == 1, "{:?}", out);
        for (pred, rel) in cone.idb() {
            let other = &oracle.idb()[pred];
            prop_assert!(
                rel.equivalent(other, 1_000_000).unwrap(),
                "{} differs after {:?}\nincremental: {}\noracle: {}",
                pred, mb.ops, rel, other
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Retract-then-reassert of the same tuples restores semantic
    /// equivalence with a model that never saw the churn.
    #[test]
    fn retract_then_reassert_round_trips(
        rw in workload_strategy(),
        specs in proptest::collection::vec((0u8..3, 0u8..3, 0i64..12, 0u8..2), 1..4),
    ) {
        let program = parse_program(&rw.source).unwrap();
        let mut churned = ResidentModel::new(program.clone(), edb(&rw), opts(true)).unwrap();
        let mut calm = ResidentModel::new(program, edb(&rw), opts(true)).unwrap();

        let asserts: Vec<Op> = specs
            .iter()
            .map(|(k, p, o, d)| materialize(&(0, *k, *p, *o, *d)))
            .collect();
        let retracts: Vec<Op> = specs
            .iter()
            .map(|(k, p, o, d)| materialize(&(1, *k, *p, *o, *d)))
            .collect();
        churned.apply_ops(&asserts).unwrap();
        churned.apply_ops(&retracts).unwrap();
        churned.apply_ops(&asserts).unwrap();
        calm.apply_ops(&asserts).unwrap();

        for (pred, rel) in churned.idb() {
            let other = &calm.idb()[pred];
            prop_assert!(
                rel.equivalent(other, 1_000_000).unwrap(),
                "{}: {} differs after retract/reassert churn\nchurned: {}\ncalm: {}",
                rw.source, pred, rel, other
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under arbitrarily tight governor settings every batch either
    /// applies on both incremental twins or rolls back on both, state
    /// stays byte-identical between twins throughout, and the final
    /// model equals a fresh full evaluation over exactly the applied
    /// batches — tripping a governor never wedges or corrupts the model.
    #[test]
    fn governor_trips_roll_back_cleanly(
        rw in workload_strategy(),
        batch_specs in batches_strategy(),
        max_iterations in 3usize..40,
        fuel in proptest::option::of(200u64..5_000),
    ) {
        let program = parse_program(&rw.source).unwrap();
        let tight = EvalOptions {
            max_iterations,
            max_derived_tuples: fuel,
            ..opts(true)
        };
        let Ok(mut inc) = ResidentModel::new(program.clone(), edb(&rw), tight.clone()) else {
            return Ok(());
        };
        if *inc.status() != QueryStatus::Complete {
            // Seed evaluation itself trips under these limits: a partial
            // model refuses writes, so nothing to maintain — a valid,
            // uninteresting case.
            return Ok(());
        }
        let mut replay = ResidentModel::new(program.clone(), edb(&rw), tight).unwrap();
        let mut survivors: Vec<Vec<Op>> = Vec::new();

        for specs in &batch_specs {
            let ops: Vec<Op> = specs.iter().map(materialize).collect();
            let a = inc.apply_ops(&ops);
            let r = replay.apply_ops(&ops);
            match (&a, &r) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x, y, "twin outcomes agree");
                    survivors.push(ops);
                }
                (Err(x), Err(y)) => {
                    prop_assert!(x.rolled_back() == y.rolled_back(), "twin errors agree");
                }
                _ => prop_assert!(false, "one twin applied, the other refused"),
            }
            for (pred, rel) in inc.idb() {
                prop_assert_eq!(
                    rel.tuples(), replay.idb()[pred].tuples(),
                    "{}: twins byte-identical at {} (incl. after rollback)", rw.source, pred
                );
            }
            for (pred, rel) in inc.edb().iter() {
                prop_assert_eq!(
                    rel.tuples(), replay.edb().get(pred).unwrap().tuples(),
                    "{}: twin EDBs byte-identical at {}", rw.source, pred
                );
            }
        }

        // The surviving prefix fully determines the model: a fresh
        // generously-governed oracle fed only the applied batches is
        // semantically identical.
        let mut oracle = ResidentModel::new(program, edb(&rw), opts(true)).unwrap();
        for ops in &survivors {
            oracle.apply_ops_full_reeval(ops).unwrap();
        }
        for (pred, rel) in inc.idb() {
            let other = &oracle.idb()[pred];
            prop_assert!(
                rel.equivalent(other, 1_000_000).unwrap(),
                "{}: {} differs from the applied-batch oracle\nmodel: {}\noracle: {}",
                rw.source, pred, rel, other
            );
        }
    }
}
