//! Property tests for the atom kernel behind `query`.
//!
//! Relations mix periods and carry several data values; patterns mix
//! temporal constants, repeated temporal variables at different offsets,
//! data constants and repeated data variables. Two properties:
//!
//! * `query` (the kernel's substitution) is semantically equivalent to
//!   `query_naive` (select, shift, project over a full scan);
//! * the kernel's index-narrowed scan is byte-identical to its full scan.

use itdb_core::query::{atom_pattern, query, query_naive};
use itdb_core::{Atom, DataTerm, TemporalTerm};
use itdb_lrp::{
    Constraint, DataValue, GeneralizedRelation, GeneralizedTuple, Lrp, Schema, Var,
    DEFAULT_RESIDUE_BUDGET as B,
};
use proptest::prelude::*;

const PERIODS: [i64; 5] = [1, 2, 3, 4, 6];
const VALUES: [&str; 3] = ["a", "b", "c"];

/// One generated tuple over the widest schema (3 temporal, 2 data
/// columns): `(period, offset)` per column, difference constraints
/// `(i, j, kind, c)`, data value indices. A case keeps only the columns
/// its schema has.
type TupleSpec = (Vec<(usize, i64)>, Vec<(usize, usize, u8, i64)>, Vec<usize>);

fn tuple_spec() -> impl Strategy<Value = TupleSpec> {
    (
        collection::vec((0..PERIODS.len(), 0i64..6), 3),
        collection::vec((0usize..3, 0usize..3, 0u8..3, -4i64..5), 0..3),
        collection::vec(0..VALUES.len(), 2),
    )
}

fn build_relation(m: usize, l: usize, specs: &[TupleSpec]) -> GeneralizedRelation {
    let mut rel = GeneralizedRelation::empty(Schema::new(m, l));
    for (cols, cons, data) in specs {
        let lrps = cols[..m]
            .iter()
            .map(|&(p, o)| Lrp::new(PERIODS[p], o).unwrap())
            .collect();
        let constraints: Vec<Constraint> = cons
            .iter()
            .map(|&(i, j, kind, c)| (i % m, j % m, kind, c))
            .map(|(i, j, kind, c)| match kind {
                0 if i != j => Constraint::EqVar(Var(i), Var(j), c),
                1 if i != j => Constraint::LeVar(Var(i), Var(j), c),
                _ => Constraint::GeConst(Var(i), c),
            })
            .collect();
        let data = data[..l]
            .iter()
            .map(|&d| DataValue::sym(VALUES[d]))
            .collect();
        rel.insert(GeneralizedTuple::build(lrps, &constraints, data).unwrap())
            .unwrap();
    }
    rel
}

/// A temporal term: a constant, or one of three variables with an offset.
fn temporal_term() -> impl Strategy<Value = TemporalTerm> {
    prop_oneof![
        (-6i64..20).prop_map(TemporalTerm::Const),
        (0usize..3, -3i64..4).prop_map(|(v, offset)| TemporalTerm::Var {
            name: ["t", "u", "v"][v].to_string(),
            offset,
        }),
    ]
}

/// A data term: a constant three times in five (so narrowing fires
/// often), otherwise one of two variables.
fn data_term() -> impl Strategy<Value = DataTerm> {
    (0usize..5).prop_map(|k| match k {
        0..=2 => DataTerm::Const(DataValue::sym(VALUES[k])),
        _ => DataTerm::Var(["X", "Y"][k - 3].to_string()),
    })
}

fn case_strategy() -> impl Strategy<Value = (GeneralizedRelation, Atom)> {
    (
        1usize..4,
        0usize..3,
        collection::vec(tuple_spec(), 1..7),
        collection::vec(temporal_term(), 3),
        collection::vec(data_term(), 2),
    )
        .prop_map(|(m, l, specs, mut temporal, mut data)| {
            temporal.truncate(m);
            data.truncate(l);
            let atom = Atom {
                pred: "r".to_string(),
                temporal,
                data,
            };
            (build_relation(m, l, &specs), atom)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_query_equals_naive((rel, atom) in case_strategy()) {
        let fast = query(&rel, &atom, B).unwrap();
        let naive = query_naive(&rel, &atom, B).unwrap();
        prop_assert_eq!(fast.schema(), naive.schema(), "{}", atom);
        prop_assert!(
            fast.equivalent(&naive, B).unwrap(),
            "{} over\n{}\nkernel:\n{}\nnaive:\n{}", atom, rel, fast, naive
        );
    }

    #[test]
    fn narrowed_scan_equals_full_scan((rel, atom) in case_strategy()) {
        let pattern = atom_pattern(&atom);
        let narrowed = pattern.select(&rel, B).unwrap();
        let full = pattern.select_from(&rel, rel.tuples(), B).unwrap();
        prop_assert_eq!(narrowed.to_string(), full.to_string(), "{}", atom);
        prop_assert_eq!(narrowed, full);
    }
}
