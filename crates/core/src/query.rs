//! Goal-style querying of computed models.
//!
//! A query is an [`Atom`] pattern over a relation: temporal constants
//! select, repeated temporal variables impose equalities (with offsets),
//! data constants filter, and the answer is the generalized relation over
//! the pattern's distinct variables — in closed form, exactly as the
//! paper's answers "can be finitely represented as temporal databases".
//!
//! [`query`] maps the atom onto the atom kernel ([`itdb_lrp::pattern`]),
//! the same pattern-to-tuple transfer the engine's clause bodies and the
//! first-order atoms use: each matching tuple is restated over the
//! pattern's variables, and a pattern whose data terms are all constants
//! scans only that data vector's index bucket. [`query_naive`] is its
//! oracle twin: select, shift, project over a full scan.
//!
//! Example: against the Example 4.1 model, the pattern
//! `problems[t, t + 2](database)` asks for the session start times `t`
//! whose matching end time is `t + 2`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::ast::{Atom, DataTerm, TemporalTerm};
use itdb_lrp::pattern::{intern, AtomPattern, DataSlot, Slot};
use itdb_lrp::{
    algebra, Constraint, Error, GeneralizedRelation, GeneralizedTuple, Result, Schema, Var,
};

/// The kernel pattern of `atom`: variables numbered in order of first
/// occurrence, separately for the temporal and the data sort.
pub fn atom_pattern(atom: &Atom) -> AtomPattern {
    let mut tvars = Vec::new();
    let temporal = atom
        .temporal
        .iter()
        .map(|t| match t {
            TemporalTerm::Var { name, offset } => Slot::Var(intern(&mut tvars, name), *offset),
            TemporalTerm::Const(c) => Slot::Const(*c),
        })
        .collect();
    let mut dvars = Vec::new();
    let data = atom
        .data
        .iter()
        .map(|d| match d {
            DataTerm::Var(v) => DataSlot::Var(intern(&mut dvars, v)),
            DataTerm::Const(c) => DataSlot::Const(c.clone()),
        })
        .collect();
    AtomPattern { temporal, data }
}

/// Evaluates an atom pattern against a relation; see the module docs.
///
/// The answer's temporal columns are the pattern's distinct temporal
/// variables in order of first occurrence; likewise for data columns.
pub fn query(
    rel: &GeneralizedRelation,
    pattern: &Atom,
    budget: u64,
) -> Result<GeneralizedRelation> {
    let mut out = atom_pattern(pattern).select(rel, budget)?;
    out.normalize(budget)?;
    Ok(out)
}

/// The oracle twin of [`query`]: the same answer (as a set of ground
/// tuples) computed by relational algebra over the whole relation —
/// select the temporal constraints the pattern induces, filter the data,
/// shift each variable's representative column back by its offset, and
/// project onto the representatives.
pub fn query_naive(
    rel: &GeneralizedRelation,
    pattern: &Atom,
    budget: u64,
) -> Result<GeneralizedRelation> {
    let schema = rel.schema();
    if pattern.temporal.len() != schema.temporal {
        return Err(Error::ArityMismatch {
            expected: schema.temporal,
            found: pattern.temporal.len(),
        });
    }
    if pattern.data.len() != schema.data {
        return Err(Error::ArityMismatch {
            expected: schema.data,
            found: pattern.data.len(),
        });
    }

    // Distinct temporal variables with their representative column/offset.
    let mut tvars: Vec<(&str, usize, i64)> = Vec::new(); // (name, column, offset)
    let mut constraints: Vec<Constraint> = Vec::new();
    for (col, term) in pattern.temporal.iter().enumerate() {
        match term {
            TemporalTerm::Const(c) => constraints.push(Constraint::EqConst(Var(col), *c)),
            TemporalTerm::Var { name, offset } => {
                match tvars.iter().find(|(n, _, _)| n == name) {
                    Some(&(_, rep_col, rep_off)) => {
                        // col = v + offset, rep = v + rep_off
                        // → col = rep + (offset − rep_off).
                        constraints.push(Constraint::EqVar(
                            Var(col),
                            Var(rep_col),
                            offset.checked_sub(rep_off).ok_or(Error::Overflow)?,
                        ));
                    }
                    None => tvars.push((name, col, *offset)),
                }
            }
        }
    }

    // Select by the induced temporal constraints.
    let selected = algebra::select(rel, &constraints)?;

    // Data handling: constants filter; repeated variables impose equality.
    let mut dvars: Vec<(&str, usize)> = Vec::new();
    let mut filtered = GeneralizedRelation::empty(schema);
    'tuples: for t in selected.tuples() {
        let mut seen: Vec<(&str, usize)> = Vec::new();
        for (col, term) in pattern.data.iter().enumerate() {
            match term {
                DataTerm::Const(c) => {
                    if &t.data()[col] != c {
                        continue 'tuples;
                    }
                }
                DataTerm::Var(v) => match seen.iter().find(|(n, _)| n == v) {
                    Some(&(_, first)) => {
                        if t.data()[first] != t.data()[col] {
                            continue 'tuples;
                        }
                    }
                    None => seen.push((v, col)),
                },
            }
        }
        filtered.insert(t.clone())?;
    }
    for (col, term) in pattern.data.iter().enumerate() {
        if let DataTerm::Var(v) = term {
            if !dvars.iter().any(|(n, _)| n == v) {
                dvars.push((v, col));
            }
        }
    }

    // Undo per-variable offsets (column holds v + offset; the answer column
    // should hold v), then project onto representatives.
    let mut shifted = filtered;
    for &(_, col, off) in &tvars {
        if off != 0 {
            shifted =
                algebra::shift_column(&shifted, col, off.checked_neg().ok_or(Error::Overflow)?)?;
        }
    }
    let temporal_keep: Vec<usize> = tvars.iter().map(|&(_, c, _)| c).collect();
    let data_keep: Vec<usize> = dvars.iter().map(|&(_, c)| c).collect();
    let mut out = algebra::project(&shifted, &temporal_keep, &data_keep, budget)?;
    out.normalize(budget)?;
    Ok(out)
}

/// A boolean (yes/no) query: does any ground tuple match the pattern?
pub fn ask(rel: &GeneralizedRelation, pattern: &Atom, budget: u64) -> Result<bool> {
    let ans = query(rel, pattern, budget)?;
    Ok(!ans.is_empty_semantic(budget)?)
}

/// Builds a single-tuple relation — convenience for tests and examples.
pub fn singleton(schema: Schema, tuple: GeneralizedTuple) -> Result<GeneralizedRelation> {
    GeneralizedRelation::from_tuples(schema, vec![tuple])
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::engine::evaluate;
    use crate::parser::{parse_atom, parse_program};
    use itdb_lrp::{DataValue, DEFAULT_RESIDUE_BUDGET as B};

    fn problems_model() -> GeneralizedRelation {
        let p = parse_program(
            "problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).
             problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).",
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_parsed("course", "(168n+8, 168n+10; database) : T2 = T1 + 2")
            .unwrap();
        evaluate(&p, &db)
            .unwrap()
            .relation("problems")
            .unwrap()
            .clone()
    }

    #[test]
    fn pattern_with_offset_relation() {
        let rel = problems_model();
        // Start times t such that problems[t, t+2](database).
        let ans = query(
            &rel,
            &parse_atom("problems[t, t + 2](database)").unwrap(),
            B,
        )
        .unwrap();
        assert_eq!(ans.schema(), Schema::new(1, 0));
        for t in [10i64, 34, 58, 82, 106, 130, 154, 178] {
            assert!(ans.contains(&[t], &[]), "t={t}");
        }
        assert!(!ans.contains(&[8], &[]));
        assert!(!ans.contains(&[11], &[]));
        // A wrong offset yields an empty answer.
        let none = query(
            &rel,
            &parse_atom("problems[t, t + 3](database)").unwrap(),
            B,
        )
        .unwrap();
        assert!(none.is_empty_semantic(B).unwrap());
    }

    #[test]
    fn temporal_constant_selects() {
        let rel = problems_model();
        let ans = query(&rel, &parse_atom("problems[10, t](database)").unwrap(), B).unwrap();
        assert_eq!(ans.schema(), Schema::new(1, 0));
        assert!(ans.contains(&[12], &[]));
        assert!(!ans.contains(&[13], &[]));
    }

    #[test]
    fn data_variable_projects() {
        let rel = problems_model();
        let ans = query(&rel, &parse_atom("problems[t1, t2](C)").unwrap(), B).unwrap();
        assert_eq!(ans.schema(), Schema::new(2, 1));
        assert!(ans.contains(&[10, 12], &[DataValue::sym("database")]));
    }

    #[test]
    fn wrong_data_constant_empty() {
        let rel = problems_model();
        let ans = query(&rel, &parse_atom("problems[t1, t2](chemistry)").unwrap(), B).unwrap();
        assert!(ans.is_empty_semantic(B).unwrap());
    }

    #[test]
    fn ask_boolean() {
        let rel = problems_model();
        assert!(ask(
            &rel,
            &parse_atom("problems[t, t + 2](database)").unwrap(),
            B
        )
        .unwrap());
        assert!(!ask(&rel, &parse_atom("problems[t, t](database)").unwrap(), B).unwrap());
        assert!(ask(&rel, &parse_atom("problems[58, 60](database)").unwrap(), B).unwrap());
        assert!(!ask(&rel, &parse_atom("problems[59, 61](database)").unwrap(), B).unwrap());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let rel = problems_model();
        assert!(query(&rel, &parse_atom("problems[t](database)").unwrap(), B).is_err());
        assert!(query(&rel, &parse_atom("problems[t1, t2]").unwrap(), B).is_err());
    }

    #[test]
    fn repeated_temporal_variable_enforces_equality() {
        // Build a small relation with both equal and unequal pairs.
        let mut db = Database::new();
        db.insert_parsed("r", "(6n, 6n) : T2 = T1\n(6n+1, 6n+3) : T2 = T1 + 2")
            .unwrap();
        let rel = db.get("r").unwrap();
        let ans = query(rel, &parse_atom("r[t, t]").unwrap(), B).unwrap();
        assert!(ans.contains(&[0], &[]));
        assert!(ans.contains(&[6], &[]));
        assert!(!ans.contains(&[1], &[]));
    }

    #[test]
    fn repeated_data_variable_enforces_equality() {
        let mut db = Database::new();
        db.insert_parsed("pairs", "(2n; a, a)\n(2n; a, b)").unwrap();
        let rel = db.get("pairs").unwrap();
        let ans = query(rel, &parse_atom("pairs[t](X, X)").unwrap(), B).unwrap();
        assert_eq!(ans.schema(), Schema::new(1, 1));
        assert!(ans.contains(&[0], &[DataValue::sym("a")]));
        assert!(!ans.contains(&[0], &[DataValue::sym("b")]));
    }
}
