//! The atom kernel: matching an atom pattern against generalized tuples.
//!
//! A pattern such as `p[t, t + 2, 5](X, a, X)` reads each temporal column
//! of `p` through a [`Slot`] (a pattern variable plus an offset, or a
//! constant) and each data column through a [`DataSlot`] (a variable or a
//! constant). Matching one tuple is a substitution: the tuple's lrps and
//! difference bounds, stated over its columns, are restated over the
//! pattern's variables. Both the §4 clause bodies of the deductive engine
//! and the \[KSW90\] first-order atoms rest on this one step.
//!
//! Two layers:
//!
//! * [`transfer`] conjoins one tuple's zone onto a caller's running
//!   `(lrps, dbm)` — the engine's body match calls it per candidate;
//! * [`AtomPattern::select`] runs it over a whole relation, filtering and
//!   binding the data columns, and answers a relation over the pattern's
//!   variables. When every data term is a constant the scan is narrowed to
//!   the relation's same-data index bucket.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::{
    DataValue, Dbm, Error, GeneralizedRelation, GeneralizedTuple, Lrp, Result, Schema, Zone,
};

/// How a pattern reads one temporal column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The column holds pattern variable `index` plus `offset`.
    Var(usize, i64),
    /// The column is the constant time point.
    Const(i64),
}

/// An engine clause argument `(variable, shift)` reads as a variable slot.
impl From<(usize, i64)> for Slot {
    fn from((v, s): (usize, i64)) -> Slot {
        Slot::Var(v, s)
    }
}

/// How a pattern reads one data column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataSlot {
    /// Pattern data variable `index`.
    Var(usize),
    /// The column must hold this constant.
    Const(DataValue),
}

/// The index of `name` among `names`, appending it when new — so indices
/// follow first occurrence, as [`AtomPattern`] requires.
pub fn intern<'a>(names: &mut Vec<&'a str>, name: &'a str) -> usize {
    names.iter().position(|n| *n == name).unwrap_or_else(|| {
        names.push(name);
        names.len() - 1
    })
}

/// Conjoins `zone`, read through `slots`, onto the pattern-variable
/// constraints `(lrps, dbm)`. Column `p` read as `Var(v, s)` confines `v`
/// to `lrp_p − s`; read as `Const(k)` it must contain `k`. Every finite
/// bound of the tuple's DBM is restated over the variables (or folded into
/// a constant check). Returns `false` when a residue clash or a constant
/// check makes the match empty; a `true` match may still be empty through
/// its difference bounds. Fails when `slots` and `zone` differ in arity.
pub fn transfer<S: Copy + Into<Slot>>(
    slots: &[S],
    zone: &Zone,
    lrps: &mut [Lrp],
    dbm: &mut Dbm,
) -> Result<bool> {
    if slots.len() != zone.arity() {
        return Err(Error::ArityMismatch {
            expected: zone.arity(),
            found: slots.len(),
        });
    }
    for (col, slot) in slots.iter().enumerate() {
        let lrp = zone.lrp(col);
        match (*slot).into() {
            Slot::Var(v, s) => {
                let shifted = lrp.shift(s.checked_neg().ok_or(Error::Overflow)?)?;
                match lrps[v].intersect(&shifted)? {
                    Some(meet) => lrps[v] = meet,
                    None => return Ok(false),
                }
            }
            Slot::Const(k) => {
                if !lrp.contains(k) {
                    return Ok(false);
                }
            }
        }
    }
    // Tuple matrix index `a > 0` is column `a − 1`; index 0 is the zero
    // point, i.e. the constant 0. A variable `v` sits at matrix index `v + 1`.
    let side = |a: usize| match a {
        0 => Slot::Const(0),
        _ => slots[a - 1].into(),
    };
    for (i, j, c) in zone.dbm().finite_bounds() {
        match (side(i), side(j)) {
            // (x_i + s_i) − (x_j + s_j) ≤ c.
            (Slot::Var(vi, si), Slot::Var(vj, sj)) => {
                if vi == vj {
                    // Same variable: the bound is the constant fact s_i − s_j ≤ c.
                    if si.saturating_sub(sj) > c {
                        return Ok(false);
                    }
                } else {
                    dbm.add_le(vi + 1, vj + 1, c.saturating_sub(si).saturating_add(sj));
                }
            }
            (Slot::Var(vi, si), Slot::Const(k)) => {
                dbm.add_le(vi + 1, 0, c.saturating_add(k).saturating_sub(si));
            }
            (Slot::Const(k), Slot::Var(vj, sj)) => {
                dbm.add_le(0, vj + 1, c.saturating_sub(k).saturating_add(sj));
            }
            (Slot::Const(k1), Slot::Const(k2)) => {
                if k1.saturating_sub(k2) > c {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

/// An atom pattern over a relation's columns. Variable indices must follow
/// first occurrence (see [`intern`]): the answer's temporal columns are the
/// variables `0..` in index order, and likewise its data columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomPattern {
    /// One slot per temporal column.
    pub temporal: Vec<Slot>,
    /// One slot per data column.
    pub data: Vec<DataSlot>,
}

impl AtomPattern {
    /// The answer's schema: one column per distinct variable.
    fn answer_schema(&self) -> Schema {
        let tvars = self
            .temporal
            .iter()
            .filter_map(|s| match s {
                Slot::Var(v, _) => Some(v + 1),
                Slot::Const(_) => None,
            })
            .max();
        let dvars = self
            .data
            .iter()
            .filter_map(|s| match s {
                DataSlot::Var(v) => Some(v + 1),
                DataSlot::Const(_) => None,
            })
            .max();
        Schema::new(tvars.unwrap_or(0), dvars.unwrap_or(0))
    }

    /// The pattern's answer over `rel`: every tuple whose data matches,
    /// restated over the pattern's variables, empty matches dropped. When
    /// every data term is a constant, only the index bucket of that data
    /// vector is scanned; otherwise (including data arity 0) all tuples.
    pub fn select(&self, rel: &GeneralizedRelation, budget: u64) -> Result<GeneralizedRelation> {
        let key: Option<Vec<DataValue>> = self
            .data
            .iter()
            .map(|s| match s {
                DataSlot::Const(c) => Some(c.clone()),
                DataSlot::Var(_) => None,
            })
            .collect();
        match key {
            Some(key) if !key.is_empty() => self.select_from(rel, rel.candidates(&key), budget),
            _ => self.select_from(rel, rel.tuples(), budget),
        }
    }

    /// [`Self::select`] over the given `candidates` of `rel` — the full
    /// scan when passed `rel.tuples()`.
    pub fn select_from<'a>(
        &self,
        rel: &GeneralizedRelation,
        candidates: impl IntoIterator<Item = &'a GeneralizedTuple>,
        budget: u64,
    ) -> Result<GeneralizedRelation> {
        let schema = rel.schema();
        for (expected, found) in [
            (schema.temporal, self.temporal.len()),
            (schema.data, self.data.len()),
        ] {
            if expected != found {
                return Err(Error::ArityMismatch { expected, found });
            }
        }
        let answer = self.answer_schema();
        let mut out = GeneralizedRelation::empty(answer);
        'tuples: for tuple in candidates {
            let mut dvals: Vec<DataValue> = Vec::with_capacity(answer.data);
            for (slot, val) in self.data.iter().zip(tuple.data()) {
                match slot {
                    DataSlot::Const(c) if c != val => continue 'tuples,
                    DataSlot::Const(_) => {}
                    DataSlot::Var(v) if *v == dvals.len() => dvals.push(val.clone()),
                    DataSlot::Var(v) if dvals.get(*v) == Some(val) => {}
                    DataSlot::Var(_) => continue 'tuples,
                }
            }
            let mut lrps = vec![Lrp::all_integers(); answer.temporal];
            let mut dbm = Dbm::unconstrained(answer.temporal);
            if !transfer(&self.temporal, tuple.zone(), &mut lrps, &mut dbm)? {
                continue;
            }
            let t = GeneralizedTuple::new(Zone::from_parts(lrps, dbm)?, dvals);
            if !t.is_empty(budget)? {
                out.insert(t)?;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::parser::parse_relation;
    use crate::DEFAULT_RESIDUE_BUDGET as B;

    fn sym(s: &str) -> DataValue {
        DataValue::sym(s)
    }

    #[test]
    fn intern_follows_first_occurrence() {
        let mut names = Vec::new();
        assert_eq!(intern(&mut names, "t"), 0);
        assert_eq!(intern(&mut names, "u"), 1);
        assert_eq!(intern(&mut names, "t"), 0);
        assert_eq!(names, ["t", "u"]);
    }

    #[test]
    fn transfer_restates_bounds_over_variables() {
        // Columns (x0, x0 + 2, 5) against T2 = T1 + 2, T3 ≥ T1.
        let rel = parse_relation("(4n, 4n+2, n) : T2 = T1 + 2, T3 >= T1").unwrap();
        let zone = rel.tuples()[0].zone();
        let slots = [Slot::Var(0, 0), Slot::Var(0, 2), Slot::Const(5)];
        let mut lrps = vec![Lrp::all_integers()];
        let mut dbm = Dbm::unconstrained(1);
        assert!(transfer(&slots, zone, &mut lrps, &mut dbm).unwrap());
        let z = Zone::from_parts(lrps, dbm).unwrap();
        // x0 ≡ 0 mod 4 and x0 ≤ 5.
        assert!(z.contains_point(&[4]));
        assert!(!z.contains_point(&[8]));
        assert!(!z.contains_point(&[2]));
        // A wrong offset clashes on residues; a wrong constant fails outright.
        let mut lrps = vec![Lrp::all_integers()];
        let mut dbm = Dbm::unconstrained(1);
        let wrong = [Slot::Var(0, 0), Slot::Var(0, 3), Slot::Const(5)];
        assert!(!transfer(&wrong, zone, &mut lrps, &mut dbm).unwrap());
        let off_residue = [Slot::Const(1), Slot::Var(0, 0), Slot::Var(1, 0)];
        let mut lrps = vec![Lrp::all_integers(); 2];
        let mut dbm = Dbm::unconstrained(2);
        assert!(!transfer(&off_residue, zone, &mut lrps, &mut dbm).unwrap());
    }

    #[test]
    fn select_binds_and_filters_data() {
        let rel = parse_relation("(2n; a, a)\n(2n; a, b)\n(3n; b, b)").unwrap();
        let repeated = AtomPattern {
            temporal: vec![Slot::Var(0, 0)],
            data: vec![DataSlot::Var(0), DataSlot::Var(0)],
        };
        let ans = repeated.select(&rel, B).unwrap();
        assert_eq!(ans.schema(), Schema::new(1, 1));
        assert!(ans.contains(&[0], &[sym("a")]));
        assert!(ans.contains(&[3], &[sym("b")]));
        assert!(!ans.contains(&[2], &[sym("b")]));
        let ground = AtomPattern {
            temporal: vec![Slot::Const(4)],
            data: vec![DataSlot::Const(sym("a")), DataSlot::Const(sym("b"))],
        };
        let ans = ground.select(&rel, B).unwrap();
        assert_eq!(ans.schema(), Schema::new(0, 0));
        assert_eq!(ans.len(), 1);
        assert_eq!(ans, ground.select_from(&rel, rel.tuples(), B).unwrap());
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let rel = parse_relation("(2n; a)").unwrap();
        let p = AtomPattern {
            temporal: vec![Slot::Var(0, 0), Slot::Var(1, 0)],
            data: vec![DataSlot::Var(0)],
        };
        assert!(matches!(
            p.select(&rel, B),
            Err(Error::ArityMismatch {
                expected: 1,
                found: 2
            })
        ));
        let (mut lrps, mut dbm) = (vec![Lrp::all_integers(); 2], Dbm::unconstrained(2));
        assert!(matches!(
            transfer(&p.temporal, rel.tuples()[0].zone(), &mut lrps, &mut dbm),
            Err(Error::ArityMismatch {
                expected: 1,
                found: 2
            })
        ));
    }
}
