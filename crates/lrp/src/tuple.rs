//! Ground generalized tuples (§2.1 of the paper).
//!
//! A ground generalized tuple of temporal arity `m` and data arity `ℓ` is
//!
//! ```text
//! (a₁n₁+b₁, …, aₘnₘ+bₘ, d₁, …, d_ℓ)  with constraints(T₁, …, Tₘ)
//! ```
//!
//! i.e. a [`Zone`] over the temporal attributes plus a vector of data
//! constants. It finitely represents the (possibly infinite) set of ground
//! tuples whose temporal components lie in the zone.

use crate::constraint::Constraint;
use crate::error::{Error, Result};
use crate::lrp::Lrp;
use crate::value::DataValue;
use crate::zone::Zone;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A ground generalized tuple: a periodic zone plus data constants.
///
/// Immutable once built and shared behind an [`Arc`], so a clone is a
/// reference-count bump: a model version, its derivation log and every
/// matched source fact hold the same allocation. The mutating methods
/// ([`GeneralizedTuple::zone_mut`], [`GeneralizedTuple::shift_attr`],
/// [`GeneralizedTuple::add_constraint`]) copy on write.
///
/// Carries three memos that are **not** part of the tuple's identity (they
/// are excluded from `PartialEq`/`Hash`): the canonical form of the zone,
/// the exact emptiness verdict and the content hash. Each is computed at
/// most once per tuple, shared by its clones, and dropped by the mutating
/// methods, so fixpoint loops that repeatedly normalize or subsume the same
/// tuples stop re-canonicalizing identical zones, and hash sets of tuples
/// (the DRed over-delete) hash each tuple's content once.
#[derive(Debug, Clone)]
pub struct GeneralizedTuple(Arc<Parts>);

#[derive(Debug, Clone)]
struct Parts {
    zone: Zone,
    data: Vec<DataValue>,
    /// Canonical zone; `None` means canonicalization refuted the zone.
    canon_memo: OnceLock<Option<Zone>>,
    /// Exact emptiness verdict (budget-independent once computed).
    empty_memo: OnceLock<bool>,
    /// Hash of `zone` and `data`.
    hash_memo: OnceLock<u64>,
}

impl PartialEq for GeneralizedTuple {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.0.zone == other.0.zone && self.0.data == other.0.data)
    }
}

impl Eq for GeneralizedTuple {}

impl Hash for GeneralizedTuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let content = self.0.hash_memo.get_or_init(|| {
            let mut h = DefaultHasher::new();
            self.0.zone.hash(&mut h);
            self.0.data.hash(&mut h);
            h.finish()
        });
        state.write_u64(*content);
    }
}

impl GeneralizedTuple {
    /// Creates a tuple from a zone and data constants.
    pub fn new(zone: Zone, data: Vec<DataValue>) -> Self {
        GeneralizedTuple(Arc::new(Parts {
            zone,
            data,
            canon_memo: OnceLock::new(),
            empty_memo: OnceLock::new(),
            hash_memo: OnceLock::new(),
        }))
    }

    /// Convenience constructor from lrps, constraints and data.
    pub fn build(lrps: Vec<Lrp>, constraints: &[Constraint], data: Vec<DataValue>) -> Result<Self> {
        Ok(GeneralizedTuple::new(
            Zone::with_constraints(lrps, constraints)?,
            data,
        ))
    }

    /// A purely temporal tuple (data arity 0).
    pub fn temporal(zone: Zone) -> Self {
        GeneralizedTuple::new(zone, Vec::new())
    }

    /// The tuple's own parts, copied first if shared, with every memo
    /// dropped: must be called before any mutation of the zone.
    fn parts_mut(&mut self) -> &mut Parts {
        let parts = Arc::make_mut(&mut self.0);
        parts.canon_memo = OnceLock::new();
        parts.empty_memo = OnceLock::new();
        parts.hash_memo = OnceLock::new();
        parts
    }

    /// The memoized canonical zone (`None` = refuted / empty).
    fn canon_zone(&self) -> &Option<Zone> {
        let mut computed = false;
        let memo = self.0.canon_memo.get_or_init(|| {
            computed = true;
            self.0.zone.canonical()
        });
        crate::stats::note_canonical_cache(!computed);
        memo
    }

    /// Temporal arity `m`.
    pub fn temporal_arity(&self) -> usize {
        self.0.zone.arity()
    }

    /// Data arity `ℓ`.
    pub fn data_arity(&self) -> usize {
        self.0.data.len()
    }

    /// The temporal zone.
    pub fn zone(&self) -> &Zone {
        &self.0.zone
    }

    /// Mutable access to the zone. Invalidates the canonical-form and
    /// emptiness memos, since the caller may change the denoted set.
    pub fn zone_mut(&mut self) -> &mut Zone {
        &mut self.parts_mut().zone
    }

    /// The data constants.
    pub fn data(&self) -> &[DataValue] {
        &self.0.data
    }

    /// Membership of a ground tuple `(t₁, …, tₘ, d₁, …, d_ℓ)`.
    pub fn contains(&self, temporal: &[i64], data: &[DataValue]) -> bool {
        data == self.0.data.as_slice() && self.0.zone.contains_point(temporal)
    }

    /// The paper's *free extension*: the same tuple freed from its
    /// constraints (constraint `true`).
    pub fn free_extension(&self) -> GeneralizedTuple {
        GeneralizedTuple::new(Zone::new(self.0.zone.lrps().to_vec()), self.0.data.clone())
    }

    /// The canonical free-extension key: canonical lrps plus data. Two
    /// tuples with equal keys have equal free extensions (Theorem 4.2 relies
    /// on there being finitely many such keys once periods are bounded).
    pub fn free_extension_key(&self) -> (Vec<Lrp>, Vec<DataValue>) {
        (self.0.zone.lrps().to_vec(), self.0.data.clone())
    }

    /// Is the represented set of ground tuples empty?
    ///
    /// The verdict is memoized: the first call decides exactly (which may
    /// cost a uniformization split within `budget`), later calls are free.
    /// The verdict itself does not depend on the budget — a larger budget
    /// can only turn an error into an answer, never change the answer.
    pub fn is_empty(&self, budget: u64) -> Result<bool> {
        if let Some(&verdict) = self.0.empty_memo.get() {
            crate::stats::note_empty_cache(true);
            return Ok(verdict);
        }
        // A memoized refuted canonical form settles emptiness for free.
        if let Some(None) = self.0.canon_memo.get() {
            crate::stats::note_empty_cache(true);
            let _ = self.0.empty_memo.set(true);
            return Ok(true);
        }
        crate::stats::note_empty_cache(false);
        let verdict = self.0.zone.is_empty(budget)?;
        let _ = self.0.empty_memo.set(verdict);
        Ok(verdict)
    }

    /// Is `self ⊆ other₁ ∪ … ∪ otherₙ` as sets of ground tuples?
    /// Tuples with different data constants are disjoint.
    pub fn subsumed_by(&self, others: &[&GeneralizedTuple], budget: u64) -> Result<bool> {
        crate::stats::note_subsumption_check();
        let zones: Vec<&Zone> = others
            .iter()
            .filter(|o| o.0.data == self.0.data)
            .map(|o| &o.0.zone)
            .collect();
        if zones.is_empty() {
            return self.is_empty(budget);
        }
        self.0.zone.subsumed_by(&zones, budget)
    }

    /// Shifts temporal attribute `k` by `c`.
    pub fn shift_attr(&mut self, k: usize, c: i64) -> Result<()> {
        self.parts_mut().zone.shift_attr(k, c)
    }

    /// Adds a constraint over the temporal attributes.
    pub fn add_constraint(&mut self, c: Constraint) -> Result<()> {
        self.parts_mut().zone.add_constraint(c)
    }

    /// Projects onto the given temporal attributes (in order) and data
    /// columns (in order). May split into several tuples (see
    /// [`Zone::project`]).
    pub fn project(
        &self,
        temporal_keep: &[usize],
        data_keep: &[usize],
        budget: u64,
    ) -> Result<Vec<GeneralizedTuple>> {
        let data: Vec<DataValue> = data_keep
            .iter()
            .map(|&k| {
                self.0
                    .data
                    .get(k)
                    .cloned()
                    .ok_or(Error::VariableOutOfRange {
                        index: k,
                        arity: self.0.data.len(),
                    })
            })
            .collect::<Result<_>>()?;
        let zones = self.0.zone.project(temporal_keep, budget)?;
        Ok(zones
            .into_iter()
            .map(|zone| GeneralizedTuple::new(zone, data.clone()))
            .collect())
    }

    /// Enumerates the ground tuples within `[lo, hi]^m` (temporal window).
    pub fn enumerate_window(&self, lo: i64, hi: i64) -> Vec<(Vec<i64>, Vec<DataValue>)> {
        self.0
            .zone
            .enumerate_window(lo, hi)
            .into_iter()
            .map(|t| (t, self.0.data.clone()))
            .collect()
    }

    /// Canonical form (normalized lrps and constraints); `None` if
    /// canonicalization refutes the zone.
    ///
    /// Memoized: repeated calls (e.g. from
    /// [`crate::GeneralizedRelation::normalize`] across fixpoint rounds)
    /// canonicalize the zone only once. An already canonical tuple comes
    /// back as a clone of itself; otherwise the returned tuple's own
    /// canonical memo is pre-seeded, since canonicalization is idempotent.
    pub fn canonical(&self) -> Option<GeneralizedTuple> {
        self.canon_zone().as_ref().map(|zone| {
            if *zone == self.0.zone {
                return self.clone();
            }
            let t = GeneralizedTuple::new(zone.clone(), self.0.data.clone());
            let _ = t.0.canon_memo.set(Some(zone.clone()));
            t
        })
    }
}

impl fmt::Display for GeneralizedTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.0.zone.lrps().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        if !self.0.data.is_empty() {
            if self.0.zone.arity() > 0 {
                write!(f, "; ")?;
            }
            for (i, d) in self.0.data.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{d}")?;
            }
        }
        write!(f, ")")?;
        let dbm = self.0.zone.dbm();
        if dbm.finite_bounds().next().is_some() {
            write!(f, " : {dbm}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Var;
    use crate::zone::DEFAULT_RESIDUE_BUDGET as B;

    fn lrp(p: i64, b: i64) -> Lrp {
        Lrp::new(p, b).unwrap()
    }

    fn train_tuple() -> GeneralizedTuple {
        // Example 2.1: (40n₁+5, 40n₂+65, Liège, Brussels)
        // with T1 >= 0 and T2 = T1 + 60.
        GeneralizedTuple::build(
            vec![lrp(40, 5), lrp(40, 65)],
            &[
                Constraint::GeConst(Var(0), 0),
                Constraint::EqVar(Var(1), Var(0), 60),
            ],
            vec![DataValue::sym("liege"), DataValue::sym("brussels")],
        )
        .unwrap()
    }

    #[test]
    fn train_example_membership() {
        let t = train_tuple();
        let d = [DataValue::sym("liege"), DataValue::sym("brussels")];
        assert!(t.contains(&[5, 65], &d));
        assert!(t.contains(&[45, 105], &d));
        assert!(!t.contains(&[-35, 25], &d)); // departs before time 0
        assert!(!t.contains(&[5, 105], &d)); // wrong arrival
        assert!(!t.contains(
            &[5, 65],
            &[DataValue::sym("brussels"), DataValue::sym("liege")]
        ));
    }

    #[test]
    fn arities() {
        let t = train_tuple();
        assert_eq!(t.temporal_arity(), 2);
        assert_eq!(t.data_arity(), 2);
    }

    #[test]
    fn free_extension_drops_constraints() {
        let t = train_tuple();
        let fe = t.free_extension();
        let d = [DataValue::sym("liege"), DataValue::sym("brussels")];
        // Departure before 0 and mismatched arrival are now allowed.
        assert!(fe.contains(&[-35, 25], &d));
        assert!(fe.contains(&[5, 105], &d));
        // But the lrps still apply.
        assert!(!fe.contains(&[6, 65], &d));
    }

    #[test]
    fn free_extension_keys_canonicalize() {
        let a = GeneralizedTuple::build(vec![lrp(168, 346)], &[], vec![]).unwrap();
        let b = GeneralizedTuple::build(vec![lrp(168, 10)], &[], vec![]).unwrap();
        assert_eq!(a.free_extension_key(), b.free_extension_key());
    }

    #[test]
    fn subsumption_ignores_mismatched_data() {
        let t = train_tuple();
        let other = GeneralizedTuple::new(
            t.zone().clone(),
            vec![DataValue::sym("liege"), DataValue::sym("namur")],
        );
        assert!(!t.subsumed_by(&[&other], B).unwrap());
        assert!(t.subsumed_by(&[&t.clone()], B).unwrap());
    }

    #[test]
    fn empty_tuple_subsumed_by_nothing() {
        let t = GeneralizedTuple::build(
            vec![lrp(2, 0)],
            &[Constraint::EqConst(Var(0), 1)],
            vec![DataValue::sym("x")],
        )
        .unwrap();
        assert!(t.is_empty(B).unwrap());
        assert!(t.subsumed_by(&[], B).unwrap());
    }

    #[test]
    fn shift_produces_problems_tuple() {
        // Example 4.1: problems = course shifted by +2 on both attributes.
        let mut t = GeneralizedTuple::build(
            vec![lrp(168, 8), lrp(168, 10)],
            &[Constraint::EqVar(Var(1), Var(0), 2)],
            vec![DataValue::sym("database")],
        )
        .unwrap();
        t.shift_attr(0, 2).unwrap();
        t.shift_attr(1, 2).unwrap();
        let d = [DataValue::sym("database")];
        assert!(t.contains(&[10, 12], &d));
        assert!(t.contains(&[178, 180], &d));
        assert!(!t.contains(&[8, 10], &d));
    }

    #[test]
    fn projection_keeps_selected_columns() {
        let t = train_tuple();
        let ps = t.project(&[0], &[1], B).unwrap();
        assert_eq!(ps.len(), 1);
        let p = &ps[0];
        assert_eq!(p.temporal_arity(), 1);
        assert_eq!(p.data(), &[DataValue::sym("brussels")]);
        assert!(p.contains(&[5], &[DataValue::sym("brussels")]));
        assert!(!p.contains(&[-35], &[DataValue::sym("brussels")]));
    }

    #[test]
    fn projection_bad_data_column() {
        let t = train_tuple();
        assert!(matches!(
            t.project(&[0], &[9], B),
            Err(Error::VariableOutOfRange { index: 9, .. })
        ));
    }

    #[test]
    fn enumerate_window_produces_ground_tuples() {
        let t = train_tuple();
        let g = t.enumerate_window(0, 200);
        let times: Vec<Vec<i64>> = g.iter().map(|(t, _)| t.clone()).collect();
        assert_eq!(
            times,
            vec![vec![5, 65], vec![45, 105], vec![85, 145], vec![125, 185]]
        );
        assert!(g.iter().all(|(_, d)| d[0] == DataValue::sym("liege")));
    }

    #[test]
    fn display_is_readable() {
        let t = train_tuple();
        let s = t.to_string();
        assert!(s.contains("40n+5"), "{s}");
        assert!(s.contains("liege"), "{s}");
        let plain = GeneralizedTuple::build(vec![lrp(2, 0)], &[], vec![]).unwrap();
        assert_eq!(plain.to_string(), "(2n+0)");
    }

    #[test]
    fn canonical_none_for_empty() {
        let t = GeneralizedTuple::build(
            vec![lrp(2, 0), lrp(2, 0)],
            &[Constraint::EqVar(Var(1), Var(0), 1)],
            vec![],
        )
        .unwrap();
        assert!(t.canonical().is_none());
        assert!(train_tuple().canonical().is_some());
    }
}
