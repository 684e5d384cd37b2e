//! Generalized relations: finite sets of generalized tuples (§2.1).
//!
//! A generalized relation of temporal arity `m` and data arity `ℓ` finitely
//! represents the (typically infinite) union of the ground extensions of its
//! tuples. A *generalized database* is a collection of named generalized
//! relations; the deductive engine in `itdb-core` maps predicate symbols to
//! values of this type.

// Reached by every insert and query: failures must flow through the
// error taxonomy, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::{ArityDim, Error, Result};
use crate::lrp::Lrp;
use crate::tuple::GeneralizedTuple;
use crate::value::DataValue;
use crate::zone::DEFAULT_RESIDUE_BUDGET;
use std::collections::HashMap;
use std::fmt;

/// Arity signature of a generalized relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Schema {
    /// Number of temporal attributes (`m` in the paper).
    pub temporal: usize,
    /// Number of data attributes (`ℓ` in the paper).
    pub data: usize,
}

impl Schema {
    /// Creates a schema.
    pub fn new(temporal: usize, data: usize) -> Self {
        Schema { temporal, data }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(temporal: {}, data: {})", self.temporal, self.data)
    }
}

/// A generalized relation: a schema plus a set of generalized tuples.
///
/// Maintains a hash index from each tuple's data vector to the positions of
/// the tuples carrying it. Tuples with different data vectors denote
/// disjoint ground sets, so subsumption, membership and duplicate detection
/// only ever need the same-data bucket — the index turns those scans from
/// `O(|relation|)` into `O(|bucket|)`. The index is not part of the
/// relation's identity (`PartialEq` compares schema and tuples only).
#[derive(Debug, Clone)]
pub struct GeneralizedRelation {
    schema: Schema,
    tuples: Vec<GeneralizedTuple>,
    index: HashMap<Vec<DataValue>, Vec<usize>>,
}

impl PartialEq for GeneralizedRelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.tuples == other.tuples
    }
}

impl Eq for GeneralizedRelation {}

impl GeneralizedRelation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        GeneralizedRelation {
            schema,
            tuples: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Appends `t` to the tuple list and records it in the data index.
    /// The caller has already checked the schema.
    fn push_indexed(&mut self, t: GeneralizedTuple) {
        let key = t.data().to_vec();
        self.tuples.push(t);
        self.index
            .entry(key)
            .or_default()
            .push(self.tuples.len() - 1);
    }

    /// Rebuilds the data index from scratch after a bulk rewrite of the
    /// tuple list (normalize, coalesce).
    fn rebuild_index(&mut self) {
        self.index.clear();
        for (i, t) in self.tuples.iter().enumerate() {
            self.index.entry(t.data().to_vec()).or_default().push(i);
        }
    }

    /// Checks a tuple's arities against the schema, reporting the actual
    /// mismatching dimension and pair.
    fn check_schema_of(&self, t: &GeneralizedTuple) -> Result<()> {
        if t.temporal_arity() != self.schema.temporal {
            return Err(Error::TupleArityMismatch {
                dim: ArityDim::Temporal,
                expected: self.schema.temporal,
                found: t.temporal_arity(),
            });
        }
        if t.data_arity() != self.schema.data {
            return Err(Error::TupleArityMismatch {
                dim: ArityDim::Data,
                expected: self.schema.data,
                found: t.data_arity(),
            });
        }
        Ok(())
    }

    /// The tuples sharing the given data vector, via the index. Records the
    /// narrowing (bucket size vs. full scan) in [`crate::stats`].
    pub fn candidates(&self, data: &[DataValue]) -> Vec<&GeneralizedTuple> {
        let cand: Vec<&GeneralizedTuple> = self.bucket(data).collect();
        crate::stats::note_index_lookup(cand.len() as u64, self.tuples.len() as u64);
        itdb_trace::emit(|| itdb_trace::EventKind::IndexLookup {
            candidates: cand.len() as u64,
            scanned: self.tuples.len() as u64,
        });
        cand
    }

    /// The tuples stored with data vector `data`, in storage order: what
    /// [`Self::candidates`] returns, without its lookup accounting.
    pub fn bucket<'a>(
        &'a self,
        data: &[DataValue],
    ) -> impl Iterator<Item = &'a GeneralizedTuple> + 'a {
        self.index
            .get(data)
            .into_iter()
            .flatten()
            .map(|&i| &self.tuples[i])
    }

    /// Builds a relation from tuples, checking the schema of each.
    pub fn from_tuples(schema: Schema, tuples: Vec<GeneralizedTuple>) -> Result<Self> {
        let mut r = GeneralizedRelation::empty(schema);
        for t in tuples {
            r.insert(t)?;
        }
        Ok(r)
    }

    /// The relation's schema.
    pub fn schema(&self) -> Schema {
        self.schema
    }

    /// Number of generalized tuples (not ground tuples, which may be
    /// infinite).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the *representation* empty? (A nonempty representation may still
    /// denote the empty set; see [`GeneralizedRelation::is_empty_semantic`].)
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Does the relation denote the empty set of ground tuples?
    pub fn is_empty_semantic(&self, budget: u64) -> Result<bool> {
        for t in &self.tuples {
            if !t.is_empty(budget)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The tuples.
    pub fn tuples(&self) -> &[GeneralizedTuple] {
        &self.tuples
    }

    /// Inserts a tuple after checking its arities against the schema.
    pub fn insert(&mut self, t: GeneralizedTuple) -> Result<()> {
        self.check_schema_of(&t)?;
        self.push_indexed(t);
        Ok(())
    }

    /// Inserts a tuple only if it is not already subsumed by the relation;
    /// returns whether it was inserted. Used by fixpoint loops.
    ///
    /// Only tuples with the same data vector can subsume `t`, so the check
    /// runs against the index bucket, not the whole relation.
    pub fn insert_if_new(&mut self, t: GeneralizedTuple, budget: u64) -> Result<bool> {
        self.check_schema_of(&t)?;
        let same_data = self.candidates(t.data());
        if t.subsumed_by(&same_data, budget)? {
            return Ok(false);
        }
        self.push_indexed(t);
        Ok(true)
    }

    /// The seed's unindexed [`GeneralizedRelation::insert_if_new`]: subsumption
    /// against a full scan of the relation. Semantically identical to the
    /// indexed path; kept as the oracle baseline for tests and benchmarks.
    pub fn insert_if_new_naive(&mut self, t: GeneralizedTuple, budget: u64) -> Result<bool> {
        self.check_schema_of(&t)?;
        let existing: Vec<&GeneralizedTuple> = self.tuples.iter().collect();
        if t.subsumed_by(&existing, budget)? {
            return Ok(false);
        }
        self.push_indexed(t);
        Ok(true)
    }

    /// Membership of a ground tuple. Consults only the index bucket for
    /// `data`, since tuples with other data vectors cannot contain it.
    pub fn contains(&self, temporal: &[i64], data: &[DataValue]) -> bool {
        self.candidates(data)
            .iter()
            .any(|t| t.contains(temporal, data))
    }

    /// The seed's unindexed [`GeneralizedRelation::contains`]: a full scan.
    /// Kept as the oracle baseline for tests and benchmarks.
    pub fn contains_naive(&self, temporal: &[i64], data: &[DataValue]) -> bool {
        self.tuples.iter().any(|t| t.contains(temporal, data))
    }

    /// Normalizes the representation: canonicalizes tuples, drops empty
    /// ones, then removes tuples subsumed by the union of the others.
    ///
    /// Subsumption candidates are narrowed to same-data tuples via a local
    /// grouping (the persistent index is stale while the tuple list is being
    /// rewritten, and is rebuilt at the end).
    pub fn normalize(&mut self, budget: u64) -> Result<()> {
        let mut canon: Vec<GeneralizedTuple> =
            self.tuples.iter().filter_map(|t| t.canonical()).collect();
        let mut groups: HashMap<&[DataValue], Vec<usize>> = HashMap::new();
        for (i, t) in canon.iter().enumerate() {
            groups.entry(t.data()).or_default().push(i);
        }
        // Subsumption pruning, last-inserted first so that freshly derived
        // redundant tuples disappear before older, more general ones.
        let mut keep: Vec<bool> = vec![true; canon.len()];
        for i in (0..canon.len()).rev() {
            crate::governor::check_ambient()?;
            let bucket = groups.get(canon[i].data()).map_or(&[][..], Vec::as_slice);
            let others: Vec<&GeneralizedTuple> = bucket
                .iter()
                .filter(|&&j| j != i && keep[j])
                .map(|&j| &canon[j])
                .collect();
            crate::stats::note_index_lookup(others.len() as u64, canon.len() as u64);
            if canon[i].subsumed_by(&others, budget)? {
                keep[i] = false;
            }
        }
        drop(groups);
        let mut idx = 0;
        canon.retain(|_| {
            let k = keep[idx];
            idx += 1;
            k
        });
        self.tuples = canon;
        self.rebuild_index();
        Ok(())
    }

    /// Semantic containment: is every ground tuple of `self` in `other`?
    pub fn is_subset_of(&self, other: &GeneralizedRelation, budget: u64) -> Result<bool> {
        if self.schema != other.schema {
            return Err(Error::SchemaMismatch(format!(
                "{} vs {}",
                self.schema, other.schema
            )));
        }
        for t in &self.tuples {
            let others = other.candidates(t.data());
            if !t.subsumed_by(&others, budget)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Semantic equivalence of two representations.
    pub fn equivalent(&self, other: &GeneralizedRelation, budget: u64) -> Result<bool> {
        Ok(self.is_subset_of(other, budget)? && other.is_subset_of(self, budget)?)
    }

    /// Removes every stored tuple that `keep` rejects, preserving the
    /// storage order of the survivors and renumbering the data index in
    /// place. Returns the removed tuples in their original storage order —
    /// the deletion seed for downstream invalidation (DRed over-delete).
    pub fn remove_where(
        &mut self,
        mut keep: impl FnMut(&GeneralizedTuple) -> bool,
    ) -> Vec<GeneralizedTuple> {
        let mut removed = Vec::new();
        let mut kept = Vec::with_capacity(self.tuples.len());
        // The new position of every old one; `None` once removed.
        let mut moved = Vec::with_capacity(self.tuples.len());
        for t in self.tuples.drain(..) {
            if keep(&t) {
                moved.push(Some(kept.len()));
                kept.push(t);
            } else {
                moved.push(None);
                removed.push(t);
            }
        }
        self.tuples = kept;
        if !removed.is_empty() {
            self.index.retain(|_, bucket| {
                bucket.retain_mut(|i| moved[*i].map(|j| *i = j).is_some());
                !bucket.is_empty()
            });
        }
        removed
    }

    /// Removes every stored tuple semantically contained in `t` (including
    /// exact matches) — the retraction primitive. Only tuples sharing
    /// `t`'s data vector can be contained in it, so the check runs against
    /// the index bucket. Returns the removed tuples in storage order;
    /// empty means the retraction matched nothing in the *stored*
    /// representation (e.g. its content lives inside a broader tuple that
    /// `t` does not cover).
    pub fn remove_subsumed_by(
        &mut self,
        t: &GeneralizedTuple,
        budget: u64,
    ) -> Result<Vec<GeneralizedTuple>> {
        self.check_schema_of(t)?;
        let bucket: Vec<usize> = self.index.get(t.data()).cloned().unwrap_or_default();
        if bucket.is_empty() {
            return Ok(Vec::new());
        }
        let mut doomed = vec![false; self.tuples.len()];
        let cover = [t];
        for i in bucket {
            if self.tuples[i].subsumed_by(&cover, budget)? {
                doomed[i] = true;
            }
        }
        let mut idx = 0;
        Ok(self.remove_where(|_| {
            let d = doomed[idx];
            idx += 1;
            !d
        }))
    }

    /// All distinct data vectors appearing in tuples (the relation's active
    /// data domain), in first-appearance order.
    pub fn data_vectors(&self) -> Vec<Vec<DataValue>> {
        let mut seen: Vec<&[DataValue]> = Vec::with_capacity(self.index.len());
        let mut out: Vec<Vec<DataValue>> = Vec::with_capacity(self.index.len());
        for t in &self.tuples {
            if !seen.contains(&t.data()) {
                seen.push(t.data());
                out.push(t.data().to_vec());
            }
        }
        out
    }

    /// Enumerates all ground tuples whose temporal components lie in
    /// `[lo, hi]^m`, deduplicated and sorted.
    pub fn enumerate_window(&self, lo: i64, hi: i64) -> Vec<(Vec<i64>, Vec<DataValue>)> {
        let mut out: Vec<(Vec<i64>, Vec<DataValue>)> = Vec::new();
        for t in &self.tuples {
            out.extend(t.enumerate_window(lo, hi));
        }
        out.sort();
        out.dedup();
        out
    }

    /// Normalize with the default residue budget.
    pub fn normalize_default(&mut self) -> Result<()> {
        self.normalize(DEFAULT_RESIDUE_BUDGET)
    }

    /// Coalesces residue-class tuples into coarser ones where that loses
    /// nothing: for each tuple, candidate coarsenings divide every lrp
    /// period by a common factor; a candidate is kept only if it is
    /// **exactly covered** by the existing relation (checked by zone
    /// subsumption), after which [`GeneralizedRelation::normalize`] drops
    /// the finer tuples it absorbs.
    ///
    /// Example: the seven Example 4.1 tuples `(168n+10+24k, …+2)` coalesce
    /// into the single tuple `(24n+10, 24n+12)`.
    pub fn coalesce(&mut self, budget: u64) -> Result<()> {
        let _span = itdb_trace::span(itdb_trace::SpanKind::Op, "relation.coalesce");
        self.normalize(budget)?;
        loop {
            let mut improved = false;
            'scan: for i in 0..self.tuples.len() {
                crate::governor::check_ambient()?;
                let t = &self.tuples[i];
                if t.temporal_arity() == 0 {
                    continue;
                }
                let g = t
                    .zone()
                    .lrps()
                    .iter()
                    .map(|l| l.period())
                    .fold(0i64, |a, b| if a == 0 { b } else { crate::lrp::gcd(a, b) });
                if g <= 1 {
                    continue;
                }
                // Only *prime* divisors need testing: a composite
                // coarsening is reachable by chaining its prime steps
                // (each intermediate class is a superset of the final one,
                // hence covered whenever the final one is), and small
                // factors keep the verification splits cheap.
                let mut factors: Vec<i64> = Vec::new();
                let mut rest = g;
                let mut q = 2;
                while q * q <= rest {
                    if rest % q == 0 {
                        factors.push(q);
                        while rest % q == 0 {
                            rest /= q;
                        }
                    }
                    q += 1;
                }
                if rest > 1 {
                    factors.push(rest);
                }
                for f in factors {
                    let lrps: Result<Vec<Lrp>> = t
                        .zone()
                        .lrps()
                        .iter()
                        .map(|l| Lrp::new(l.period() / f, l.offset()))
                        .collect();
                    let Ok(lrps) = lrps else { continue };
                    let candidate = GeneralizedTuple::new(
                        crate::zone::Zone::from_parts(lrps, t.zone().dbm().clone())?,
                        t.data().to_vec(),
                    );
                    let existing = self.candidates(candidate.data());
                    // An over-aggressive coarsening can make the exact
                    // verification itself exceed the residue budget; treat
                    // that as "not covered" and try the next factor.
                    let covered = match candidate.subsumed_by(&existing, budget) {
                        Ok(c) => c,
                        Err(Error::ResidueBudget { .. }) => false,
                        Err(e) => return Err(e),
                    };
                    if covered {
                        // Keep only tuples the candidate does not absorb
                        // (absorbing at least the seed tuple `t`), then the
                        // candidate itself. All fallible subsumption checks
                        // run before any mutation, so an error (e.g. a
                        // governor trip) leaves the relation intact.
                        let mut absorbed = vec![false; self.tuples.len()];
                        for (old, flag) in self.tuples.iter().zip(absorbed.iter_mut()) {
                            *flag = match old.subsumed_by(&[&candidate], budget) {
                                Ok(a) => a,
                                Err(Error::ResidueBudget { .. }) => false,
                                Err(e) => return Err(e),
                            };
                        }
                        let mut idx = 0;
                        self.tuples.retain(|_| {
                            let keep = !absorbed[idx];
                            idx += 1;
                            keep
                        });
                        self.tuples.push(candidate);
                        self.rebuild_index();
                        improved = true;
                        // The tuple list changed shape; rescan from the top.
                        break 'scan;
                    }
                }
            }
            if !improved {
                return Ok(());
            }
        }
    }
}

impl fmt::Display for GeneralizedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{{")?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::constraint::{Constraint, Var};
    use crate::lrp::Lrp;
    use crate::zone::DEFAULT_RESIDUE_BUDGET as B;

    fn lrp(p: i64, b: i64) -> Lrp {
        Lrp::new(p, b).unwrap()
    }

    fn tup(p: i64, b: i64, data: &str) -> GeneralizedTuple {
        GeneralizedTuple::build(vec![lrp(p, b)], &[], vec![DataValue::sym(data)]).unwrap()
    }

    #[test]
    fn schema_checked_on_insert() {
        let mut r = GeneralizedRelation::empty(Schema::new(1, 1));
        assert!(r.insert(tup(5, 0, "a")).is_ok());
        let bad = GeneralizedTuple::build(vec![lrp(5, 0), lrp(5, 0)], &[], vec![]).unwrap();
        assert!(matches!(
            r.insert(bad),
            Err(Error::TupleArityMismatch { .. })
        ));
    }

    #[test]
    fn insert_if_new_reports_temporal_mismatch() {
        let mut r = GeneralizedRelation::empty(Schema::new(1, 1));
        // Two temporal attributes against a 1-temporal schema: the error
        // must name the temporal dimension and the actual pair.
        let bad =
            GeneralizedTuple::build(vec![lrp(5, 0), lrp(5, 0)], &[], vec![DataValue::sym("a")])
                .unwrap();
        assert_eq!(
            r.insert_if_new(bad.clone(), B),
            Err(Error::TupleArityMismatch {
                dim: crate::error::ArityDim::Temporal,
                expected: 1,
                found: 2,
            })
        );
        assert_eq!(
            r.insert_if_new_naive(bad, B).unwrap_err().to_string(),
            "temporal arity mismatch: schema expects 1, tuple has 2"
        );
    }

    #[test]
    fn insert_if_new_reports_data_mismatch() {
        let mut r = GeneralizedRelation::empty(Schema::new(1, 1));
        // Correct temporal arity, wrong data arity: before the fix this
        // reported the (matching!) temporal pair instead of the data pair.
        let bad = GeneralizedTuple::build(
            vec![lrp(5, 0)],
            &[],
            vec![DataValue::sym("a"), DataValue::sym("b")],
        )
        .unwrap();
        assert_eq!(
            r.insert_if_new(bad.clone(), B),
            Err(Error::TupleArityMismatch {
                dim: crate::error::ArityDim::Data,
                expected: 1,
                found: 2,
            })
        );
        assert_eq!(
            r.insert_if_new_naive(bad.clone(), B),
            Err(Error::TupleArityMismatch {
                dim: crate::error::ArityDim::Data,
                expected: 1,
                found: 2,
            })
        );
        assert!(matches!(
            r.insert(bad),
            Err(Error::TupleArityMismatch {
                dim: crate::error::ArityDim::Data,
                ..
            })
        ));
    }

    #[test]
    fn indexed_membership_matches_naive() {
        let r = GeneralizedRelation::from_tuples(
            Schema::new(1, 1),
            vec![tup(5, 0, "a"), tup(5, 3, "b"), tup(7, 1, "a")],
        )
        .unwrap();
        for t in -10..=30 {
            for d in ["a", "b", "c"] {
                let d = [DataValue::sym(d)];
                assert_eq!(r.contains(&[t], &d), r.contains_naive(&[t], &d), "t={t}");
            }
        }
    }

    #[test]
    fn indexed_insert_if_new_matches_naive() {
        let batch = vec![
            tup(2, 0, "a"),
            tup(4, 0, "a"), // subsumed by 2n (same data)
            tup(4, 0, "b"), // same zone, different data: genuinely new
            tup(2, 0, "a"), // exact duplicate
            tup(3, 1, "b"),
        ];
        let mut indexed = GeneralizedRelation::empty(Schema::new(1, 1));
        let mut naive = GeneralizedRelation::empty(Schema::new(1, 1));
        for t in batch {
            let a = indexed.insert_if_new(t.clone(), B).unwrap();
            let b = naive.insert_if_new_naive(t, B).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(indexed, naive);
    }

    #[test]
    fn membership_across_tuples() {
        let r = GeneralizedRelation::from_tuples(
            Schema::new(1, 1),
            vec![tup(5, 0, "a"), tup(5, 3, "b")],
        )
        .unwrap();
        assert!(r.contains(&[10], &[DataValue::sym("a")]));
        assert!(r.contains(&[8], &[DataValue::sym("b")]));
        assert!(!r.contains(&[8], &[DataValue::sym("a")]));
    }

    #[test]
    fn insert_if_new_detects_subsumption() {
        let mut r = GeneralizedRelation::empty(Schema::new(1, 0));
        let evens = GeneralizedTuple::build(vec![lrp(2, 0)], &[], vec![]).unwrap();
        let fours = GeneralizedTuple::build(vec![lrp(4, 0)], &[], vec![]).unwrap();
        assert!(r.insert_if_new(evens.clone(), B).unwrap());
        assert!(!r.insert_if_new(fours, B).unwrap()); // 4n ⊆ 2n
        assert!(!r.insert_if_new(evens, B).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn insert_if_new_union_subsumption() {
        let mut r = GeneralizedRelation::empty(Schema::new(1, 0));
        let z0 = GeneralizedTuple::build(vec![lrp(4, 0)], &[], vec![]).unwrap();
        let z2 = GeneralizedTuple::build(vec![lrp(4, 2)], &[], vec![]).unwrap();
        let evens = GeneralizedTuple::build(vec![lrp(2, 0)], &[], vec![]).unwrap();
        assert!(r.insert_if_new(z0, B).unwrap());
        assert!(r.insert_if_new(z2, B).unwrap());
        // evens = 4n ∪ 4n+2 is already covered by the union.
        assert!(!r.insert_if_new(evens, B).unwrap());
    }

    #[test]
    fn normalize_prunes() {
        let mut r = GeneralizedRelation::empty(Schema::new(1, 0));
        let evens = GeneralizedTuple::build(vec![lrp(2, 0)], &[], vec![]).unwrap();
        let fours = GeneralizedTuple::build(vec![lrp(4, 0)], &[], vec![]).unwrap();
        let empty =
            GeneralizedTuple::build(vec![lrp(2, 0)], &[Constraint::EqConst(Var(0), 1)], vec![])
                .unwrap();
        r.insert(fours).unwrap();
        r.insert(evens).unwrap();
        r.insert(empty).unwrap();
        r.normalize(B).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[2], &[]));
    }

    #[test]
    fn semantic_emptiness() {
        let mut r = GeneralizedRelation::empty(Schema::new(1, 0));
        r.insert(
            GeneralizedTuple::build(vec![lrp(2, 0)], &[Constraint::EqConst(Var(0), 1)], vec![])
                .unwrap(),
        )
        .unwrap();
        assert!(!r.is_empty());
        assert!(r.is_empty_semantic(B).unwrap());
    }

    #[test]
    fn equivalence_of_different_representations() {
        // {4n, 4n+2} ≡ {2n}.
        let a = GeneralizedRelation::from_tuples(
            Schema::new(1, 0),
            vec![
                GeneralizedTuple::build(vec![lrp(4, 0)], &[], vec![]).unwrap(),
                GeneralizedTuple::build(vec![lrp(4, 2)], &[], vec![]).unwrap(),
            ],
        )
        .unwrap();
        let b = GeneralizedRelation::from_tuples(
            Schema::new(1, 0),
            vec![GeneralizedTuple::build(vec![lrp(2, 0)], &[], vec![]).unwrap()],
        )
        .unwrap();
        assert!(a.equivalent(&b, B).unwrap());
        let c = GeneralizedRelation::from_tuples(
            Schema::new(1, 0),
            vec![GeneralizedTuple::build(vec![lrp(4, 0)], &[], vec![]).unwrap()],
        )
        .unwrap();
        assert!(!a.equivalent(&c, B).unwrap());
        assert!(c.is_subset_of(&a, B).unwrap());
    }

    #[test]
    fn schema_mismatch_on_subset() {
        let a = GeneralizedRelation::empty(Schema::new(1, 0));
        let b = GeneralizedRelation::empty(Schema::new(2, 0));
        assert!(matches!(
            a.is_subset_of(&b, B),
            Err(Error::SchemaMismatch(_))
        ));
    }

    #[test]
    fn data_vectors_dedup() {
        let r = GeneralizedRelation::from_tuples(
            Schema::new(1, 1),
            vec![tup(5, 0, "a"), tup(7, 1, "a"), tup(3, 2, "b")],
        )
        .unwrap();
        let dv = r.data_vectors();
        assert_eq!(dv.len(), 2);
        assert_eq!(dv[0], vec![DataValue::sym("a")]);
        assert_eq!(dv[1], vec![DataValue::sym("b")]);
    }

    #[test]
    fn coalesce_merges_residue_classes() {
        // {4n, 4n+2} → {2n}.
        let mut r = GeneralizedRelation::from_tuples(
            Schema::new(1, 0),
            vec![
                GeneralizedTuple::build(vec![lrp(4, 0)], &[], vec![]).unwrap(),
                GeneralizedTuple::build(vec![lrp(4, 2)], &[], vec![]).unwrap(),
            ],
        )
        .unwrap();
        let before = r.clone();
        r.coalesce(B).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].zone().lrp(0), lrp(2, 0));
        assert!(r.equivalent(&before, B).unwrap());
    }

    #[test]
    fn coalesce_example_4_1_shape() {
        // The seven problems tuples (offsets 10 + 24k mod 168, paired
        // columns with T2 = T1 + 2) coalesce to one tuple mod 24.
        let mut text = String::new();
        for k in 0..7 {
            let o = 10 + 24 * k;
            text.push_str(&format!(
                "(168n+{o}, 168n+{}; database) : T2 = T1 + 2\n",
                o + 2
            ));
        }
        let mut r = crate::parser::parse_relation(&text).unwrap();
        let before = r.clone();
        r.coalesce(B).unwrap();
        assert_eq!(r.len(), 1, "{r}");
        assert_eq!(r.tuples()[0].zone().lrp(0), lrp(24, 10));
        assert_eq!(r.tuples()[0].zone().lrp(1), lrp(24, 12));
        assert!(r.equivalent(&before, B).unwrap());
    }

    #[test]
    fn coalesce_does_not_overmerge() {
        // {4n, 4n+1}: not a coarser class (gaps at 2, 3 mod 4) — stays two
        // tuples and keeps its semantics.
        let mut r = GeneralizedRelation::from_tuples(
            Schema::new(1, 0),
            vec![
                GeneralizedTuple::build(vec![lrp(4, 0)], &[], vec![]).unwrap(),
                GeneralizedTuple::build(vec![lrp(4, 1)], &[], vec![]).unwrap(),
            ],
        )
        .unwrap();
        let before = r.clone();
        r.coalesce(B).unwrap();
        assert!(r.equivalent(&before, B).unwrap());
        for t in -20..20 {
            assert_eq!(r.contains(&[t], &[]), t.rem_euclid(4) <= 1, "t={t}");
        }
    }

    #[test]
    fn coalesce_respects_constraints() {
        // Same classes but different constraint windows must not merge into
        // an unconstrained class.
        let mut r = crate::parser::parse_relation("(4n) : T1 >= 0\n(4n+2) : T1 >= 100").unwrap();
        let before = r.clone();
        r.coalesce(B).unwrap();
        assert!(r.equivalent(&before, B).unwrap());
        assert!(r.contains(&[0], &[]));
        assert!(!r.contains(&[2], &[]));
        assert!(r.contains(&[102], &[]));
    }

    #[test]
    fn remove_subsumed_by_deletes_contained_tuples_only() {
        let mut r = GeneralizedRelation::from_tuples(
            Schema::new(1, 1),
            vec![tup(10, 0, "a"), tup(10, 5, "a"), tup(10, 0, "b")],
        )
        .unwrap();
        // (10n+0; a) is contained in itself; (10n+5; a) and the other
        // datum are untouched.
        let removed = r.remove_subsumed_by(&tup(10, 0, "a"), B).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[5], &[DataValue::sym("a")]));
        assert!(r.contains(&[0], &[DataValue::sym("b")]));
        assert!(!r.contains(&[0], &[DataValue::sym("a")]));
        // The index survives the rewrite: candidate narrowing still works.
        assert_eq!(r.candidates(&[DataValue::sym("a")]).len(), 1);
        // A broader retraction sweeps every contained tuple of its datum.
        let mut r2 = GeneralizedRelation::from_tuples(
            Schema::new(1, 1),
            vec![tup(10, 0, "a"), tup(20, 10, "a"), tup(10, 0, "b")],
        )
        .unwrap();
        let removed = r2.remove_subsumed_by(&tup(5, 0, "a"), B).unwrap();
        assert_eq!(removed.len(), 2, "both a-tuples lie inside (5n+0; a)");
        assert_eq!(r2.len(), 1);
    }

    #[test]
    fn remove_subsumed_by_misses_content_inside_broader_tuples() {
        // Retraction operates on the stored representation: content folded
        // into a broader stored tuple is NOT carved out.
        let mut r =
            GeneralizedRelation::from_tuples(Schema::new(1, 1), vec![tup(5, 0, "a")]).unwrap();
        let removed = r.remove_subsumed_by(&tup(10, 0, "a"), B).unwrap();
        assert!(removed.is_empty(), "(10n+0) is inside (5n+0), not equal");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn remove_where_preserves_survivor_order() {
        let mut r = GeneralizedRelation::from_tuples(
            Schema::new(1, 1),
            vec![tup(10, 1, "a"), tup(10, 2, "a"), tup(10, 3, "a")],
        )
        .unwrap();
        let victim = tup(10, 2, "a");
        let removed = r.remove_where(|t| *t != victim);
        assert_eq!(removed, vec![victim]);
        assert_eq!(r.tuples(), &[tup(10, 1, "a"), tup(10, 3, "a")]);
        assert!(r.contains(&[3], &[DataValue::sym("a")]), "index rebuilt");
    }

    #[test]
    fn window_enumeration_dedups_overlap() {
        let r = GeneralizedRelation::from_tuples(
            Schema::new(1, 0),
            vec![
                GeneralizedTuple::build(vec![lrp(2, 0)], &[], vec![]).unwrap(),
                GeneralizedTuple::build(vec![lrp(4, 0)], &[], vec![]).unwrap(),
            ],
        )
        .unwrap();
        let g = r.enumerate_window(0, 8);
        let times: Vec<i64> = g.iter().map(|(t, _)| t[0]).collect();
        assert_eq!(times, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn display_lists_tuples() {
        let r = GeneralizedRelation::from_tuples(Schema::new(1, 1), vec![tup(5, 0, "a")]).unwrap();
        let s = r.to_string();
        assert!(s.contains("5n+0"), "{s}");
        assert!(s.contains("a"), "{s}");
    }
}
