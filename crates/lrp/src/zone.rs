//! Periodic zones: the temporal part of a generalized tuple.
//!
//! A zone couples one [`Lrp`] per temporal attribute with a [`Dbm`] over
//! those attributes (plus the zero variable). Its denotation is
//!
//! ```text
//! { (t_1, …, t_m) | t_k ∈ lrp_k for all k, and the DBM constraints hold }
//! ```
//!
//! exactly the paper's ground generalized tuple (§2.1), minus the data
//! columns which live one level up in [`crate::tuple`].
//!
//! # Exactness strategy
//!
//! Difference constraints and congruences interact: `T1 < T2 < T1 + 2` with
//! both attributes even forces `T2 = T1 + 1`, which is unsatisfiable. Plain
//! DBM reasoning misses this. We recover exactness in two steps:
//!
//! 1. **Congruence tightening**: a bound `Ti − Tj ≤ c` can be tightened to
//!    the largest value `≤ c` congruent to `offset_i − offset_j` modulo
//!    `gcd(period_i, period_j)` (the zero variable has exact value 0, so
//!    edges touching it tighten modulo the full period of the other side).
//!    Tightening is interleaved with Floyd–Warshall closure to a fixpoint.
//! 2. **Uniformization**: a zone whose attributes all share one period `P`
//!    is *uniform*. For uniform zones, tightened closure is exact: the
//!    substitution `t_k = P·y_k + offset_k` turns the system into a pure
//!    integer DBM over `y`, for which closure decides satisfiability and
//!    projection is row/column deletion. An arbitrary zone is converted to a
//!    finite union of uniform zones by splitting every lrp of period `p`
//!    into the `P/p` residue classes modulo `P = lcm` of all periods. The
//!    split factor is budgeted (see [`Error::ResidueBudget`]).

// Reached by every insert and query: failures must flow through the
// error taxonomy, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::bound::Bound;
use crate::constraint::Constraint;
use crate::dbm::Dbm;
use crate::error::{Error, Result};
use crate::lrp::{lcm, Lrp};

/// Default budget for uniformization splits (number of residue
/// combinations). Generous for typical workloads; raise it explicitly for
/// adversarial period structures.
pub const DEFAULT_RESIDUE_BUDGET: u64 = 1 << 20;

/// The temporal component of a generalized tuple: per-attribute lrps plus
/// difference constraints. See the module documentation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Zone {
    lrps: Vec<Lrp>,
    dbm: Dbm,
}

impl Zone {
    /// A zone with the given lrps and no constraints.
    pub fn new(lrps: Vec<Lrp>) -> Self {
        let dbm = Dbm::unconstrained(lrps.len());
        Zone { lrps, dbm }
    }

    /// A zone with lrps and an initial constraint set.
    pub fn with_constraints(lrps: Vec<Lrp>, constraints: &[Constraint]) -> Result<Self> {
        let mut z = Zone::new(lrps);
        for c in constraints {
            c.apply(&mut z.dbm)?;
        }
        Ok(z)
    }

    /// A zone of the given arity covering all of `ℤ^arity`.
    pub fn top(arity: usize) -> Self {
        Zone::new(vec![Lrp::all_integers(); arity])
    }

    /// Builds a zone from parts. The DBM dimension must be `lrps.len() + 1`.
    pub fn from_parts(lrps: Vec<Lrp>, dbm: Dbm) -> Result<Self> {
        if dbm.nvars() != lrps.len() {
            return Err(Error::ArityMismatch {
                expected: lrps.len(),
                found: dbm.nvars(),
            });
        }
        Ok(Zone { lrps, dbm })
    }

    /// Temporal arity.
    pub fn arity(&self) -> usize {
        self.lrps.len()
    }

    /// The lrp of attribute `k`.
    pub fn lrp(&self, k: usize) -> Lrp {
        self.lrps[k]
    }

    /// All lrps.
    pub fn lrps(&self) -> &[Lrp] {
        &self.lrps
    }

    /// The constraint matrix.
    pub fn dbm(&self) -> &Dbm {
        &self.dbm
    }

    /// Mutable access to the constraint matrix (for advanced callers such as
    /// the deductive engine's clause compiler).
    pub fn dbm_mut(&mut self) -> &mut Dbm {
        &mut self.dbm
    }

    /// Adds a constraint.
    pub fn add_constraint(&mut self, c: Constraint) -> Result<()> {
        c.apply(&mut self.dbm)
    }

    /// Point membership.
    pub fn contains_point(&self, point: &[i64]) -> bool {
        point.len() == self.arity()
            && self.lrps.iter().zip(point).all(|(l, t)| l.contains(*t))
            && self.dbm.satisfied_by(point)
    }

    /// Is every attribute's period equal (making the zone *uniform*)?
    pub fn is_uniform(&self) -> bool {
        self.lrps.windows(2).all(|w| w[0].period() == w[1].period())
    }

    /// The least common multiple of all attribute periods (1 for arity 0).
    pub fn uniform_period(&self) -> Result<i64> {
        self.lrps
            .iter()
            .try_fold(1i64, |acc, l| lcm(acc, l.period()))
    }

    /// Product of split factors `P / p_k` when uniformizing to period `P`.
    fn split_factor(&self, p: i64) -> u64 {
        self.lrps
            .iter()
            .map(|l| (p / l.period()) as u64)
            .fold(1u64, |a, b| a.saturating_mul(b))
    }

    /// Congruence tightening + closure, iterated to a fixpoint.
    ///
    /// Returns `false` when the zone was detected empty. A `true` result
    /// means "not refuted": for uniform zones it is exact (see module docs);
    /// for mixed-period zones use [`Zone::is_empty`].
    pub fn canonicalize(&mut self) -> bool {
        crate::stats::note_canonicalize();
        // Iteration terminates: every round either closes with no change or
        // strictly tightens some finite bound, and bounds are bounded below
        // through the negative-cycle check. Cap defensively anyway.
        let cap = 4 * (self.arity() + 2);
        for _ in 0..cap {
            if !self.dbm.close() {
                return false;
            }
            let mut changed = self.tighten_congruences();
            if self.propagate_equalities_into_lrps() {
                changed = true;
            }
            match self.check_pinned_attributes() {
                Some(false) => return false,
                Some(true) => {}
                None => return false,
            }
            if !changed {
                return true;
            }
        }
        // Fixpoint not reached within the cap; the zone is still a sound
        // (possibly non-canonical) representation.
        self.dbm.close()
    }

    /// One pass of congruence tightening. Returns whether anything changed.
    fn tighten_congruences(&mut self) -> bool {
        let dim = self.dbm.dim();
        let mut changed = false;
        for i in 0..dim {
            for j in 0..dim {
                if i == j {
                    continue;
                }
                let Some(c) = self.dbm.get(i, j).finite() else {
                    continue;
                };
                let (g, diff) = self.edge_modulus(i, j);
                if g <= 1 {
                    continue;
                }
                // Largest c' <= c with c' ≡ diff (mod g).
                let c2 = c - (c - diff).rem_euclid(g);
                if c2 < c {
                    self.dbm.set(i, j, Bound::Finite(c2));
                    changed = true;
                }
            }
        }
        changed
    }

    /// For matrix edge (i, j): the modulus `g` and target residue
    /// `offset_i − offset_j mod g` the difference must satisfy. The zero
    /// variable (index 0) has exact value 0, hence behaves as period ∞
    /// (gcd with anything = the other period) and offset 0.
    fn edge_modulus(&self, i: usize, j: usize) -> (i64, i64) {
        let (pi, bi) = if i == 0 {
            (0, 0)
        } else {
            (self.lrps[i - 1].period(), self.lrps[i - 1].offset())
        };
        let (pj, bj) = if j == 0 {
            (0, 0)
        } else {
            (self.lrps[j - 1].period(), self.lrps[j - 1].offset())
        };
        let g = gcd0(pi, pj);
        if g <= 1 {
            return (1, 0);
        }
        (g, (bi - bj).rem_euclid(g))
    }

    /// Propagates forced equalities (`m[i][j] + m[j][i] = 0`) into the lrps
    /// by intersecting residue classes. Returns whether any lrp changed;
    /// marks emptiness by leaving an unsatisfiable DBM (caller re-closes).
    fn propagate_equalities_into_lrps(&mut self) -> bool {
        let n = self.arity();
        let mut changed = false;
        for a in 0..n {
            for b in (a + 1)..n {
                let (i, j) = (a + 1, b + 1);
                let (Some(cij), Some(cji)) =
                    (self.dbm.get(i, j).finite(), self.dbm.get(j, i).finite())
                else {
                    continue;
                };
                if cij.saturating_add(cji) != 0 {
                    continue;
                }
                // x_a = x_b + cij.
                let shifted = match self.lrps[b].shift(cij) {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                match self.lrps[a].intersect(&shifted) {
                    Ok(Some(meet)) => {
                        if meet != self.lrps[a] {
                            self.lrps[a] = meet;
                            changed = true;
                        }
                        if let Ok(Some(back)) =
                            self.lrps[b].intersect(&meet.shift(-cij).unwrap_or(meet))
                        {
                            if back != self.lrps[b] {
                                self.lrps[b] = back;
                                changed = true;
                            }
                        }
                    }
                    Ok(None) | Err(_) => {
                        // Residue classes clash: the zone is empty. Record it
                        // as an immediate contradiction in the DBM.
                        self.dbm.add_le(0, 0, -1);
                        return true;
                    }
                }
            }
        }
        changed
    }

    /// Checks attributes pinned to a constant (`x_k = c`): the constant must
    /// lie in the attribute's lrp. `Some(true)` = fine, `None` = empty.
    fn check_pinned_attributes(&mut self) -> Option<bool> {
        for k in 0..self.arity() {
            let i = k + 1;
            let (Some(hi), Some(lo)) = (self.dbm.get(i, 0).finite(), self.dbm.get(0, i).finite())
            else {
                continue;
            };
            if hi.saturating_add(lo) == 0 && !self.lrps[k].contains(hi) {
                self.dbm.add_le(0, 0, -1);
                return None;
            }
        }
        Some(true)
    }

    /// Splits into uniform zones of period `P = lcm(periods)`, dropping
    /// pieces detected empty. Each returned zone is canonical and uniform.
    pub fn split_uniform(&self, budget: u64) -> Result<Vec<Zone>> {
        let p = self.uniform_period()?;
        let factor = self.split_factor(p);
        if factor > budget {
            return Err(Error::ResidueBudget { budget });
        }
        let n = self.arity();
        let mut out = Vec::new();
        // Enumerate residue choices with mixed-radix counters.
        let radices: Vec<i64> = self.lrps.iter().map(|l| p / l.period()).collect();
        let mut counter = vec![0i64; n];
        loop {
            crate::governor::check_ambient()?;
            let lrps = (0..n)
                .map(|k| {
                    let base = &self.lrps[k];
                    Lrp::new(p, base.offset() + counter[k] * base.period())
                })
                .collect::<Result<Vec<Lrp>>>()?;
            let mut piece = Zone {
                lrps,
                dbm: self.dbm.clone(),
            };
            if piece.canonicalize() && !piece.uniform_is_empty() {
                out.push(piece);
            }
            // Increment counter.
            let mut k = 0;
            loop {
                if k == n {
                    return Ok(out);
                }
                counter[k] += 1;
                if counter[k] < radices[k] {
                    break;
                }
                counter[k] = 0;
                k += 1;
            }
        }
    }

    /// Exact emptiness for **uniform, canonicalized** zones via the `y`-space
    /// transform. Must only be called after [`Zone::canonicalize`] returned
    /// `true` on a uniform zone.
    fn uniform_is_empty(&self) -> bool {
        debug_assert!(self.is_uniform());
        !self.y_dbm().close()
    }

    /// The pure integer DBM over `y` where `x_k = P·y_k + offset_k`
    /// (uniform zones only; the zero variable stays at index 0 with
    /// `offset = 0`).
    fn y_dbm(&self) -> Dbm {
        debug_assert!(self.is_uniform());
        let p = self.lrps.first().map_or(1, |l| l.period());
        let n = self.arity();
        let off = |i: usize| if i == 0 { 0 } else { self.lrps[i - 1].offset() };
        let mut y = Dbm::unconstrained(n);
        for i in 0..=n {
            for j in 0..=n {
                if i == j {
                    continue;
                }
                if let Some(c) = self.dbm.get(i, j).finite() {
                    y.set(i, j, Bound::Finite((c - off(i) + off(j)).div_euclid(p)));
                }
            }
        }
        y
    }

    /// Rebuilds an x-space zone from a y-space DBM and residue offsets.
    fn from_y_dbm(y: &Dbm, p: i64, offsets: &[i64]) -> Result<Zone> {
        let n = y.nvars();
        debug_assert_eq!(offsets.len(), n);
        let lrps = offsets
            .iter()
            .map(|&b| Lrp::new(p, b))
            .collect::<Result<Vec<Lrp>>>()?;
        let mut dbm = Dbm::unconstrained(n);
        let off = |i: usize| if i == 0 { 0 } else { offsets[i - 1] };
        for i in 0..=n {
            for j in 0..=n {
                if i == j {
                    continue;
                }
                if let Some(c) = y.get(i, j).finite() {
                    dbm.set(
                        i,
                        j,
                        Bound::Finite(c.saturating_mul(p).saturating_add(off(i) - off(j))),
                    );
                }
            }
        }
        Ok(Zone { lrps, dbm })
    }

    /// Exact emptiness test.
    pub fn is_empty(&self, budget: u64) -> Result<bool> {
        let mut z = self.clone();
        if !z.canonicalize() {
            return Ok(true);
        }
        if z.is_uniform() {
            return Ok(z.uniform_is_empty());
        }
        Ok(z.split_uniform(budget)?.is_empty())
    }

    /// Exact emptiness with the default budget.
    pub fn is_empty_default(&self) -> Result<bool> {
        self.is_empty(DEFAULT_RESIDUE_BUDGET)
    }

    /// Conjunction of two zones of equal arity. Returns `None` when a
    /// residue clash makes the result trivially empty; a `Some` result may
    /// still be empty through its constraints.
    pub fn conjoin(&self, other: &Zone) -> Result<Option<Zone>> {
        if self.arity() != other.arity() {
            return Err(Error::ArityMismatch {
                expected: self.arity(),
                found: other.arity(),
            });
        }
        let mut lrps = Vec::with_capacity(self.arity());
        for (a, b) in self.lrps.iter().zip(other.lrps.iter()) {
            match a.intersect(b)? {
                Some(meet) => lrps.push(meet),
                None => return Ok(None),
            }
        }
        let mut dbm = self.dbm.clone();
        dbm.conjoin(&other.dbm);
        Ok(Some(Zone { lrps, dbm }))
    }

    /// Shifts attribute `k` by `c`: the result denotes
    /// `{ x with x_k + c | x ∈ self }`.
    pub fn shift_attr(&mut self, k: usize, c: i64) -> Result<()> {
        if k >= self.arity() {
            return Err(Error::VariableOutOfRange {
                index: k,
                arity: self.arity(),
            });
        }
        self.lrps[k] = self.lrps[k].shift(c)?;
        self.dbm.shift_var(k + 1, c);
        Ok(())
    }

    /// Exact projection onto the attributes listed in `keep` (in that
    /// order; duplicates are not allowed). Returns a union of zones.
    pub fn project(&self, keep: &[usize], budget: u64) -> Result<Vec<Zone>> {
        for &k in keep {
            if k >= self.arity() {
                return Err(Error::VariableOutOfRange {
                    index: k,
                    arity: self.arity(),
                });
            }
        }
        let remove: Vec<usize> = (0..self.arity())
            .filter(|a| !keep.contains(a))
            .map(|a| a + 1) // matrix indices
            .collect();
        let pieces = {
            let mut z = self.clone();
            if !z.canonicalize() {
                return Ok(Vec::new());
            }
            if z.is_uniform() {
                if z.uniform_is_empty() {
                    return Ok(Vec::new());
                }
                vec![z]
            } else {
                z.split_uniform(budget)?
            }
        };
        let mut out = Vec::with_capacity(pieces.len());
        for piece in pieces {
            crate::governor::check_ambient()?;
            // Pieces are canonical (tightened + closed), so dropping rows
            // and columns is the exact projection; then reorder to `keep`.
            let dropped = piece.dbm.drop_vars(&remove);
            let kept_attrs: Vec<usize> = (0..piece.arity()).filter(|a| keep.contains(a)).collect();
            // `dropped` lists kept attrs in ascending order; build the
            // permutation sending position `new` to the matrix index in
            // `dropped` of attribute `keep[new]`.
            let perm = keep
                .iter()
                .map(|&k| {
                    kept_attrs
                        .iter()
                        .position(|&a| a == k)
                        .map(|pos| pos + 1)
                        .ok_or(Error::VariableOutOfRange {
                            index: k,
                            arity: piece.arity(),
                        })
                })
                .collect::<Result<Vec<usize>>>()?;
            let dbm = dropped.permute_vars(&perm);
            let lrps: Vec<Lrp> = keep.iter().map(|&k| piece.lrps[k]).collect();
            out.push(Zone { lrps, dbm });
        }
        Ok(out)
    }

    /// Exact subsumption: is `self ⊆ other₁ ∪ … ∪ otherₙ` as point sets?
    pub fn subsumed_by(&self, others: &[&Zone], budget: u64) -> Result<bool> {
        for o in others {
            if o.arity() != self.arity() {
                return Err(Error::ArityMismatch {
                    expected: self.arity(),
                    found: o.arity(),
                });
            }
        }
        // A zone whose residues miss `self`'s on some column covers none of
        // its points. Dropping it leaves the answer as it is and can shrink
        // the common period, hence the split below.
        let others: Vec<&Zone> = others
            .iter()
            .copied()
            .filter(|o| {
                !self
                    .lrps
                    .iter()
                    .zip(&o.lrps)
                    .any(|(a, b)| matches!(a.intersect(b), Ok(None)))
            })
            .collect();
        // Common uniform period across self and the remaining others.
        let mut p = self.uniform_period()?;
        for o in &others {
            p = lcm(p, o.uniform_period()?)?;
        }
        let self_pieces = self.split_to_period(p, budget)?;
        if self_pieces.is_empty() {
            return Ok(true);
        }
        let mut other_pieces: Vec<Zone> = Vec::new();
        for o in &others {
            other_pieces.extend(o.split_to_period(p, budget)?);
        }
        for piece in &self_pieces {
            crate::governor::check_ambient()?;
            let offsets: Vec<i64> = piece.lrps.iter().map(|l| l.offset()).collect();
            // Only other-pieces with identical residue vectors can overlap.
            let candidates: Vec<Dbm> = other_pieces
                .iter()
                .filter(|op| {
                    op.lrps
                        .iter()
                        .map(|l| l.offset())
                        .eq(offsets.iter().copied())
                })
                .map(|op| {
                    let mut y = op.y_dbm();
                    y.close();
                    y
                })
                .collect();
            let mut a = piece.y_dbm();
            if !a.close() {
                continue; // piece empty (shouldn't happen post-split)
            }
            if !dbm_covered(&a, &candidates) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Exact set difference: `self \ (other₁ ∪ … ∪ otherₙ)` as a union of
    /// zones.
    pub fn subtract(&self, others: &[&Zone], budget: u64) -> Result<Vec<Zone>> {
        for o in others {
            if o.arity() != self.arity() {
                return Err(Error::ArityMismatch {
                    expected: self.arity(),
                    found: o.arity(),
                });
            }
        }
        let mut p = self.uniform_period()?;
        for o in others {
            p = lcm(p, o.uniform_period()?)?;
        }
        let self_pieces = self.split_to_period(p, budget)?;
        let mut other_pieces: Vec<Zone> = Vec::new();
        for o in others {
            other_pieces.extend(o.split_to_period(p, budget)?);
        }
        let mut out = Vec::new();
        for piece in &self_pieces {
            crate::governor::check_ambient()?;
            let offsets: Vec<i64> = piece.lrps.iter().map(|l| l.offset()).collect();
            let candidates: Vec<Dbm> = other_pieces
                .iter()
                .filter(|op| {
                    op.lrps
                        .iter()
                        .map(|l| l.offset())
                        .eq(offsets.iter().copied())
                })
                .map(|op| {
                    let mut y = op.y_dbm();
                    y.close();
                    y
                })
                .collect();
            let mut a = piece.y_dbm();
            if !a.close() {
                continue;
            }
            for rem in dbm_subtract_all(&a, &candidates) {
                out.push(Zone::from_y_dbm(&rem, p, &offsets)?);
            }
        }
        Ok(out)
    }

    /// Splits to uniform zones of the given period `P` (a multiple of the
    /// zone's own lcm of periods).
    fn split_to_period(&self, p: i64, budget: u64) -> Result<Vec<Zone>> {
        let own = self.uniform_period()?;
        debug_assert_eq!(p % own, 0, "target period must be a common multiple");
        let factor = self.split_factor(p);
        if factor > budget {
            return Err(Error::ResidueBudget { budget });
        }
        // Reuse split_uniform by first widening each lrp's notional period:
        // simplest correct approach is to split in two stages.
        let mut stage1 = {
            let mut z = self.clone();
            if !z.canonicalize() {
                return Ok(Vec::new());
            }
            z.split_uniform(budget)?
        };
        if p == own {
            return Ok(stage1);
        }
        let mut out = Vec::new();
        for z in stage1.drain(..) {
            let zp = z.uniform_period()?;
            let reps = p / zp;
            let n = z.arity();
            if n == 0 {
                out.push(z);
                continue;
            }
            let mut counter = vec![0i64; n];
            loop {
                crate::governor::check_ambient()?;
                let lrps = (0..n)
                    .map(|k| Lrp::new(p, z.lrps[k].offset() + counter[k] * zp))
                    .collect::<Result<Vec<Lrp>>>()?;
                let mut piece = Zone {
                    lrps,
                    dbm: z.dbm.clone(),
                };
                if piece.canonicalize() && !piece.uniform_is_empty() {
                    out.push(piece);
                }
                let mut k = 0;
                loop {
                    if k == n {
                        break;
                    }
                    counter[k] += 1;
                    if counter[k] < reps {
                        break;
                    }
                    counter[k] = 0;
                    k += 1;
                }
                if k == n {
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Cartesian product: a zone over the concatenated attribute lists with
    /// no cross-constraints.
    pub fn product(&self, other: &Zone) -> Zone {
        let mut lrps = Vec::with_capacity(self.arity() + other.arity());
        lrps.extend_from_slice(&self.lrps);
        lrps.extend_from_slice(&other.lrps);
        Zone {
            lrps,
            dbm: self.dbm.block_merge(&other.dbm),
        }
    }

    /// Complement within `ℤ^arity`, as a union of zones.
    ///
    /// `¬(L₁ × … × Lₘ ∧ C)` is the union of (a) for each attribute `k`, the
    /// zones where `t_k` misses `Lₖ` (one per other residue class modulo
    /// `period_k`, everything else unconstrained), and (b) for each finite
    /// bound of `C`, the zone with unconstrained lrps violating that bound.
    /// The pieces may overlap; union semantics absorb that.
    pub fn complement(&self) -> Vec<Zone> {
        let n = self.arity();
        // Canonicalize first: this both surfaces emptiness recorded on the
        // diagonal (whose complement is the whole space) and is harmless
        // otherwise, since tightening preserves the point set.
        let mut canon = self.clone();
        if !canon.canonicalize() {
            return vec![Zone::top(n)];
        }
        let mut out = Vec::new();
        for k in 0..n {
            for miss in canon.lrps[k].complement() {
                let mut lrps = vec![Lrp::all_integers(); n];
                lrps[k] = miss;
                out.push(Zone::new(lrps));
            }
        }
        for (i, j, c) in canon.dbm.finite_bounds() {
            // Violation: x_i − x_j ≥ c + 1, i.e. x_j − x_i ≤ −c−1.
            let mut z = Zone::top(n);
            z.dbm.add_le(j, i, c.saturating_neg().saturating_sub(1));
            out.push(z);
        }
        out
    }

    /// A satisfying point, if the zone is nonempty.
    pub fn sample_point(&self, budget: u64) -> Result<Option<Vec<i64>>> {
        let mut z = self.clone();
        if !z.canonicalize() {
            return Ok(None);
        }
        let pieces = if z.is_uniform() {
            vec![z]
        } else {
            z.split_uniform(budget)?
        };
        for piece in pieces {
            let mut y = piece.y_dbm();
            if !y.close() {
                continue;
            }
            if let Some(yp) = y.sample_point() {
                let p = piece.lrps.first().map_or(1, |l| l.period());
                let point: Vec<i64> = yp
                    .iter()
                    .zip(piece.lrps.iter())
                    .map(|(&y, l)| y * p + l.offset())
                    .collect();
                debug_assert!(piece.contains_point(&point), "{point:?}");
                return Ok(Some(point));
            }
        }
        Ok(None)
    }

    /// Enumerates all points of the zone inside `[lo, hi]^arity`, in
    /// lexicographic order. Intended for tests and the tuple-at-a-time
    /// baseline (experiment E3); cost is proportional to the output plus
    /// pruned branches.
    pub fn enumerate_window(&self, lo: i64, hi: i64) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        let mut partial = Vec::with_capacity(self.arity());
        self.enumerate_rec(lo, hi, &mut partial, &mut out);
        out
    }

    fn enumerate_rec(&self, lo: i64, hi: i64, partial: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        let k = partial.len();
        if k == self.arity() {
            out.push(partial.clone());
            return;
        }
        let i = k + 1;
        for t in self.lrps[k].iter_window(lo, hi) {
            // Prune with the bounds touching already-assigned variables and
            // the zero variable.
            let ok = (0..=k).all(|j| {
                let xj = if j == 0 { 0 } else { partial[j - 1] };
                let upper_ok = match self.dbm.get(i, j).finite() {
                    Some(c) => (t as i128) - (xj as i128) <= c as i128,
                    None => true,
                };
                let lower_ok = match self.dbm.get(j, i).finite() {
                    Some(c) => (xj as i128) - (t as i128) <= c as i128,
                    None => true,
                };
                upper_ok && lower_ok
            });
            if !ok {
                continue;
            }
            partial.push(t);
            self.enumerate_rec(lo, hi, partial, out);
            partial.pop();
        }
    }

    /// Structural canonical form used for hashing / deduplication: the
    /// canonicalized `(lrps, closed tightened DBM)` pair. Two zones with the
    /// same key denote the same set; the converse holds for uniform zones.
    pub fn canonical(&self) -> Option<Zone> {
        let mut z = self.clone();
        if z.canonicalize() {
            Some(z)
        } else {
            None
        }
    }
}

/// `a \ (∪ covers)` for closed integer DBMs, as a list of disjoint
/// closed DBM pieces. Pure integer DBM reasoning (used in y-space where it
/// is exact).
fn dbm_subtract_all(a: &Dbm, covers: &[Dbm]) -> Vec<Dbm> {
    let mut remainder = vec![a.clone()];
    for b in covers {
        if remainder.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for r in remainder {
            // r \ b = union over finite bounds (i,j,c) of b of
            // r ∧ (x_i − x_j ≥ c+1), intersected progressively with the
            // satisfied earlier bounds to keep the pieces disjoint.
            let mut base = r;
            let mut base_alive = true;
            for (i, j, c) in b.finite_bounds().collect::<Vec<_>>() {
                if !base_alive {
                    break;
                }
                // Piece violating this bound: base ∧ x_j − x_i ≤ −c−1.
                let mut piece = base.clone();
                piece.add_le(j, i, c.saturating_neg().saturating_sub(1));
                if piece.close() {
                    next.push(piece);
                }
                // Continue carving from the part satisfying the bound.
                base.add_le(i, j, c);
                base_alive = base.close();
            }
            // If base survives all bounds of b, it is inside b: discard it.
        }
        remainder = next;
    }
    remainder
}

/// Is the (closed, satisfiable) DBM `a` covered by the union of the closed
/// DBMs in `covers`?
fn dbm_covered(a: &Dbm, covers: &[Dbm]) -> bool {
    dbm_subtract_all(a, covers).is_empty()
}

/// gcd with the convention `gcd(0, x) = x` (period 0 encodes the exact zero
/// variable).
fn gcd0(a: i64, b: i64) -> i64 {
    if a == 0 {
        b
    } else if b == 0 {
        a
    } else {
        crate::lrp::gcd(a, b)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::constraint::Var;

    const B: u64 = DEFAULT_RESIDUE_BUDGET;

    fn lrp(p: i64, b: i64) -> Lrp {
        Lrp::new(p, b).unwrap()
    }

    /// Brute-force point set over a window, straight from the definition.
    fn brute(z: &Zone, lo: i64, hi: i64) -> Vec<Vec<i64>> {
        fn rec(z: &Zone, lo: i64, hi: i64, partial: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
            if partial.len() == z.arity() {
                if z.contains_point(partial) {
                    out.push(partial.clone());
                }
                return;
            }
            for t in lo..=hi {
                partial.push(t);
                rec(z, lo, hi, partial, out);
                partial.pop();
            }
        }
        let mut out = Vec::new();
        rec(z, lo, hi, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn course_example_zone() {
        // Example 4.1: (168n+8, 168n+10) with T2 = T1 + 2.
        let z = Zone::with_constraints(
            vec![lrp(168, 8), lrp(168, 10)],
            &[Constraint::EqVar(Var(1), Var(0), 2)],
        )
        .unwrap();
        assert!(z.contains_point(&[8, 10]));
        assert!(z.contains_point(&[176, 178]));
        assert!(z.contains_point(&[-160, -158]));
        assert!(!z.contains_point(&[8, 178]));
        assert!(!z.is_empty(B).unwrap());
    }

    #[test]
    fn congruence_clash_detected() {
        // T2 = T1 + 1 with both attributes even: empty.
        let z = Zone::with_constraints(
            vec![lrp(2, 0), lrp(2, 0)],
            &[Constraint::EqVar(Var(1), Var(0), 1)],
        )
        .unwrap();
        assert!(z.is_empty(B).unwrap());
    }

    #[test]
    fn strict_sandwich_forces_parity() {
        // T1 < T2 < T1 + 2 forces T2 = T1 + 1; with both even: empty.
        let z = Zone::with_constraints(
            vec![lrp(2, 0), lrp(2, 0)],
            &[
                Constraint::LtVar(Var(0), Var(1), 0),
                Constraint::LtVar(Var(1), Var(0), 2),
            ],
        )
        .unwrap();
        assert!(z.is_empty(B).unwrap());
        // Odd/even succeeds.
        let z = Zone::with_constraints(
            vec![lrp(2, 1), lrp(2, 0)],
            &[
                Constraint::LtVar(Var(0), Var(1), 0),
                Constraint::LtVar(Var(1), Var(0), 2),
            ],
        )
        .unwrap();
        assert!(!z.is_empty(B).unwrap());
        assert!(z.contains_point(&[1, 2]));
    }

    #[test]
    fn pinned_value_outside_lrp() {
        let z = Zone::with_constraints(vec![lrp(5, 3)], &[Constraint::EqConst(Var(0), 4)]).unwrap();
        assert!(z.is_empty(B).unwrap());
        let z = Zone::with_constraints(vec![lrp(5, 3)], &[Constraint::EqConst(Var(0), 8)]).unwrap();
        assert!(!z.is_empty(B).unwrap());
    }

    #[test]
    fn window_interval_vs_lrp_emptiness() {
        // T1 in 10n+7 with 0 <= T1 <= 5: empty (no residue point in window).
        let z = Zone::with_constraints(
            vec![lrp(10, 7)],
            &[
                Constraint::GeConst(Var(0), 0),
                Constraint::LeConst(Var(0), 5),
            ],
        )
        .unwrap();
        assert!(z.is_empty(B).unwrap());
        // Widen to 7: nonempty.
        let z = Zone::with_constraints(
            vec![lrp(10, 7)],
            &[
                Constraint::GeConst(Var(0), 0),
                Constraint::LeConst(Var(0), 7),
            ],
        )
        .unwrap();
        assert!(!z.is_empty(B).unwrap());
    }

    #[test]
    fn mixed_period_emptiness() {
        // T1 ∈ 4n, T2 ∈ 6n+3, T2 = T1 + 1: need 4a + 1 ≡ 3 (mod 6),
        // i.e. 4a ≡ 2 (mod 6) — a ≡ 2 (mod 3): satisfiable (e.g. 8, 9).
        let z = Zone::with_constraints(
            vec![lrp(4, 0), lrp(6, 3)],
            &[Constraint::EqVar(Var(1), Var(0), 1)],
        )
        .unwrap();
        assert!(!z.is_empty(B).unwrap());
        assert!(z.contains_point(&[8, 9]));
        // T2 = T1 + 2: 4a + 2 ≡ 3 (mod 6) → 4a ≡ 1 (mod 6): impossible (parity).
        let z = Zone::with_constraints(
            vec![lrp(4, 0), lrp(6, 3)],
            &[Constraint::EqVar(Var(1), Var(0), 2)],
        )
        .unwrap();
        assert!(z.is_empty(B).unwrap());
    }

    #[test]
    fn conjoin_refines() {
        let a = Zone::new(vec![lrp(2, 0)]);
        let b = Zone::new(vec![lrp(3, 1)]);
        let c = a.conjoin(&b).unwrap().unwrap();
        assert_eq!(c.lrp(0), lrp(6, 4));
        let odd = Zone::new(vec![lrp(2, 1)]);
        assert!(a.conjoin(&odd).unwrap().is_none());
    }

    #[test]
    fn conjoin_arity_mismatch() {
        let a = Zone::top(1);
        let b = Zone::top(2);
        assert!(matches!(a.conjoin(&b), Err(Error::ArityMismatch { .. })));
    }

    #[test]
    fn shift_attr_translates() {
        let mut z = Zone::with_constraints(
            vec![lrp(168, 8), lrp(168, 10)],
            &[Constraint::EqVar(Var(1), Var(0), 2)],
        )
        .unwrap();
        z.shift_attr(0, 2).unwrap();
        z.shift_attr(1, 2).unwrap();
        // The problems tuple of Example 4.1: (168n+10, 168n+12), T2 = T1+2.
        assert_eq!(z.lrp(0), lrp(168, 10));
        assert_eq!(z.lrp(1), lrp(168, 12));
        assert!(z.contains_point(&[10, 12]));
        assert!(!z.contains_point(&[10, 13]));
    }

    #[test]
    fn projection_simple() {
        // T2 = T1 + 2, project onto T2 alone: any T2 in 168n+12... take the
        // course zone shifted; projection keeps the lrp.
        let z = Zone::with_constraints(
            vec![lrp(168, 8), lrp(168, 10)],
            &[Constraint::EqVar(Var(1), Var(0), 2)],
        )
        .unwrap();
        let ps = z.project(&[1], B).unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].arity(), 1);
        assert!(ps[0].contains_point(&[10]));
        assert!(ps[0].contains_point(&[178]));
        assert!(!ps[0].contains_point(&[11]));
    }

    #[test]
    fn projection_reorders() {
        let z = Zone::with_constraints(
            vec![lrp(1, 0), lrp(1, 0)],
            &[Constraint::EqVar(Var(1), Var(0), 7)],
        )
        .unwrap();
        let ps = z.project(&[1, 0], B).unwrap();
        assert_eq!(ps.len(), 1);
        // New attribute 0 is old attribute 1 = old attr 0 + 7.
        assert!(ps[0].contains_point(&[7, 0]));
        assert!(!ps[0].contains_point(&[0, 7]));
    }

    #[test]
    fn projection_with_congruence_refinement() {
        // T1 < U < T1 + 2 with U even (no congruence on T1): projecting out
        // U forces T1 odd. The naive DBM drop would say "any T1".
        let z = Zone::with_constraints(
            vec![lrp(1, 0), lrp(2, 0)],
            &[
                Constraint::LtVar(Var(0), Var(1), 0),
                Constraint::LtVar(Var(1), Var(0), 2),
            ],
        )
        .unwrap();
        let ps = z.project(&[0], B).unwrap();
        let holds = |t: i64| ps.iter().any(|p| p.contains_point(&[t]));
        for t in -10..10 {
            assert_eq!(holds(t), t.rem_euclid(2) == 1, "t={t}");
        }
    }

    #[test]
    fn projection_matches_brute_force() {
        // A battery of small zones; compare projection with point semantics.
        let cases: Vec<Zone> = vec![
            Zone::with_constraints(
                vec![lrp(2, 0), lrp(3, 1), lrp(1, 0)],
                &[
                    Constraint::LtVar(Var(0), Var(1), 4),
                    Constraint::LeVar(Var(2), Var(1), 1),
                    Constraint::GeConst(Var(0), -6),
                    Constraint::LeConst(Var(2), 9),
                ],
            )
            .unwrap(),
            Zone::with_constraints(
                vec![lrp(4, 1), lrp(2, 0)],
                &[Constraint::LtVar(Var(1), Var(0), 3)],
            )
            .unwrap(),
            Zone::with_constraints(
                vec![lrp(3, 0), lrp(3, 2)],
                &[
                    Constraint::EqVar(Var(1), Var(0), 2),
                    Constraint::GeConst(Var(0), 0),
                ],
            )
            .unwrap(),
        ];
        for z in &cases {
            for keep in [vec![0], vec![z.arity() - 1], vec![0usize, z.arity() - 1]] {
                let keep: Vec<usize> = {
                    let mut k = keep.clone();
                    k.dedup();
                    k
                };
                let ps = z.project(&keep, B).unwrap();
                let (lo, hi) = (-15i64, 15);
                // Expected: projections of in-window points whose witnesses
                // are also in-window. Use a wider witness window so boundary
                // effects don't bite.
                let full = brute(z, lo - 30, hi + 30);
                let mut expected: Vec<Vec<i64>> = full
                    .iter()
                    .map(|p| keep.iter().map(|&k| p[k]).collect::<Vec<i64>>())
                    .filter(|q| q.iter().all(|t| (lo..=hi).contains(t)))
                    .collect();
                expected.sort();
                expected.dedup();
                let mut got: Vec<Vec<i64>> = Vec::new();
                // Collect points of the projected union in window.
                fn collect(ps: &[Zone], lo: i64, hi: i64) -> Vec<Vec<i64>> {
                    let mut all = Vec::new();
                    for p in ps {
                        all.extend(p.enumerate_window(lo, hi));
                    }
                    all.sort();
                    all.dedup();
                    all
                }
                got.extend(collect(&ps, lo, hi));
                // got ⊇ expected always (soundness); exactness means any got
                // point must have a witness somewhere (maybe out of window),
                // so only check expected ⊆ got plus witness existence.
                for e in &expected {
                    assert!(got.contains(e), "missing {e:?} for keep={keep:?}");
                }
                for g in &got {
                    // Verify a witness exists by constraining the zone.
                    let mut w = z.clone();
                    for (pos, &attr) in keep.iter().enumerate() {
                        w.add_constraint(Constraint::EqConst(Var(attr), g[pos]))
                            .unwrap();
                    }
                    assert!(
                        !w.is_empty(B).unwrap(),
                        "spurious projected point {g:?} for keep={keep:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn project_to_empty_keep() {
        let z = Zone::with_constraints(vec![lrp(5, 3)], &[Constraint::GeConst(Var(0), 0)]).unwrap();
        let ps = z.project(&[], B).unwrap();
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].arity(), 0);
        let empty =
            Zone::with_constraints(vec![lrp(2, 0)], &[Constraint::EqConst(Var(0), 1)]).unwrap();
        assert!(empty.project(&[], B).unwrap().is_empty());
    }

    #[test]
    fn subsumption_identical() {
        let z = Zone::with_constraints(
            vec![lrp(168, 10), lrp(168, 12)],
            &[Constraint::EqVar(Var(1), Var(0), 2)],
        )
        .unwrap();
        assert!(z.subsumed_by(&[&z], B).unwrap());
    }

    #[test]
    fn subsumption_free_extension_wrap() {
        // The Example 4.1 convergence step: 168n+346 ≡ 168n+10 etc.
        let a = Zone::with_constraints(
            vec![lrp(168, 346), lrp(168, 348)],
            &[Constraint::EqVar(Var(1), Var(0), 2)],
        )
        .unwrap();
        let b = Zone::with_constraints(
            vec![lrp(168, 10), lrp(168, 12)],
            &[Constraint::EqVar(Var(1), Var(0), 2)],
        )
        .unwrap();
        assert!(a.subsumed_by(&[&b], B).unwrap());
        assert!(b.subsumed_by(&[&a], B).unwrap());
    }

    #[test]
    fn subsumption_strictly_smaller() {
        let small = Zone::with_constraints(
            vec![lrp(5, 0)],
            &[
                Constraint::GeConst(Var(0), 0),
                Constraint::LeConst(Var(0), 50),
            ],
        )
        .unwrap();
        let big =
            Zone::with_constraints(vec![lrp(5, 0)], &[Constraint::GeConst(Var(0), 0)]).unwrap();
        assert!(small.subsumed_by(&[&big], B).unwrap());
        assert!(!big.subsumed_by(&[&small], B).unwrap());
    }

    #[test]
    fn subsumption_union_cover() {
        // [0,10] ∪ [11,20] covers [3,18] over all integers (period 1).
        let mk = |lo: i64, hi: i64| {
            Zone::with_constraints(
                vec![lrp(1, 0)],
                &[
                    Constraint::GeConst(Var(0), lo),
                    Constraint::LeConst(Var(0), hi),
                ],
            )
            .unwrap()
        };
        let target = mk(3, 18);
        let a = mk(0, 10);
        let b = mk(11, 20);
        assert!(target.subsumed_by(&[&a, &b], B).unwrap());
        assert!(!target.subsumed_by(&[&a], B).unwrap());
        assert!(!target.subsumed_by(&[&b], B).unwrap());
        // A gap breaks the cover.
        let c = mk(13, 20);
        assert!(!target.subsumed_by(&[&a, &c], B).unwrap());
        // Integer-aware: evens from [0,10] and odds from [0,20] cover
        // evens of [3,18]? Evens of [3,18] ⊆ evens [0,10]? No (12..18).
        let evens = Zone::with_constraints(
            vec![lrp(2, 0)],
            &[
                Constraint::GeConst(Var(0), 3),
                Constraint::LeConst(Var(0), 18),
            ],
        )
        .unwrap();
        let evens_a = Zone::with_constraints(
            vec![lrp(2, 0)],
            &[
                Constraint::GeConst(Var(0), 0),
                Constraint::LeConst(Var(0), 10),
            ],
        )
        .unwrap();
        let evens_b = Zone::with_constraints(
            vec![lrp(2, 0)],
            &[
                Constraint::GeConst(Var(0), 12),
                Constraint::LeConst(Var(0), 30),
            ],
        )
        .unwrap();
        assert!(!evens.subsumed_by(&[&evens_a], B).unwrap());
        assert!(evens.subsumed_by(&[&evens_a, &evens_b], B).unwrap());
    }

    #[test]
    fn subsumption_different_periods() {
        // 6n+4 ⊆ 2n (as 1-attribute zones).
        let six = Zone::new(vec![lrp(6, 4)]);
        let two = Zone::new(vec![lrp(2, 0)]);
        assert!(six.subsumed_by(&[&two], B).unwrap());
        assert!(!two.subsumed_by(&[&six], B).unwrap());
        // 2n ⊆ 6n ∪ 6n+2 ∪ 6n+4.
        let z0 = Zone::new(vec![lrp(6, 0)]);
        let z2 = Zone::new(vec![lrp(6, 2)]);
        let z4 = Zone::new(vec![lrp(6, 4)]);
        assert!(two.subsumed_by(&[&z0, &z2, &z4], B).unwrap());
        assert!(!two.subsumed_by(&[&z0, &z2], B).unwrap());
    }

    #[test]
    fn sample_point_in_zone() {
        let z = Zone::with_constraints(
            vec![lrp(40, 5), lrp(40, 25)],
            &[
                Constraint::EqVar(Var(1), Var(0), 60),
                Constraint::GeConst(Var(0), 0),
            ],
        )
        .unwrap();
        let p = z.sample_point(B).unwrap().unwrap();
        assert!(z.contains_point(&p), "{p:?}");
        assert!(p[0] >= 0 && p[1] == p[0] + 60);
    }

    #[test]
    fn enumerate_window_matches_brute() {
        let z = Zone::with_constraints(
            vec![lrp(3, 1), lrp(2, 0)],
            &[
                Constraint::LtVar(Var(0), Var(1), 5),
                Constraint::GeConst(Var(1), -4),
            ],
        )
        .unwrap();
        let mut fast = z.enumerate_window(-10, 10);
        fast.sort();
        assert_eq!(fast, brute(&z, -10, 10));
    }

    #[test]
    fn top_zone_contains_everything() {
        let t = Zone::top(2);
        assert!(t.contains_point(&[-5, 1000]));
        assert!(!t.is_empty(B).unwrap());
    }

    #[test]
    fn canonical_detects_empty() {
        let z = Zone::with_constraints(
            vec![lrp(2, 0), lrp(2, 0)],
            &[Constraint::EqVar(Var(1), Var(0), 1)],
        )
        .unwrap();
        assert!(z.canonical().is_none());
        let ok = Zone::top(1);
        assert!(ok.canonical().is_some());
    }

    #[test]
    fn residue_budget_enforced() {
        // Coprime large periods force a huge split factor.
        let z = Zone::with_constraints(
            vec![lrp(1009, 0), lrp(1013, 0), lrp(1019, 0)],
            &[
                Constraint::LtVar(Var(0), Var(1), 0),
                Constraint::LtVar(Var(1), Var(2), 0),
            ],
        )
        .unwrap();
        match z.is_empty(1000) {
            Err(Error::ResidueBudget { budget }) => assert_eq!(budget, 1000),
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn subtract_interval() {
        let mk = |lo: i64, hi: i64| {
            Zone::with_constraints(
                vec![lrp(1, 0)],
                &[
                    Constraint::GeConst(Var(0), lo),
                    Constraint::LeConst(Var(0), hi),
                ],
            )
            .unwrap()
        };
        let diff = mk(0, 20).subtract(&[&mk(5, 10)], B).unwrap();
        let holds = |t: i64| diff.iter().any(|z| z.contains_point(&[t]));
        for t in -5..=25 {
            assert_eq!(
                holds(t),
                (0..=4).contains(&t) || (11..=20).contains(&t),
                "t={t}"
            );
        }
        // Full cover leaves nothing.
        assert!(mk(3, 7).subtract(&[&mk(0, 10)], B).unwrap().is_empty());
    }

    #[test]
    fn subtract_respects_residues() {
        // evens \ (multiples of 4) = 4n+2.
        let evens = Zone::new(vec![lrp(2, 0)]);
        let fours = Zone::new(vec![lrp(4, 0)]);
        let diff = evens.subtract(&[&fours], B).unwrap();
        let holds = |t: i64| diff.iter().any(|z| z.contains_point(&[t]));
        for t in -20..=20 {
            assert_eq!(holds(t), t.rem_euclid(4) == 2, "t={t}");
        }
    }

    #[test]
    fn subtract_matches_brute_force() {
        let a = Zone::with_constraints(
            vec![lrp(3, 1), lrp(2, 0)],
            &[Constraint::LtVar(Var(0), Var(1), 6)],
        )
        .unwrap();
        let b1 = Zone::with_constraints(
            vec![lrp(3, 1), lrp(2, 0)],
            &[Constraint::GeConst(Var(0), 0)],
        )
        .unwrap();
        let b2 = Zone::with_constraints(
            vec![lrp(1, 0), lrp(4, 2)],
            &[Constraint::LtVar(Var(1), Var(0), 3)],
        )
        .unwrap();
        let diff = a.subtract(&[&b1, &b2], B).unwrap();
        for t1 in -12..=12 {
            for t2 in -12..=12 {
                let p = [t1, t2];
                let expected =
                    a.contains_point(&p) && !b1.contains_point(&p) && !b2.contains_point(&p);
                let got = diff.iter().any(|z| z.contains_point(&p));
                assert_eq!(expected, got, "p={p:?}");
            }
        }
    }

    #[test]
    fn complement_matches_brute_force() {
        let z = Zone::with_constraints(
            vec![lrp(3, 1), lrp(2, 0)],
            &[
                Constraint::LtVar(Var(0), Var(1), 2),
                Constraint::GeConst(Var(0), -4),
            ],
        )
        .unwrap();
        let comp = z.complement();
        for t1 in -10..=10 {
            for t2 in -10..=10 {
                let p = [t1, t2];
                let in_comp = comp.iter().any(|c| c.contains_point(&p));
                assert_eq!(in_comp, !z.contains_point(&p), "p={p:?}");
            }
        }
    }

    #[test]
    fn arity_zero_zone() {
        let z = Zone::top(0);
        assert!(!z.is_empty(B).unwrap());
        assert!(z.contains_point(&[]));
        let mut bad = Zone::top(0);
        bad.dbm_mut().add_le(0, 0, -1);
        assert!(bad.is_empty(B).unwrap());
    }
}
