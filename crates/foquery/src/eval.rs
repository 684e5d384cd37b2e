//! Closed-form evaluation of first-order queries.
//!
//! Because generalized relations are closed under union, intersection,
//! complement (De Morgan on lrps and difference bounds) and projection, the
//! **full** first-order language is evaluable — no range-restriction or
//! safety condition is needed, unlike classical relational calculus. The
//! temporal sort quantifies over all of ℤ; the data sort quantifies over
//! the *active domain* (constants of the database plus the query), the
//! standard choice for uninterpreted columns.
//!
//! Answers come back as generalized relations over the query's free
//! variables — finitely representable even when infinite, exactly as the
//! paper requires of \[KSW90\] query answers.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::ast::{is_data_var, CmpOp, DTerm, Formula, TTerm};
use itdb_lrp::pattern::{intern, AtomPattern, DataSlot, Slot};
use itdb_lrp::{
    algebra, parser as lrp_parser, Constraint, DataValue, Error, GeneralizedRelation,
    GeneralizedTuple, Lrp, Result, Schema, Var, Zone, DEFAULT_RESIDUE_BUDGET,
};
use std::collections::BTreeMap;

/// A named collection of generalized relations queried by formulas.
#[derive(Debug, Clone, Default)]
pub struct FoDatabase {
    relations: BTreeMap<String, GeneralizedRelation>,
}

impl FoDatabase {
    /// An empty database.
    pub fn new() -> Self {
        FoDatabase::default()
    }

    /// Adds a relation.
    pub fn insert(&mut self, name: impl Into<String>, rel: GeneralizedRelation) {
        self.relations.insert(name.into(), rel);
    }

    /// Adds a relation from the textual tuple format.
    pub fn insert_parsed(&mut self, name: impl Into<String>, text: &str) -> Result<()> {
        self.relations
            .insert(name.into(), lrp_parser::parse_relation(text)?);
        Ok(())
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> Option<&GeneralizedRelation> {
        self.relations.get(name)
    }

    /// The active data domain: every data constant in any relation.
    pub fn active_domain(&self) -> Vec<DataValue> {
        let mut out: Vec<DataValue> = Vec::new();
        for rel in self.relations.values() {
            for t in rel.tuples() {
                for d in t.data() {
                    if !out.contains(d) {
                        out.push(d.clone());
                    }
                }
            }
        }
        out
    }
}

/// Evaluation options.
#[derive(Debug, Clone)]
pub struct FoOptions {
    /// Residue budget for the exact zone operations.
    pub budget: u64,
    /// Normalize intermediate relations at negation/quantifier nodes
    /// (slower per node, smaller representations).
    pub normalize: bool,
}

impl Default for FoOptions {
    fn default() -> Self {
        FoOptions {
            budget: DEFAULT_RESIDUE_BUDGET,
            normalize: true,
        }
    }
}

/// A query answer: a generalized relation whose temporal columns are the
/// query's free temporal variables (in first-occurrence order) and whose
/// data columns are its free data variables.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The answer relation.
    pub relation: GeneralizedRelation,
    /// Names of the temporal columns.
    pub tvars: Vec<String>,
    /// Names of the data columns.
    pub dvars: Vec<String>,
}

impl QueryResult {
    /// Membership of a concrete assignment.
    pub fn contains(&self, temporal: &[i64], data: &[DataValue]) -> bool {
        self.relation.contains(temporal, data)
    }
}

/// Evaluates a formula against a database.
pub fn evaluate(f: &Formula, db: &FoDatabase, opts: &FoOptions) -> Result<QueryResult> {
    let mut domain = db.active_domain();
    collect_formula_constants(f, &mut domain);
    let (tvars, dvars) = f.free_vars();
    let relation = eval(f, db, &domain, opts)?.align(&tvars, &dvars, &domain, opts)?;
    Ok(QueryResult {
        relation,
        tvars,
        dvars,
    })
}

/// Evaluates a sentence (no free variables) as a yes/no query.
pub fn ask(f: &Formula, db: &FoDatabase, opts: &FoOptions) -> Result<bool> {
    let (tv, dv) = f.free_vars();
    if !tv.is_empty() || !dv.is_empty() {
        return Err(Error::Eval(format!(
            "ask() needs a sentence; free variables: {:?} {:?}",
            tv, dv
        )));
    }
    let r = evaluate(f, db, opts)?;
    Ok(!r.relation.is_empty_semantic(opts.budget)?)
}

fn collect_formula_constants(f: &Formula, out: &mut Vec<DataValue>) {
    let mut push = |d: &DTerm| {
        if let DTerm::Const(c) = d {
            if !out.contains(c) {
                out.push(c.clone());
            }
        }
    };
    match f {
        Formula::Atom { data, .. } => data.iter().for_each(&mut push),
        Formula::DataEq(a, b) => {
            push(a);
            push(b);
        }
        Formula::And(a, b) | Formula::Or(a, b) => {
            collect_formula_constants(a, out);
            collect_formula_constants(b, out);
        }
        Formula::Not(a) | Formula::Exists(_, a) | Formula::Forall(_, a) => {
            collect_formula_constants(a, out)
        }
        Formula::Cmp { .. } | Formula::Mod { .. } => {}
    }
}

/// An intermediate result: a relation tagged with its column names.
struct Tagged {
    rel: GeneralizedRelation,
    tvars: Vec<String>,
    dvars: Vec<String>,
}

impl Tagged {
    /// Extends and reorders the relation to the given column lists
    /// (missing temporal columns become unconstrained; missing data columns
    /// take every active-domain value).
    fn align(
        self,
        tvars: &[String],
        dvars: &[String],
        domain: &[DataValue],
        _opts: &FoOptions,
    ) -> Result<GeneralizedRelation> {
        let mut rel = self.rel;
        let mut cur_t = self.tvars;
        let mut cur_d = self.dvars;
        // Append missing temporal columns (unconstrained).
        let missing_t: Vec<&String> = tvars.iter().filter(|v| !cur_t.contains(v)).collect();
        if !missing_t.is_empty() {
            let top = GeneralizedRelation::from_tuples(
                Schema::new(missing_t.len(), 0),
                vec![GeneralizedTuple::new(Zone::top(missing_t.len()), vec![])],
            )?;
            rel = algebra::product(&rel, &top)?;
            cur_t.extend(missing_t.into_iter().cloned());
        }
        // Append missing data columns (active domain).
        let missing_d: Vec<&String> = dvars.iter().filter(|v| !cur_d.contains(v)).collect();
        if !missing_d.is_empty() {
            let mut dom_rel = GeneralizedRelation::empty(Schema::new(0, missing_d.len()));
            let mut combos: Vec<Vec<DataValue>> = vec![vec![]];
            for _ in 0..missing_d.len() {
                combos = combos
                    .into_iter()
                    .flat_map(|c| {
                        domain.iter().map(move |d| {
                            let mut c2 = c.clone();
                            c2.push(d.clone());
                            c2
                        })
                    })
                    .collect();
            }
            for c in combos {
                dom_rel.insert(GeneralizedTuple::new(Zone::top(0), c))?;
            }
            rel = algebra::product(&rel, &dom_rel)?;
            cur_d.extend(missing_d.into_iter().cloned());
        }
        // Reorder to the target column order.
        let position = |cur: &[String], v: &String| {
            cur.iter()
                .position(|c| c == v)
                .ok_or_else(|| Error::Eval(format!("column `{v}` missing after alignment")))
        };
        let t_perm: Vec<usize> = tvars
            .iter()
            .map(|v| position(&cur_t, v))
            .collect::<Result<_>>()?;
        let d_perm: Vec<usize> = dvars
            .iter()
            .map(|v| position(&cur_d, v))
            .collect::<Result<_>>()?;
        algebra::permute(&rel, &t_perm, &d_perm)
    }
}

fn eval(f: &Formula, db: &FoDatabase, domain: &[DataValue], opts: &FoOptions) -> Result<Tagged> {
    match f {
        Formula::Atom {
            pred,
            temporal,
            data,
        } => {
            let rel = db
                .get(pred)
                .ok_or_else(|| Error::Eval(format!("unknown relation `{pred}`")))?;
            eval_atom(rel, temporal, data, opts)
        }
        Formula::Cmp { lhs, op, rhs } => eval_atom(&cmp_relation(*op)?, [lhs, rhs], [], opts),
        Formula::Mod {
            term,
            modulus,
            residue,
        } => eval_atom(&mod_relation(*modulus, *residue)?, [term], [], opts),
        Formula::DataEq(a, b) => eval_atom(&eq_relation(domain)?, [], [a, b], opts),
        Formula::And(a, b) => {
            let ta = eval(a, db, domain, opts)?;
            let tb = eval(b, db, domain, opts)?;
            let (tvars, dvars) = merged_vars(&ta, &tb);
            let ra = ta.align(&tvars, &dvars, domain, opts)?;
            let rb = tb.align(&tvars, &dvars, domain, opts)?;
            Ok(Tagged {
                rel: algebra::intersection(&ra, &rb)?,
                tvars,
                dvars,
            })
        }
        Formula::Or(a, b) => {
            let ta = eval(a, db, domain, opts)?;
            let tb = eval(b, db, domain, opts)?;
            let (tvars, dvars) = merged_vars(&ta, &tb);
            let ra = ta.align(&tvars, &dvars, domain, opts)?;
            let rb = tb.align(&tvars, &dvars, domain, opts)?;
            Ok(Tagged {
                rel: algebra::union(&ra, &rb)?,
                tvars,
                dvars,
            })
        }
        Formula::Not(a) => {
            let ta = eval(a, db, domain, opts)?;
            let (tvars, dvars) = (ta.tvars.clone(), ta.dvars.clone());
            let data_combos = combos(domain, dvars.len());
            let mut rel = algebra::complement(&ta.rel, &data_combos, opts.budget)?;
            if opts.normalize {
                rel.normalize(opts.budget)?;
            }
            Ok(Tagged { rel, tvars, dvars })
        }
        Formula::Exists(vars, a) => {
            let ta = eval(a, db, domain, opts)?;
            project_out(ta, vars, opts)
        }
        Formula::Forall(vars, a) => {
            // ∀x φ ≡ ¬∃x ¬φ.
            let ta = eval(a, db, domain, opts)?;
            let (tvars, dvars) = (ta.tvars.clone(), ta.dvars.clone());
            let mut neg = algebra::complement(&ta.rel, &combos(domain, dvars.len()), opts.budget)?;
            if opts.normalize {
                neg.normalize(opts.budget)?;
            }
            let projected = project_out(
                Tagged {
                    rel: neg,
                    tvars,
                    dvars,
                },
                vars,
                opts,
            )?;
            let (tvars, dvars) = (projected.tvars.clone(), projected.dvars.clone());
            let mut rel =
                algebra::complement(&projected.rel, &combos(domain, dvars.len()), opts.budget)?;
            if opts.normalize {
                rel.normalize(opts.budget)?;
            }
            Ok(Tagged { rel, tvars, dvars })
        }
    }
}

fn combos(domain: &[DataValue], n: usize) -> Vec<Vec<DataValue>> {
    let mut out: Vec<Vec<DataValue>> = vec![vec![]];
    for _ in 0..n {
        out = out
            .into_iter()
            .flat_map(|c| {
                domain.iter().map(move |d| {
                    let mut c2 = c.clone();
                    c2.push(d.clone());
                    c2
                })
            })
            .collect();
    }
    out
}

fn merged_vars(a: &Tagged, b: &Tagged) -> (Vec<String>, Vec<String>) {
    let mut tvars = a.tvars.clone();
    for v in &b.tvars {
        if !tvars.contains(v) {
            tvars.push(v.clone());
        }
    }
    let mut dvars = a.dvars.clone();
    for v in &b.dvars {
        if !dvars.contains(v) {
            dvars.push(v.clone());
        }
    }
    (tvars, dvars)
}

fn project_out(t: Tagged, vars: &[String], opts: &FoOptions) -> Result<Tagged> {
    let keep_t: Vec<usize> = (0..t.tvars.len())
        .filter(|&i| !vars.contains(&t.tvars[i]))
        .collect();
    let keep_d: Vec<usize> = (0..t.dvars.len())
        .filter(|&i| !vars.contains(&t.dvars[i]))
        .collect();
    let mut rel = algebra::project(&t.rel, &keep_t, &keep_d, opts.budget)?;
    if opts.normalize {
        rel.normalize(opts.budget)?;
    }
    Ok(Tagged {
        rel,
        tvars: keep_t.iter().map(|&i| t.tvars[i].clone()).collect(),
        dvars: keep_d.iter().map(|&i| t.dvars[i].clone()).collect(),
    })
}

/// An atom through the atom kernel: the tuples of `rel` matching the
/// terms, restated over the atom's distinct variables (first-occurrence
/// order). Comparisons, periodicity and data equality are atoms over the
/// built-in relations below.
fn eval_atom<'a>(
    rel: &GeneralizedRelation,
    temporal: impl IntoIterator<Item = &'a TTerm>,
    data: impl IntoIterator<Item = &'a DTerm>,
    opts: &FoOptions,
) -> Result<Tagged> {
    let mut tvars = Vec::new();
    let mut dvars = Vec::new();
    let pattern = AtomPattern {
        temporal: temporal
            .into_iter()
            .map(|t| match t {
                TTerm::Var { name, offset } => Slot::Var(intern(&mut tvars, name), *offset),
                TTerm::Const(c) => Slot::Const(*c),
            })
            .collect(),
        data: data
            .into_iter()
            .map(|d| match d {
                DTerm::Var(v) => DataSlot::Var(intern(&mut dvars, v)),
                DTerm::Const(c) => DataSlot::Const(c.clone()),
            })
            .collect(),
    };
    Ok(Tagged {
        rel: pattern.select(rel, opts.budget)?,
        tvars: tvars.into_iter().map(String::from).collect(),
        dvars: dvars.into_iter().map(String::from).collect(),
    })
}

/// `T1 op T2` over all pairs of time points.
fn cmp_relation(op: CmpOp) -> Result<GeneralizedRelation> {
    let (t1, t2) = (Var(0), Var(1));
    let constraint = match op {
        CmpOp::Lt => Constraint::LtVar(t1, t2, 0),
        CmpOp::Le => Constraint::LeVar(t1, t2, 0),
        CmpOp::Eq => Constraint::EqVar(t1, t2, 0),
        CmpOp::Ge => Constraint::LeVar(t2, t1, 0),
        CmpOp::Gt => Constraint::LtVar(t2, t1, 0),
    };
    let t = GeneralizedTuple::build(vec![Lrp::all_integers(); 2], &[constraint], vec![])?;
    GeneralizedRelation::from_tuples(Schema::new(2, 0), vec![t])
}

/// `T1 mod m = r`: one column whose lrp is the residue class — the
/// \[KSW90\] periodicity constraint as a first-class query atom.
fn mod_relation(modulus: i64, residue: i64) -> Result<GeneralizedRelation> {
    if modulus < 1 {
        return Err(Error::Eval(format!(
            "modulus must be positive, got {modulus}"
        )));
    }
    let lrp = Lrp::new(modulus, residue)?;
    GeneralizedRelation::from_tuples(
        Schema::new(1, 0),
        vec![GeneralizedTuple::new(Zone::new(vec![lrp]), vec![])],
    )
}

/// `X = Y` over the active domain: one tuple `(d, d)` per value.
fn eq_relation(domain: &[DataValue]) -> Result<GeneralizedRelation> {
    let tuples = domain
        .iter()
        .map(|d| GeneralizedTuple::new(Zone::top(0), vec![d.clone(), d.clone()]))
        .collect();
    GeneralizedRelation::from_tuples(Schema::new(0, 2), tuples)
}

/// Checks the variable-sort convention: quantified variable lists may mix
/// sorts, but each name's sort comes from its capitalization. Exposed for
/// diagnostics.
pub fn sorts_of(vars: &[String]) -> (Vec<&String>, Vec<&String>) {
    vars.iter().partition(|v| !is_data_var(v))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;

    fn train_db() -> FoDatabase {
        let mut db = FoDatabase::new();
        // Example 2.1, plus a second line Brussels → Antwerp.
        db.insert_parsed(
            "train",
            "(40n+5, 40n+65; liege, brussels) : T1 >= 0, T2 = T1 + 60\n\
             (40n+20, 40n+55; brussels, antwerp) : T1 >= 0, T2 = T1 + 35",
        )
        .unwrap();
        db
    }

    fn opts() -> FoOptions {
        FoOptions::default()
    }

    #[test]
    fn atom_selection_with_constants() {
        let db = train_db();
        let f = parse_formula("train[t1, t2](liege, brussels)").unwrap();
        let r = evaluate(&f, &db, &opts()).unwrap();
        assert_eq!(r.tvars, vec!["t1", "t2"]);
        assert!(r.contains(&[5, 65], &[]));
        assert!(r.contains(&[45, 105], &[]));
        assert!(!r.contains(&[20, 55], &[])); // that's the Antwerp line
        assert!(!r.contains(&[5, 66], &[]));
    }

    #[test]
    fn data_variables_in_answers() {
        let db = train_db();
        let f = parse_formula("train[t1, t2](F, T)").unwrap();
        let r = evaluate(&f, &db, &opts()).unwrap();
        assert_eq!(r.dvars, vec!["F", "T"]);
        assert!(r.contains(
            &[5, 65],
            &[DataValue::sym("liege"), DataValue::sym("brussels")]
        ));
        assert!(r.contains(
            &[20, 55],
            &[DataValue::sym("brussels"), DataValue::sym("antwerp")]
        ));
        assert!(!r.contains(
            &[5, 65],
            &[DataValue::sym("brussels"), DataValue::sym("antwerp")]
        ));
    }

    #[test]
    fn exists_projects() {
        let db = train_db();
        // Departure times towards Brussels.
        let f = parse_formula("exists t2. train[t1, t2](liege, brussels)").unwrap();
        let r = evaluate(&f, &db, &opts()).unwrap();
        assert_eq!(r.tvars, vec!["t1"]);
        assert!(r.contains(&[5], &[]));
        assert!(r.contains(&[85], &[]));
        assert!(!r.contains(&[6], &[]));
        assert!(!r.contains(&[-35], &[]));
    }

    #[test]
    fn conjunction_joins_on_shared_variables() {
        let db = train_db();
        // Connections: arrive in brussels at t2, depart to antwerp at t3 ≥ t2.
        let f = parse_formula(
            "exists t1. (train[t1, t2](liege, brussels)) & exists t4. (train[t3, t4](brussels, antwerp) & t2 <= t3)",
        )
        .unwrap();
        let r = evaluate(&f, &db, &opts()).unwrap();
        assert_eq!(r.tvars, vec!["t2", "t3"]);
        // Arrive 65; Antwerp departures (40n+20, n ≥ 0) at or after 65:
        // 100, 140, …
        assert!(r.contains(&[65, 100], &[]));
        assert!(r.contains(&[65, 140], &[]));
        assert!(!r.contains(&[65, 60], &[])); // departs before arrival
        assert!(!r.contains(&[66, 100], &[])); // not an arrival time
    }

    #[test]
    fn negation_over_temporal_column() {
        let mut db = FoDatabase::new();
        db.insert_parsed("evens", "(2n)").unwrap();
        let f = parse_formula("!evens[t]").unwrap();
        let r = evaluate(&f, &db, &opts()).unwrap();
        for t in -10..10 {
            assert_eq!(r.contains(&[t], &[]), t.rem_euclid(2) == 1, "t={t}");
        }
    }

    #[test]
    fn forall_sentence() {
        let mut db = FoDatabase::new();
        db.insert_parsed("evens", "(2n)").unwrap();
        db.insert_parsed("ints", "(n)").unwrap();
        // Every even is an integer: true.
        let f = parse_formula("forall t. (evens[t] -> ints[t])").unwrap();
        assert!(ask(&f, &db, &opts()).unwrap());
        // Every integer is even: false.
        let g = parse_formula("forall t. (ints[t] -> evens[t])").unwrap();
        assert!(!ask(&g, &db, &opts()).unwrap());
    }

    #[test]
    fn exists_sentence() {
        let db = train_db();
        let f = parse_formula("exists t1, t2. train[t1, t2](liege, brussels)").unwrap();
        assert!(ask(&f, &db, &opts()).unwrap());
        let g = parse_formula("exists t1, t2. train[t1, t2](antwerp, liege)").unwrap();
        assert!(!ask(&g, &db, &opts()).unwrap());
    }

    #[test]
    fn mixed_sort_quantification() {
        let db = train_db();
        // Cities reachable from liege in one hop.
        let f = parse_formula("exists t1, t2. train[t1, t2](liege, T)").unwrap();
        let r = evaluate(&f, &db, &opts()).unwrap();
        assert_eq!(r.dvars, vec!["T"]);
        assert!(r.contains(&[], &[DataValue::sym("brussels")]));
        assert!(!r.contains(&[], &[DataValue::sym("antwerp")]));
        // Is there a city with a departure at every train time? (nonsense
        // but exercises ∀ over data):
        let g = parse_formula("exists F. forall t1, t2. (train[t1, t2](F, brussels) -> t1 >= 0)")
            .unwrap();
        assert!(ask(&g, &db, &opts()).unwrap());
    }

    #[test]
    fn comparisons_and_offsets() {
        let db = train_db();
        // Trains that take strictly more than 40 minutes.
        let f = parse_formula("train[t1, t2](F, T) & t2 > t1 + 40").unwrap();
        let r = evaluate(&f, &db, &opts()).unwrap();
        assert!(r.contains(
            &[5, 65],
            &[DataValue::sym("liege"), DataValue::sym("brussels")]
        ));
        assert!(!r.contains(
            &[20, 55],
            &[DataValue::sym("brussels"), DataValue::sym("antwerp")]
        ));
    }

    #[test]
    fn data_equality() {
        let db = train_db();
        // Loops (same origin and destination): none.
        let f = parse_formula("train[t1, t2](F, T) & F = T").unwrap();
        let r = evaluate(&f, &db, &opts()).unwrap();
        assert!(r.relation.is_empty_semantic(opts().budget).unwrap());
    }

    #[test]
    fn double_negation_is_identity() {
        let mut db = FoDatabase::new();
        db.insert_parsed("r", "(3n+1) : T1 >= 0").unwrap();
        let f = parse_formula("r[t]").unwrap();
        let g = parse_formula("!!r[t]").unwrap();
        let rf = evaluate(&f, &db, &opts()).unwrap();
        let rg = evaluate(&g, &db, &opts()).unwrap();
        assert!(rf.relation.equivalent(&rg.relation, opts().budget).unwrap());
    }

    #[test]
    fn unknown_relation_errors() {
        let db = FoDatabase::new();
        let f = parse_formula("nope[t]").unwrap();
        assert!(matches!(evaluate(&f, &db, &opts()), Err(Error::Eval(_))));
    }

    #[test]
    fn ask_rejects_open_formulas() {
        let db = train_db();
        let f = parse_formula("train[t1, t2](F, T)").unwrap();
        assert!(ask(&f, &db, &opts()).is_err());
    }

    #[test]
    fn mod_predicates() {
        let db = train_db();
        let opts = opts();
        // Departures on "Mondays": t1 ≡ 5 (mod 40) picks the Liège line.
        let f =
            parse_formula("exists t2. (train[t1, t2](liege, brussels) & t1 mod 40 = 5)").unwrap();
        let r = evaluate(&f, &db, &opts).unwrap();
        assert!(r.contains(&[5], &[]));
        assert!(r.contains(&[45], &[]));
        // A residue no departure hits.
        let g =
            parse_formula("exists t2. (train[t1, t2](liege, brussels) & t1 mod 40 = 6)").unwrap();
        let rg = evaluate(&g, &db, &opts).unwrap();
        assert!(rg.relation.is_empty_semantic(opts.budget).unwrap());
        // Bare congruence: the answer is the residue class itself.
        let h = parse_formula("t mod 3 = 1").unwrap();
        let rh = evaluate(&h, &db, &opts).unwrap();
        for t in -10..10i64 {
            assert_eq!(rh.contains(&[t], &[]), t.rem_euclid(3) == 1, "t={t}");
        }
        // Offsets fold into the residue.
        let k = parse_formula("t + 2 mod 3 = 1").unwrap();
        let rk = evaluate(&k, &db, &opts).unwrap();
        for t in -10..10i64 {
            assert_eq!(rk.contains(&[t], &[]), (t + 2).rem_euclid(3) == 1, "t={t}");
        }
        // Ground instance folds to true/false.
        assert!(ask(&parse_formula("7 mod 3 = 1").unwrap(), &db, &opts).unwrap());
        assert!(!ask(&parse_formula("7 mod 3 = 2").unwrap(), &db, &opts).unwrap());
        // Bad modulus errors.
        assert!(evaluate(&parse_formula("t mod 0 = 0").unwrap(), &db, &opts).is_err());
    }

    #[test]
    fn mod_with_negation() {
        let mut db = FoDatabase::new();
        db.insert_parsed("tick", "(n)").unwrap();
        let opts = opts();
        // Everything except multiples of 4.
        let f = parse_formula("tick[t] & !(t mod 4 = 0)").unwrap();
        let r = evaluate(&f, &db, &opts).unwrap();
        for t in -12..12i64 {
            assert_eq!(r.contains(&[t], &[]), t.rem_euclid(4) != 0, "t={t}");
        }
    }

    #[test]
    fn until_style_star_free_query() {
        // "r holds from time 0 until s holds" — a star-free condition:
        // exists u ≥ 0 with s[u] and forall t (0 ≤ t < u → r[t]).
        let mut db = FoDatabase::new();
        db.insert_parsed("r", "(n) : T1 >= 0, T1 <= 4").unwrap();
        db.insert_parsed("s", "(n) : T1 = 5").unwrap();
        let f = parse_formula("exists u. (s[u] & 0 <= u & forall t. ((0 <= t & t < u) -> r[t]))")
            .unwrap();
        assert!(ask(&f, &db, &opts()).unwrap());
        // Poke a hole in r: now false.
        let mut db2 = FoDatabase::new();
        db2.insert_parsed("r", "(n) : T1 >= 0, T1 <= 2").unwrap();
        db2.insert_parsed("s", "(n) : T1 = 5").unwrap();
        assert!(!ask(&f, &db2, &opts()).unwrap());
    }
}
