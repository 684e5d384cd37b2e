//! Streaming bottom-up evaluation with periodicity detection.
//!
//! The evaluator plays the automaton view of Datalog1S made explicit in §3
//! of the paper: for a causal program, the set of facts holding at time `t`
//! is a function of the facts in a bounded look-back window, so the sequence
//! of window states is eventually periodic. Evaluation proceeds time step
//! by time step; when a window state repeats (at compatible phases of any
//! external periodic inputs), the minimal model is read off as one
//! [`EpSet`] per `(predicate, data)` pair — the explicit representation
//! \[CI88\] prove exists, with the (offset, period) the repetition exhibits.
//!
//! Extensional predicates are supplied as an [`ExternalEdb`]: a map from
//! `(predicate, data vector)` to an [`EpSet`] of times. This is how the
//! Templog evaluator feeds closed-form ◇-closures back in, and how
//! generalized relations cross over from `itdb-lrp`.

use crate::ast::{validate, Atom, DataTerm, Program, Time, Validated};
use crate::epset::EpSet;
use itdb_lrp::{check_ambient, lcm, DataValue, Error, Governor, Result, TripReason};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Extensional input: per `(predicate, data)` an eventually periodic set of
/// times at which the fact holds.
#[derive(Debug, Clone, Default)]
pub struct ExternalEdb {
    /// The extensional facts.
    pub map: BTreeMap<(String, Vec<DataValue>), EpSet>,
}

impl ExternalEdb {
    /// An empty EDB.
    pub fn new() -> Self {
        ExternalEdb::default()
    }

    /// Adds the times of one `(predicate, data)` pair.
    pub fn insert(&mut self, pred: impl Into<String>, data: Vec<DataValue>, times: EpSet) {
        self.map.insert((pred.into(), data), times);
    }
}

/// Options for the detector.
#[derive(Debug, Clone)]
pub struct DetectOptions {
    /// Give up if no repetition is found by this time. The CI88 bound on
    /// (offset + period) is exponential in the program in the worst case, so
    /// the default is generous but finite.
    pub max_time: u64,
}

impl Default for DetectOptions {
    fn default() -> Self {
        DetectOptions { max_time: 200_000 }
    }
}

/// The detected eventually periodic minimal model.
#[derive(Debug, Clone)]
pub struct PeriodicModel {
    /// Times per `(predicate, data)` pair, in explicit closed form.
    pub sets: BTreeMap<(String, Vec<DataValue>), EpSet>,
    /// Offset at which the detected periodicity starts.
    pub offset: u64,
    /// Detected period.
    pub period: u64,
    /// Wall-clock of the detector: the time step at which the repetition
    /// was found.
    pub detected_at: u64,
}

impl PeriodicModel {
    /// Membership of a ground fact.
    pub fn holds(&self, pred: &str, data: &[DataValue], t: u64) -> bool {
        self.sets
            .get(&(pred.to_string(), data.to_vec()))
            .is_some_and(|s| s.contains(t))
    }

    /// The times of a `(pred, data)` pair (empty if never derived).
    pub fn times(&self, pred: &str, data: &[DataValue]) -> EpSet {
        self.sets
            .get(&(pred.to_string(), data.to_vec()))
            .cloned()
            .unwrap_or_else(EpSet::empty)
    }
}

/// A ground fact's identity: `(predicate, data vector)`.
pub type FactKey = (String, Vec<DataValue>);

/// How a governed Datalog1S detection ended. Mirrors Templog's
/// `TlOutcome`: strata run to completion lowest first, so the partial
/// model is exact on the completed strata; the tripped stratum
/// additionally contributes the finite simulation prefix it reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DlOutcome {
    /// Every stratum's repetition was found; the model is the minimal
    /// model in closed form.
    Complete,
    /// The governor tripped partway through. The partial model is exact
    /// on the `completed_strata` lowest strata and carries the tripped
    /// stratum's simulated time steps `[0, simulated_to)` as **finite**
    /// sets — a sound under-approximation of the minimal model (every
    /// reported fact genuinely holds; later times are simply unknown).
    Interrupted {
        /// Which budget tripped.
        reason: TripReason,
        /// Strata whose closed-form models are fully present.
        completed_strata: usize,
        /// Total strata in the program's dependency order.
        total_strata: usize,
        /// Time steps of the tripped stratum that were fully saturated
        /// and are included as a finite prefix (`0` if the trip landed
        /// before the first step finished).
        simulated_to: u64,
    },
}

impl DlOutcome {
    /// Did the detection run to completion?
    pub fn complete(&self) -> bool {
        matches!(self, DlOutcome::Complete)
    }
}

/// The result of a governed detection: the (possibly partial) model plus
/// how the run ended.
#[derive(Debug, Clone)]
pub struct DlEvaluation {
    /// The detected model. The minimal model when `outcome` is
    /// [`DlOutcome::Complete`]; otherwise exact on completed strata plus
    /// the tripped stratum's finite simulation prefix.
    pub model: PeriodicModel,
    /// How the run ended.
    pub outcome: DlOutcome,
}

/// Like [`evaluate`], but under an explicit resource [`Governor`]
/// (deadline, cancellation, fault injection): the governor is installed as
/// the thread's ambient governor and consulted at every time step.
///
/// A trip does **not** discard the simulation prefix (it used to — the
/// all-or-nothing path dropped everything): completed strata stay exact,
/// and the tripped stratum's saturated steps `[0, simulated_to)` come
/// back as finite sets under [`DlOutcome::Interrupted`]. Only genuine
/// evaluation errors surface as `Err`.
pub fn evaluate_governed(
    p: &Program,
    edb: &ExternalEdb,
    opts: &DetectOptions,
    governor: &Arc<Governor>,
) -> Result<DlEvaluation> {
    let _scope = governor.enter();
    let _span = itdb_trace::span(itdb_trace::SpanKind::Evaluate, "datalog1s");
    let v = validate(p)?;
    check_edb_disjoint(&v, edb)?;
    let mut acc = ModelAccumulator::new(edb);
    let total_strata = v.strata.len();
    for (idx, stratum) in v.strata.iter().enumerate() {
        let sub = stratum_program(p, stratum);
        let mut history = Vec::new();
        match evaluate_stratum(&sub, &v, stratum, &acc.oracle, opts, &mut history) {
            Ok(m) => acc.fold_stratum(m)?,
            Err(Error::Interrupted(reason)) => {
                acc.fold_finite_prefix(&history);
                return Ok(DlEvaluation {
                    model: acc.finish(),
                    outcome: DlOutcome::Interrupted {
                        reason,
                        completed_strata: idx,
                        total_strata,
                        simulated_to: history.len() as u64,
                    },
                });
            }
            Err(e) => return Err(e),
        }
    }
    Ok(DlEvaluation {
        model: acc.finish(),
        outcome: DlOutcome::Complete,
    })
}

/// Evaluates a validated (stratified, causal) program against an external
/// EDB and returns the minimal model in closed form. Strata are evaluated
/// lowest first; each stratum sees the closed-form extensions of everything
/// below it, which is what makes stratified negation (and lower-stratum
/// gates/lookahead) exact. Consults the thread's ambient governor (if any)
/// at every time step and saturation round.
pub fn evaluate(p: &Program, edb: &ExternalEdb, opts: &DetectOptions) -> Result<PeriodicModel> {
    let v = validate(p)?;
    check_edb_disjoint(&v, edb)?;
    let mut acc = ModelAccumulator::new(edb);
    for stratum in &v.strata {
        let sub = stratum_program(p, stratum);
        let mut history: Vec<BTreeSet<FactKey>> = Vec::new();
        let m = evaluate_stratum(&sub, &v, stratum, &acc.oracle, opts, &mut history)?;
        acc.fold_stratum(m)?;
    }
    Ok(acc.finish())
}

/// Rejects extensional facts for predicates the program defines.
fn check_edb_disjoint(v: &Validated, edb: &ExternalEdb) -> Result<()> {
    for (pred, _) in edb.map.keys() {
        if v.intensional.contains(pred) {
            return Err(Error::Eval(format!(
                "predicate {pred} is defined by the program and supplied externally"
            )));
        }
    }
    Ok(())
}

/// The clauses of one stratum as a standalone program.
fn stratum_program(p: &Program, stratum: &BTreeSet<String>) -> Program {
    Program {
        clauses: p
            .clauses
            .iter()
            .filter(|c| stratum.contains(&c.head.pred))
            .cloned()
            .collect(),
    }
}

/// Folds per-stratum models into the overall closed form: the oracle the
/// next stratum reads, and the (offset, period) envelope of the whole.
struct ModelAccumulator {
    oracle: BTreeMap<FactKey, EpSet>,
    sets: BTreeMap<FactKey, EpSet>,
    offset: u64,
    period: u64,
    detected_at: u64,
}

impl ModelAccumulator {
    fn new(edb: &ExternalEdb) -> Self {
        ModelAccumulator {
            oracle: edb.map.clone(),
            sets: BTreeMap::new(),
            offset: 0,
            period: 1,
            detected_at: 0,
        }
    }

    fn fold_stratum(&mut self, m: PeriodicModel) -> Result<()> {
        self.offset = self.offset.max(m.offset);
        self.period = lcm(self.period as i64, m.period as i64)? as u64;
        self.detected_at = self.detected_at.max(m.detected_at);
        for (key, set) in m.sets {
            self.oracle.insert(key.clone(), set.clone());
            self.sets.insert(key, set);
        }
        Ok(())
    }

    /// Folds a tripped stratum's saturated steps in as finite sets. The
    /// stratum's predicates are disjoint from everything folded so far
    /// (strata partition the intensional predicates), so this never
    /// clobbers an exact extension.
    fn fold_finite_prefix(&mut self, history: &[BTreeSet<FactKey>]) {
        let mut keys: BTreeSet<FactKey> = BTreeSet::new();
        for s in history {
            keys.extend(s.iter().cloned());
        }
        for key in keys {
            let times: Vec<u64> = (0..history.len() as u64)
                .filter(|&x| history[x as usize].contains(&key))
                .collect();
            self.sets.insert(key, EpSet::from_finite(times));
        }
    }

    fn finish(self) -> PeriodicModel {
        PeriodicModel {
            sets: self.sets,
            offset: self.offset,
            period: self.period.max(1),
            detected_at: self.detected_at,
        }
    }
}

/// Evaluates one stratum's clauses against the oracle of lower strata and
/// external inputs. `history` starts empty and is an out parameter: a
/// caller catching a governor trip can salvage the fully saturated time
/// steps simulated so far (`history[t]` = this stratum's facts holding at
/// time `t`).
fn evaluate_stratum(
    p: &Program,
    v: &Validated,
    stratum: &BTreeSet<String>,
    oracle: &BTreeMap<FactKey, EpSet>,
    opts: &DetectOptions,
    history: &mut Vec<BTreeSet<FactKey>>,
) -> Result<PeriodicModel> {
    let window = (v.max_shift + 1).max(1);
    let mut l_ext = 1i64;
    let mut max_ext_offset = 0u64;
    for s in oracle.values() {
        l_ext = lcm(l_ext, s.period().max(1) as i64)?;
        max_ext_offset = max_ext_offset.max(s.offset());
    }
    let l_ext = l_ext as u64;
    let detect_from = (v.max_const + 1).max(max_ext_offset) + window;

    // signature (window slice, phase) → earliest time.
    let mut seen: HashMap<(Vec<BTreeSet<FactKey>>, u64), u64> = HashMap::new();

    let mut t = 0u64;
    loop {
        check_ambient()?;
        if t > opts.max_time {
            return Err(Error::Eval(format!(
                "no periodicity detected by time {} (raise DetectOptions::max_time)",
                opts.max_time
            )));
        }
        let state = saturate_time(p, stratum, oracle, history, t)?;
        history.push(state);

        if t >= detect_from {
            let w = window as usize;
            let upto = t as usize + 1;
            let slice: Vec<BTreeSet<FactKey>> = history[upto - w..upto].to_vec();
            let key = (slice, t % l_ext);
            if let Some(&t1) = seen.get(&key) {
                return Ok(build_model(history, t1, t));
            }
            seen.insert(key, t);
        }
        t += 1;
    }
}

/// Computes this stratum's facts holding at time `t`, saturating same-time
/// derivations (rules whose head and body shifts coincide).
fn saturate_time(
    p: &Program,
    stratum: &BTreeSet<String>,
    oracle: &BTreeMap<FactKey, EpSet>,
    history: &[BTreeSet<FactKey>],
    t: u64,
) -> Result<BTreeSet<FactKey>> {
    let mut state: BTreeSet<FactKey> = BTreeSet::new();
    loop {
        check_ambient()?;
        let mut added = false;
        for c in &p.clauses {
            let base: Option<u64> = match &c.head.time {
                Time::Const(hc) => (*hc == t).then_some(0),
                Time::Var { shift, .. } => t.checked_sub(*shift),
            };
            let Some(base) = base else { continue };
            // Positive literals first (they produce the bindings) …
            let mut bindings: Vec<HashMap<String, DataValue>> = vec![HashMap::new()];
            let mut dead = false;
            for a in c.body.iter().filter(|a| !a.negated) {
                let at = time_of(a, base);
                bindings = extend_bindings(bindings, a, at, stratum, oracle, history, &state, t);
                if bindings.is_empty() {
                    dead = true;
                    break;
                }
            }
            if dead {
                continue;
            }
            // … then negated literals filter them. Negated atoms are
            // extensional or lower-stratum (validated), so the oracle has
            // their complete extensions.
            'bindings: for b in bindings {
                for a in c.body.iter().filter(|a| a.negated) {
                    let at = time_of(a, base);
                    let data: Vec<DataValue> = a
                        .data
                        .iter()
                        .map(|d| match d {
                            DataTerm::Const(cst) => cst.clone(),
                            DataTerm::Var(v) => {
                                b.get(v).expect("validated: bound by positives").clone()
                            }
                        })
                        .collect();
                    let holds = oracle
                        .get(&(a.pred.clone(), data))
                        .is_some_and(|set| set.contains(at));
                    if holds {
                        continue 'bindings;
                    }
                }
                if let Some(fact) = head_fact(&c.head, &b) {
                    if !state.contains(&fact) {
                        state.insert(fact);
                        added = true;
                    }
                }
            }
        }
        if !added {
            return Ok(state);
        }
    }
}

/// The absolute time a body atom refers to, given the clause variable's
/// value `base`.
fn time_of(a: &Atom, base: u64) -> u64 {
    match &a.time {
        Time::Const(bc) => *bc,
        Time::Var { shift, .. } => base + shift,
    }
}

/// Extends each binding with all ways the positive atom can hold at `at`.
#[allow(clippy::too_many_arguments)]
fn extend_bindings(
    bindings: Vec<HashMap<String, DataValue>>,
    atom: &Atom,
    at: u64,
    stratum: &BTreeSet<String>,
    oracle: &BTreeMap<FactKey, EpSet>,
    history: &[BTreeSet<FactKey>],
    state: &BTreeSet<FactKey>,
    t: u64,
) -> Vec<HashMap<String, DataValue>> {
    // Candidate data vectors for the atom's predicate at time `at`.
    let mut candidates: Vec<Vec<DataValue>> = Vec::new();
    if stratum.contains(&atom.pred) {
        let source: Box<dyn Iterator<Item = &FactKey>> = if at == t {
            Box::new(state.iter())
        } else {
            Box::new(history.get(at as usize).into_iter().flatten())
        };
        for (p, d) in source {
            if p == &atom.pred {
                candidates.push(d.clone());
            }
        }
    } else {
        for ((p, d), times) in oracle {
            if p == &atom.pred && times.contains(at) {
                candidates.push(d.clone());
            }
        }
    }

    let mut out = Vec::new();
    for b in bindings {
        'cands: for cand in &candidates {
            let mut nb = b.clone();
            for (term, val) in atom.data.iter().zip(cand.iter()) {
                match term {
                    DataTerm::Const(c) => {
                        if c != val {
                            continue 'cands;
                        }
                    }
                    DataTerm::Var(name) => match nb.get(name) {
                        Some(existing) if existing != val => continue 'cands,
                        Some(_) => {}
                        None => {
                            nb.insert(name.clone(), val.clone());
                        }
                    },
                }
            }
            out.push(nb);
        }
    }
    out
}

fn head_fact(head: &Atom, binding: &HashMap<String, DataValue>) -> Option<FactKey> {
    let mut data = Vec::with_capacity(head.data.len());
    for d in &head.data {
        match d {
            DataTerm::Const(c) => data.push(c.clone()),
            DataTerm::Var(v) => data.push(binding.get(v)?.clone()),
        }
    }
    Some((head.pred.clone(), data))
}

/// Reads the eventually periodic model off the history once the window
/// state at `t1` reappeared at `t2`.
fn build_model(history: &[BTreeSet<FactKey>], t1: u64, t2: u64) -> PeriodicModel {
    let period = t2 - t1;
    // Periodic segment starts right after the repeated window's first
    // occurrence: times in (t1, t1 + period] repeat forever. Using
    // offset = t1 + 1 keeps the algebra simple; normalization shrinks it.
    let offset = t1 + 1;
    let mut keys: BTreeSet<FactKey> = BTreeSet::new();
    for s in history {
        keys.extend(s.iter().cloned());
    }
    let mut sets = BTreeMap::new();
    for key in keys {
        let initial: Vec<u64> = (0..offset)
            .filter(|&x| history[x as usize].contains(&key))
            .collect();
        let residues: Vec<u64> = (offset..offset + period)
            .filter(|&x| history[x as usize].contains(&key))
            .map(|x| x % period.max(1))
            .collect();
        let set = if period == 0 {
            EpSet::from_finite(initial)
        } else {
            EpSet::from_parts(initial, offset, period, residues).expect("period > 0")
        };
        sets.insert(key, set);
    }
    PeriodicModel {
        sets,
        offset,
        period: period.max(1),
        detected_at: t2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn eval(src: &str) -> PeriodicModel {
        evaluate(
            &parse_program(src).unwrap(),
            &ExternalEdb::new(),
            &DetectOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn train_example_2_2() {
        let m = eval(
            "train_leaves[5](liege, brussels).
             train_leaves[t + 40](liege, brussels) <- train_leaves[t](liege, brussels).
             train_arrives[t + 60](F, T) <- train_leaves[t](F, T).",
        );
        let d = vec![DataValue::sym("liege"), DataValue::sym("brussels")];
        let leaves = m.times("train_leaves", &d);
        let arrives = m.times("train_arrives", &d);
        for t in 0..500 {
            assert_eq!(
                leaves.contains(t),
                t >= 5 && (t - 5) % 40 == 0,
                "leaves t={t}"
            );
            assert_eq!(
                arrives.contains(t),
                t >= 65 && (t - 65) % 40 == 0,
                "arrives t={t}"
            );
        }
        assert_eq!(leaves.period(), 40);
        assert_eq!(arrives.period(), 40);
    }

    #[test]
    fn simple_point_recursion() {
        let m = eval("p[0]. p[t + 5] <- p[t].");
        let s = m.times("p", &[]);
        assert_eq!(s.period(), 5);
        for t in 0..100 {
            assert_eq!(s.contains(t), t % 5 == 0, "t={t}");
        }
    }

    #[test]
    fn mutual_recursion_even_odd() {
        let m = eval("even[0]. odd[t + 1] <- even[t]. even[t + 1] <- odd[t].");
        let even = m.times("even", &[]);
        let odd = m.times("odd", &[]);
        for t in 0..50 {
            assert_eq!(even.contains(t), t % 2 == 0, "even t={t}");
            assert_eq!(odd.contains(t), t % 2 == 1, "odd t={t}");
        }
        assert_eq!(even.period(), 2);
    }

    #[test]
    fn same_time_chaining() {
        let m = eval("a[0]. a[t + 3] <- a[t]. b[t] <- a[t]. c[t] <- b[t].");
        let c = m.times("c", &[]);
        for t in 0..30 {
            assert_eq!(c.contains(t), t % 3 == 0, "t={t}");
        }
    }

    #[test]
    fn finite_model() {
        // No recursion: finitely many facts.
        let m = eval("p[3]. q[t + 2] <- p[t].");
        let q = m.times("q", &[]);
        assert!(q.is_finite());
        assert_eq!(q.max_finite(), Some(5));
        assert!(m.holds("p", &[], 3));
        assert!(!m.holds("p", &[], 4));
    }

    #[test]
    fn multiple_seeds_interleave() {
        let m = eval("p[0]. p[1]. p[t + 4] <- p[t].");
        let s = m.times("p", &[]);
        for t in 0..60 {
            assert_eq!(s.contains(t), t % 4 <= 1, "t={t}");
        }
    }

    #[test]
    fn data_join_in_rules() {
        let m = eval(
            "route[0](liege, brussels).
             route[0](namur, gent).
             route[t + 10](F, T) <- route[t](F, T).
             hop2[t](F, T2) <- route[t](F, T), link[t](T, T2).
             link[0](brussels, gent).
             link[t + 10](X, Y) <- link[t](X, Y).",
        );
        let d = vec![DataValue::sym("liege"), DataValue::sym("gent")];
        let s = m.times("hop2", &d);
        for t in 0..60 {
            assert_eq!(s.contains(t), t % 10 == 0, "t={t}");
        }
        // No hop2 from namur (gent has no outgoing link).
        assert!(m
            .times("hop2", &[DataValue::sym("namur"), DataValue::sym("gent")])
            .is_empty());
    }

    #[test]
    fn external_edb_drives_rules() {
        let mut edb = ExternalEdb::new();
        edb.insert("clock", vec![], EpSet::progression(2, 7).unwrap());
        let p = parse_program("tick[t + 1] <- clock[t].").unwrap();
        let m = evaluate(&p, &edb, &DetectOptions::default()).unwrap();
        let s = m.times("tick", &[]);
        for t in 0..100 {
            assert_eq!(s.contains(t), t >= 3 && (t - 3) % 7 == 0, "t={t}");
        }
    }

    #[test]
    fn external_edb_conflicting_definition_rejected() {
        let mut edb = ExternalEdb::new();
        edb.insert("p", vec![], EpSet::all());
        let p = parse_program("p[0].").unwrap();
        assert!(evaluate(&p, &edb, &DetectOptions::default()).is_err());
    }

    #[test]
    fn detection_horizon_respected() {
        // Period 60 needs time; a tiny max_time must fail gracefully.
        let p = parse_program("p[0]. p[t + 60] <- p[t].").unwrap();
        let r = evaluate(&p, &ExternalEdb::new(), &DetectOptions { max_time: 10 });
        assert!(matches!(r, Err(Error::Eval(_))));
    }

    #[test]
    fn empty_program_detects_immediately() {
        let m = eval("p[2].");
        assert!(m.holds("p", &[], 2));
        assert!(m.times("p", &[]).is_finite());
        assert!(m.detected_at < 20);
    }

    #[test]
    fn stratified_negation_complement() {
        // odd = ℕ \ even, computed by negation over a lower stratum.
        let m = eval("even[0]. even[t + 2] <- even[t]. odd[t] <- !even[t].");
        let odd = m.times("odd", &[]);
        for t in 0..60 {
            assert_eq!(odd.contains(t), t % 2 == 1, "t={t}");
        }
        assert_eq!(odd.period(), 2);
    }

    #[test]
    fn negation_with_data_join() {
        // Machines that requested service but were never confirmed at the
        // same instant.
        let m = eval(
            "req[0](a). req[0](b). req[t + 6](X) <- req[t](X).
             conf[0](a). conf[t + 6](X) <- conf[t](X).
             pending[t](X) <- req[t](X), !conf[t](X).",
        );
        let a = vec![DataValue::sym("a")];
        let b = vec![DataValue::sym("b")];
        assert!(m.times("pending", &a).is_empty());
        let pb = m.times("pending", &b);
        for t in 0..40 {
            assert_eq!(pb.contains(t), t % 6 == 0, "t={t}");
        }
    }

    #[test]
    fn negation_of_extensional() {
        let mut edb = ExternalEdb::new();
        edb.insert("noise", vec![], EpSet::progression(0, 3).unwrap());
        let p = parse_program("quiet[t] <- !noise[t].").unwrap();
        let m = evaluate(&p, &edb, &DetectOptions::default()).unwrap();
        let q = m.times("quiet", &[]);
        for t in 0..60 {
            assert_eq!(q.contains(t), t % 3 != 0, "t={t}");
        }
    }

    #[test]
    fn three_strata_chain() {
        // base → covered (positive) → gap (negation of covered).
        let m = eval(
            "base[1]. base[t + 4] <- base[t].
             covered[t] <- base[t]. covered[t + 1] <- base[t].
             gap[t] <- !covered[t].",
        );
        let covered = m.times("covered", &[]);
        let gap = m.times("gap", &[]);
        for t in 0..60u64 {
            let is_covered = (t >= 1 && (t - 1) % 4 == 0) || (t >= 2 && (t - 2) % 4 == 0);
            assert_eq!(covered.contains(t), is_covered, "covered t={t}");
            assert_eq!(gap.contains(t), !is_covered, "gap t={t}");
        }
    }

    #[test]
    fn lower_stratum_lookahead_allowed() {
        // p reads q one step ahead — legal since q is a lower stratum.
        let m = eval("q[3]. q[t + 5] <- q[t]. p[t] <- q[t + 1].");
        let p = m.times("p", &[]);
        for t in 0..40u64 {
            assert_eq!(p.contains(t), t + 1 >= 3 && (t + 1 - 3) % 5 == 0, "t={t}");
        }
    }

    #[test]
    fn omega_regular_violation_query() {
        // §3.2: stratified negation lets a query flag "an even position
        // without e" — the complement pattern positive programs cannot
        // express.
        let mut edb = ExternalEdb::new();
        edb.insert("e", vec![], EpSet::progression(0, 2).unwrap());
        let p = parse_program(
            "even[0]. even[t + 2] <- even[t].
             violation[t] <- even[t], !e[t].",
        )
        .unwrap();
        let m = evaluate(&p, &edb, &DetectOptions::default()).unwrap();
        assert!(m.times("violation", &[]).is_empty());
        // Poke a hole at position 4.
        let mut edb2 = ExternalEdb::new();
        edb2.insert(
            "e",
            vec![],
            EpSet::progression(0, 2)
                .unwrap()
                .difference(&EpSet::singleton(4))
                .unwrap(),
        );
        let m2 = evaluate(&p, &edb2, &DetectOptions::default()).unwrap();
        let v = m2.times("violation", &[]);
        assert!(v.contains(4));
        assert!(!v.contains(2));
    }

    #[test]
    fn governed_complete_run_reports_complete() {
        use itdb_lrp::{Governor, GovernorConfig};
        let p = parse_program("p[0]. p[t + 5] <- p[t].").unwrap();
        let g = Governor::new(GovernorConfig::default());
        let ev = evaluate_governed(&p, &ExternalEdb::new(), &DetectOptions::default(), &g).unwrap();
        assert!(ev.outcome.complete());
        assert_eq!(ev.model.times("p", &[]).period(), 5);
    }

    /// Regression: a trip used to surface as `Err`, discarding the whole
    /// simulation. Even the degenerate zero-deadline trip now returns a
    /// typed outcome instead of an error.
    #[test]
    fn governed_zero_deadline_returns_typed_interruption() {
        use itdb_lrp::{Governor, GovernorConfig};
        let p = parse_program("p[0]. p[t + 5] <- p[t].").unwrap();
        let g = Governor::new(GovernorConfig {
            timeout: Some(std::time::Duration::ZERO),
            ..GovernorConfig::default()
        });
        let ev = evaluate_governed(&p, &ExternalEdb::new(), &DetectOptions::default(), &g).unwrap();
        match ev.outcome {
            DlOutcome::Interrupted {
                completed_strata,
                total_strata,
                ..
            } => {
                assert_eq!(completed_strata, 0);
                assert_eq!(total_strata, 1);
            }
            DlOutcome::Complete => panic!("zero deadline should trip"),
        }
    }

    /// Regression: the all-or-nothing trip path returned nothing; now the
    /// simulated prefix comes back as a non-empty partial model.
    #[test]
    fn governed_trip_salvages_nonempty_simulation_prefix() {
        use itdb_lrp::{CancelToken, Governor, GovernorConfig};
        // Detection needs ~60k time steps (window 20001); cancelling
        // after 50ms lands mid-simulation with thousands of steps done.
        let p = parse_program("p[0]. p[t + 20000] <- p[t].").unwrap();
        let cancel = CancelToken::new();
        let g = Governor::new(GovernorConfig {
            cancel: Some(cancel.clone()),
            ..GovernorConfig::default()
        });
        let killer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            cancel.cancel();
        });
        let opts = DetectOptions {
            max_time: 1_000_000,
        };
        let ev = evaluate_governed(&p, &ExternalEdb::new(), &opts, &g).unwrap();
        let _ = killer.join();
        match ev.outcome {
            DlOutcome::Interrupted {
                reason,
                simulated_to,
                ..
            } => {
                assert_eq!(reason, TripReason::Cancelled);
                assert!(simulated_to > 0, "no steps salvaged before the trip");
                let times = ev.model.times("p", &[]);
                assert!(
                    times.is_finite(),
                    "prefix must be a finite under-approximation"
                );
                assert!(times.contains(0), "the seeded fact is in the prefix");
                // Sound: every reported time genuinely holds.
                for t in 0..simulated_to.min(100) {
                    assert_eq!(times.contains(t), t == 0, "t={t}");
                }
            }
            DlOutcome::Complete => panic!("cancelled run should not complete"),
        }
    }

    #[test]
    fn ci88_style_offsets() {
        // Eventually periodic with a nontrivial pre-period: seeds at 0 and
        // 7, recursion +6 — classes {0, 1} mod 6 beyond 6, plus stray 0, 7…
        let m = eval("p[0]. p[7]. p[t + 6] <- p[t].");
        let s = m.times("p", &[]);
        for t in 0..120 {
            let expect = t % 6 == 0 || (t >= 7 && t % 6 == 1);
            assert_eq!(s.contains(t), expect, "t={t}");
        }
    }
}
