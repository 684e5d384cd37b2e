//! The indexing benchmark: indexed versus full-scan fixpoint evaluation.
//!
//! Runs the join-heavy [`crate::workloads::indexing_workload`] twice — once
//! with [`EvalOptions::use_index`] on (per-relation data-vector index,
//! per-tuple canonical/emptiness memos) and once forced onto the seed's
//! full linear scans — checks the two models are semantically equivalent,
//! and reports wall-clock times plus the engine's evaluation statistics.
//! The `bench_indexing` binary renders the report as JSON
//! (`BENCH_indexing.json`) and exits nonzero if the indexed path is slower.

use crate::workloads::indexing_workload;
use itdb_core::{evaluate_with, EvalOptions, Evaluation};
use itdb_lrp::DEFAULT_RESIDUE_BUDGET;
use std::time::Instant;

/// Everything one indexing-benchmark run measured.
#[derive(Debug, Clone)]
pub struct IndexingReport {
    /// Distinct data values in the workload EDB.
    pub n_data: usize,
    /// EDB lrp period.
    pub period: i64,
    /// Recursion step.
    pub step: i64,
    /// Timed repetitions per configuration (best time kept).
    pub reps: usize,
    /// Cores the runtime reports (`std::thread::available_parallelism`).
    pub cores: usize,
    /// Best wall-clock for the indexed evaluation, in milliseconds.
    pub indexed_ms: f64,
    /// Best wall-clock for the full-scan evaluation, in milliseconds.
    pub naive_ms: f64,
    /// `naive_ms / indexed_ms`.
    pub speedup: f64,
    /// Were the two models semantically equivalent (they must be)?
    pub equivalent: bool,
    /// Generalized tuples in the converged model.
    pub model_tuples: u64,
    /// Fraction of tuple consultations the index avoided (indexed run).
    pub narrowing_ratio: Option<f64>,
    /// Canonical-form memo hit rate (indexed run).
    pub canonical_hit_rate: Option<f64>,
    /// Emptiness memo hit rate (indexed run).
    pub empty_hit_rate: Option<f64>,
    /// Subsumption checks performed by the indexed run.
    pub subsumption_checks_indexed: u64,
    /// Subsumption checks performed by the full-scan run.
    pub subsumption_checks_naive: u64,
    /// Wall-clock ratio of the indexed evaluation with the observability
    /// machinery *armed but idle* (a request-id context installed, no
    /// sinks, no flight ring) over the plain indexed evaluation. The
    /// disabled path is one thread-local flag check per would-be event,
    /// so this must stay ~1.0; the `bench_indexing` binary gates it.
    pub disabled_path_overhead: f64,
}

impl IndexingReport {
    /// Renders the report as a small, hand-rolled JSON document (the
    /// workspace has no serde; the schema is stable for CI artifacts).
    pub fn to_json(&self) -> String {
        let opt = |o: Option<f64>| match o {
            Some(v) => format!("{v:.4}"),
            None => "null".to_string(),
        };
        format!(
            "{{\n  \
             \"benchmark\": \"indexing\",\n  \
             \"workload\": {{ \"n_data\": {}, \"period\": {}, \"step\": {}, \"reps\": {} }},\n  \
             \"cores\": {},\n  \
             \"indexed_ms\": {:.3},\n  \
             \"naive_ms\": {:.3},\n  \
             \"speedup\": {:.2},\n  \
             \"equivalent\": {},\n  \
             \"model_tuples\": {},\n  \
             \"narrowing_ratio\": {},\n  \
             \"canonical_hit_rate\": {},\n  \
             \"empty_hit_rate\": {},\n  \
             \"subsumption_checks\": {{ \"indexed\": {}, \"naive\": {} }},\n  \
             \"disabled_path_overhead\": {:.4}\n\
             }}\n",
            self.n_data,
            self.period,
            self.step,
            self.reps,
            self.cores,
            self.indexed_ms,
            self.naive_ms,
            self.speedup,
            self.equivalent,
            self.model_tuples,
            opt(self.narrowing_ratio),
            opt(self.canonical_hit_rate),
            opt(self.empty_hit_rate),
            self.subsumption_checks_indexed,
            self.subsumption_checks_naive,
            self.disabled_path_overhead,
        )
    }
}

fn run_once(
    n_data: usize,
    period: i64,
    step: i64,
    use_index: bool,
    coalesce: bool,
) -> (f64, Evaluation) {
    let (program, db) = indexing_workload(n_data, period, step);
    let opts = EvalOptions {
        use_index,
        coalesce,
        ..Default::default()
    };
    let start = Instant::now();
    let eval = evaluate_with(&program, &db, &opts).expect("workload evaluates");
    assert!(eval.outcome.converged(), "workload must converge");
    (start.elapsed().as_secs_f64() * 1e3, eval)
}

/// Runs the benchmark. `quick` shrinks the workload for CI smoke runs;
/// the full configuration is what `BENCH_indexing.json` records.
pub fn run_indexing(quick: bool) -> IndexingReport {
    let (n_data, reps) = if quick { (16, 2) } else { (48, 3) };
    let (period, step) = (168, 48);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Warm up allocators and page cache once per configuration. The timed
    // comparison covers the pure fixpoint: final coalescing has no
    // full-scan variant (it is index-backed either way), so including it
    // would only dilute the measured difference equally on both sides.
    run_once(n_data, period, step, true, false);
    run_once(n_data, period, step, false, false);

    let mut indexed_ms = f64::INFINITY;
    let mut naive_ms = f64::INFINITY;
    let mut indexed_eval = None;
    let mut naive_eval = None;
    for _ in 0..reps {
        let (ms, ev) = run_once(n_data, period, step, true, false);
        indexed_ms = indexed_ms.min(ms);
        indexed_eval = Some(ev);
        let (ms, ev) = run_once(n_data, period, step, false, false);
        naive_ms = naive_ms.min(ms);
        naive_eval = Some(ev);
    }
    let indexed = indexed_eval.expect("reps >= 1");
    let naive = naive_eval.expect("reps >= 1");

    // The observability disabled path: a request-id context installed (as
    // the serve path does for every request) with tracing off — each
    // would-be event costs one thread-local flag load and nothing else.
    // Interleave the two configurations so drift hits both equally.
    let mut armed_ms = f64::INFINITY;
    let mut plain_ms = f64::INFINITY;
    for _ in 0..reps.max(3) {
        let (ms, _) = {
            let _ctx = itdb_trace::set_request_id("bench-disabled-path");
            run_once(n_data, period, step, true, false)
        };
        armed_ms = armed_ms.min(ms);
        let (ms, _) = run_once(n_data, period, step, true, false);
        plain_ms = plain_ms.min(ms);
    }
    // One untimed coalesced run for the memo hit rates: the coalescing
    // pass re-requests canonical forms and emptiness verdicts the fixpoint
    // already computed, which is what the per-tuple caches serve.
    let (_, coalesced) = run_once(n_data, period, step, true, true);

    let equivalent = indexed.idb.keys().all(|pred| {
        indexed
            .relation(pred)
            .expect("own key")
            .equivalent(
                naive.relation(pred).expect("same program"),
                DEFAULT_RESIDUE_BUDGET,
            )
            .expect("equivalence decidable")
    });

    IndexingReport {
        n_data,
        period,
        step,
        reps,
        cores,
        indexed_ms,
        naive_ms,
        speedup: naive_ms / indexed_ms,
        equivalent,
        model_tuples: indexed.idb.values().map(|r| r.len() as u64).sum(),
        narrowing_ratio: indexed.stats.counters.narrowing_ratio(),
        canonical_hit_rate: coalesced.stats.counters.canonical_hit_rate(),
        empty_hit_rate: coalesced.stats.counters.empty_hit_rate(),
        subsumption_checks_indexed: indexed.stats.counters.subsumption_checks,
        subsumption_checks_naive: naive.stats.counters.subsumption_checks,
        disabled_path_overhead: armed_ms / plain_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_consistent_and_renders() {
        let r = run_indexing(true);
        assert!(r.equivalent, "{r:?}");
        assert!(r.model_tuples > 0, "{r:?}");
        assert!(r.indexed_ms > 0.0 && r.naive_ms > 0.0, "{r:?}");
        // The index must actually narrow on this workload.
        assert!(r.narrowing_ratio.unwrap_or(0.0) > 0.5, "{r:?}");
        // The idle observability machinery is a flag check; even a noisy
        // CI box must not see it near-doubling the evaluation.
        assert!(
            r.disabled_path_overhead > 0.0 && r.disabled_path_overhead < 2.0,
            "{r:?}"
        );
        let json = r.to_json();
        assert!(json.contains("\"benchmark\": \"indexing\""), "{json}");
        assert!(json.contains("\"speedup\""), "{json}");
        assert!(json.contains("\"disabled_path_overhead\""), "{json}");
        assert!(r.cores >= 1, "{r:?}");
        assert!(json.contains(&format!("\"cores\": {},", r.cores)), "{json}");
        // Balanced braces as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }
}
