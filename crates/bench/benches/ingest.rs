//! Streaming-ingestion maintenance: cost of applying a fact batch to a
//! resident model **incrementally** (new EDB tuples seed the semi-naive
//! delta frontier) versus the oracle twin that re-evaluates the whole
//! workload from scratch. The gap is the point of `POST /facts`: ingest
//! latency scales with the consequences of the batch, not with the size
//! of the model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use itdb_bench::workloads::example_4_1;
use itdb_core::{EvalOptions, Fact, Op, ResidentModel};
use itdb_lrp::parser::parse_tuple;
use std::hint::black_box;

/// A batch of `n` fresh course facts, schema-compatible with
/// `example_4_1` and disjoint from its seed tuple.
fn fresh_batch(period: i64, n: usize) -> Vec<Op> {
    (0..n)
        .map(|i| {
            let a = 20 + 4 * i as i64;
            let text = format!(
                "({period}n+{a}, {period}n+{}; extra{i}) : T2 = T1 + 2",
                a + 2
            );
            Op::Assert(Fact {
                pred: "course".to_string(),
                tuple: parse_tuple(&text).expect("static tuple"),
            })
        })
        .collect()
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");
    for (period, step) in [(168i64, 48i64), (360, 75)] {
        let (program, db) = example_4_1(period, step);
        let base =
            ResidentModel::new(program, db, EvalOptions::default()).expect("example 4.1 converges");
        for batch_size in [1usize, 4, 16] {
            let batch = fresh_batch(period, batch_size);
            let tag = format!("p{period}_s{step}_b{batch_size}");
            // Both variants clone the converged base model per iteration;
            // the clone cost is common, so the delta is pure maintenance.
            group.bench_with_input(
                BenchmarkId::new("incremental", &tag),
                &batch,
                |bench, batch| {
                    bench.iter(|| {
                        let mut m = base.clone();
                        black_box(m.apply_ops(batch).expect("batch applies"))
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("full_reeval", &tag),
                &batch,
                |bench, batch| {
                    bench.iter(|| {
                        let mut m = base.clone();
                        black_box(m.apply_ops_full_reeval(batch).expect("batch applies"))
                    })
                },
            );
        }
        group.bench_function(format!("clone_baseline_p{period}_s{step}"), |bench| {
            bench.iter(|| black_box(base.clone()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
