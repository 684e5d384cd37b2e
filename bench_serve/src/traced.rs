//! The traced pass: replays the workload's seeded streams single-threaded
//! through each layer's public function, recording one in-memory span
//! per call. No server runs, so nothing contends with the spans.
//!
//! Every layer runs on every workload, at that workload's model size:
//! query patterns go through both read paths (per-request evaluation and
//! resident lookup) and replace batches through the whole write path, so
//! each per-layer metric exists on each workload. Which of them the
//! workload's own requests pay for decides the in-process cost behind
//! `serve.transport_share`.

use crate::stats::{mean, median};
use crate::workloads::{serve_workload_text, ChurnStream, Operation, QueryStream, Spec};
use itdb_core::{
    evaluate_with, parse_atom, parse_workload, query, EvalOptions, Op, QueryRequest, QueryResponse,
    QueryStatus, ResidentModel, Service, ServiceDefaults,
};
use itdb_serve::http;
use itdb_serve::ingest::{encode_batch, parse_facts_body, FactBatch};
use itdb_serve::{Ingest, IngestConfig};
use itdb_store::{Wal, WalOptions};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// How much the traced pass replays.
#[derive(Debug, Clone, Copy)]
pub struct TraceSize {
    /// Query operations; three per replace batch, the `mixed` ratio.
    pub queries: usize,
    /// Replace batches, after the live set is filled untraced.
    pub churn: usize,
    /// Repetitions of the whole-model calls (evaluate, resident boot).
    pub reps: usize,
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function, e.g. `store.wal.append`.
    pub name: &'static str,
    /// Offsets from the start of the pass.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the operation within its stream.
    pub op: usize,
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, op: usize) -> usize {
        let now = self.t0.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: None,
            op,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.t0.elapsed();
    }

    /// Runs `f` inside a span and returns its result and duration (µs).
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.t0.elapsed();
        let out = std::hint::black_box(f());
        let end = self.t0.elapsed();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// Durations (µs) of every span called `name`.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.op
            );
        }
        out
    }
}

/// What the traced pass produced.
pub struct Traced {
    /// Per-layer metrics the pass measures by itself, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// In-process cost (µs) of each query operation on the workload's
    /// own read path: parse request, answer, write response.
    pub query_costs_us: Vec<f64>,
    /// In-process cost (µs) of each replace batch on the server's write
    /// path: parse request, parse facts, `Ingest::submit`, write response.
    pub facts_costs_us: Vec<f64>,
    /// The recorded spans.
    pub tracer: Tracer,
}

fn other(e: impl std::fmt::Debug) -> io::Error {
    io::Error::other(format!("{e:?}"))
}

/// Runs the traced pass of `spec`. `work_dir` must be empty.
pub fn run(spec: &Spec, seed: u64, size: &TraceSize, work_dir: &Path) -> io::Result<Traced> {
    let workload = parse_workload(&serve_workload_text(spec.n_data)).map_err(other)?;
    let mut tr = Tracer::new();
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // Whole-model calls: the fixpoint at 1 and 2 workers, and the
    // resident boot the WAL-backed server pays.
    let resident_opts = IngestConfig::new(work_dir).eval;
    let mut model = None;
    for rep in 0..size.reps {
        for (name, parallel) in [
            ("core.engine.evaluate", 1),
            ("core.engine.evaluate_parallel2", 2),
        ] {
            let opts = EvalOptions {
                parallel,
                ..EvalOptions::default()
            };
            let (eval, _) = tr.span(name, None, rep, || {
                evaluate_with(&workload.program, &workload.edb, &opts)
            });
            eval.map_err(other)?;
        }
        let (program, edb) = (workload.program.clone(), workload.edb.clone());
        let opts = resident_opts.clone();
        let (built, _) = tr.span("core.resident.new", None, rep, || {
            ResidentModel::new(program, edb, opts)
        });
        model = Some(built.map_err(other)?);
    }
    let mut model = model.ok_or_else(|| other("no repetitions"))?;
    for (metric, span) in [
        ("core.engine.evaluate_ms", "core.engine.evaluate"),
        (
            "core.engine.evaluate_parallel2_ms",
            "core.engine.evaluate_parallel2",
        ),
        ("core.resident.new_ms", "core.resident.new"),
    ] {
        m.push((metric, med(&tr.durations_us(span)) / 1e3));
    }

    // Read path.
    let service = Service::new(workload.clone(), ServiceDefaults::default());
    let mut queries = QueryStream::new(seed, 0, spec.n_data);
    let (mut derived, mut inserted, mut rel_sizes, mut answers) = (vec![], vec![], vec![], vec![]);
    let mut query_costs_us = Vec::with_capacity(size.queries);
    for op in 0..size.queries {
        let request = Operation::Query(queries.next_pattern()).request_bytes();
        let parent = tr.open("op.query", op);
        let (req, read_us) = tr.span("serve.http.read_request", Some(parent), op, || {
            http::read_request(&mut &request[..])
        });
        let pattern = String::from_utf8(req.map_err(other)?.body).map_err(other)?;
        let (evaluated, eval_us) = tr.span("core.service.run_query", Some(parent), op, || {
            service
                .run_query(&QueryRequest {
                    pattern: pattern.clone(),
                    fuel: None,
                    timeout: None,
                    request_id: Some(format!("bench-q{op}")),
                })
                .map(|r| (r.to_json(), r.stats.tuples_derived, r.stats.tuples_inserted))
        });
        let (eval_body, d, i) = evaluated.map_err(other)?;
        derived.push(d as f64);
        inserted.push(i as f64);
        let (looked_up, lookup_us) = tr.span("core.query.lookup", Some(parent), op, || {
            lookup(&model, &pattern, op)
        });
        let (lookup_body, rel_len, n_answers) = looked_up?;
        rel_sizes.push(rel_len as f64);
        answers.push(n_answers as f64);
        let body = if spec.wal { lookup_body } else { eval_body };
        let mut out = Vec::with_capacity(body.len() + 160);
        let (written, write_us) = tr.span("serve.http.write_response", Some(parent), op, || {
            http::write_response_with(
                &mut out,
                200,
                "application/json",
                body.as_bytes(),
                true,
                &[("X-Itdb-Request-Id", "bench-id")],
            )
        });
        written?;
        tr.close(parent);
        let answer_us = if spec.wal { lookup_us } else { eval_us };
        query_costs_us.push(read_us + answer_us + write_us);
    }
    for (metric, span) in [
        ("core.service.run_query_us", "core.service.run_query"),
        ("core.query.lookup_us", "core.query.lookup"),
    ] {
        m.push((metric, med(&tr.durations_us(span))));
    }
    m.push(("core.service.tuples_derived_per_query", avg(&derived)));
    m.push(("core.service.tuples_inserted_per_query", avg(&inserted)));
    m.push(("core.query.relation_tuples", avg(&rel_sizes)));
    m.push(("core.query.answers_per_lookup", avg(&answers)));

    // Write path. The decomposed layers (facts parse, batch encode, WAL
    // append, resident apply) run on their own WAL and model; the
    // server's composite path runs on a benchmark-owned `Ingest`.
    let (mut wal, _) = Wal::open(work_dir.join("wal"), WalOptions::default()).map_err(other)?;
    let ingest = Ingest::open(IngestConfig::new(work_dir.join("ingest")), &workload)?;
    let mut churn = ChurnStream::new(seed, 0);
    while !churn.filled() {
        let batch = churn.next_batch();
        let ops = parse_facts_body(&batch.body).map_err(other)?;
        wal.append(&encode_batch(&FactBatch {
            request_id: batch.request_id.clone(),
            ops: ops.clone(),
        }))
        .map_err(other)?;
        model.apply_ops(&ops).map_err(other)?;
        ingest.submit(&batch.request_id, ops).map_err(other)?;
    }
    let before = wal.stats();
    let (mut overdeleted, mut rederived, mut iterations, mut cone) =
        (vec![], vec![], vec![], vec![]);
    let mut facts_costs_us = Vec::with_capacity(size.churn);
    for op in 0..size.churn {
        let batch = churn.next_batch();
        let request = Operation::Facts(batch.clone()).request_bytes();
        let parent = tr.open("op.facts", op);
        let (req, read_us) = tr.span("serve.http.read_request", Some(parent), op, || {
            http::read_request(&mut &request[..])
        });
        let body = String::from_utf8(req.map_err(other)?.body).map_err(other)?;
        let (ops, parse_us) = tr.span("serve.ingest.parse_facts", Some(parent), op, || {
            parse_facts_body(&body)
        });
        let ops: Vec<Op> = ops.map_err(other)?;
        let fact_batch = FactBatch {
            request_id: batch.request_id.clone(),
            ops: ops.clone(),
        };
        let (payload, _) = tr.span("serve.ingest.encode_batch", Some(parent), op, || {
            encode_batch(&fact_batch)
        });
        let (seq, _) = tr.span("store.wal.append", Some(parent), op, || {
            wal.append(&payload)
        });
        seq.map_err(other)?;
        let [retract @ Op::Retract(_), assert @ Op::Assert(_)] = &ops[..] else {
            return Err(other("a replace batch is one retract then one assert"));
        };
        let (r, _) = tr.span("core.resident.retract", Some(parent), op, || {
            model.apply_ops(std::slice::from_ref(retract))
        });
        let r = r.map_err(other)?;
        let (a, _) = tr.span("core.resident.assert", Some(parent), op, || {
            model.apply_ops(std::slice::from_ref(assert))
        });
        let a = a.map_err(other)?;
        overdeleted.push(r.overdeleted as f64);
        rederived.push(r.rederived as f64);
        cone.push(if r.dred_cone { 1.0 } else { 0.0 });
        iterations.extend([r.iterations as f64, a.iterations as f64]);
        let (submitted, submit_us) = tr.span("serve.ingest.submit", Some(parent), op, || {
            ingest.submit(&batch.request_id, ops)
        });
        let ack = facts_ack(&submitted.map_err(other)?, &batch.request_id);
        let mut out = Vec::with_capacity(ack.len() + 160);
        let (written, write_us) = tr.span("serve.http.write_response", Some(parent), op, || {
            http::write_response_with(
                &mut out,
                202,
                "application/json",
                ack.as_bytes(),
                true,
                &[("X-Itdb-Request-Id", batch.request_id.as_str())],
            )
        });
        written?;
        tr.close(parent);
        facts_costs_us.push(read_us + parse_us + submit_us + write_us);
    }
    let after = wal.stats();
    tr.span("serve.ingest.checkpoint", None, 0, || ingest.flush());

    for (metric, span) in [
        ("serve.http.read_request_us", "serve.http.read_request"),
        ("serve.http.write_response_us", "serve.http.write_response"),
        ("core.resident.assert_us", "core.resident.assert"),
        ("core.resident.retract_us", "core.resident.retract"),
        ("serve.ingest.parse_facts_us", "serve.ingest.parse_facts"),
        ("serve.ingest.encode_batch_us", "serve.ingest.encode_batch"),
        ("serve.ingest.submit_us", "serve.ingest.submit"),
        ("store.wal.append_us", "store.wal.append"),
    ] {
        m.push((metric, med(&tr.durations_us(span))));
    }
    m.push((
        "serve.ingest.checkpoint_ms",
        med(&tr.durations_us("serve.ingest.checkpoint")) / 1e3,
    ));
    m.push(("core.resident.overdeleted_per_retract", avg(&overdeleted)));
    m.push(("core.resident.rederived_per_retract", avg(&rederived)));
    m.push(("core.resident.iterations_per_op", avg(&iterations)));
    m.push(("core.resident.cone_share", avg(&cone)));
    let appends = (after.appends - before.appends).max(1) as f64;
    m.push((
        "store.wal.fsyncs_per_append",
        (after.fsyncs - before.fsyncs) as f64 / appends,
    ));
    m.push((
        "store.wal.bytes_per_op",
        (after.segment_bytes - before.segment_bytes) as f64 / appends,
    ));
    Ok(Traced {
        metrics: m,
        query_costs_us,
        facts_costs_us,
        tracer: tr,
    })
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

fn avg(v: &[f64]) -> f64 {
    mean(v).unwrap_or(0.0)
}

/// The resident read path of `POST /query`: parse the pattern, look it up
/// in the maintained relation, render the answer. Returns the body, the
/// relation's size and the answer count.
fn lookup(model: &ResidentModel, pattern: &str, op: usize) -> io::Result<(String, usize, usize)> {
    let atom = parse_atom(pattern).map_err(other)?;
    let rel = model
        .relation(&atom.pred)
        .ok_or_else(|| other(format!("unknown predicate {}", atom.pred)))?;
    let found = query(rel, &atom, EvalOptions::default().residue_budget).map_err(other)?;
    let resp = QueryResponse {
        pred: atom.pred.clone(),
        status: QueryStatus::Complete,
        answers: found.tuples().iter().map(|t| t.to_string()).collect(),
        stats: Default::default(),
        request_id: Some(format!("bench-q{op}")),
    };
    Ok((resp.to_json(), rel.len(), resp.answers.len()))
}

/// The `202` body the server writes for an accepted batch.
fn facts_ack(out: &itdb_serve::IngestOutcome, request_id: &str) -> String {
    let seq = out.seq.map_or("null".to_string(), |s| s.to_string());
    format!(
        "{{\"status\":\"accepted\",\"applied\":{},\"duplicates\":{},\"retracted\":{},\"duplicate_request\":{},\"seq\":{seq},\"request_id\":\"{request_id}\"}}",
        out.applied, out.duplicates, out.retracted, out.duplicate_request
    )
}
