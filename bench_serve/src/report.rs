//! Metric names and units, and the JSON the benchmark writes.

use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics (untraced pass), with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced pass, plus the client-side connection split
/// and the transport share, which need the untraced latencies).
pub const PER_LAYER: [(&str, &str); 27] = [
    ("serve.http.read_request_us", "us"),
    ("serve.http.write_response_us", "us"),
    ("serve.transport_share", "fraction"),
    ("serve.fresh_conn_ms", "ms"),
    ("serve.reused_conn_ms", "ms"),
    ("core.service.run_query_us", "us"),
    ("core.service.tuples_derived_per_query", "count"),
    ("core.service.tuples_inserted_per_query", "count"),
    ("core.engine.evaluate_ms", "ms"),
    ("core.engine.evaluate_parallel2_ms", "ms"),
    ("core.query.lookup_us", "us"),
    ("core.query.relation_tuples", "count"),
    ("core.query.answers_per_lookup", "count"),
    ("core.resident.new_ms", "ms"),
    ("core.resident.assert_us", "us"),
    ("core.resident.retract_us", "us"),
    ("core.resident.overdeleted_per_retract", "count"),
    ("core.resident.rederived_per_retract", "count"),
    ("core.resident.iterations_per_op", "count"),
    ("core.resident.cone_share", "fraction"),
    ("serve.ingest.parse_facts_us", "us"),
    ("serve.ingest.encode_batch_us", "us"),
    ("serve.ingest.submit_us", "us"),
    ("serve.ingest.checkpoint_ms", "ms"),
    ("store.wal.append_us", "us"),
    ("store.wal.fsyncs_per_append", "count"),
    ("store.wal.bytes_per_op", "bytes"),
];

/// A JSON number; non-finite values (no samples) become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": …, "unit": …}, …}` over `catalog`, taking values
/// from `values` (a name missing there renders as `null`).
pub fn metrics_object(catalog: &[(&str, &str)], values: &[(&str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let v = values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, v)| *v);
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        );
    }
    out.push('}');
    out
}

/// The result line the benchmark prints last.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_render_in_catalog_order_with_units() {
        let out = metrics_object(&END_TO_END[..2], &[("latency_p95_ms", 2.5), ("x", 1.0)]);
        assert_eq!(
            out,
            "{\"latency_p50_ms\": {\"value\": null, \"unit\": \"ms\"}, \
             \"latency_p95_ms\": {\"value\": 2.5, \"unit\": \"ms\"}}"
        );
        let line = result_line(true, 3, 0, "{}");
        let parsed = itdb_trace::json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_f64()), Some(3.0));
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
