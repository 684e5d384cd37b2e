//! Runs `bench_serve --quick` on every workload and checks what the
//! benchmark promises: no errors, no wrong answers, every metric
//! `BENCHMARK.json` names present in the output, and traced counts that
//! repeat exactly for one seed.

use itdb_trace::json::{self, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["query_eval", "query_resident", "facts_churn", "mixed"];

fn benchmark() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark()
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("bench_serve_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

/// Runs one quick workload; returns the result line and the document.
fn quick(dir: &Path, workload: &str, seed: u64, trace: bool) -> (Value, Value) {
    let out = dir.join(format!("{workload}-{seed}.json"));
    let output = Command::new(env!("CARGO_BIN_EXE_bench_serve"))
        .current_dir(dir)
        .env_remove("ITDB_PARALLEL")
        .args([
            "--workload",
            workload,
            "--quick",
            "--seed",
            &seed.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("bench_serve runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload}: {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let line = json::parse(stdout.lines().last().expect("a result line")).expect("JSON line");
    let doc = std::fs::read_to_string(&out).expect("result document");
    (line, json::parse(&doc).expect("JSON document"))
}

fn number(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn assert_metrics(metrics: &Value, declared: &[(String, String)], workload: &str) {
    let Value::Object(map) = metrics else {
        panic!("{workload}: metrics is not an object");
    };
    assert_eq!(map.len(), declared.len(), "{workload}: {map:?}");
    for (name, unit) in declared {
        let m = map
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
    }
}

#[test]
fn every_workload_is_correct_and_reports_every_declared_metric() {
    let dir = fresh_dir("all");
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for workload in WORKLOADS {
        let (line, doc) = quick(&dir, workload, 1, true);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{workload}");
        assert!(number(&line, "attempted") >= 1.0, "{workload}");
        assert_eq!(number(&line, "failed"), 0.0, "{workload}");
        assert_eq!(number(&doc, "wrong_answers"), 0.0, "{workload}");
        assert_eq!(number(&doc, "error_rate"), 0.0, "{workload}");
        assert_metrics(line.get("metrics").expect("metrics"), &per_layer, workload);
        assert_metrics(
            doc.get("end_to_end").expect("end_to_end"),
            &end_to_end,
            workload,
        );
    }
    let (line, _) = quick(&dir, "query_eval", 1, false);
    assert_metrics(
        line.get("metrics").expect("metrics"),
        &end_to_end,
        "query_eval",
    );
}

#[test]
fn traced_counts_repeat_for_a_seed() {
    let dir = fresh_dir("repeat");
    let counts = |doc: &Value| -> Vec<(String, f64)> {
        declared("per_layer")
            .into_iter()
            .filter(|(_, unit)| unit == "count" || unit == "bytes")
            .map(|(name, _)| {
                let v = doc
                    .get("per_layer")
                    .and_then(|m| m.get(&name))
                    .map_or(f64::NAN, |m| number(m, "value"));
                (name, v)
            })
            .collect()
    };
    let (_, first) = quick(&dir, "mixed", 5, true);
    let (_, second) = quick(&dir, "mixed", 5, true);
    let (a, b) = (counts(&first), counts(&second));
    assert!(a.iter().all(|(_, v)| v.is_finite()), "{a:?}");
    assert_eq!(a, b);
}
