//! `bench_serve --compare A B`: compares two sets of runs metric by
//! metric against the bounds in `BENCHMARK.json`.
//!
//! `A` and `B` are each a result document written by `--out`, or a
//! directory of them. For every end-to-end metric and workload it prints
//! the medians, `B/A`, the run-to-run spread (interquartile range over
//! median, the wider of the two sets) and the bound, and a verdict:
//!
//! - `REGRESSION`: B is worse than A by more than the bound while the
//!   spread is within it;
//! - `unresolved`: the spread exceeds the bound, so the comparison cannot
//!   tell, unless every run of B is better than every run of A (`better`);
//! - `ok` otherwise.
//!
//! Exits 1 when any case is a regression.

use crate::stats::{median, quartiles};
use itdb_trace::json::{self, Value};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_json(path: &Path) -> io::Result<Value> {
    let text = std::fs::read_to_string(path)?;
    json::parse(&text).map_err(|e| bad(format!("{}: {e}", path.display())))
}

fn bounds(benchmark: &Path) -> io::Result<Vec<Bound>> {
    let doc = read_json(benchmark)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| bad(format!("{}: no end_to_end list", benchmark.display())))?;
    entries
        .iter()
        .map(|e| {
            let field = |k: &str| {
                e.get(k)
                    .ok_or_else(|| bad(format!("metric entry lacks `{k}`")))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().unwrap_or(0.0),
            })
        })
        .collect()
}

/// Result documents under `path`, grouped by workload.
fn runs(path: &Path) -> io::Result<BTreeMap<String, Vec<Value>>> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path)? {
            let p = entry?.path();
            if p.extension().is_some_and(|e| e == "json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut by_workload: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for f in files {
        let doc = read_json(&f)?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad(format!("{}: not a bench_serve result", f.display())))?
            .to_string();
        by_workload.entry(workload).or_default().push(doc);
    }
    Ok(by_workload)
}

fn values(docs: &[Value], metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// A table cell: at most eight characters, scientific below 0.01.
fn short(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}").chars().take(8).collect()
    }
}

fn spread(v: &[f64]) -> f64 {
    match (quartiles(v), median(v)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Prints the comparison; returns the exit code.
pub fn run(a: &Path, b: &Path, benchmark: &Path) -> io::Result<i32> {
    let bounds = bounds(benchmark)?;
    let (a_runs, b_runs) = (runs(a)?, runs(b)?);
    let mut regressions = 0;
    println!(
        "workload        metric            A            B            B/A     spread  bound verdict"
    );
    for (workload, a_docs) in &a_runs {
        let Some(b_docs) = b_runs.get(workload) else {
            continue;
        };
        for m in &bounds {
            let (va, vb) = (values(a_docs, &m.name), values(b_docs, &m.name));
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                continue;
            };
            let ratio = mb / ma;
            let worse = if m.lower_is_better {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let spread = spread(&va).max(spread(&vb));
            let b_always_better = if m.lower_is_better {
                vb.iter().fold(f64::MIN, |x, &y| x.max(y))
                    < va.iter().fold(f64::MAX, |x, &y| x.min(y))
            } else {
                vb.iter().fold(f64::MAX, |x, &y| x.min(y))
                    > va.iter().fold(f64::MIN, |x, &y| x.max(y))
            };
            let verdict = if spread > m.bound {
                if b_always_better {
                    "better"
                } else {
                    "unresolved"
                }
            } else if worse > m.bound {
                regressions += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{workload:<15} {:<17} {:<12} {:<12} {ratio:<7.4} {spread:<7.4} {:<5} {verdict}",
                m.name,
                short(ma),
                short(mb),
                m.bound
            );
        }
    }
    Ok(if regressions > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(workload: &str, p50: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"end_to_end\": {{\"latency_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}}}"
        )
    }

    #[test]
    fn flags_a_regression_beyond_the_bound_and_only_then() {
        let dir = std::env::temp_dir().join(format!("bench_serve_compare_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for sub in ["a", "b", "c"] {
            std::fs::create_dir_all(dir.join(sub)).expect("temp dir");
        }
        let bench = dir.join("BENCHMARK.json");
        std::fs::write(
            &bench,
            "{\"end_to_end\": [{\"name\": \"latency_p50_ms\", \"unit\": \"ms\", \"better\": \"lower\", \"bound\": 0.1}]}",
        )
        .expect("write");
        for (i, (a, b, c)) in [(10.0, 10.2, 12.0), (10.1, 10.3, 12.1), (10.0, 10.1, 12.2)]
            .iter()
            .enumerate()
        {
            for (sub, v) in [("a", a), ("b", b), ("c", c)] {
                std::fs::write(dir.join(sub).join(format!("{i}.json")), doc("mixed", *v))
                    .expect("write");
            }
        }
        assert_eq!(
            run(&dir.join("a"), &dir.join("b"), &bench).expect("compare"),
            0
        );
        assert_eq!(
            run(&dir.join("a"), &dir.join("c"), &bench).expect("compare"),
            1
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
