//! Oracles: every served answer and the final resident state are checked
//! against in-process evaluation of the same workload.

use crate::workloads::{serve_workload_text, ChurnBatch, Mix, Pattern, Spec, QUERY_PREDS};
use itdb_core::{evaluate, parse_atom, parse_workload, query, QueryRequest, Service, Workload};
use itdb_lrp::{DataValue, GeneralizedRelation, DEFAULT_RESIDUE_BUDGET};
use itdb_serve::Ingest;
use itdb_trace::json::{self, Value};
use std::collections::HashMap;
use std::io;

/// The part of a `/query` answer that is a function of the model alone:
/// everything before the per-request `stats` and `request_id`.
pub fn deterministic_prefix(body: &str) -> &str {
    body.split(",\"stats\":").next().unwrap_or(body)
}

/// Whether a `202` body acknowledges exactly `batch`: one fact applied,
/// one retracted when the batch retracts, and no dedup hit.
pub fn facts_ack_matches(body: &str, batch: &ChurnBatch) -> bool {
    let Ok(v) = json::parse(body) else {
        return false;
    };
    let count = |key: &str| v.get(key).and_then(Value::as_f64);
    let retracted = if batch.retract.is_some() { 1.0 } else { 0.0 };
    count("applied") == Some(1.0)
        && count("retracted") == Some(retracted)
        && v.get("duplicate_request") == Some(&Value::Bool(false))
}

fn lrp_err(e: itdb_lrp::Error) -> io::Error {
    io::Error::other(e.to_string())
}

/// The oracle for `/query` answers.
pub enum Oracle {
    /// Per-request evaluation: answers must byte-equal the deterministic
    /// part of an in-process `Service::run_query`.
    Eval(Service),
    /// Resident lookups: answers must be equivalent to the pattern's
    /// answer over a fresh evaluation. Relations are pre-split by data
    /// value, so each check queries only the pattern's own tuples.
    Resident(HashMap<(usize, DataValue), GeneralizedRelation>),
}

impl Oracle {
    /// Builds the oracle for `spec`'s read path from the workload text.
    pub fn new(spec: &Spec, text: &str) -> io::Result<Oracle> {
        let workload = parse_workload(text).map_err(lrp_err)?;
        if !spec.wal {
            return Ok(Oracle::Eval(Service::new(workload, Default::default())));
        }
        let eval = evaluate(&workload.program, &workload.edb).map_err(lrp_err)?;
        let mut groups: HashMap<(usize, DataValue), GeneralizedRelation> = HashMap::new();
        for (i, pred) in QUERY_PREDS.iter().enumerate() {
            let rel = eval
                .relation(pred)
                .or_else(|| workload.edb.get(pred))
                .ok_or_else(|| io::Error::other(format!("oracle lacks `{pred}`")))?;
            for t in rel.tuples() {
                groups
                    .entry((i, t.data()[0].clone()))
                    .or_insert_with(|| GeneralizedRelation::empty(rel.schema()))
                    .insert(t.clone())
                    .map_err(lrp_err)?;
            }
        }
        Ok(Oracle::Resident(groups))
    }

    /// Counts the responses among `answers` (distinct prefixes per
    /// pattern, with multiplicities) that disagree with the oracle.
    pub fn check_answers(&self, answers: &HashMap<Pattern, Vec<(String, u64)>>) -> u64 {
        let mut wrong = 0;
        for (pattern, seen) in answers {
            for (prefix, n) in seen {
                if !self.answer_matches(pattern, prefix) {
                    eprintln!("bench_serve: wrong answer to {}: {prefix}", pattern.text());
                    wrong += n;
                }
            }
        }
        wrong
    }

    fn answer_matches(&self, pattern: &Pattern, prefix: &str) -> bool {
        match self {
            Oracle::Eval(service) => {
                let expected = service.run_query(&QueryRequest {
                    pattern: pattern.text(),
                    fuel: None,
                    timeout: None,
                    request_id: None,
                });
                matches!(expected, Ok(r) if deterministic_prefix(&r.to_json()) == prefix)
            }
            Oracle::Resident(groups) => {
                resident_answer_matches(groups, pattern, prefix).unwrap_or(false)
            }
        }
    }
}

fn resident_answer_matches(
    groups: &HashMap<(usize, DataValue), GeneralizedRelation>,
    pattern: &Pattern,
    prefix: &str,
) -> Option<bool> {
    let value = DataValue::sym(format!("v{}", pattern.k));
    let rel = groups.get(&(pattern.pred, value))?;
    let atom = parse_atom(&pattern.text()).ok()?;
    let expected = query(rel, &atom, DEFAULT_RESIDUE_BUDGET).ok()?;
    let served = json::parse(&format!("{prefix}}}")).ok()?;
    if served.get("predicate")?.as_str()? != pattern.pred_name()
        || served.get("status")?.as_str()? != "complete"
    {
        return Some(false);
    }
    let mut got = GeneralizedRelation::empty(expected.schema());
    for a in served.get("answers")?.as_array()? {
        got.insert(itdb_lrp::parser::parse_tuple(a.as_str()?).ok()?)
            .ok()?;
    }
    got.equivalent(&expected, DEFAULT_RESIDUE_BUDGET).ok()
}

/// After a write workload: every relation of the served model must be
/// equivalent to a fresh evaluation of the base values plus the values
/// the clients left live.
pub fn final_state_matches(ingest: &Ingest, spec: &Spec, live: &[String]) -> io::Result<bool> {
    if spec.mix == Mix::Query {
        return Ok(true);
    }
    let mut text = serve_workload_text(spec.n_data);
    for t in live {
        text.push_str(&format!("tuple ev {t}\n"));
    }
    let Workload { program, edb } = parse_workload(&text).map_err(lrp_err)?;
    let eval = evaluate(&program, &edb).map_err(lrp_err)?;
    let expected = eval
        .idb
        .iter()
        .map(|(p, r)| (p.as_str(), r))
        .chain(edb.iter());
    ingest.with_model(|model| {
        for (pred, want) in expected {
            let same = match model.relation(pred) {
                Some(have) => have
                    .equivalent(want, DEFAULT_RESIDUE_BUDGET)
                    .map_err(lrp_err)?,
                None => false,
            };
            if !same {
                eprintln!("bench_serve: final `{pred}` differs from a fresh evaluation");
                return Ok(false);
            }
        }
        Ok(true)
    })
}
