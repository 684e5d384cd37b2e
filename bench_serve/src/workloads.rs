//! The served program, the four workloads, and their seeded operation
//! streams. Every stream is a pure function of `(seed, client)`, so the
//! load run and the traced pass replay the same requests.

use std::collections::VecDeque;

/// EDB period of the `ev` facts (as in `indexing_workload`).
pub const PERIOD: u64 = 168;
/// Recursion step of `step` and `mirror`.
pub const STEP: u64 = 48;
/// Live churn values each writing client keeps in the model.
pub const LIVE: usize = 16;
/// The predicates a query pattern may name.
pub const QUERY_PREDS: [&str; 3] = ["meet", "step", "ev"];

/// How a workload's clients choose routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `/query` only.
    Query,
    /// `/facts` only.
    Facts,
    /// Three `/query` then one `/facts`, repeated.
    Mixed,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Base data values in the `ev` relation.
    pub n_data: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Whether the server runs with a WAL (and so a resident model).
    pub wal: bool,
    /// Route mix.
    pub mix: Mix,
    /// Measured seconds when `--seconds` is not given.
    pub default_seconds: f64,
}

/// The four workloads; see the crate docs for why each exists.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "query_eval",
        n_data: 48,
        clients: 1,
        wal: false,
        mix: Mix::Query,
        default_seconds: 20.0,
    },
    Spec {
        name: "query_resident",
        n_data: 512,
        clients: 2,
        wal: true,
        mix: Mix::Query,
        default_seconds: 20.0,
    },
    Spec {
        name: "facts_churn",
        n_data: 48,
        clients: 1,
        wal: true,
        mix: Mix::Facts,
        default_seconds: 30.0,
    },
    Spec {
        name: "mixed",
        n_data: 48,
        clients: 2,
        wal: true,
        mix: Mix::Mixed,
        default_seconds: 30.0,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// The join-heavy `indexing_workload(n_data, 168, 48)` shape as workload
/// text: `ev` facts over `n_data` values, per-value `step` and `mirror`
/// recursions, and a `meet` join — 21 derived tuples per value.
pub fn serve_workload_text(n_data: usize) -> String {
    let mut text = String::new();
    for k in 0..n_data {
        text.push_str(&format!(
            "tuple ev ({PERIOD}n+{}; v{k})\n",
            k as u64 % PERIOD
        ));
    }
    text.push_str(&format!(
        "rule step[t + 2](C) <- ev[t](C).\n\
         rule step[t + {STEP}](C) <- step[t](C).\n\
         rule mirror[t + 2](C) <- ev[t](C).\n\
         rule mirror[t + {STEP}](C) <- mirror[t](C).\n\
         rule meet[t](C) <- step[t](C), mirror[t](C).\n"
    ));
    text
}

/// SplitMix64: a small, std-only, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one client's stream of one kind.
    pub fn new(seed: u64, client: usize, stream: u64) -> Rng {
        let mut r = Rng(seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream << 56);
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One query pattern: `pred[t](vK)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pattern {
    /// Index into [`QUERY_PREDS`].
    pub pred: usize,
    /// The base value `vK` the pattern selects.
    pub k: usize,
}

impl Pattern {
    /// The predicate name.
    pub fn pred_name(&self) -> &'static str {
        QUERY_PREDS[self.pred]
    }

    /// The pattern text sent as the `/query` body.
    pub fn text(&self) -> String {
        format!("{}[t](v{})", self.pred_name(), self.k)
    }
}

/// The seeded query-pattern stream: 50% `meet`, 25% `step`, 25% `ev`,
/// with `K` uniform over the base values.
#[derive(Debug, Clone)]
pub struct QueryStream {
    rng: Rng,
    n_data: usize,
}

impl QueryStream {
    /// Client `client`'s stream.
    pub fn new(seed: u64, client: usize, n_data: usize) -> QueryStream {
        QueryStream {
            rng: Rng::new(seed, client, 1),
            n_data,
        }
    }

    /// The next pattern.
    pub fn next_pattern(&mut self) -> Pattern {
        let pred = match self.rng.below(4) {
            0 | 1 => 0,
            2 => 1,
            _ => 2,
        };
        let k = self.rng.below(self.n_data as u64) as usize;
        Pattern { pred, k }
    }
}

/// One `/facts` batch of the churn stream.
#[derive(Debug, Clone)]
pub struct ChurnBatch {
    /// Request id, unique per client and batch.
    pub request_id: String,
    /// The `POST /facts` JSON body.
    pub body: String,
    /// The `ev` tuple the batch retracts, once the live set is full.
    pub retract: Option<String>,
}

/// The seeded churn stream of one client. Until [`LIVE`] values are live
/// each batch asserts a fresh value; after that each batch retracts the
/// client's oldest live value and asserts a fresh one, so the model keeps
/// its size and every request does the same kind of work.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    rng: Rng,
    client: usize,
    next: u64,
    live: VecDeque<String>,
}

impl ChurnStream {
    /// Client `client`'s stream.
    pub fn new(seed: u64, client: usize) -> ChurnStream {
        ChurnStream {
            rng: Rng::new(seed, client, 2),
            client,
            next: 0,
            live: VecDeque::with_capacity(LIVE + 1),
        }
    }

    /// Whether the live set is full, i.e. batches now replace values.
    pub fn filled(&self) -> bool {
        self.live.len() >= LIVE
    }

    /// The `ev` tuples this client has asserted and not yet retracted.
    pub fn live(&self) -> impl Iterator<Item = &str> {
        self.live.iter().map(String::as_str)
    }

    /// The next batch; the live set is updated as if it succeeds.
    pub fn next_batch(&mut self) -> ChurnBatch {
        let retract = if self.filled() {
            self.live.pop_front()
        } else {
            None
        };
        let assert = format!(
            "({PERIOD}n+{}; live{}_{})",
            self.rng.below(PERIOD),
            self.client,
            self.next
        );
        let request_id = format!("bench-{}-{}", self.client, self.next);
        self.next += 1;
        self.live.push_back(assert.clone());
        let mut body = String::from("{\"facts\":[");
        if let Some(r) = &retract {
            body.push_str(&format!(
                "{{\"op\":\"retract\",\"pred\":\"ev\",\"tuple\":\"{r}\"}},"
            ));
        }
        body.push_str(&format!("{{\"pred\":\"ev\",\"tuple\":\"{assert}\"}}]}}"));
        ChurnBatch {
            request_id,
            body,
            retract,
        }
    }
}

/// One operation of a client's stream.
#[derive(Debug, Clone)]
pub enum Operation {
    /// A `POST /query`.
    Query(Pattern),
    /// A `POST /facts`.
    Facts(ChurnBatch),
}

impl Operation {
    /// The exact request bytes a client sends for this operation.
    pub fn request_bytes(&self) -> Vec<u8> {
        match self {
            Operation::Query(p) => {
                let body = p.text();
                format!(
                    "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            }
            Operation::Facts(b) => format!(
                "POST /facts HTTP/1.1\r\nHost: bench\r\nX-Itdb-Request-Id: {}\r\nContent-Length: {}\r\n\r\n{}",
                b.request_id,
                b.body.len(),
                b.body
            )
            .into_bytes(),
        }
    }
}

/// One client's operation stream under a workload's route mix.
#[derive(Debug, Clone)]
pub struct ClientStream {
    mix: Mix,
    queries: QueryStream,
    /// The client's churn state (read by the final-state check).
    pub churn: ChurnStream,
    issued: u64,
}

impl ClientStream {
    /// Client `client`'s stream for `spec`.
    pub fn new(spec: &Spec, seed: u64, client: usize) -> ClientStream {
        ClientStream {
            mix: spec.mix,
            queries: QueryStream::new(seed, client, spec.n_data),
            churn: ChurnStream::new(seed, client),
            issued: 0,
        }
    }

    /// The next operation. A writing client fills its live set first,
    /// then follows the mix.
    pub fn next_op(&mut self) -> Operation {
        let facts = match self.mix {
            Mix::Query => false,
            Mix::Facts => true,
            Mix::Mixed if self.filling() => true,
            Mix::Mixed => {
                self.issued += 1;
                self.issued.is_multiple_of(4)
            }
        };
        if facts {
            Operation::Facts(self.churn.next_batch())
        } else {
            Operation::Query(self.queries.next_pattern())
        }
    }

    /// Whether this client still fills its live set (warm-up only).
    pub fn filling(&self) -> bool {
        self.mix != Mix::Query && !self.churn.filled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itdb_core::{evaluate, parse_workload};
    use itdb_lrp::DEFAULT_RESIDUE_BUDGET;

    #[test]
    fn workload_text_matches_indexing_workload_past_the_old_ceiling() {
        let n = 512;
        let served = parse_workload(&serve_workload_text(n)).expect("workload text parses");
        let (program, db) = itdb_bench::indexing_workload(n, PERIOD as i64, STEP as i64);
        let ours = evaluate(&served.program, &served.edb).expect("served workload evaluates");
        let theirs = evaluate(&program, &db).expect("indexing workload evaluates");
        assert!(ours.outcome.converged() && theirs.outcome.converged());
        let tuples: usize = ours.idb.values().map(|r| r.len()).sum();
        assert_eq!(tuples, 21 * n, "21 derived tuples per value");
        assert_eq!(
            ours.idb.keys().collect::<Vec<_>>(),
            theirs.idb.keys().collect::<Vec<_>>()
        );
        for (pred, rel) in &ours.idb {
            let other = theirs.relation(pred).expect("same predicates");
            assert!(
                rel.equivalent(other, DEFAULT_RESIDUE_BUDGET)
                    .expect("decidable"),
                "{pred} differs"
            );
        }
    }

    #[test]
    fn streams_are_seeded() {
        let spec = spec("mixed").expect("known workload");
        let take = |seed| {
            let mut s = ClientStream::new(&spec, seed, 1);
            (0..64)
                .map(|_| s.next_op().request_bytes())
                .collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
    }

    #[test]
    fn query_mix_is_half_meet() {
        let mut q = QueryStream::new(1, 0, 48);
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            let p = q.next_pattern();
            assert!(p.k < 48);
            counts[p.pred] += 1;
        }
        assert!((1800..2200).contains(&counts[0]), "{counts:?}");
        assert!((800..1200).contains(&counts[1]), "{counts:?}");
        assert!((800..1200).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn churn_keeps_the_live_set_size() {
        let mut c = ChurnStream::new(3, 0);
        for i in 0..LIVE {
            let b = c.next_batch();
            assert!(b.retract.is_none(), "batch {i} only fills");
        }
        let first_live: Vec<String> = c.live().map(str::to_string).collect();
        let b = c.next_batch();
        assert_eq!(b.retract.as_deref(), Some(first_live[0].as_str()));
        assert_eq!(c.live().count(), LIVE);
        assert!(b.body.contains("\"op\":\"retract\""), "{}", b.body);
    }
}
