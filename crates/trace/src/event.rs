//! Typed trace events and their stable JSONL encoding.
//!
//! One [`Event`] is one line in a `--trace file.jsonl` stream. The schema
//! is deliberately flat and stable (golden-tested): every line is a JSON
//! object with an `"event"` discriminator, a `"t_us"` timestamp
//! (microseconds since the first event on the thread), and per-kind
//! payload fields. Tuples are carried in their display form — the parser
//! round-trips them, so offline tools can re-read derivations exactly.

use crate::span::SpanKind;
use std::fmt::Write as _;
use std::sync::Arc;

/// One supporting fact of a derivation: the body atom's predicate and the
/// generalized tuple it matched (display form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFact {
    /// Predicate of the matched body atom.
    pub pred: String,
    /// The matched generalized tuple, rendered.
    pub tuple: String,
}

/// A timestamped trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the thread's trace epoch (first emission).
    pub t_us: u64,
    /// The request this event belongs to, when one was installed via
    /// [`crate::context::set_request_id`] at emission time. Carried on
    /// the event itself (an `Arc<str>`, so clones into rings and fan-out
    /// queues are refcount bumps) because events are rendered on other
    /// threads later, where the emitting thread's context is gone.
    pub request_id: Option<Arc<str>>,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`evaluate`, `stratum`, `iteration`, `rule`, `op`).
    SpanEnter {
        /// Span kind.
        kind: SpanKind,
        /// Human-readable span label (e.g. `r1: p[t+5] <- p[t].`).
        label: String,
        /// Nesting depth at entry (0 = outermost).
        depth: usize,
    },
    /// A span closed; timings are final.
    SpanExit {
        /// Span kind.
        kind: SpanKind,
        /// Same label as the matching enter.
        label: String,
        /// Nesting depth (matches the enter).
        depth: usize,
        /// Wall clock inside the span, children included, in µs.
        total_us: u64,
        /// Wall clock minus time spent in child spans, in µs.
        self_us: u64,
    },
    /// A clause application produced a candidate head tuple (before
    /// canonicalization and subsumption).
    TupleDerived {
        /// Head predicate.
        pred: String,
        /// Source-program clause index.
        rule: usize,
    },
    /// A derived tuple survived subsumption and entered the model.
    TupleInserted {
        /// Head predicate.
        pred: String,
        /// Source-program clause index.
        rule: usize,
        /// The inserted generalized tuple, rendered.
        tuple: String,
        /// The body facts the derivation consumed (empty when provenance
        /// collection is off).
        sources: Vec<SourceFact>,
    },
    /// A derived tuple was already covered by the interpretation — the
    /// paper's convergence witness.
    TupleSubsumed {
        /// Head predicate.
        pred: String,
        /// Source-program clause index.
        rule: usize,
        /// The subsumed generalized tuple, rendered.
        tuple: String,
    },
    /// The resource governor tripped.
    GovernorTrip {
        /// Human-readable trip reason (`TripReason` display form).
        reason: String,
    },
    /// A data-vector index lookup narrowed a scan.
    IndexLookup {
        /// Tuples actually consulted through the index.
        candidates: u64,
        /// Tuples a full linear scan would have consulted.
        scanned: u64,
    },
    /// A durable checkpoint was written to the snapshot store.
    CheckpointWritten {
        /// Generation number of the snapshot.
        generation: u64,
        /// Snapshot image size in bytes.
        bytes: u64,
        /// Wall clock spent framing and durably writing the encoded
        /// sections, in µs.
        write_us: u64,
    },
    /// Evaluation resumed from a stored checkpoint.
    CheckpointRestored {
        /// Generation number resumed from.
        generation: u64,
        /// Stratum index of the restored cursor.
        stratum: u64,
        /// Global iteration count of the restored cursor.
        iteration: u64,
    },
    /// A damaged snapshot generation was skipped during recovery (the
    /// loader fell back toward an older generation).
    CheckpointRecovery {
        /// Generation that failed validation.
        generation: u64,
        /// Why it was rejected (typed store error, rendered).
        error: String,
    },
    /// A serve worker panicked while handling a request; the panic was
    /// caught, the client answered 500, and the worker kept running (or
    /// was respawned by the supervisor).
    WorkerPanic {
        /// Index of the panicking worker in the pool.
        worker: u64,
        /// The panic payload, rendered (`"<non-string panic>"` when the
        /// payload was not a string).
        detail: String,
    },
    /// The supervisor replaced a dead worker thread, restoring the pool to
    /// its configured size.
    WorkerRespawn {
        /// Index of the replaced worker in the pool.
        worker: u64,
    },
    /// Admission control shed a request that would have expired in queue,
    /// answering a fast 503 instead of wasting a worker on it.
    RequestShed {
        /// How long the request had already waited in queue, µs.
        waited_us: u64,
        /// The `Retry-After` the client was given, in seconds.
        retry_after_s: u64,
    },
    /// A `POST /facts` batch was applied to the resident model (after its
    /// WAL append made it durable).
    FactsIngested {
        /// WAL sequence number of the batch's record.
        seq: u64,
        /// EDB tuples newly inserted.
        applied: u64,
        /// EDB tuples already covered (idempotent re-sends).
        duplicates: u64,
        /// Whether the apply degraded to a full re-evaluation.
        full_reeval: bool,
    },
    /// Boot-time WAL replay finished: the resident model is caught up to
    /// the log's tail.
    WalReplayed {
        /// Records re-applied on top of the restored checkpoint.
        records: u64,
        /// Bytes of torn tail truncated from the newest segment.
        truncated_bytes: u64,
        /// The sequence the model is now current through.
        last_seq: u64,
    },
    /// Free-form annotation (used sparingly; e.g. wrapper engines).
    Message {
        /// The annotation text.
        text: String,
    },
}

/// Escapes `s` for inclusion in a JSON string literal.
pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":\"");
    escape_json(value, out);
    out.push('"');
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    ///
    /// The field order is fixed — `event`, `t_us`, then payload fields in
    /// declaration order — so the output is byte-stable for golden tests.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"event\":\"{}\",\"t_us\":{}",
            self.kind.name(),
            self.t_us
        );
        match &self.kind {
            EventKind::SpanEnter { kind, label, depth } => {
                push_str_field(&mut out, "kind", kind.as_str());
                push_str_field(&mut out, "label", label);
                let _ = write!(out, ",\"depth\":{depth}");
            }
            EventKind::SpanExit {
                kind,
                label,
                depth,
                total_us,
                self_us,
            } => {
                push_str_field(&mut out, "kind", kind.as_str());
                push_str_field(&mut out, "label", label);
                let _ = write!(
                    out,
                    ",\"depth\":{depth},\"total_us\":{total_us},\"self_us\":{self_us}"
                );
            }
            EventKind::TupleDerived { pred, rule } => {
                push_str_field(&mut out, "pred", pred);
                let _ = write!(out, ",\"rule\":{rule}");
            }
            EventKind::TupleInserted {
                pred,
                rule,
                tuple,
                sources,
            } => {
                push_str_field(&mut out, "pred", pred);
                let _ = write!(out, ",\"rule\":{rule}");
                push_str_field(&mut out, "tuple", tuple);
                out.push_str(",\"sources\":[");
                for (i, s) in sources.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"pred\":\"");
                    escape_json(&s.pred, &mut out);
                    out.push_str("\",\"tuple\":\"");
                    escape_json(&s.tuple, &mut out);
                    out.push_str("\"}");
                }
                out.push(']');
            }
            EventKind::TupleSubsumed { pred, rule, tuple } => {
                push_str_field(&mut out, "pred", pred);
                let _ = write!(out, ",\"rule\":{rule}");
                push_str_field(&mut out, "tuple", tuple);
            }
            EventKind::GovernorTrip { reason } => {
                push_str_field(&mut out, "reason", reason);
            }
            EventKind::IndexLookup {
                candidates,
                scanned,
            } => {
                let _ = write!(out, ",\"candidates\":{candidates},\"scanned\":{scanned}");
            }
            EventKind::CheckpointWritten {
                generation,
                bytes,
                write_us,
            } => {
                let _ = write!(
                    out,
                    ",\"generation\":{generation},\"bytes\":{bytes},\"write_us\":{write_us}"
                );
            }
            EventKind::CheckpointRestored {
                generation,
                stratum,
                iteration,
            } => {
                let _ = write!(
                    out,
                    ",\"generation\":{generation},\"stratum\":{stratum},\"iteration\":{iteration}"
                );
            }
            EventKind::CheckpointRecovery { generation, error } => {
                let _ = write!(out, ",\"generation\":{generation}");
                push_str_field(&mut out, "error", error);
            }
            EventKind::WorkerPanic { worker, detail } => {
                let _ = write!(out, ",\"worker\":{worker}");
                push_str_field(&mut out, "detail", detail);
            }
            EventKind::WorkerRespawn { worker } => {
                let _ = write!(out, ",\"worker\":{worker}");
            }
            EventKind::RequestShed {
                waited_us,
                retry_after_s,
            } => {
                let _ = write!(
                    out,
                    ",\"waited_us\":{waited_us},\"retry_after_s\":{retry_after_s}"
                );
            }
            EventKind::FactsIngested {
                seq,
                applied,
                duplicates,
                full_reeval,
            } => {
                let _ = write!(
                    out,
                    ",\"seq\":{seq},\"applied\":{applied},\"duplicates\":{duplicates},\"full_reeval\":{full_reeval}"
                );
            }
            EventKind::WalReplayed {
                records,
                truncated_bytes,
                last_seq,
            } => {
                let _ = write!(
                    out,
                    ",\"records\":{records},\"truncated_bytes\":{truncated_bytes},\"last_seq\":{last_seq}"
                );
            }
            EventKind::Message { text } => {
                push_str_field(&mut out, "text", text);
            }
        }
        // Rendered last (and only when present) so every pre-existing
        // golden encoding stays byte-identical.
        if let Some(id) = &self.request_id {
            push_str_field(&mut out, "request_id", id);
        }
        out.push('}');
        out
    }
}

impl EventKind {
    /// The `"event"` discriminator used in the JSONL encoding.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SpanEnter { .. } => "span_enter",
            EventKind::SpanExit { .. } => "span_exit",
            EventKind::TupleDerived { .. } => "tuple_derived",
            EventKind::TupleInserted { .. } => "tuple_inserted",
            EventKind::TupleSubsumed { .. } => "tuple_subsumed",
            EventKind::GovernorTrip { .. } => "governor_trip",
            EventKind::IndexLookup { .. } => "index_lookup",
            EventKind::CheckpointWritten { .. } => "checkpoint_written",
            EventKind::CheckpointRestored { .. } => "checkpoint_restored",
            EventKind::CheckpointRecovery { .. } => "checkpoint_recovery",
            EventKind::WorkerPanic { .. } => "worker_panic",
            EventKind::WorkerRespawn { .. } => "worker_respawn",
            EventKind::RequestShed { .. } => "request_shed",
            EventKind::FactsIngested { .. } => "facts_ingested",
            EventKind::WalReplayed { .. } => "wal_replayed",
            EventKind::Message { .. } => "message",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd\te\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn checkpoint_events_render_stably() {
        let written = Event {
            t_us: 5,
            request_id: None,
            kind: EventKind::CheckpointWritten {
                generation: 3,
                bytes: 1024,
                write_us: 250,
            },
        };
        assert_eq!(
            written.to_json(),
            "{\"event\":\"checkpoint_written\",\"t_us\":5,\
             \"generation\":3,\"bytes\":1024,\"write_us\":250}"
        );
        let restored = Event {
            t_us: 6,
            request_id: None,
            kind: EventKind::CheckpointRestored {
                generation: 3,
                stratum: 0,
                iteration: 7,
            },
        };
        assert_eq!(
            restored.to_json(),
            "{\"event\":\"checkpoint_restored\",\"t_us\":6,\
             \"generation\":3,\"stratum\":0,\"iteration\":7}"
        );
        let recovery = Event {
            t_us: 7,
            request_id: None,
            kind: EventKind::CheckpointRecovery {
                generation: 4,
                error: "truncated snapshot (torn or short write)".into(),
            },
        };
        assert_eq!(
            recovery.to_json(),
            "{\"event\":\"checkpoint_recovery\",\"t_us\":7,\"generation\":4,\
             \"error\":\"truncated snapshot (torn or short write)\"}"
        );
    }

    #[test]
    fn supervision_events_render_stably() {
        let panic = Event {
            t_us: 11,
            request_id: None,
            kind: EventKind::WorkerPanic {
                worker: 2,
                detail: "index out of bounds".into(),
            },
        };
        assert_eq!(
            panic.to_json(),
            "{\"event\":\"worker_panic\",\"t_us\":11,\"worker\":2,\
             \"detail\":\"index out of bounds\"}"
        );
        let respawn = Event {
            t_us: 12,
            request_id: None,
            kind: EventKind::WorkerRespawn { worker: 2 },
        };
        assert_eq!(
            respawn.to_json(),
            "{\"event\":\"worker_respawn\",\"t_us\":12,\"worker\":2}"
        );
        let shed = Event {
            t_us: 13,
            request_id: None,
            kind: EventKind::RequestShed {
                waited_us: 1500,
                retry_after_s: 2,
            },
        };
        assert_eq!(
            shed.to_json(),
            "{\"event\":\"request_shed\",\"t_us\":13,\"waited_us\":1500,\
             \"retry_after_s\":2}"
        );
    }

    #[test]
    fn request_id_renders_last_and_only_when_present() {
        let without = Event {
            t_us: 9,
            request_id: None,
            kind: EventKind::GovernorTrip {
                reason: "fuel exhausted".into(),
            },
        };
        assert_eq!(
            without.to_json(),
            "{\"event\":\"governor_trip\",\"t_us\":9,\"reason\":\"fuel exhausted\"}"
        );
        let with = Event {
            request_id: Some(Arc::from("0a1b2c3d-000001")),
            ..without
        };
        assert_eq!(
            with.to_json(),
            "{\"event\":\"governor_trip\",\"t_us\":9,\"reason\":\"fuel exhausted\",\
             \"request_id\":\"0a1b2c3d-000001\"}"
        );
    }

    #[test]
    fn inserted_event_renders_sources_array() {
        let e = Event {
            t_us: 42,
            request_id: None,
            kind: EventKind::TupleInserted {
                pred: "problems".into(),
                rule: 1,
                tuple: "(168n+10, 168n+12; \"db\")".into(),
                sources: vec![SourceFact {
                    pred: "course".into(),
                    tuple: "(168n+8, 168n+10)".into(),
                }],
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"tuple_inserted\",\"t_us\":42,\"pred\":\"problems\",\"rule\":1,\
             \"tuple\":\"(168n+10, 168n+12; \\\"db\\\")\",\
             \"sources\":[{\"pred\":\"course\",\"tuple\":\"(168n+8, 168n+10)\"}]}"
        );
    }
}
