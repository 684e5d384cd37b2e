//! Streaming ingestion: the WAL-backed write path behind `POST /facts`.
//!
//! ## Crash consistency
//!
//! Every accepted batch takes the same journey, serialized under one
//! lock so the durable log and the in-memory model never disagree about
//! order:
//!
//! 1. **Dedup check** — a batch whose `X-Itdb-Request-Id` is still in the
//!    dedup window is answered from the remembered outcome without
//!    touching the WAL or the model (at-least-once clients get
//!    exactly-once application).
//! 2. **WAL append** — the encoded batch goes to the write-ahead log
//!    first and is fsynced per the configured flush policy. Only after
//!    the append succeeds does the model change, so every batch the
//!    client saw acknowledged is re-derivable from checkpoint + log.
//! 3. **Incremental apply** — [`ResidentModel::apply_ops`] folds assert
//!    operations in (semi-naive delta propagation) and handles retract
//!    operations with DRed delete/re-derive maintenance. A batch the
//!    model *rejects* (unknown schema, intensional predicate) or *rolls
//!    back* (governor trip — the model restores its exact pre-batch
//!    state and keeps serving) still sits in the WAL — both decisions
//!    are deterministic, so boot-time replay reproduces them identically
//!    and the log stays a faithful request history.
//! 4. **Checkpoint + compaction** — every `checkpoint_every` records the
//!    full resident state (EDB + IDB + derivation log + dedup window +
//!    applied sequence) is written to the snapshot store *first*, and
//!    only after that write succeeds does the WAL drop sealed segments
//!    the checkpoint covers. A crash between the two steps leaves extra
//!    log (harmless — replay skips records at or below the checkpoint
//!    sequence), never missing log.
//!
//! Boot recovery inverts the pipeline: restore the newest checkpoint that
//! decodes, walking back past any generation that does not (the engine's
//! recovery walk, [`itdb_core::checkpoint::load_latest_with`]), or start
//! from the workload file; then replay every WAL record past the
//! checkpoint's sequence. Replay refuses a **sequence
//! gap**: if the first record past the restored sequence is not the
//! immediate successor, a compacted segment the (lost or unreadable)
//! checkpoint covered is missing, and replaying the surviving suffix
//! would silently build the wrong model. [`ResidentModel`] applies
//! batches deterministically and its snapshots preserve tuple order
//! exactly, so a SIGKILL'd server restarts with **byte-identical**
//! relations to an uninterrupted run — including mid-retraction kills:
//! the snapshot carries the derivation log, which keeps the DRed
//! over-delete mode identical across the restart.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use itdb_core::checkpoint::{load_latest_with, save};
use itdb_core::{
    ApplyError, EvalOptions, Fact, Op, QueryStatus, ResidentImage, ResidentModel, Workload,
};
use itdb_lrp::parser::parse_tuple;
use itdb_store::{ByteReader, ByteWriter, Section, SnapshotStore, Wal, WalOptions, WalStats};
use itdb_trace::EventKind;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Legacy section tag for the pre-retraction dedup window (id, applied,
/// duplicates). Still decoded so old checkpoints restore.
pub const SEC_INGEST_DEDUP_V1: u8 = 30;
/// Section tag carrying the serve-layer dedup window inside a resident
/// checkpoint (the model's own sections use tags 21–24): id, applied,
/// duplicates, retracted.
pub const SEC_INGEST_DEDUP: u8 = 31;
/// WAL record payload format version: v2 carries a per-entry op byte
/// (assert/retract); v1 records decode as all-assert batches.
const BATCH_VERSION: u8 = 2;
const OP_ASSERT: u8 = 0;
const OP_RETRACT: u8 = 1;

/// Configuration for the streaming-ingestion subsystem.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Directory holding the WAL segments and (under `checkpoint/`) the
    /// resident-model snapshot store.
    pub wal_dir: PathBuf,
    /// Segment rotation and fsync batching for the log.
    pub wal: WalOptions,
    /// Request ids remembered for idempotent replay of retried batches.
    /// Must be ≥ 1 — see [`IngestConfig::validate`].
    pub dedup_window: usize,
    /// Ingest requests allowed in flight before `POST /facts` answers
    /// `503` with a `Retry-After`.
    pub max_pending: u64,
    /// WAL records between resident checkpoints (each checkpoint also
    /// compacts the log).
    pub checkpoint_every: u64,
    /// Evaluation options for the resident model (governors, provenance).
    /// Defaults keep provenance recording on so retractions use the
    /// precise provenance-cone over-delete rather than the wipe fallback.
    /// The budgets apply per batch; only deterministic ones are accepted
    /// (see [`IngestConfig::validate`]).
    pub eval: EvalOptions,
}

/// A structurally invalid [`IngestConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestConfigError {
    /// `dedup_window` was 0: a zero-capacity window cannot remember any
    /// request id, so every retried batch would re-apply — at-least-once
    /// clients would silently lose exactly-once semantics.
    ZeroDedupWindow,
    /// `eval.timeout` was set. Whether a batch beats a deadline depends on
    /// the machine's speed at that moment, so a batch rolled back live
    /// (answered 503) could apply on WAL replay, and the recovered model
    /// would differ from the one that answered.
    EvalTimeout,
    /// `eval.cancel` was set. Cancellation is an outside event that WAL
    /// replay cannot reproduce, so live and replayed apply decisions could
    /// differ.
    EvalCancel,
}

impl fmt::Display for IngestConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestConfigError::ZeroDedupWindow => write!(
                f,
                "dedup_window must be at least 1 (0 would disable idempotent replay)"
            ),
            IngestConfigError::EvalTimeout => write!(
                f,
                "eval.timeout must be unset: WAL replay needs deterministic apply decisions"
            ),
            IngestConfigError::EvalCancel => write!(
                f,
                "eval.cancel must be unset: WAL replay needs deterministic apply decisions"
            ),
        }
    }
}

impl std::error::Error for IngestConfigError {}

impl IngestConfig {
    /// Defaults sized like the rest of the serve stack: small enough for
    /// CI, sane for a single-node deployment.
    pub fn new(wal_dir: impl Into<PathBuf>) -> Self {
        IngestConfig {
            wal_dir: wal_dir.into(),
            wal: WalOptions::default(),
            dedup_window: 1024,
            max_pending: 128,
            checkpoint_every: 256,
            eval: EvalOptions {
                provenance: true,
                ..EvalOptions::default()
            },
        }
    }

    /// Validates boundary values, and that every budget in `eval` is
    /// deterministic: WAL replay must reach the same apply-or-roll-back
    /// decision for each batch as the live path did, so a wall-clock
    /// deadline or a cancellation token is refused. [`Ingest::open`]
    /// refuses an invalid configuration rather than silently adjusting it.
    pub fn validate(&self) -> Result<(), IngestConfigError> {
        if self.dedup_window == 0 {
            return Err(IngestConfigError::ZeroDedupWindow);
        }
        if self.eval.timeout.is_some() {
            return Err(IngestConfigError::EvalTimeout);
        }
        if self.eval.cancel.is_some() {
            return Err(IngestConfigError::EvalCancel);
        }
        Ok(())
    }
}

/// One decoded `POST /facts` batch as it travels through the WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactBatch {
    /// The request id the batch arrived under (dedup key).
    pub request_id: String,
    /// The operations, in request order.
    pub ops: Vec<Op>,
}

/// Encodes a batch as a WAL record payload. Tuples travel in their
/// textual closed form — the format round-trips exactly (pinned by the
/// `prop_workload` suite), stays human-readable in a hex dump, and is
/// versioned independently of the in-memory layout.
pub fn encode_batch(batch: &FactBatch) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(BATCH_VERSION);
    w.put_str(&batch.request_id);
    w.put_usize(batch.ops.len());
    for op in &batch.ops {
        w.put_u8(if op.is_retract() {
            OP_RETRACT
        } else {
            OP_ASSERT
        });
        let f = op.fact();
        w.put_str(&f.pred);
        w.put_str(&f.tuple.to_string());
    }
    w.into_bytes()
}

/// Decodes a WAL record payload written by [`encode_batch`] — either
/// format version. v1 records (insert-only, written before retraction
/// support) decode as all-assert batches.
pub fn decode_batch(payload: &[u8]) -> Result<FactBatch, String> {
    let mut r = ByteReader::new(payload);
    let version = r.get_u8().map_err(|e| e.to_string())?;
    if version != 1 && version != BATCH_VERSION {
        return Err(format!("unknown fact-batch version {version}"));
    }
    let request_id = r.get_str().map_err(|e| e.to_string())?;
    let count = r.get_usize().map_err(|e| e.to_string())?;
    let mut ops = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let kind = if version == 1 {
            OP_ASSERT
        } else {
            r.get_u8().map_err(|e| e.to_string())?
        };
        let pred = r.get_str().map_err(|e| e.to_string())?;
        let text = r.get_str().map_err(|e| e.to_string())?;
        let tuple = parse_tuple(&text).map_err(|e| format!("bad tuple in WAL record: {e}"))?;
        let fact = Fact { pred, tuple };
        ops.push(match kind {
            OP_ASSERT => Op::Assert(fact),
            OP_RETRACT => Op::Retract(fact),
            other => return Err(format!("unknown op kind {other} in WAL record")),
        });
    }
    Ok(FactBatch { request_id, ops })
}

/// What one accepted (or deduplicated) ingest request did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// EDB tuples newly inserted.
    pub applied: u64,
    /// EDB tuples already covered by the relation.
    pub duplicates: u64,
    /// Stored EDB tuples removed by retract operations.
    pub retracted: u64,
    /// The WAL sequence the batch was logged at. `None` for a
    /// deduplicated request — nothing was re-logged. (Sequences start at
    /// 1, but `None` is the honest encoding: a fresh log's first record
    /// must stay distinguishable from "not logged".)
    pub seq: Option<u64>,
    /// Whether the request id was already in the dedup window (the
    /// counts above are the remembered first-application counts).
    pub duplicate_request: bool,
}

/// Why an ingest request was not applied.
#[derive(Debug)]
pub enum IngestError {
    /// Too many ingest requests in flight; retry after the given delay.
    Backpressure {
        /// Suggested client backoff, seconds.
        retry_after_s: u64,
    },
    /// A governor tripped mid-apply and the batch was rolled back. The
    /// model restored its exact pre-batch state and keeps serving reads
    /// and subsequent writes — this is a per-batch refusal, not a wedged
    /// server. Retrying the identical batch under the same limits will
    /// trip identically, so the retry hint is for *smaller* follow-ups.
    Tripped {
        /// Suggested client backoff, seconds.
        retry_after_s: u64,
        /// What tripped.
        reason: String,
    },
    /// The model rejected the batch (schema mismatch, intensional or
    /// unknown predicate). Deterministic: replay re-rejects it
    /// identically.
    Rejected(String),
    /// The WAL append or checkpoint write failed; nothing was applied.
    Wal(String),
}

/// The bounded request-id window with the outcome remembered per id, so
/// a retried batch is answered idempotently.
#[derive(Debug, Default)]
struct DedupWindow {
    cap: usize,
    entries: VecDeque<(String, u64, u64, u64)>,
}

impl DedupWindow {
    /// `cap` is clamped to ≥ 1 as defense in depth; the public
    /// configuration path rejects 0 outright (see
    /// [`IngestConfig::validate`]), so the clamp is unreachable from
    /// `Ingest::open`.
    fn new(cap: usize) -> Self {
        DedupWindow {
            cap: cap.max(1),
            entries: VecDeque::new(),
        }
    }

    fn get(&self, id: &str) -> Option<(u64, u64, u64)> {
        self.entries
            .iter()
            .find(|(i, _, _, _)| i == id)
            .map(|(_, a, d, r)| (*a, *d, *r))
    }

    fn insert(&mut self, id: String, applied: u64, duplicates: u64, retracted: u64) {
        if self.entries.len() >= self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back((id, applied, duplicates, retracted));
    }

    fn encode_section(&self) -> Section {
        let mut w = ByteWriter::new();
        w.put_usize(self.entries.len());
        for (id, applied, duplicates, retracted) in &self.entries {
            w.put_str(id);
            w.put_u64(*applied);
            w.put_u64(*duplicates);
            w.put_u64(*retracted);
        }
        Section::new(SEC_INGEST_DEDUP, w.into_bytes())
    }

    /// Decodes the v2 section when present, falling back to the v1
    /// section of pre-retraction checkpoints (retracted counts of 0).
    fn decode_section(cap: usize, sections: &[Section]) -> Self {
        let mut window = DedupWindow::new(cap);
        let find = |tag| sections.iter().find(|s| s.tag == tag);
        let (section, v2) = match (find(SEC_INGEST_DEDUP), find(SEC_INGEST_DEDUP_V1)) {
            (Some(s), _) => (s, true),
            (None, Some(s)) => (s, false),
            (None, None) => return window,
        };
        let mut r = ByteReader::new(&section.payload);
        let Ok(count) = r.get_usize() else {
            return window;
        };
        for _ in 0..count {
            let (Ok(id), Ok(applied), Ok(duplicates), Ok(retracted)) = (
                r.get_str(),
                r.get_u64(),
                r.get_u64(),
                if v2 { r.get_u64() } else { Ok(0) },
            ) else {
                break;
            };
            window.insert(id, applied, duplicates, retracted);
        }
        window
    }
}

/// Everything guarded by the ingest lock: the log, the model, the dedup
/// window, and the checkpoint cadence.
struct IngestInner {
    wal: Wal,
    model: ResidentModel,
    dedup: DedupWindow,
    store: SnapshotStore,
    applied_seq: u64,
    records_since_checkpoint: u64,
}

/// How boot recovery went (printed at startup, exported as metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestBootReport {
    /// Whether a resident checkpoint was restored (vs a fresh build from
    /// the workload file).
    pub restored_checkpoint: bool,
    /// WAL records replayed on top of the restored state.
    pub replayed_records: u64,
    /// Bytes of torn tail truncated from the newest segment.
    pub truncated_tail_bytes: u64,
    /// The WAL sequence the model is current through after replay.
    pub last_seq: u64,
}

/// The streaming-ingestion subsystem: WAL + resident model + dedup
/// window behind one lock, with lock-free counters for `/metrics`.
pub struct Ingest {
    inner: Mutex<IngestInner>,
    config: IngestConfig,
    pending: AtomicU64,
    facts_ingested: AtomicU64,
    facts_duplicate: AtomicU64,
    facts_retracted: AtomicU64,
    retraction_overdeleted: AtomicU64,
    retraction_rederived: AtomicU64,
    batches_tripped: AtomicU64,
    checkpoints_written: AtomicU64,
    checkpoint_failures: AtomicU64,
    boot: IngestBootReport,
}

impl Ingest {
    /// Opens (or creates) the WAL directory, restores the newest resident
    /// checkpoint that decodes (skipping damaged newer generations, each
    /// with a `checkpoint_recovery` event), replays the log past it, and
    /// returns the caught-up subsystem. The workload file supplies the
    /// program (a checkpoint written by a different program is refused and
    /// ingestion starts fresh from the file). A workload whose evaluation
    /// diverges or trips `config.eval`'s governor is refused: a partial
    /// model cannot be maintained under writes.
    pub fn open(config: IngestConfig, workload: &Workload) -> io::Result<Ingest> {
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let opts = config.eval.clone();
        std::fs::create_dir_all(&config.wal_dir)?;
        let store =
            SnapshotStore::open(config.wal_dir.join("checkpoint")).map_err(io::Error::other)?;
        let mut boot = IngestBootReport::default();
        // The newest generation that decodes; older ones are only reached
        // past a damaged newer one. An image of another workload program
        // decodes but is refused by `restore`: ingestion starts fresh.
        let restored = load_latest_with(&store, |sections| {
            let image = ResidentImage::decode(sections)?;
            Ok((
                image,
                DedupWindow::decode_section(config.dedup_window, sections),
            ))
        })
        .ok()
        .and_then(|rec| {
            let (image, dedup) = rec.checkpoint;
            let (model, seq) =
                ResidentModel::restore(workload.program.clone(), opts.clone(), image).ok()?;
            Some((model, dedup, seq))
        });
        boot.restored_checkpoint = restored.is_some();
        let (mut model, mut dedup, mut applied_seq) = match restored {
            Some(state) => state,
            None => Self::fresh(workload, &opts, config.dedup_window)?,
        };
        let (mut wal, recovery) =
            Wal::open(&config.wal_dir, config.wal).map_err(io::Error::other)?;
        boot.truncated_tail_bytes = recovery.truncated_tail_bytes;
        // Gap guard: the first record past the restored sequence must be
        // its immediate successor. Anything later means a compacted
        // segment the checkpoint covered is gone while the checkpoint
        // itself did not restore (corrupt, deleted, or from another
        // program) — replaying only the surviving suffix would silently
        // produce the wrong model.
        if let Some(first) = recovery.records.iter().find(|r| r.seq > applied_seq) {
            if first.seq > applied_seq + 1 {
                return Err(io::Error::other(format!(
                    "WAL resumes at seq {} but the restored state is only current \
                     through {}; records in between were compacted away with the \
                     checkpoint that covered them — refusing to replay a suffix \
                     into the wrong model",
                    first.seq, applied_seq
                )));
            }
        }
        let (facts_ingested, facts_duplicate) = (AtomicU64::new(0), AtomicU64::new(0));
        let facts_retracted = AtomicU64::new(0);
        let retraction_overdeleted = AtomicU64::new(0);
        let retraction_rederived = AtomicU64::new(0);
        for record in &recovery.records {
            if record.seq <= applied_seq {
                continue;
            }
            let batch = decode_batch(&record.payload).map_err(io::Error::other)?;
            boot.replayed_records += 1;
            applied_seq = record.seq;
            if dedup.get(&batch.request_id).is_some() {
                continue;
            }
            match model.apply_ops(&batch.ops) {
                Ok(out) => {
                    facts_ingested.fetch_add(out.applied, Ordering::Relaxed);
                    facts_duplicate.fetch_add(out.duplicates, Ordering::Relaxed);
                    facts_retracted.fetch_add(out.retracted, Ordering::Relaxed);
                    retraction_overdeleted.fetch_add(out.overdeleted, Ordering::Relaxed);
                    retraction_rederived.fetch_add(out.rederived, Ordering::Relaxed);
                    dedup.insert(batch.request_id, out.applied, out.duplicates, out.retracted);
                }
                // The live path answered this batch 422/503 and moved on;
                // both rejection and rollback are deterministic and leave
                // the model unchanged, so replay shrugs identically.
                Err(_) => continue,
            }
        }
        // A torn tail was truncated: records past the tear were never
        // acknowledged, but the next append must not reuse their
        // sequence numbers against a model that already advanced.
        if wal.next_seq() <= applied_seq {
            return Err(io::Error::other(format!(
                "WAL ends at seq {} but the checkpoint is current through {}; \
                 refusing to serve writes from a log older than the model",
                wal.next_seq().saturating_sub(1),
                applied_seq
            )));
        }
        boot.last_seq = applied_seq;
        itdb_trace::emit(|| EventKind::WalReplayed {
            records: boot.replayed_records,
            truncated_bytes: boot.truncated_tail_bytes,
            last_seq: boot.last_seq,
        });
        // Durably seal recovery: everything replayed is already on disk,
        // but the truncation of a torn tail must be too.
        wal.flush().map_err(io::Error::other)?;
        Ok(Ingest {
            inner: Mutex::new(IngestInner {
                wal,
                model,
                dedup,
                store,
                applied_seq,
                records_since_checkpoint: 0,
            }),
            config,
            pending: AtomicU64::new(0),
            facts_ingested,
            facts_duplicate,
            facts_retracted,
            retraction_overdeleted,
            retraction_rederived,
            batches_tripped: AtomicU64::new(0),
            checkpoints_written: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            boot,
        })
    }

    fn fresh(
        workload: &Workload,
        opts: &EvalOptions,
        dedup_cap: usize,
    ) -> io::Result<(ResidentModel, DedupWindow, u64)> {
        let model =
            ResidentModel::new(workload.program.clone(), workload.edb.clone(), opts.clone())
                .map_err(io::Error::other)?;
        if *model.status() != QueryStatus::Complete {
            return Err(io::Error::other(format!(
                "resident model requires a convergent workload, got: {:?}",
                model.status()
            )));
        }
        Ok((model, DedupWindow::new(dedup_cap), 0))
    }

    /// How boot recovery went.
    pub fn boot_report(&self) -> IngestBootReport {
        self.boot
    }

    /// Ingest requests currently in flight (the `itdb_ingest_queue_depth`
    /// gauge).
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Total EDB tuples newly inserted via `POST /facts`.
    pub fn facts_ingested(&self) -> u64 {
        self.facts_ingested.load(Ordering::Relaxed)
    }

    /// Total EDB tuples answered as duplicates (subsumed or re-sent).
    pub fn facts_duplicate(&self) -> u64 {
        self.facts_duplicate.load(Ordering::Relaxed)
    }

    /// Total stored EDB tuples removed by retract operations.
    pub fn facts_retracted(&self) -> u64 {
        self.facts_retracted.load(Ordering::Relaxed)
    }

    /// Total IDB tuples removed by DRed over-deletes.
    pub fn retraction_overdeleted(&self) -> u64 {
        self.retraction_overdeleted.load(Ordering::Relaxed)
    }

    /// Total IDB tuples re-inserted by DRed re-derives.
    pub fn retraction_rederived(&self) -> u64 {
        self.retraction_rederived.load(Ordering::Relaxed)
    }

    /// Batches refused with a governor trip and rolled back.
    pub fn batches_tripped(&self) -> u64 {
        self.batches_tripped.load(Ordering::Relaxed)
    }

    /// Resident checkpoints written (each also compacted the WAL).
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written.load(Ordering::Relaxed)
    }

    /// Checkpoint writes that failed (ingestion continues on the WAL).
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures.load(Ordering::Relaxed)
    }

    /// A snapshot of the WAL's counters (appends, fsyncs, live bytes).
    pub fn wal_stats(&self) -> WalStats {
        self.lock().wal.stats()
    }

    /// Runs `f` with the resident model — the closed-form read path for
    /// `/query` in ingest mode.
    pub fn with_model<T>(&self, f: impl FnOnce(&ResidentModel) -> T) -> T {
        f(&self.lock().model)
    }

    /// The ingest state holds no invariant a panicking holder could have
    /// broken mid-flight that recovery would make worse: the WAL is
    /// append-only and the model rolls every failed batch back to its
    /// pre-batch state, so recover the lock rather than wedging every
    /// writer forever.
    fn lock(&self) -> std::sync::MutexGuard<'_, IngestInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The full ingest pipeline for one request: backpressure check,
    /// dedup, WAL append (durable per policy), incremental apply,
    /// checkpoint cadence. See the module docs for the ordering argument.
    pub fn submit(&self, request_id: &str, ops: Vec<Op>) -> Result<IngestOutcome, IngestError> {
        let depth = self.pending.fetch_add(1, Ordering::Relaxed) + 1;
        let _guard = PendingGuard(&self.pending);
        if depth > self.config.max_pending {
            return Err(IngestError::Backpressure {
                retry_after_s: (depth / self.config.max_pending).clamp(1, 30),
            });
        }
        let mut inner = self.lock();
        if let Some((applied, duplicates, retracted)) = inner.dedup.get(request_id) {
            self.facts_duplicate
                .fetch_add(ops.len() as u64, Ordering::Relaxed);
            return Ok(IngestOutcome {
                applied,
                duplicates,
                retracted,
                seq: None,
                duplicate_request: true,
            });
        }
        let batch = FactBatch {
            request_id: request_id.to_string(),
            ops,
        };
        let payload = encode_batch(&batch);
        let seq = inner
            .wal
            .append(&payload)
            .map_err(|e| IngestError::Wal(e.to_string()))?;
        let out = match inner.model.apply_ops(&batch.ops) {
            Ok(out) => out,
            // The record stays in the log either way; replay reproduces
            // the same deterministic decision, so the model and the log
            // still agree.
            Err(ApplyError::Invalid(e)) => return Err(IngestError::Rejected(e.to_string())),
            // Unreachable from a booted subsystem (`open` refuses partial
            // models), but still a deterministic refusal, never a panic.
            Err(e @ ApplyError::Incomplete(_)) => return Err(IngestError::Rejected(e.to_string())),
            Err(ApplyError::RolledBack(e)) => {
                self.batches_tripped.fetch_add(1, Ordering::Relaxed);
                return Err(IngestError::Tripped {
                    retry_after_s: 1,
                    reason: e.to_string(),
                });
            }
        };
        inner.applied_seq = seq;
        inner.records_since_checkpoint += 1;
        inner
            .dedup
            .insert(batch.request_id, out.applied, out.duplicates, out.retracted);
        self.facts_ingested
            .fetch_add(out.applied, Ordering::Relaxed);
        self.facts_duplicate
            .fetch_add(out.duplicates, Ordering::Relaxed);
        self.facts_retracted
            .fetch_add(out.retracted, Ordering::Relaxed);
        self.retraction_overdeleted
            .fetch_add(out.overdeleted, Ordering::Relaxed);
        self.retraction_rederived
            .fetch_add(out.rederived, Ordering::Relaxed);
        itdb_trace::emit(|| EventKind::FactsIngested {
            seq,
            applied: out.applied,
            duplicates: out.duplicates,
            full_reeval: out.full_reeval,
        });
        if inner.records_since_checkpoint >= self.config.checkpoint_every {
            self.checkpoint_locked(&mut inner);
        }
        Ok(IngestOutcome {
            applied: out.applied,
            duplicates: out.duplicates,
            retracted: out.retracted,
            seq: Some(seq),
            duplicate_request: false,
        })
    }

    /// Writes a resident checkpoint through the shared save path (which
    /// emits `checkpoint_written`) and compacts the log through it.
    /// Ordering matters: the snapshot is durably on disk *before* any
    /// segment is deleted, so a crash between the two steps can only
    /// leave surplus log, never a gap. Failure is survivable — the WAL
    /// still holds everything — so it is counted, not propagated.
    fn checkpoint_locked(&self, inner: &mut IngestInner) {
        let mut sections = inner.model.snapshot_sections(inner.applied_seq);
        sections.push(inner.dedup.encode_section());
        match save(&inner.store, &sections) {
            Ok(_) => {
                self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                inner.records_since_checkpoint = 0;
                let seq = inner.applied_seq;
                let _ = inner.wal.compact_through(seq);
            }
            Err(_) => {
                self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
                // Back off: retry after another full cadence, not on
                // every subsequent batch.
                inner.records_since_checkpoint = 0;
            }
        }
    }

    /// Forces a checkpoint now (graceful shutdown).
    pub fn flush(&self) {
        let mut inner = self.lock();
        let _ = inner.wal.flush();
        if inner.records_since_checkpoint > 0 {
            self.checkpoint_locked(&mut inner);
        }
    }
}

/// Decrements the pending gauge when an ingest request leaves the
/// subsystem, however it leaves.
struct PendingGuard<'a>(&'a AtomicU64);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Parses the `POST /facts` JSON body:
/// `{"facts":[{"pred":"e","tuple":"(6n+1)"},
///            {"op":"retract","pred":"e","tuple":"(6n+1)"}, …]}`.
/// The `op` field defaults to `"assert"`.
pub fn parse_facts_body(body: &str) -> Result<Vec<Op>, String> {
    let value = itdb_trace::json::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    let facts = value
        .get("facts")
        .and_then(|f| f.as_array())
        .ok_or_else(|| "expected {\"facts\":[…]} with an array of facts".to_string())?;
    if facts.is_empty() {
        return Err("empty batch: `facts` must hold at least one fact".to_string());
    }
    let mut out = Vec::with_capacity(facts.len());
    for (i, f) in facts.iter().enumerate() {
        let retract = match f.get("op").and_then(|o| o.as_str()) {
            None | Some("assert") => false,
            Some("retract") => true,
            Some(other) => {
                return Err(format!(
                    "facts[{i}]: unknown op `{other}` (expected \"assert\" or \"retract\")"
                ))
            }
        };
        let pred = f
            .get("pred")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("facts[{i}]: missing string field `pred`"))?;
        let text = f
            .get("tuple")
            .and_then(|t| t.as_str())
            .ok_or_else(|| format!("facts[{i}]: missing string field `tuple`"))?;
        let tuple = parse_tuple(text).map_err(|e| format!("facts[{i}]: bad tuple: {e}"))?;
        let fact = Fact {
            pred: pred.to_string(),
            tuple,
        };
        out.push(if retract {
            Op::Retract(fact)
        } else {
            Op::Assert(fact)
        });
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use itdb_core::parse_workload;

    const WORKLOAD: &str = "\
        tuple course (168n+8, 168n+10; database) : T2 = T1 + 2\n\
        rule problems[t1 + 2, t2 + 2](C) <- course[t1, t2](C).\n\
        rule problems[t1 + 48, t2 + 48](C) <- problems[t1, t2](C).\n";

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "itdb_ingest_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &PathBuf) -> IngestConfig {
        IngestConfig {
            checkpoint_every: 4,
            ..IngestConfig::new(dir)
        }
    }

    fn ops(text: &str) -> Vec<Op> {
        parse_facts_body(text).unwrap()
    }

    #[test]
    fn batch_codec_round_trips() {
        let batch = FactBatch {
            request_id: "req-1".to_string(),
            ops: ops(
                r#"{"facts":[{"pred":"course","tuple":"(168n+30, 168n+32; compilers) : T2 = T1 + 2"},{"op":"retract","pred":"course","tuple":"(168n+8, 168n+10; database) : T2 = T1 + 2"}]}"#,
            ),
        };
        let decoded = decode_batch(&encode_batch(&batch)).unwrap();
        assert_eq!(decoded, batch);
        assert!(decoded.ops[1].is_retract());
        assert!(decode_batch(&[9, 9, 9]).is_err(), "unknown version");
    }

    #[test]
    fn v1_records_decode_as_assert_batches() {
        // Hand-rolled v1 payload: version, request id, count, pred, tuple.
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_str("old-req");
        w.put_usize(1);
        w.put_str("course");
        w.put_str("(168n+30, 168n+32; compilers) : T2 = T1 + 2");
        let decoded = decode_batch(&w.into_bytes()).unwrap();
        assert_eq!(decoded.request_id, "old-req");
        assert_eq!(decoded.ops.len(), 1);
        assert!(
            !decoded.ops[0].is_retract(),
            "pre-retraction records are all asserts"
        );
    }

    /// The v2 dedup section wins; a pre-retraction checkpoint's v1
    /// section decodes with zero retractions.
    #[test]
    fn dedup_sections_of_both_versions_decode() {
        let mut w = ByteWriter::new();
        w.put_usize(1);
        w.put_str("old-req");
        w.put_u64(2);
        w.put_u64(1);
        let v1 = Section::new(SEC_INGEST_DEDUP_V1, w.into_bytes());
        let old = DedupWindow::decode_section(4, std::slice::from_ref(&v1));
        assert_eq!(old.get("old-req"), Some((2, 1, 0)));
        let mut window = DedupWindow::new(4);
        window.insert("new-req".to_string(), 3, 0, 1);
        let both = DedupWindow::decode_section(4, &[v1, window.encode_section()]);
        assert_eq!(both.get("new-req"), Some((3, 0, 1)));
        assert_eq!(both.get("old-req"), None, "v1 ignored beside v2");
    }

    #[test]
    fn body_parser_reports_defects() {
        assert!(parse_facts_body("not json").is_err());
        assert!(parse_facts_body("{\"facts\":[]}").is_err(), "empty batch");
        assert!(parse_facts_body("{\"facts\":[{\"pred\":\"e\"}]}").is_err());
        assert!(parse_facts_body("{\"facts\":[{\"pred\":\"e\",\"tuple\":\"(((\"}]}").is_err());
        assert!(
            parse_facts_body(
                "{\"facts\":[{\"op\":\"upsert\",\"pred\":\"e\",\"tuple\":\"(6n+1)\"}]}"
            )
            .is_err(),
            "unknown op"
        );
        assert_eq!(
            parse_facts_body("{\"facts\":[{\"pred\":\"e\",\"tuple\":\"(6n+1)\"}]}")
                .unwrap()
                .len(),
            1
        );
        let parsed = parse_facts_body(
            "{\"facts\":[{\"op\":\"retract\",\"pred\":\"e\",\"tuple\":\"(6n+1)\"}]}",
        )
        .unwrap();
        assert!(parsed[0].is_retract());
    }

    #[test]
    fn zero_dedup_window_is_rejected() {
        let dir = temp_dir("zerodedup");
        let workload = parse_workload(WORKLOAD).unwrap();
        let bad = IngestConfig {
            dedup_window: 0,
            ..config(&dir)
        };
        assert_eq!(
            bad.validate(),
            Err(IngestConfigError::ZeroDedupWindow),
            "typed validation error"
        );
        let err = match Ingest::open(bad, &workload) {
            Ok(_) => panic!("zero dedup window must be refused"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("dedup_window"), "{err}");
        // Boundary: 1 is the smallest valid window.
        let ok = IngestConfig {
            dedup_window: 1,
            ..config(&dir)
        };
        assert!(ok.validate().is_ok());
        let ingest = Ingest::open(ok, &workload).unwrap();
        drop(ingest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn nondeterministic_eval_budgets_are_rejected() {
        let dir = temp_dir("nondeterministic");
        let workload = parse_workload(WORKLOAD).unwrap();
        let mut deadline = config(&dir);
        deadline.eval.timeout = Some(std::time::Duration::from_secs(60));
        let mut cancel = config(&dir);
        cancel.eval.cancel = Some(itdb_core::CancelToken::new());
        for (cfg, expected) in [
            (deadline, IngestConfigError::EvalTimeout),
            (cancel, IngestConfigError::EvalCancel),
        ] {
            assert_eq!(cfg.validate(), Err(expected.clone()));
            let err = match Ingest::open(cfg, &workload) {
                Ok(_) => panic!("{expected:?} must be refused"),
                Err(e) => e,
            };
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert_eq!(err.to_string(), expected.to_string());
        }
        // Deterministic budgets stay allowed.
        let mut fuel = config(&dir);
        fuel.eval.max_derived_tuples = Some(1_000);
        fuel.eval.max_held_tuples = Some(1_000);
        assert!(fuel.validate().is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_applies_dedups_and_recovers() {
        let dir = temp_dir("roundtrip");
        let workload = parse_workload(WORKLOAD).unwrap();
        {
            let ingest = Ingest::open(config(&dir), &workload).unwrap();
            let batch = ops(
                r#"{"facts":[{"pred":"course","tuple":"(168n+30, 168n+32; compilers) : T2 = T1 + 2"}]}"#,
            );
            let out = ingest.submit("req-1", batch.clone()).unwrap();
            assert_eq!(out.applied, 1);
            assert!(!out.duplicate_request);
            assert_eq!(out.seq, Some(1), "first record of a fresh log is seq 1");
            // Same id: answered from the window, nothing re-applied.
            let again = ingest.submit("req-1", batch.clone()).unwrap();
            assert!(again.duplicate_request);
            assert_eq!(again.applied, 1, "remembered first-application count");
            assert_eq!(again.seq, None, "deduplicated requests log nothing");
            // Same facts under a new id: logged, applied as duplicates.
            let dup = ingest.submit("req-2", batch).unwrap();
            assert!(!dup.duplicate_request);
            assert_eq!(dup.applied, 0);
            assert_eq!(dup.duplicates, 1);
            assert_eq!(dup.seq, Some(2));
            assert_eq!(ingest.facts_ingested(), 1);
            ingest.flush();
        }
        // Reopen: checkpoint + WAL replay must reproduce the state.
        let reopened = Ingest::open(config(&dir), &workload).unwrap();
        assert!(
            reopened.boot_report().restored_checkpoint,
            "flush wrote a checkpoint"
        );
        let has_new_course = reopened.with_model(|m| {
            m.relation("problems")
                .map(|r| r.to_string().contains("168n+32"))
                .unwrap_or(false)
        });
        assert!(has_new_course, "ingested facts survive restart");
        // The dedup window survives the checkpoint too.
        let out = reopened
            .submit(
                "req-1",
                ops(r#"{"facts":[{"pred":"course","tuple":"(168n+30, 168n+32; compilers) : T2 = T1 + 2"}]}"#),
            )
            .unwrap();
        assert!(out.duplicate_request, "dedup window restored");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_without_checkpoint_is_identical() {
        let dir = temp_dir("replay");
        let workload = parse_workload(WORKLOAD).unwrap();
        let uninterrupted = {
            let ingest = Ingest::open(config(&dir), &workload).unwrap();
            for i in 0..3 {
                let body = format!(
                    r#"{{"facts":[{{"pred":"course","tuple":"(168n+{}, 168n+{}; extra) : T2 = T1 + 2"}}]}}"#,
                    40 + 10 * i,
                    42 + 10 * i
                );
                ingest.submit(&format!("req-{i}"), ops(&body)).unwrap();
            }
            // No flush: drop without a checkpoint, like a SIGKILL.
            ingest.with_model(|m| m.relation("problems").map(|r| r.to_string()))
        };
        let reopened = Ingest::open(config(&dir), &workload).unwrap();
        assert_eq!(reopened.boot_report().replayed_records, 3);
        let replayed = reopened.with_model(|m| m.relation("problems").map(|r| r.to_string()));
        assert_eq!(uninterrupted, replayed, "replay is byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retraction_applies_and_replays_identically() {
        let dir = temp_dir("retract");
        let workload = parse_workload(WORKLOAD).unwrap();
        let uninterrupted = {
            let ingest = Ingest::open(config(&dir), &workload).unwrap();
            let out = ingest
                .submit(
                    "a-1",
                    ops(r#"{"facts":[{"pred":"course","tuple":"(168n+30, 168n+32; compilers) : T2 = T1 + 2"}]}"#),
                )
                .unwrap();
            assert_eq!(out.applied, 1);
            let out = ingest
                .submit(
                    "r-1",
                    ops(r#"{"facts":[{"op":"retract","pred":"course","tuple":"(168n+30, 168n+32; compilers) : T2 = T1 + 2"}]}"#),
                )
                .unwrap();
            assert_eq!(out.retracted, 1);
            assert_eq!(ingest.facts_retracted(), 1);
            assert!(
                ingest.retraction_overdeleted() >= 1,
                "consequences over-deleted"
            );
            // No flush: recovery must replay the retraction too.
            ingest.with_model(|m| m.relation("problems").map(|r| r.to_string()))
        };
        let reopened = Ingest::open(config(&dir), &workload).unwrap();
        assert_eq!(reopened.boot_report().replayed_records, 2);
        assert_eq!(reopened.facts_retracted(), 1, "replayed retraction counted");
        let replayed = reopened.with_model(|m| m.relation("problems").map(|r| r.to_string()));
        assert_eq!(
            uninterrupted, replayed,
            "retraction replay is byte-identical"
        );
        assert!(
            !replayed.unwrap().contains("168n+32"),
            "retracted consequences stay gone after restart"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejected_batches_do_not_poison_replay() {
        let dir = temp_dir("rejected");
        let workload = parse_workload(WORKLOAD).unwrap();
        {
            let ingest = Ingest::open(config(&dir), &workload).unwrap();
            // Intensional predicate: rejected, but WAL'd first.
            let bad =
                ops(r#"{"facts":[{"pred":"problems","tuple":"(6n+1, 6n+3; x) : T2 = T1 + 2"}]}"#);
            assert!(matches!(
                ingest.submit("bad-1", bad),
                Err(IngestError::Rejected(_))
            ));
            // Retracting an unknown predicate: same deterministic 422.
            let bad = ops(r#"{"facts":[{"op":"retract","pred":"ghost","tuple":"(6n+1; x)"}]}"#);
            assert!(matches!(
                ingest.submit("bad-2", bad),
                Err(IngestError::Rejected(_))
            ));
            let good = ops(
                r#"{"facts":[{"pred":"course","tuple":"(168n+30, 168n+32; compilers) : T2 = T1 + 2"}]}"#,
            );
            ingest.submit("good-1", good).unwrap();
        }
        let reopened = Ingest::open(config(&dir), &workload).unwrap();
        assert_eq!(
            reopened.boot_report().replayed_records,
            3,
            "all records replayed; the bad ones re-rejected"
        );
        assert_eq!(reopened.facts_ingested(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tripped_batch_heals_without_restart() {
        // A workload whose recursion needs ~7 iterations and inserts 7
        // tuples per new seed tuple; the seed evaluation (empty EDB)
        // converges immediately. Either budget trips on ingest: a
        // 3-iteration governor, or a tuple fuel of 3.
        let workload = parse_workload(
            "rule p[t + 2](C) <- e[t](C).\n\
             rule p[t + 48](C) <- p[t](C).\n\
             rule q[t](C) <- f[t](C).\n",
        )
        .unwrap();
        let defaults = EvalOptions::default();
        for (name, max_iterations, fuel) in [
            ("iterations", 3, None),
            ("fuel", defaults.max_iterations, Some(3)),
        ] {
            let dir = temp_dir(&format!("tripped_{name}"));
            let mut cfg = config(&dir);
            cfg.eval.max_iterations = max_iterations;
            cfg.eval.max_derived_tuples = fuel;
            let ingest = Ingest::open(cfg.clone(), &workload).unwrap();
            let err = ingest
                .submit(
                    "trip-1",
                    ops(r#"{"facts":[{"pred":"e","tuple":"(168n+1; x)"}]}"#),
                )
                .unwrap_err();
            match err {
                IngestError::Tripped { retry_after_s, .. } => assert!(retry_after_s >= 1),
                other => panic!("{name}: expected Tripped, got {other:?}"),
            }
            assert_eq!(ingest.batches_tripped(), 1);
            // The same server keeps applying unrelated batches: no wedge,
            // no restart required.
            let out = ingest
                .submit(
                    "ok-1",
                    ops(r#"{"facts":[{"pred":"f","tuple":"(24n+1; y)"}]}"#),
                )
                .unwrap();
            assert_eq!(out.applied, 1);
            let q_live =
                ingest.with_model(|m| m.relation("q").map(|r| !r.is_empty()).unwrap_or(false));
            assert!(q_live, "{name}: derivation resumed after the trip");
            // And the tripping record in the WAL replays as the same
            // refusal.
            ingest.flush();
            drop(ingest);
            let reopened = Ingest::open(cfg, &workload).unwrap();
            assert_eq!(reopened.batches_tripped(), 0, "replay skips, not counts");
            let replayed = reopened.with_model(|m| {
                (
                    m.relation("q").map(|r| !r.is_empty()).unwrap_or(false),
                    m.relation("p").map(|r| r.is_empty()).unwrap_or(true),
                )
            });
            assert_eq!(
                replayed,
                (true, true),
                "{name}: healed state survives restart"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn checkpoint_then_crash_before_compaction_replays_exactly_once() {
        // The crash window between the checkpoint write and the WAL
        // compaction leaves a durable checkpoint *and* the full log: a
        // large segment keeps every record in the active (uncompactable)
        // segment, so the state after the cadence checkpoint at seq 4 is
        // exactly that window. Boot must apply seq 5 once — and nothing
        // at or below 4 twice.
        let dir = temp_dir("crashwindow");
        let workload = parse_workload(WORKLOAD).unwrap();
        let uninterrupted = {
            let ingest = Ingest::open(config(&dir), &workload).unwrap();
            for i in 0..5 {
                let body = format!(
                    r#"{{"facts":[{{"pred":"course","tuple":"(168n+{}, 168n+{}; extra) : T2 = T1 + 2"}}]}}"#,
                    40 + 10 * i,
                    42 + 10 * i
                );
                ingest.submit(&format!("req-{i}"), ops(&body)).unwrap();
            }
            assert_eq!(ingest.checkpoints_written(), 1, "cadence fired at 4");
            // Drop without flush: the crash happens after that checkpoint.
            ingest.with_model(|m| m.relation("problems").map(|r| r.to_string()))
        };
        let reopened = Ingest::open(config(&dir), &workload).unwrap();
        assert!(reopened.boot_report().restored_checkpoint);
        assert_eq!(
            reopened.boot_report().replayed_records,
            1,
            "only seq 5 is past the checkpoint; 1–4 must not re-apply"
        );
        assert_eq!(
            reopened.facts_ingested(),
            1,
            "re-applying a covered record would double-count here"
        );
        let replayed = reopened.with_model(|m| m.relation("problems").map(|r| r.to_string()));
        assert_eq!(
            uninterrupted, replayed,
            "exactly-once replay is byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Events named `name` among those `sink` captured since the last take.
    fn count_events(sink: &itdb_trace::MemorySink, name: &str) -> usize {
        sink.take().iter().filter(|e| e.kind.name() == name).count()
    }

    /// A newest generation that passes the store's CRC check but does not
    /// decode is skipped: boot restores the generation below it and
    /// replays the log past that, rather than starting fresh over a log
    /// whose prefix is compacted away.
    #[test]
    fn undecodable_newest_checkpoint_falls_back_to_the_previous_generation() {
        let dir = temp_dir("undecodable");
        let workload = parse_workload(WORKLOAD).unwrap();
        let cfg = |checkpoint_every| IngestConfig {
            checkpoint_every,
            // Tiny segments: every record seals its own segment, so the
            // checkpoint at seq 4 compacts the log through 4.
            wal: WalOptions {
                segment_bytes: 64,
                ..WalOptions::default()
            },
            ..IngestConfig::new(&dir)
        };
        let submit = |ingest: &Ingest, i: u64| {
            let body = format!(
                r#"{{"facts":[{{"pred":"course","tuple":"(168n+{}, 168n+{}; extra) : T2 = T1 + 2"}}]}}"#,
                30 + 10 * i,
                32 + 10 * i
            );
            ingest.submit(&format!("req-{i}"), ops(&body)).unwrap();
        };
        let events = std::sync::Arc::new(itdb_trace::MemorySink::new());
        let sink = itdb_trace::add_sink(events.clone());
        {
            let ingest = Ingest::open(cfg(4), &workload).unwrap();
            (1..=4).for_each(|i| submit(&ingest, i));
            assert_eq!(ingest.checkpoints_written(), 1, "cadence fired at 4");
        }
        assert_eq!(
            count_events(&events, "checkpoint_written"),
            1,
            "the cadence checkpoint emits one checkpoint_written event"
        );
        let uninterrupted = {
            let ingest = Ingest::open(cfg(u64::MAX), &workload).unwrap();
            (5..=8).for_each(|i| submit(&ingest, i));
            // Dropped without a flush: no checkpoint past seq 4.
            ingest.with_model(|m| m.snapshot_sections(8))
        };
        // A newer generation whose resident IDB section is cut in half: its
        // CRC matches the cut payload, so only the decoder can reject it.
        let store = SnapshotStore::open(dir.join("checkpoint")).unwrap();
        let good = store.generations().unwrap()[0];
        let mut sections = store.load_generation(good).unwrap();
        let idb = sections
            .iter_mut()
            .find(|s| s.tag == itdb_core::checkpoint::SEC_RES_IDB)
            .unwrap();
        idb.payload.truncate(idb.payload.len() / 2);
        let bad = store.write(&sections).unwrap().generation;
        assert!(store.load_generation(bad).is_ok(), "passes the CRC check");
        events.take();

        let reopened = Ingest::open(cfg(u64::MAX), &workload).unwrap();
        itdb_trace::remove_sink(sink);
        let boot = reopened.boot_report();
        assert!(boot.restored_checkpoint, "booted from generation {good}");
        assert_eq!(boot.replayed_records, 4, "records 5–8 replayed");
        assert_eq!(boot.last_seq, 8);
        assert_eq!(count_events(&events, "checkpoint_recovery"), 1);
        let replayed = reopened.with_model(|m| m.snapshot_sections(8));
        assert!(
            replayed == uninterrupted,
            "restore + replay is byte-identical to the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The inverse cut point needs fault injection: the checkpoint write
    /// *reports* success but never becomes visible (crash between staging
    /// and rename), and compaction then deletes the segments that
    /// checkpoint was supposed to cover. The needed records are gone —
    /// the only sound outcome is a refused boot, never a silently
    /// rebuilt partial model.
    #[cfg(feature = "chaos")]
    #[test]
    fn invisible_checkpoint_then_compaction_fails_stop_at_boot() {
        use itdb_store::fault::{FaultKind, FaultPlan};
        let dir = temp_dir("invischeckpoint");
        let workload = parse_workload(WORKLOAD).unwrap();
        let cfg = IngestConfig {
            // No cadence checkpoints; tiny segments so every record seals
            // its own segment and compaction has plenty to delete.
            checkpoint_every: u64::MAX,
            wal: WalOptions {
                segment_bytes: 64,
                ..WalOptions::default()
            },
            ..IngestConfig::new(&dir)
        };
        {
            let ingest = Ingest::open(cfg.clone(), &workload).unwrap();
            for i in 0..6 {
                let body = format!(
                    r#"{{"facts":[{{"pred":"course","tuple":"(168n+{}, 168n+{}; extra) : T2 = T1 + 2"}}]}}"#,
                    40 + 10 * i,
                    42 + 10 * i
                );
                ingest.submit(&format!("req-{i}"), ops(&body)).unwrap();
            }
            FaultPlan {
                kind: FaultKind::CrashBeforeRename,
            }
            .arm();
            ingest.flush();
            FaultPlan::disarm();
        }
        let err = match Ingest::open(cfg, &workload) {
            Ok(_) => {
                panic!("boot must refuse: the checkpoint never landed and the log is compacted")
            }
            Err(e) => e,
        };
        assert!(
            err.to_string().contains("compacted away"),
            "refused with the gap diagnosis, got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_with_compacted_wal_refuses_to_boot() {
        let dir = temp_dir("gap");
        let workload = parse_workload(WORKLOAD).unwrap();
        {
            // Tiny segments + tight cadence: several checkpoints, each
            // compacting sealed segments away.
            let cfg = IngestConfig {
                checkpoint_every: 2,
                wal: WalOptions {
                    segment_bytes: 128,
                    ..WalOptions::default()
                },
                ..IngestConfig::new(&dir)
            };
            let ingest = Ingest::open(cfg, &workload).unwrap();
            for i in 0..8 {
                let body = format!(
                    r#"{{"facts":[{{"pred":"course","tuple":"(168n+{}, 168n+{}; extra) : T2 = T1 + 2"}}]}}"#,
                    40 + 10 * i,
                    42 + 10 * i
                );
                ingest.submit(&format!("req-{i}"), ops(&body)).unwrap();
            }
            ingest.flush();
        }
        // Destroy the checkpoints: the compacted WAL prefix is now
        // unrecoverable, so boot must refuse rather than silently replay
        // the surviving suffix into a fresh model.
        std::fs::remove_dir_all(dir.join("checkpoint")).unwrap();
        let err = match Ingest::open(config(&dir), &workload) {
            Ok(_) => panic!("boot over a WAL gap must be refused"),
            Err(e) => e,
        };
        assert!(
            err.to_string().contains("compacted away"),
            "refused with the gap diagnosis, got: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_convergent_workloads_are_refused_at_boot() {
        let dir = temp_dir("diverging");
        let workload = parse_workload(
            "tuple seed (n) : T1 = 0\n\
             rule p[t] <- seed[t].\n\
             rule p[t + 1] <- p[t].\n",
        )
        .unwrap();
        let err = match Ingest::open(config(&dir), &workload) {
            Ok(_) => panic!("a diverging workload cannot be maintained"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("convergent"), "{err}");
        let mut starved = config(&dir);
        starved.eval.max_derived_tuples = Some(0);
        let err = match Ingest::open(starved, &parse_workload(WORKLOAD).unwrap()) {
            Ok(_) => panic!("a tripped materialisation cannot be maintained"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("Interrupted"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backpressure_trips_at_max_pending() {
        let dir = temp_dir("pressure");
        let workload = parse_workload(WORKLOAD).unwrap();
        let ingest = Ingest::open(
            IngestConfig {
                max_pending: 1,
                ..config(&dir)
            },
            &workload,
        )
        .unwrap();
        // Simulate one request already in flight.
        ingest.pending.fetch_add(1, Ordering::Relaxed);
        let err = ingest
            .submit(
                "r",
                ops(r#"{"facts":[{"pred":"course","tuple":"(168n+30, 168n+32; c) : T2 = T1 + 2"}]}"#),
            )
            .unwrap_err();
        assert!(matches!(err, IngestError::Backpressure { .. }));
        ingest.pending.fetch_sub(1, Ordering::Relaxed);
        assert_eq!(ingest.pending(), 0, "guard restored the gauge");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
