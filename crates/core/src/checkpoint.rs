//! Model images on disk: the one codec, save path and recovery walk.
//!
//! Two images of the closed-form model go to disk, both built from the
//! same relation, tuple and derivation-log codecs below:
//!
//! - a [`Checkpoint`] (tags 1–6) captures everything the engine needs to
//!   re-enter the stratified semi-naive loop exactly where it stopped:
//!   the partial IDB, the evaluation cursor (stratum index, iteration
//!   counts, free-extension safety counters, the semi-naive delta),
//!   aggregate statistics, the governor's counters (so operators can size
//!   resume budgets), the derivation log when provenance is on, and
//!   content hashes of the normalized program and the EDB, so a
//!   checkpoint written for a different program or database is rejected
//!   with a typed error instead of silently resuming into the wrong model;
//! - a [`ResidentImage`] (tags 21–24) holds a resident model's EDB, IDB
//!   and derivation log, stamped with its program hash and the WAL
//!   sequence it is current through. The serve layer saves its dedup
//!   window beside it (tags 30/31).
//!
//! Each image is a list of tagged sections in `itdb-store`'s container,
//! each CRC-checked by the store, written atomically as the next snapshot
//! *generation* by [`save`], which emits `checkpoint_written`. Recovery
//! is one walk, [`load_latest_with`]: given the image's decoder, it
//! returns the newest generation that passes *both* the store's
//! structural validation and that decoder, emitting `checkpoint_recovery`
//! for each generation it skips.
//!
//! The cursor uses **redo semantics** for trips that strike mid-iteration:
//! the saved iteration count points at the last *completed* iteration and
//! the saved delta is widened with whatever the interrupted iteration had
//! already inserted, so re-running the iteration re-derives (harmlessly
//! subsumed) tuples and still propagates the consequences of the partial
//! inserts — resume reaches the same model as an uninterrupted run.
//! Aggregate statistics may double-count the one redone iteration; model
//! contents never drift.

// Decodes on-disk bytes at serve boot: failures must flow through
// `CheckpointError`, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::engine::{Derivation, EvalStats, StratumStats};
use itdb_lrp::{
    Bound, DataValue, Dbm, Error, GeneralizedRelation, GeneralizedTuple, GovernorStats, Lrp,
    Schema, Zone,
};
use itdb_store::{ByteReader, ByteWriter, CodecError, Section, SnapshotStore, StoreError, Written};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Section tag: hashes, cursor, governor counters.
pub const SEC_META: u8 = 1;
/// Section tag: the partial IDB (all intensional relations).
pub const SEC_IDB: u8 = 2;
/// Section tag: the semi-naive delta of the in-flight stratum.
pub const SEC_DELTA: u8 = 3;
/// Section tag: aggregate and per-stratum statistics. (Tag 4 carried
/// free-extension keys in older generations; decoding ignores it, because
/// the keys are exactly those of the restored IDB.)
pub const SEC_STATS: u8 = 5;
/// Section tag: the derivation log, written when it is not empty (that
/// is, when provenance is on). A generation without it resumes with an
/// empty log.
pub const SEC_DERIVATIONS: u8 = 6;

/// Section tag: resident image version, program hash, applied sequence.
pub const SEC_RES_META: u8 = 21;
/// Section tag: the resident model's EDB.
pub const SEC_RES_EDB: u8 = 22;
/// Section tag: the resident model's IDB.
pub const SEC_RES_IDB: u8 = 23;
/// Section tag: provenance completeness and the derivation log. Images
/// written before retraction support lack it.
pub const SEC_RES_PROV: u8 = 24;
/// Version byte leading the [`SEC_RES_META`] section.
const RES_VERSION: u8 = 1;

/// Why a checkpoint could not be saved, loaded, or accepted for resume.
#[derive(Debug)]
pub enum CheckpointError {
    /// The snapshot store failed (I/O, corruption detected by the
    /// container layer).
    Store(StoreError),
    /// The container was intact but a section payload did not decode.
    Decode(String),
    /// The checkpoint was written for a different (normalized) program.
    StaleProgramHash {
        /// Hash of the program being resumed.
        expected: u128,
        /// Hash recorded in the checkpoint.
        found: u128,
    },
    /// The checkpoint was written against a different EDB.
    StaleEdbHash {
        /// Hash of the EDB being resumed.
        expected: u128,
        /// Hash recorded in the checkpoint.
        found: u128,
    },
    /// No generation in the store survived validation.
    NoCheckpoint,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Store(e) => write!(f, "store: {e}"),
            CheckpointError::Decode(msg) => write!(f, "decode: {msg}"),
            CheckpointError::StaleProgramHash { expected, found } => write!(
                f,
                "stale checkpoint: program hash {found:032x} does not match {expected:032x}"
            ),
            CheckpointError::StaleEdbHash { expected, found } => write!(
                f,
                "stale checkpoint: EDB hash {found:032x} does not match {expected:032x}"
            ),
            CheckpointError::NoCheckpoint => write!(f, "no valid checkpoint in the store"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for CheckpointError {
    fn from(e: StoreError) -> Self {
        CheckpointError::Store(e)
    }
}

impl From<CodecError> for CheckpointError {
    fn from(e: CodecError) -> Self {
        CheckpointError::Decode(e.0)
    }
}

impl From<CheckpointError> for Error {
    fn from(e: CheckpointError) -> Self {
        Error::Eval(format!("checkpoint: {e}"))
    }
}

/// When the engine writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Where snapshots go.
    pub store: Arc<SnapshotStore>,
    /// Write a checkpoint every N completed iterations (`None` = only on
    /// trip). N = 0 is treated as `None`.
    pub every_iterations: Option<u64>,
    /// Write a checkpoint when the governor trips, preserving the partial
    /// fixpoint the trip would otherwise strand in memory.
    pub on_trip: bool,
}

impl CheckpointPolicy {
    /// Checkpoint only when the governor trips.
    pub fn on_trip(store: Arc<SnapshotStore>) -> Self {
        CheckpointPolicy {
            store,
            every_iterations: None,
            on_trip: true,
        }
    }

    /// Checkpoint every `n` iterations *and* on trip.
    pub fn every(store: Arc<SnapshotStore>, n: u64) -> Self {
        CheckpointPolicy {
            store,
            every_iterations: (n > 0).then_some(n),
            on_trip: true,
        }
    }
}

/// What checkpointing did during one evaluation (attached to
/// [`crate::engine::Evaluation`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Checkpoints successfully written.
    pub written: u64,
    /// Checkpoint writes that failed (the evaluation continues; failures
    /// are reported, never fatal).
    pub failed: u64,
    /// Generation of the most recent successful write.
    pub last_generation: Option<u64>,
    /// Image size of the most recent successful write, in bytes.
    pub last_bytes: u64,
    /// Wall clock of the most recent successful write (encode + durable
    /// write), in µs.
    pub last_write_us: u64,
    /// Generation this evaluation resumed from, if it did.
    pub resumed_from: Option<u64>,
}

/// A self-contained, durable snapshot of a partial fixpoint.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Generation this checkpoint was loaded from (`None` for freshly
    /// built, not-yet-persisted checkpoints). Transient — not serialized.
    pub generation: Option<u64>,
    /// Content hash of the normalized program (all clauses, pre
    /// dead-clause filtering).
    pub program_hash: u128,
    /// Content hash of the extensional database.
    pub edb_hash: u128,
    /// Index of the in-flight stratum.
    pub stratum: usize,
    /// Global iterations of `T_GP` *completed* (redo semantics: a trip
    /// mid-iteration records the previous iteration).
    pub iteration: usize,
    /// Iterations completed within the in-flight stratum.
    pub stratum_iter: usize,
    /// Iteration at which free-extension safety was observed, if it was.
    pub fe_safe_at: Option<usize>,
    /// Consecutive iterations without a new free-extension key.
    pub fe_safe_streak: usize,
    /// Predicates still growing in the most recent productive iteration.
    pub last_growing: Vec<String>,
    /// The partial IDB: every intensional relation as derived so far.
    pub idb: BTreeMap<String, GeneralizedRelation>,
    /// The semi-naive frontier of the in-flight stratum.
    pub delta: BTreeMap<String, GeneralizedRelation>,
    /// The derivation log so far, in insertion order (empty unless
    /// provenance is on), so a resumed run can still explain tuples
    /// derived before the checkpoint.
    pub derivations: Vec<Derivation>,
    /// Governor counters at checkpoint time (fuel used, tuples held,
    /// elapsed ms) — lets operators size the resume budget.
    pub governor: GovernorStats,
    /// Aggregate tuple-flow counters at checkpoint time.
    pub tuples_derived: u64,
    /// See [`EvalStats::tuples_inserted`].
    pub tuples_inserted: u64,
    /// See [`EvalStats::tuples_subsumed`].
    pub tuples_subsumed: u64,
    /// Per-stratum statistics at checkpoint time.
    pub strata: Vec<SavedStratum>,
}

/// Serializable form of [`StratumStats`] (durations as integer µs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedStratum {
    /// Predicates defined in the stratum.
    pub preds: Vec<String>,
    /// Iterations the stratum ran.
    pub iterations: usize,
    /// Tuples the stratum inserted.
    pub inserted: u64,
    /// Wall clock spent, µs.
    pub elapsed_us: u64,
}

impl SavedStratum {
    /// Converts engine statistics into the serializable form.
    pub fn from_stats(s: &StratumStats) -> Self {
        SavedStratum {
            preds: s.preds.clone(),
            iterations: s.iterations,
            inserted: s.inserted,
            elapsed_us: u64::try_from(s.elapsed.as_micros()).unwrap_or(u64::MAX),
        }
    }

    /// Converts back into engine statistics.
    pub fn to_stats(&self) -> StratumStats {
        StratumStats {
            preds: self.preds.clone(),
            iterations: self.iterations,
            inserted: self.inserted,
            elapsed: Duration::from_micros(self.elapsed_us),
        }
    }
}

/// A resident model's image (tags 21–24): its EDB, IDB and derivation
/// log, stamped with its program hash and the WAL sequence it is current
/// through. Tuple and derivation order are kept exactly, so a restore
/// followed by WAL replay is byte-identical to the uninterrupted run.
/// Built by [`crate::ResidentModel::snapshot_sections`], which borrows the
/// model's state, or by [`ResidentImage::decode`], which owns what it read.
#[derive(Debug, Clone)]
pub struct ResidentImage<'a> {
    /// Content hash of the normalized program. Checked after decoding (by
    /// [`crate::ResidentModel::restore`]), so an image of another workload
    /// decodes fine and is then refused.
    pub(crate) program_hash: u128,
    /// The WAL sequence the image is current through.
    pub(crate) applied_seq: u64,
    /// The extensional relations.
    pub(crate) edb: Cow<'a, BTreeMap<String, GeneralizedRelation>>,
    /// The intensional relations.
    pub(crate) idb: Cow<'a, BTreeMap<String, GeneralizedRelation>>,
    /// Does `derivations` record every IDB insertion since the model's
    /// birth? `false` for images without a provenance section.
    pub(crate) provenance_complete: bool,
    /// The derivation log, in insertion order.
    pub(crate) derivations: Cow<'a, [Arc<Derivation>]>,
}

/// The result of [`load_latest_with`]: the newest image that both the
/// store *and* the decoder accepted, plus the generations skipped on the
/// way down.
#[derive(Debug)]
pub struct Recovered<T = Checkpoint> {
    /// Generation the image came from.
    pub generation: u64,
    /// The decoded image (for [`load_latest`], a checkpoint whose
    /// `generation` field is set).
    pub checkpoint: T,
    /// Damaged generations skipped, newest first, with the rendered error.
    pub skipped: Vec<(u64, String)>,
}

// ---------------------------------------------------------------------------
// Content hashing (FNV-1a, 128-bit)

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

fn fnv1a(hash: &mut u128, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u128::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Content hash of a normalized program. Hashes the `Debug` rendering of
/// every normalized clause (stable: normalized clauses carry no interior
/// mutability), **before** dead-clause filtering, so any source-level edit
/// that survives normalization changes the hash.
pub fn hash_program(clauses: &[crate::normalize::NormClause]) -> u128 {
    let mut h = FNV_OFFSET;
    for c in clauses {
        fnv1a(&mut h, format!("{c:?}").as_bytes());
        fnv1a(&mut h, b"\x00");
    }
    h
}

/// Content hash of an extensional database: relation names, schemas, and
/// each tuple's display rendering (displays are stable; `Debug` is not,
/// because tuples memoize canonical forms in `OnceLock`s).
pub fn hash_database(edb: &crate::db::Database) -> u128 {
    let mut h = FNV_OFFSET;
    for (name, rel) in edb.iter() {
        fnv1a(&mut h, name.as_bytes());
        let schema = rel.schema();
        fnv1a(&mut h, &(schema.temporal as u64).to_le_bytes());
        fnv1a(&mut h, &(schema.data as u64).to_le_bytes());
        for t in rel.tuples() {
            fnv1a(&mut h, t.to_string().as_bytes());
            fnv1a(&mut h, b"\x00");
        }
        fnv1a(&mut h, b"\x01");
    }
    h
}

// ---------------------------------------------------------------------------
// The codec pieces both images are built from

/// A reader over the payload of the section tagged `tag`, if present.
fn section(sections: &[Section], tag: u8) -> Option<ByteReader<'_>> {
    sections
        .iter()
        .find(|s| s.tag == tag)
        .map(|s| ByteReader::new(&s.payload))
}

/// [`section`] for a section the image cannot do without.
fn required(sections: &[Section], tag: u8) -> Result<ByteReader<'_>, CheckpointError> {
    section(sections, tag).ok_or_else(|| CheckpointError::Decode(format!("missing section {tag}")))
}

fn put_u128(w: &mut ByteWriter, v: u128) {
    w.put_u64((v >> 64) as u64);
    w.put_u64(v as u64);
}

fn get_u128(r: &mut ByteReader<'_>) -> Result<u128, CodecError> {
    let hi = r.get_u64()?;
    let lo = r.get_u64()?;
    Ok((u128::from(hi) << 64) | u128::from(lo))
}

fn put_data_value(w: &mut ByteWriter, v: &DataValue) {
    match v {
        DataValue::Sym(s) => {
            w.put_u8(0);
            w.put_str(s);
        }
        DataValue::Int(i) => {
            w.put_u8(1);
            w.put_i64(*i);
        }
    }
}

fn get_data_value(r: &mut ByteReader<'_>) -> Result<DataValue, CodecError> {
    match r.get_u8()? {
        0 => Ok(DataValue::sym(r.get_str()?)),
        1 => Ok(DataValue::Int(r.get_i64()?)),
        t => Err(CodecError(format!("bad data-value tag {t}"))),
    }
}

fn put_lrps(w: &mut ByteWriter, lrps: &[Lrp]) {
    w.put_usize(lrps.len());
    for l in lrps {
        w.put_i64(l.period());
        w.put_i64(l.offset());
    }
}

fn get_lrps(r: &mut ByteReader<'_>) -> Result<Vec<Lrp>, CheckpointError> {
    let n = r.get_usize()?;
    let mut lrps = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let period = r.get_i64()?;
        let offset = r.get_i64()?;
        lrps.push(
            Lrp::new(period, offset)
                .map_err(|e| CheckpointError::Decode(format!("bad lrp: {e}")))?,
        );
    }
    Ok(lrps)
}

fn put_tuple(w: &mut ByteWriter, t: &GeneralizedTuple) {
    put_lrps(w, t.zone().lrps());
    let dbm = t.zone().dbm();
    w.put_usize(dbm.dim());
    for i in 0..dbm.dim() {
        for j in 0..dbm.dim() {
            match dbm.get(i, j) {
                Bound::Inf => w.put_u8(0),
                Bound::Finite(c) => {
                    w.put_u8(1);
                    w.put_i64(c);
                }
            }
        }
    }
    w.put_usize(t.data().len());
    for v in t.data() {
        put_data_value(w, v);
    }
}

fn get_tuple(r: &mut ByteReader<'_>) -> Result<GeneralizedTuple, CheckpointError> {
    let lrps = get_lrps(r)?;
    let dim = r.get_usize()?;
    if dim == 0 || dim > 1 + lrps.len() {
        return Err(CheckpointError::Decode(format!(
            "dbm dimension {dim} inconsistent with {} lrps",
            lrps.len()
        )));
    }
    let mut dbm = Dbm::unconstrained(dim - 1);
    for i in 0..dim {
        for j in 0..dim {
            let b = match r.get_u8()? {
                0 => Bound::Inf,
                1 => Bound::Finite(r.get_i64()?),
                t => return Err(CheckpointError::Decode(format!("bad bound tag {t}"))),
            };
            dbm.set(i, j, b);
        }
    }
    let zone = Zone::from_parts(lrps, dbm)
        .map_err(|e| CheckpointError::Decode(format!("bad zone: {e}")))?;
    let n = r.get_usize()?;
    let mut data = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        data.push(get_data_value(r)?);
    }
    Ok(GeneralizedTuple::new(zone, data))
}

fn put_relations(w: &mut ByteWriter, rels: &BTreeMap<String, GeneralizedRelation>) {
    w.put_usize(rels.len());
    for (name, rel) in rels {
        w.put_str(name);
        let schema = rel.schema();
        w.put_usize(schema.temporal);
        w.put_usize(schema.data);
        w.put_usize(rel.len());
        for t in rel.tuples() {
            put_tuple(w, t);
        }
    }
}

fn get_relations(
    r: &mut ByteReader<'_>,
) -> Result<BTreeMap<String, GeneralizedRelation>, CheckpointError> {
    let n = r.get_usize()?;
    let mut rels = BTreeMap::new();
    for _ in 0..n {
        let name = r.get_str()?;
        let temporal = r.get_usize()?;
        let data = r.get_usize()?;
        let count = r.get_usize()?;
        let mut tuples = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            tuples.push(get_tuple(r)?);
        }
        let rel = GeneralizedRelation::from_tuples(Schema::new(temporal, data), tuples)
            .map_err(|e| CheckpointError::Decode(format!("bad relation {name}: {e}")))?;
        rels.insert(name, rel);
    }
    Ok(rels)
}

fn put_derivations<'d>(
    w: &mut ByteWriter,
    derivations: impl ExactSizeIterator<Item = &'d Derivation>,
) {
    w.put_usize(derivations.len());
    for d in derivations {
        w.put_str(&d.pred);
        w.put_usize(d.rule);
        put_tuple(w, &d.tuple);
        w.put_usize(d.sources.len());
        for (p, t) in &d.sources {
            w.put_str(p);
            put_tuple(w, t);
        }
    }
}

fn get_derivations(r: &mut ByteReader<'_>) -> Result<Vec<Derivation>, CheckpointError> {
    let n = r.get_usize()?;
    let mut derivations = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let pred = r.get_str()?;
        let rule = r.get_usize()?;
        let tuple = get_tuple(r)?;
        let ns = r.get_usize()?;
        let mut sources = Vec::with_capacity(ns.min(1024));
        for _ in 0..ns {
            let p = r.get_str()?;
            sources.push((p, get_tuple(r)?));
        }
        derivations.push(Derivation {
            pred,
            tuple,
            rule,
            sources,
        });
    }
    Ok(derivations)
}

/// One section holding the relations `rels`.
fn relations_section(tag: u8, rels: &BTreeMap<String, GeneralizedRelation>) -> Section {
    let mut w = ByteWriter::new();
    put_relations(&mut w, rels);
    Section::new(tag, w.into_bytes())
}

// ---------------------------------------------------------------------------
// The two images

impl Checkpoint {
    /// Encodes the checkpoint into the store's tagged sections.
    pub fn encode(&self) -> Vec<Section> {
        let mut meta = ByteWriter::new();
        put_u128(&mut meta, self.program_hash);
        put_u128(&mut meta, self.edb_hash);
        meta.put_usize(self.stratum);
        meta.put_usize(self.iteration);
        meta.put_usize(self.stratum_iter);
        meta.put_bool(self.fe_safe_at.is_some());
        meta.put_usize(self.fe_safe_at.unwrap_or(0));
        meta.put_usize(self.fe_safe_streak);
        meta.put_usize(self.last_growing.len());
        for p in &self.last_growing {
            meta.put_str(p);
        }
        meta.put_u64(self.governor.iterations);
        meta.put_u64(self.governor.derived);
        meta.put_u64(self.governor.held);
        meta.put_u64(self.governor.checks);
        meta.put_u64(self.governor.elapsed_ms);

        let mut stats = ByteWriter::new();
        stats.put_u64(self.tuples_derived);
        stats.put_u64(self.tuples_inserted);
        stats.put_u64(self.tuples_subsumed);
        stats.put_usize(self.strata.len());
        for s in &self.strata {
            stats.put_usize(s.preds.len());
            for p in &s.preds {
                stats.put_str(p);
            }
            stats.put_usize(s.iterations);
            stats.put_u64(s.inserted);
            stats.put_u64(s.elapsed_us);
        }

        let mut sections = vec![
            Section::new(SEC_META, meta.into_bytes()),
            relations_section(SEC_IDB, &self.idb),
            relations_section(SEC_DELTA, &self.delta),
            Section::new(SEC_STATS, stats.into_bytes()),
        ];
        if !self.derivations.is_empty() {
            let mut log = ByteWriter::new();
            put_derivations(&mut log, self.derivations.iter());
            sections.push(Section::new(SEC_DERIVATIONS, log.into_bytes()));
        }
        sections
    }

    /// Decodes a checkpoint from the store's sections.
    pub fn decode(sections: &[Section]) -> Result<Self, CheckpointError> {
        let mut r = required(sections, SEC_META)?;
        let program_hash = get_u128(&mut r)?;
        let edb_hash = get_u128(&mut r)?;
        let stratum = r.get_usize()?;
        let iteration = r.get_usize()?;
        let stratum_iter = r.get_usize()?;
        let has_fe = r.get_bool()?;
        let fe_at = r.get_usize()?;
        let fe_safe_at = has_fe.then_some(fe_at);
        let fe_safe_streak = r.get_usize()?;
        let n = r.get_usize()?;
        let mut last_growing = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            last_growing.push(r.get_str()?);
        }
        let governor = GovernorStats {
            iterations: r.get_u64()?,
            derived: r.get_u64()?,
            held: r.get_u64()?,
            checks: r.get_u64()?,
            elapsed_ms: r.get_u64()?,
        };

        let idb = get_relations(&mut required(sections, SEC_IDB)?)?;
        let delta = get_relations(&mut required(sections, SEC_DELTA)?)?;
        let derivations = match section(sections, SEC_DERIVATIONS) {
            Some(mut r) => get_derivations(&mut r)?,
            None => Vec::new(),
        };

        let mut r = required(sections, SEC_STATS)?;
        let tuples_derived = r.get_u64()?;
        let tuples_inserted = r.get_u64()?;
        let tuples_subsumed = r.get_u64()?;
        let n = r.get_usize()?;
        let mut strata = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let pn = r.get_usize()?;
            let mut preds = Vec::with_capacity(pn.min(1024));
            for _ in 0..pn {
                preds.push(r.get_str()?);
            }
            strata.push(SavedStratum {
                preds,
                iterations: r.get_usize()?,
                inserted: r.get_u64()?,
                elapsed_us: r.get_u64()?,
            });
        }

        Ok(Checkpoint {
            generation: None,
            program_hash,
            edb_hash,
            stratum,
            iteration,
            stratum_iter,
            fe_safe_at,
            fe_safe_streak,
            last_growing,
            idb,
            delta,
            derivations,
            governor,
            tuples_derived,
            tuples_inserted,
            tuples_subsumed,
            strata,
        })
    }

    /// Rejects checkpoints written for a different program or EDB.
    pub fn validate(&self, program_hash: u128, edb_hash: u128) -> Result<(), CheckpointError> {
        if self.program_hash != program_hash {
            return Err(CheckpointError::StaleProgramHash {
                expected: program_hash,
                found: self.program_hash,
            });
        }
        if self.edb_hash != edb_hash {
            return Err(CheckpointError::StaleEdbHash {
                expected: edb_hash,
                found: self.edb_hash,
            });
        }
        Ok(())
    }

    /// Restores the serialized statistics into an [`EvalStats`] shell (the
    /// lrp-layer counters and total elapsed restart from zero — they
    /// describe the resumed run, not the original one).
    pub fn restore_stats(&self) -> EvalStats {
        EvalStats {
            tuples_derived: self.tuples_derived,
            tuples_inserted: self.tuples_inserted,
            tuples_subsumed: self.tuples_subsumed,
            strata: self.strata.iter().map(SavedStratum::to_stats).collect(),
            ..EvalStats::default()
        }
    }
}

impl ResidentImage<'_> {
    /// Encodes the image into its four tagged sections (21–24).
    pub fn encode(&self) -> Vec<Section> {
        let mut meta = ByteWriter::new();
        meta.put_u8(RES_VERSION);
        put_u128(&mut meta, self.program_hash);
        meta.put_u64(self.applied_seq);
        let mut prov = ByteWriter::new();
        prov.put_bool(self.provenance_complete);
        put_derivations(&mut prov, self.derivations.iter().map(|d| &**d));
        vec![
            Section::new(SEC_RES_META, meta.into_bytes()),
            relations_section(SEC_RES_EDB, &self.edb),
            relations_section(SEC_RES_IDB, &self.idb),
            Section::new(SEC_RES_PROV, prov.into_bytes()),
        ]
    }
}

impl ResidentImage<'static> {
    /// Decodes a resident image from the store's sections; other sections
    /// (the serve layer's dedup window) are ignored. An image without a
    /// provenance section decodes with an empty, incomplete log.
    pub fn decode(sections: &[Section]) -> Result<Self, CheckpointError> {
        let mut meta = required(sections, SEC_RES_META)?;
        let version = meta.get_u8()?;
        if version != RES_VERSION {
            return Err(CheckpointError::Decode(format!(
                "unsupported resident image version {version}"
            )));
        }
        let program_hash = get_u128(&mut meta)?;
        let applied_seq = meta.get_u64()?;
        let edb = get_relations(&mut required(sections, SEC_RES_EDB)?)?;
        let idb = get_relations(&mut required(sections, SEC_RES_IDB)?)?;
        let (provenance_complete, derivations) = match section(sections, SEC_RES_PROV) {
            Some(mut r) => (r.get_bool()?, get_derivations(&mut r)?),
            None => (false, Vec::new()),
        };
        Ok(ResidentImage {
            program_hash,
            applied_seq,
            edb: Cow::Owned(edb),
            idb: Cow::Owned(idb),
            provenance_complete,
            derivations: Cow::Owned(derivations.into_iter().map(Arc::new).collect()),
        })
    }
}

// ---------------------------------------------------------------------------
// Save and recover

/// Persists `sections` as the store's next generation and emits a
/// `checkpoint_written` trace event. Every image goes to disk this way.
pub fn save(store: &SnapshotStore, sections: &[Section]) -> Result<Written, CheckpointError> {
    let start = std::time::Instant::now();
    let written = store.write(sections)?;
    let write_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    itdb_trace::emit(|| itdb_trace::EventKind::CheckpointWritten {
        generation: written.generation,
        bytes: written.bytes,
        write_us,
    });
    Ok(written)
}

/// Loads the newest generation that passes *both* the store's structural
/// validation and `decode`, walking generations newest-first and
/// reporting (not failing on) everything skipped. Each skipped generation
/// emits a `checkpoint_recovery` trace event. An empty store, or one
/// whose every generation fails, is [`CheckpointError::NoCheckpoint`].
pub fn load_latest_with<T>(
    store: &SnapshotStore,
    decode: impl Fn(&[Section]) -> Result<T, CheckpointError>,
) -> Result<Recovered<T>, CheckpointError> {
    let mut skipped = Vec::new();
    for g in store.generations()?.into_iter().rev() {
        let result = store
            .load_generation(g)
            .map_err(CheckpointError::Store)
            .and_then(|sections| decode(&sections));
        match result {
            Ok(checkpoint) => {
                return Ok(Recovered {
                    generation: g,
                    checkpoint,
                    skipped,
                })
            }
            Err(e) => {
                let rendered = e.to_string();
                itdb_trace::emit(|| itdb_trace::EventKind::CheckpointRecovery {
                    generation: g,
                    error: rendered.clone(),
                });
                skipped.push((g, rendered));
            }
        }
    }
    Err(CheckpointError::NoCheckpoint)
}

/// [`load_latest_with`] for engine checkpoints; the returned checkpoint
/// carries the generation it came from.
pub fn load_latest(store: &SnapshotStore) -> Result<Recovered, CheckpointError> {
    let mut rec = load_latest_with(store, Checkpoint::decode)?;
    rec.checkpoint.generation = Some(rec.generation);
    Ok(rec)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use itdb_lrp::Governor;

    fn sample_checkpoint() -> Checkpoint {
        let mut db = crate::db::Database::new();
        db.insert_parsed("p", "(24n+10, 24n+12; a) : T2 = T1 + 2")
            .unwrap();
        db.insert_parsed("q", "(6n+1)").unwrap();
        let idb: BTreeMap<String, GeneralizedRelation> =
            db.iter().map(|(n, r)| (n.to_string(), r.clone())).collect();
        let q = idb["q"].tuples()[0].clone();
        let derivations = vec![Derivation {
            pred: "p".into(),
            tuple: idb["p"].tuples()[0].clone(),
            rule: 1,
            sources: vec![("q".into(), q)],
        }];
        Checkpoint {
            generation: None,
            program_hash: 0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233,
            edb_hash: 42,
            stratum: 1,
            iteration: 7,
            stratum_iter: 3,
            fe_safe_at: Some(5),
            fe_safe_streak: 2,
            last_growing: vec!["p".into()],
            delta: idb.clone(),
            idb,
            derivations,
            governor: Governor::unlimited().stats(),
            tuples_derived: 100,
            tuples_inserted: 40,
            tuples_subsumed: 60,
            strata: vec![SavedStratum {
                preds: vec!["p".into(), "q".into()],
                iterations: 3,
                inserted: 40,
                elapsed_us: 1234,
            }],
        }
    }

    /// The free-extension-key section older generations carried under
    /// tag 4: one predicate `p` with one key.
    fn legacy_fe_keys_section() -> Section {
        let mut w = ByteWriter::new();
        w.put_usize(1);
        w.put_str("p");
        w.put_usize(1);
        put_lrps(
            &mut w,
            &[Lrp::new(24, 10).unwrap(), Lrp::new(24, 12).unwrap()],
        );
        w.put_usize(1);
        put_data_value(&mut w, &DataValue::sym("a"));
        Section::new(4, w.into_bytes())
    }

    /// Round trip of a fresh encoding, and of a generation written when
    /// checkpoints still carried the tag-4 section: decoding skips it.
    /// A generation without the derivation-log section (written before it
    /// existed, or with provenance off) decodes with an empty log.
    #[test]
    fn encode_decode_round_trips() {
        let cp = sample_checkpoint();
        let mut legacy = cp.encode();
        legacy.insert(3, legacy_fe_keys_section());
        for sections in [cp.encode(), legacy] {
            let decoded = Checkpoint::decode(&sections).unwrap();
            assert_eq!(decoded.derivations.len(), 1);
            let (d, e) = (&decoded.derivations[0], &cp.derivations[0]);
            assert_eq!((&d.pred, d.rule, &d.tuple), (&e.pred, e.rule, &e.tuple));
            assert_eq!(d.sources, e.sources);
            assert_eq!(decoded.program_hash, cp.program_hash);
            assert_eq!(decoded.edb_hash, cp.edb_hash);
            assert_eq!(decoded.stratum, cp.stratum);
            assert_eq!(decoded.iteration, cp.iteration);
            assert_eq!(decoded.stratum_iter, cp.stratum_iter);
            assert_eq!(decoded.fe_safe_at, cp.fe_safe_at);
            assert_eq!(decoded.fe_safe_streak, cp.fe_safe_streak);
            assert_eq!(decoded.last_growing, cp.last_growing);
            assert_eq!(decoded.governor, cp.governor);
            assert_eq!(decoded.strata, cp.strata);
            assert_eq!(decoded.idb.len(), cp.idb.len());
            for (name, rel) in &cp.idb {
                let d = &decoded.idb[name];
                assert_eq!(d.len(), rel.len());
                assert!(d.equivalent(rel, itdb_lrp::DEFAULT_RESIDUE_BUDGET).unwrap());
            }
        }
        let without_log: Vec<Section> = cp
            .encode()
            .into_iter()
            .filter(|s| s.tag != SEC_DERIVATIONS)
            .collect();
        assert!(Checkpoint::decode(&without_log)
            .unwrap()
            .derivations
            .is_empty());
    }

    #[test]
    fn stale_hashes_are_typed_errors() {
        let cp = sample_checkpoint();
        assert!(cp.validate(cp.program_hash, cp.edb_hash).is_ok());
        assert!(matches!(
            cp.validate(cp.program_hash + 1, cp.edb_hash),
            Err(CheckpointError::StaleProgramHash { .. })
        ));
        assert!(matches!(
            cp.validate(cp.program_hash, cp.edb_hash + 1),
            Err(CheckpointError::StaleEdbHash { .. })
        ));
    }

    #[test]
    fn program_hash_tracks_source_changes() {
        let p1 = crate::parse_program("p[t+1] <- e[t].").unwrap();
        let p2 = crate::parse_program("p[t+2] <- e[t].").unwrap();
        let n1 = crate::normalize::normalize_program(&p1).unwrap();
        let n1b = crate::normalize::normalize_program(&p1).unwrap();
        let n2 = crate::normalize::normalize_program(&p2).unwrap();
        assert_eq!(hash_program(&n1), hash_program(&n1b), "deterministic");
        assert_ne!(hash_program(&n1), hash_program(&n2));
    }

    #[test]
    fn edb_hash_tracks_content_changes() {
        let mut db1 = crate::db::Database::new();
        db1.insert_parsed("e", "(6n+1)").unwrap();
        let mut db1b = crate::db::Database::new();
        db1b.insert_parsed("e", "(6n+1)").unwrap();
        let mut db2 = crate::db::Database::new();
        db2.insert_parsed("e", "(6n+2)").unwrap();
        assert_eq!(hash_database(&db1), hash_database(&db1b));
        assert_ne!(hash_database(&db1), hash_database(&db2));
    }

    #[test]
    fn save_load_round_trips_through_the_store() {
        let dir = std::env::temp_dir().join(format!("itdb_cp_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        let cp = sample_checkpoint();
        let w = save(&store, &cp.encode()).unwrap();
        let rec = load_latest(&store).unwrap();
        assert_eq!(rec.generation, w.generation);
        assert_eq!(rec.checkpoint.generation, Some(w.generation));
        assert_eq!(rec.checkpoint.iteration, cp.iteration);
        assert!(rec.skipped.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_is_no_checkpoint() {
        let dir = std::env::temp_dir().join(format!("itdb_cp_empty_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(matches!(
            load_latest(&store),
            Err(CheckpointError::NoCheckpoint)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
